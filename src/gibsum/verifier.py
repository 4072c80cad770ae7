"""Identity registry and closed-form-vs-oracle sweeps.

The registry binds each identity id to its summand family and its validity
domain (fixed seeds, fixed shift, smallest supported n); a special's are
read from its closed_forms.SPECIALS row. Each entry evaluates its family's
public general form, _FORMS[kind]. It is the one list of identities.
verify_one() compares one grid point, and sweep() walks a whole grid in a
fixed deterministic order.
"""

from __future__ import annotations

from fractions import Fraction

from . import closed_forms
from .errors import DomainError, UnknownIdentityError, ZeroTermError
from .oracle import SummandKind, oracle_sum, oracle_walk
from .render import decimal_text, exact_context, integer_text, to_decimal
from .sequences import SequenceSpec

try:  # json.dumps's own escaper, without loading json: verify never needs it
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

ExactValue = int | Fraction


def render_value(value: ExactValue) -> str:
    """Canonical text form: integers as decimals, others as reduced "p/q"."""
    if type(value) is int:
        return decimal_text(value)
    f = Fraction(value)
    if f.denominator == 1:
        return decimal_text(f.numerator)
    return f"{decimal_text(f.numerator)}/{decimal_text(f.denominator)}"


TSV_COLUMNS = ("identity", "g0", "g1", "t", "n", "closed", "oracle", "match", "error")


class VerificationReport:
    """One closed-form-vs-oracle comparison at one point; match None = nothing compared."""

    __slots__ = TSV_COLUMNS

    def __init__(
        self, identity: str, g0: int, g1: int, t: int, n: int, closed: str | None,
        oracle: str | None, match: bool | None, error: str | None = None,
    ):
        self.identity, self.g0, self.g1, self.t, self.n = identity, g0, g1, t, n
        self.closed, self.oracle, self.match, self.error = closed, oracle, match, error

    def __eq__(self, other):
        if type(other) is not VerificationReport:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in TSV_COLUMNS)

    def __repr__(self):
        return f"VerificationReport({', '.join(f'{k}={getattr(self, k)!r}' for k in TSV_COLUMNS)})"

    def as_dict(self) -> dict:
        # seeds and values as strings: arbitrary-precision integers do not
        # survive as native JSON numbers in common consumers
        return {
            "identity": self.identity,
            "g0": decimal_text(self.g0),
            "g1": decimal_text(self.g1),
            "t": self.t,
            "n": self.n,
            "closed": self.closed,
            "oracle": self.oracle,
            "match": self.match,
            "error": self.error,
        }

    def as_json_row(self) -> str:
        """json.dumps(self.as_dict()), formatted directly."""
        identity, closed, oracle, error = (
            "null" if text is None else encode_basestring_ascii(text)
            for text in (self.identity, self.closed, self.oracle, self.error)
        )
        match = "null" if self.match is None else "true" if self.match else "false"
        return (
            f'{{"identity": {identity}, "g0": "{decimal_text(self.g0)}", '
            f'"g1": "{decimal_text(self.g1)}", "t": {self.t}, "n": {self.n}, '
            f'"closed": {closed}, "oracle": {oracle}, "match": {match}, "error": {error}}}'
        )

    def as_tsv_row(self) -> str:
        cells = (
            self.identity,
            decimal_text(self.g0),
            decimal_text(self.g1),
            str(self.t),
            str(self.n),
            self.closed or "",
            self.oracle or "",
            "" if self.match is None else "true" if self.match else "false",
            self.error or "",
        )
        return "\t".join(cells)


class GridSpec:
    """Sweep domain: seed pairs and inclusive t and n intervals."""

    __slots__ = ("seeds", "t_range", "n_range")

    def __init__(
        self, seeds: tuple[tuple[int, int], ...], t_range: tuple[int, int], n_range: tuple[int, int]
    ):
        if not seeds:
            raise ValueError("grid needs at least one seed pair")
        for g0, g1 in seeds:
            SequenceSpec(g0, g1)  # rejects (0, 0)
        for name, (lo, hi) in (("t", t_range), ("n", n_range)):
            if lo > hi:
                raise ValueError(f"empty {name} range {lo}..{hi}")
        self.seeds, self.t_range, self.n_range = seeds, t_range, n_range


class IdentityDescriptor:
    """Registry entry: an identity id, its summand family and its domain.

    seeds, fixed_t and min_n fix the seeds, the shift and the least n (None
    = free); the closed form is the oracle's sum over divisor. A special's
    kind and domain come from its closed_forms.SPECIALS row, the one
    declaration. Both sides go through the entry: closed() evaluates
    _FORMS[kind], oracle() sums the family with oracle_sum, each with the
    entry's seeds, shift, domain and divisor. Immutable, compared by identity.
    """

    __slots__ = (
        "id", "summand", "closed_form", "source", "kind", "seeds", "fixed_t", "min_n", "divisor")
    __dataclass_fields__ = {}  # perfbench/tracer.py calls dataclasses.fields() on each entry

    def __init__(self, id: str, summand: str, closed_form: str, source: str, kind=None):
        form, *domain = closed_forms.SPECIALS.get(id, _GENERAL)
        kind = next((k for k, f in _FORMS.items() if f is form), kind)
        for name, value in zip(self.__slots__, (id, summand, closed_form, source, kind, *domain)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"IdentityDescriptor({', '.join(f'{k}={getattr(self, k)!r}' for k in self.__slots__)})"

    def require_n(self, n: int) -> None:
        """Refuse n below the entry's domain."""
        if self.min_n is not None and n < self.min_n:
            raise DomainError(f"identity {self.id} requires n >= {self.min_n}, got {n}")

    def from_oracle(self, total: ExactValue) -> ExactValue:
        """The closed form's value given the oracle's sum of summands."""
        return total if self.divisor == 1 else Fraction(total, self.divisor)

    def closed(self, spec: SequenceSpec, t: int, n: int) -> ExactValue:
        """The closed form at (spec, t, n), ignoring the arguments the entry fixes."""
        spec, t = effective_inputs(self, spec, t)
        return self._value(spec, t, n)

    def oracle(self, spec: SequenceSpec, t: int, n: int) -> ExactValue:
        """The oracle's sum at (spec, t, n) over divisor, ignoring the arguments the entry fixes."""
        spec, t = effective_inputs(self, spec, t)
        self.require_n(n)
        return self.from_oracle(oracle_sum(self.kind, spec, t, n))

    def closed_text(self, spec: SequenceSpec, t: int, n: int) -> str:
        """render_value(self.closed(spec, t, n)), the same text or error.

        An integer sum is computed and printed in Decimal from the seeds up,
        never converted: libmpdec multiplies by NTT where int uses Karatsuba.
        """
        spec, t = effective_inputs(self, spec, t)
        if self.kind is SummandKind.RECIPROCAL_WINDOW:
            return render_value(self._value(spec, t, n))
        with exact_context():
            seeds = SequenceSpec(to_decimal(spec.g0), to_decimal(spec.g1))
            return integer_text(self._value(seeds, t, n))

    def _value(self, spec: SequenceSpec, t: int, n: int):
        self.require_n(n)
        return closed_forms._exact_div(_FORMS[self.kind](spec, t, n), self.divisor, self.id)


_GENERAL = (None, None, None, None, 1)  # a seed-free entry's row: no fixed domain, divisor 1

_FORMS = {  # each summand family's public general form
    SummandKind.SIXTH_POWER: closed_forms.sum_sixth_closed,
    SummandKind.SQUARE: closed_forms.sum_squares_closed,
    SummandKind.ALT_FIFTH_NEIGHBOR: closed_forms.alt_sum_fifth_closed,
    SummandKind.CUBE_PRODUCT: closed_forms.sum_cubes_product_closed,
    SummandKind.RECIPROCAL_WINDOW: closed_forms.recip_sum_closed,
}


REGISTRY: tuple[IdentityDescriptor, ...] = (
    IdentityDescriptor(
        id="sum_g6",
        kind=SummandKind.SIXTH_POWER,
        summand="G(j+t)^6",
        closed_form="[G(n+t)^5 G(n+t+3) - G(t)^5 G(t+3) + e^2 (G(n+t)(G(n+t+1)+G(n+t-1)) - G(t)(G(t+1)+G(t-1)))] / 4",
        source="extends the Fibonacci/Lucas sixth-power sums of Ohtsuka and Nakamura (2010)",
    ),
    IdentityDescriptor(
        id="sum_g2",
        kind=SummandKind.SQUARE,
        summand="G(j+t)^2",
        closed_form="G(n+t) G(n+t+1) - G(t) G(t+1)",
        source="classical telescoping of consecutive-term products",
    ),
    IdentityDescriptor(
        id="alt_g5",
        kind=SummandKind.ALT_FIFTH_NEIGHBOR,
        summand="(-1)^(j-1) G(j+t)^5 (G(j+t+1) + G(j+t-1))",
        closed_form="(-1)^(n+1)/2 P(n+t) + 1/2 P(t) + (-1)^n Q(n+t) - Q(t), P(m) = (G(m)G(m+1)G(m+2))^2, Q(m) = G(m+1)^4 G(m)^2",
        source="alternating telescoping over the squared triple-product window",
    ),
    IdentityDescriptor(
        id="sum_g3g3",
        kind=SummandKind.CUBE_PRODUCT,
        summand="G(j+t)^3 G(j+t+1)^3",
        closed_form="(P(n+t) - P(t)) / 4",
        source="extends the cube-product sums of Treeby (2016)",
    ),
    IdentityDescriptor(
        id="recip",
        kind=SummandKind.RECIPROCAL_WINDOW,
        summand="1 / (G(j+t-1)^2 G(j+t) G(j+t+1) G(j+t+2)^2)",
        closed_form="(1/P(t) - 1/P(n+t)) / 4",
        source="reciprocal companion of the cube-product telescoping",
    ),
    IdentityDescriptor(
        id="fib6",
        summand="F(j+t)^6",
        closed_form="[F(n+t)^5 F(n+t+3) - F(t)^5 F(t+3) + F(2n+2t) - F(2t)] / 4",
        source="Ohtsuka and Nakamura (2010), shifted form",
    ),
    IdentityDescriptor(
        id="lucas6",
        summand="L(j+t)^6",
        closed_form="[L(n+t)^5 L(n+t+3) - L(t)^5 L(t+3) + 125 (F(2n+2t) - F(2t))] / 4",
        source="Ohtsuka and Nakamura (2010), shifted form",
    ),
    IdentityDescriptor(
        id="fib_alt_f5l",
        summand="(-1)^(j-1) F(j)^5 L(j)",
        closed_form="(-1)^n / 2 F(n)^2 F(n+1)^2 (F(n+1)^2 - F(n) F(n+3))",
        source="specialization of alt_g5 at Fibonacci seeds; leading sign corrected (see README)",
    ),
    IdentityDescriptor(
        id="lucas_alt_l5f",
        summand="(-1)^(j-1) L(j)^5 F(j)",
        closed_form="(-1)^n / 10 L(n)^2 L(n+1)^2 (L(n+1)^2 - L(n) L(n+3)) + 14/5",
        source="specialization of alt_g5 at Lucas seeds; leading sign corrected (see README)",
    ),
    IdentityDescriptor(
        id="treeby_f3",
        summand="F(j)^3 F(j+1)^3",
        closed_form="F(n)^2 F(n+1)^2 F(n+2)^2 / 4",
        source="Treeby (2016)",
    ),
    IdentityDescriptor(
        id="treeby_l3",
        summand="L(j)^3 L(j+1)^3",
        closed_form="L(n)^2 L(n+1)^2 L(n+2)^2 / 4 - 9",
        source="Treeby (2016)",
    ),
    IdentityDescriptor(
        id="recip_fib",
        summand="1 / (F(j)^2 F(j+1) F(j+2) F(j+3)^2)",
        closed_form="(1/4 - 1/(F(n+1) F(n+2) F(n+3))^2) / 4",
        source="reciprocal companion of Treeby (2016), Fibonacci seeds",
    ),
    IdentityDescriptor(
        id="recip_lucas",
        summand="1 / (L(j)^2 L(j+1) L(j+2) L(j+3)^2)",
        closed_form="(1/144 - 1/(L(n+1) L(n+2) L(n+3))^2) / 4",
        source="reciprocal companion of Treeby (2016), Lucas seeds",
    ),
)

_BY_ID = {d.id: d for d in REGISTRY}


def identity_ids() -> tuple[str, ...]:
    return tuple(d.id for d in REGISTRY)


def descriptor(identity_id: str) -> IdentityDescriptor:
    try:
        return _BY_ID[identity_id]
    except KeyError:
        raise UnknownIdentityError(
            f"unknown identity {identity_id!r}; known: {', '.join(identity_ids())}"
        ) from None


def effective_inputs(desc: IdentityDescriptor, spec: SequenceSpec, t: int) -> tuple[SequenceSpec, int]:
    """Substitute the descriptor's fixed seeds and shift, where present."""
    if desc.seeds is not None:
        spec = desc.seeds
    if desc.fixed_t is not None:
        t = desc.fixed_t
    return spec, t


def _compare(
    desc: IdentityDescriptor, spec: SequenceSpec, t: int, n: int,
    outcome: ExactValue | ZeroTermError,
) -> VerificationReport:
    """The report at one point, given the oracle_walk outcome at its n."""
    closed_value = closed_err = None
    try:
        closed_value = desc._value(spec, t, n)
    except ZeroTermError as exc:
        closed_err = str(exc)
    oracle_value = oracle_err = None
    if isinstance(outcome, ZeroTermError):
        oracle_err = str(outcome)
    else:
        oracle_value = desc.from_oracle(outcome)
    if closed_err is None and oracle_err is None:
        match, error = closed_value == oracle_value, None
    elif closed_err == oracle_err:
        match, error = True, closed_err  # the identity holds wherever it is defined
    else:
        match, error = False, f"closed: {closed_err or 'ok'}; oracle: {oracle_err or 'ok'}"
    closed = None if closed_value is None else render_value(closed_value)
    if match and error is None:
        oracle = closed  # render_value is canonical: equal values, equal text
    else:
        oracle = None if oracle_value is None else render_value(oracle_value)
    return VerificationReport(desc.id, spec.g0, spec.g1, t, n, closed, oracle, match, error)


def _line(
    desc: IdentityDescriptor, spec: SequenceSpec, t: int, n_lo: int, n_hi: int
) -> list[VerificationReport]:
    """Reports for n in n_lo..n_hi at fixed (seeds, t), from one oracle walk.

    Points below the identity's n-domain pass vacuously and are not summed.
    """
    start = n_lo if desc.min_n is None else max(n_lo, desc.min_n)
    reports = [
        VerificationReport(
            desc.id, spec.g0, spec.g1, t, n,
            closed=None, oracle=None, match=True,
            error=f"domain: requires n >= {desc.min_n}",
        )
        for n in range(n_lo, min(start, n_hi + 1))
    ]
    if start <= n_hi:
        outcomes = oracle_walk(desc.kind, spec, t, start, n_hi)
        reports += [
            _compare(desc, spec, t, n, outcome)
            for n, outcome in zip(range(start, n_hi + 1), outcomes)
        ]
    return reports


def verify_one(identity_id: str, spec: SequenceSpec, t: int, n: int) -> VerificationReport:
    """Compare the closed form against the brute-force sum at one point.

    Outside the identity's n-domain the point passes vacuously with an
    explanatory error. When both sides fail with the identical zero-term
    error the point also passes vacuously (the identity holds wherever it
    is defined); differing errors are a mismatch.
    """
    return sweep(identity_id, GridSpec((spec.seeds,), (t, t), (n, n)))[0]


def sweep(identity_id: str, grid: GridSpec) -> list[VerificationReport]:
    """One report per grid point, in (seeds, t, n) order.

    Each (seeds, t) line is summed by one oracle walk over the whole
    n-range, so a line costs O(length) summands rather than O(n) per point.
    Dimensions the identity fixes (seeds, shift) collapse to their fixed
    value, so a seed-fixed identity yields one report per (t, n) no matter
    how many seed pairs the grid lists.
    """
    desc = descriptor(identity_id)
    seed_pairs = grid.seeds if desc.seeds is None else (desc.seeds.seeds,)
    t_lo, t_hi = grid.t_range if desc.fixed_t is None else (desc.fixed_t, desc.fixed_t)
    return [
        report
        for g0, g1 in seed_pairs
        for t in range(t_lo, t_hi + 1)
        for report in _line(desc, SequenceSpec(g0, g1), t, *grid.n_range)
    ]
