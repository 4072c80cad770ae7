"""Identity registry and closed-form-vs-oracle sweeps.

The registry binds each identity id to its summand family and its validity
domain (fixed seeds, fixed shift, smallest supported n). Every entry is
built the same way, from the id's row of closed_forms.CATALOG, the one list
of identities, and evaluates its family's public general form, _FORMS[kind].
verify_one() compares one grid point, and sweep() walks a whole grid in a
fixed deterministic order.
"""

from __future__ import annotations

from . import closed_forms
from .errors import DomainError, IntegralityError, UnknownIdentityError, ZeroTermError
from .oracle import SummandKind, oracle_sum, oracle_walk
from .render import decimal_text, exact_context, integer_text, to_decimal
from .sequences import SequenceSpec

try:  # json.dumps's own escaper, without loading json: verify never needs it
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

# exact values are int | fractions.Fraction; fractions loads only where one is made


def render_value(value: int | Fraction) -> str:
    """Canonical text form: integers as decimals, others as reduced "p/q"."""
    if type(value) is int:
        return decimal_text(value)
    import fractions

    f = fractions.Fraction(value)
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
        row = {name: getattr(self, name) for name in TSV_COLUMNS}
        row["g0"], row["g1"] = decimal_text(self.g0), decimal_text(self.g1)
        return row

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
        return "\t".join(
            "" if value is None else str(value).lower() if type(value) is bool else str(value)
            for value in self.as_dict().values()
        )


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

    Built from the id's closed_forms.CATALOG row alone. seeds, fixed_t and
    min_n fix the seeds, the shift and the least n (None = free); the closed
    form is the oracle's sum over divisor; kind is the family whose _FORMS
    entry is the row's general form. Both sides go through the entry:
    closed() evaluates _FORMS[kind], oracle() sums the family with
    oracle_sum, each with the entry's seeds, shift, domain and divisor.
    Immutable, compared by identity.
    """

    __slots__ = (
        "id", "summand", "closed_form", "source", "kind", "seeds", "fixed_t", "min_n", "divisor")
    __dataclass_fields__ = {}  # perfbench/tracer.py calls dataclasses.fields() on each entry

    def __init__(self, id: str):
        form, seeds, fixed_t, min_n, divisor, summand, closed_form, source = closed_forms.CATALOG[id]
        kind = next(k for k, f in _FORMS.items() if f is form)
        fields = locals()  # each slot is the local of its name
        for name in self.__slots__:
            object.__setattr__(self, name, fields[name])

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

    def from_oracle(self, total: int | Fraction) -> int | Fraction:
        """The closed form's value given the oracle's sum of summands."""
        if self.divisor == 1:
            return total
        import fractions

        return fractions.Fraction(total, self.divisor)

    def closed(self, spec: SequenceSpec, t: int, n: int) -> int | Fraction:
        """The closed form at (spec, t, n), ignoring the arguments the entry fixes."""
        spec, t = effective_inputs(self, spec, t)
        return self._value(spec, t, n)

    def oracle(self, spec: SequenceSpec, t: int, n: int) -> int | Fraction:
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


_FORMS = {  # each summand family's public general form
    SummandKind.SIXTH_POWER: closed_forms.sum_sixth_closed,
    SummandKind.SQUARE: closed_forms.sum_squares_closed,
    SummandKind.ALT_FIFTH_NEIGHBOR: closed_forms.alt_sum_fifth_closed,
    SummandKind.CUBE_PRODUCT: closed_forms.sum_cubes_product_closed,
    SummandKind.RECIPROCAL_WINDOW: closed_forms.recip_sum_closed,
}

REGISTRY: tuple[IdentityDescriptor, ...] = tuple(map(IdentityDescriptor, closed_forms.CATALOG))
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
    outcome: int | Fraction | ZeroTermError,
) -> VerificationReport:
    """The report at one point, given the oracle_walk outcome at its n."""
    closed_value = closed_err = None
    try:
        closed_value = desc._value(spec, t, n)
    except (ZeroTermError, IntegralityError) as exc:  # the latter only from a broken form
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
