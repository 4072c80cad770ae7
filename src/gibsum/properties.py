"""Property suites: the telescoping step S(n) - S(n-1) = summand(n), closed form
against oracle summand, and the classical point identities, both sides evaluated.
No CLI command uses them; the package imports this module on first use.
"""

from .errors import ZeroTermError
from .oracle import oracle_term
from .sequences import SequenceSpec, characteristic_e, lucas, term, window
from .verifier import VerificationReport, descriptor, effective_inputs, render_value


def check_telescoping(
    identity_id: str, spec: SequenceSpec, t: int, n_range: tuple[int, int]
) -> list[VerificationReport]:
    """Verify S(n) - S(n-1) = term(n) for each n in the inclusive range.

    The left side uses only the closed form, the right side only the
    brute-force summand. The range is clipped so both S(n) and S(n-1) lie
    in the identity's n-domain. Points where either side hits a zero term
    pass vacuously with the error recorded.
    """
    desc = descriptor(identity_id)
    spec, t = effective_inputs(desc, spec, t)
    lo, hi = n_range
    if desc.min_n is not None:
        lo = max(lo, desc.min_n + 1)
    reports = []
    for n in range(lo, hi + 1):
        try:
            diff = desc.closed(spec, t, n) - desc.closed(spec, t, n - 1)
            expected = desc.from_oracle(oracle_term(desc.kind, spec, t, n))
        except ZeroTermError as exc:
            reports.append(VerificationReport(
                desc.id, spec.g0, spec.g1, t, n,
                closed=None, oracle=None, match=True, error=str(exc),
            ))
            continue
        reports.append(VerificationReport(
            desc.id, spec.g0, spec.g1, t, n,
            closed=render_value(diff), oracle=render_value(expected),
            match=diff == expected,
        ))
    return reports


# the one-index point identities at r: id -> (left side, right side) from
# g (G(r-2) .. G(r+2), keyed -2 .. 2), s = (-1)^r and the constant e
_ONE_INDEX = {
    "vajda28": lambda g, s, e: (g[0] * g[2], g[1] ** 2 + s * e),
    "catalan_shift2": lambda g, s, e: (g[-2] * g[2], g[0] ** 2 + s * e),
    "doubling_sub": lambda g, s, e: (g[2] - g[-1], 2 * g[0]),
    "doubling_add": lambda g, s, e: (g[2] + g[-1], 2 * g[1]),
    "square_window_sum": lambda g, s, e: ((g[0] * g[1] * g[2]) ** 2 + (g[-1] * g[0] * g[1]) ** 2,
                                          2 * g[0] ** 4 * g[1] ** 2 + 2 * g[1] ** 4 * g[0] ** 2),
    "square_window_diff": lambda g, s, e: ((g[0] * g[1] * g[2]) ** 2 - (g[-1] * g[0] * g[1]) ** 2,
                                           4 * g[0] ** 3 * g[1] ** 3),
}

POINT_IDENTITY_IDS = (*_ONE_INDEX, "vajda10a")


def check_point_identities(
    spec: SequenceSpec, r_range: tuple[int, int], s_range: tuple[int, int]
) -> list[VerificationReport]:
    """Evaluate both sides of the classical point identities over a grid.

    Reports reuse the sweep shape: the identity's r lands in the t field and
    (for the two-index identity vajda10a) s lands in the n field; closed
    holds the left side, oracle the right.
    """
    e = characteristic_e(spec)

    def report(pid, r, s, left, right):
        closed, oracle = render_value(left), render_value(right)
        return VerificationReport(pid, spec.g0, spec.g1, r, s, closed, oracle, left == right)

    reports = []
    for r in range(r_range[0], r_range[1] + 1):
        g = dict(zip(range(-2, 3), window(spec, r - 2, 5)))
        sign = -1 if r % 2 else 1  # (-1)^r
        reports += [report(pid, r, 0, *sides(g, sign, e)) for pid, sides in _ONE_INDEX.items()]
        for s in range(s_range[0], s_range[1] + 1):
            s_sign = -1 if s % 2 else 1  # (-1)^s
            left = term(spec, r + s) + s_sign * term(spec, r - s)
            reports.append(report("vajda10a", r, s, left, lucas(s) * g[0]))
    return reports
