"""Exact evaluation and oracle-backed verification of gibonacci power-sum identities.

A gibonacci sequence follows the Fibonacci recurrence from arbitrary integer
seeds (G0, G1), not both zero. This package evaluates closed forms for sums
of squares, sixth powers, alternating fifth-power products, cube products,
and reciprocal windows of such sequences in exact arithmetic, and checks
every closed form against an independent brute-force oracle.
"""

from .closed_forms import (
    alt_sum_fifth_closed,
    fib_alt_f5l_closed,
    fib_sixth_closed,
    lucas_alt_l5f_closed,
    lucas_sixth_closed,
    recip_fib_special,
    recip_lucas_special,
    recip_sum_closed,
    sum_cubes_product_closed,
    sum_sixth_closed,
    sum_squares_closed,
    treeby_f3_closed,
    treeby_l3_closed,
)
from .errors import DomainError, IntegralityError, UnknownIdentityError, ZeroTermError
from .oracle import SummandKind, oracle_sum, oracle_term
from .sequences import (
    FIBONACCI,
    LUCAS,
    SequenceSpec,
    characteristic_e,
    fib,
    first_zero_in_window,
    lucas,
    reciprocal_window,
    term,
    term_naive,
)
from .verifier import (
    REGISTRY,
    TSV_COLUMNS,
    GridSpec,
    IdentityDescriptor,
    VerificationReport,
    descriptor,
    effective_inputs,
    identity_ids,
    render_value,
    sweep,
    verify_one,
)

__version__ = "0.1.0"
