"""Exception types shared across the package."""

from __future__ import annotations

from .render import decimal_text


class ZeroTermError(ArithmeticError):
    """A sequence term inside a reciprocal sum's index window is zero.

    The sum is undefined at such a grid point; ``index`` names the
    offending sequence index (a sequence has at most one zero term).
    """

    def __init__(self, index: int, seeds: tuple[int, int] | None = None):
        self.index = index
        self.seeds = seeds
        where = ""
        if seeds is not None:
            where = f" for seeds ({decimal_text(seeds[0])}, {decimal_text(seeds[1])})"
        super().__init__(f"zero term at index {index}{where}")

    def __reduce__(self):
        # args holds the message: copy and pickle rebuild from the fields
        return type(self), (self.index, self.seeds)


class IntegralityError(ArithmeticError):
    """An integer-valued closed form failed its exact-divisibility check.

    This signals an implementation or transcription bug, never a bad input:
    every integer-valued identity divides exactly for all valid arguments.
    """


class DomainError(ValueError):
    """Arguments fall outside an operation's validity domain."""


class UnknownIdentityError(LookupError):
    """Identity id not present in the registry."""
