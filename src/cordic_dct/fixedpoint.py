"""Two's-complement fixed-point formats and the arithmetic-mode switch.

The rotator core runs either in plain binary64 (``ArithmeticMode.exact``)
or on raw two's-complement integers with a configurable word length
(``ArithmeticMode.fixed``).  Fixed-point right shifts round toward
negative infinity, matching a hardware arithmetic shifter.  Out-of-range
results either saturate or raise, per the mode's overflow policy.

A mode is a pure value.  The datapath's cost is not kept on it: adds and
shifts come from a static cost model (``DctEngine.operation_counts``),
and the fixed-point transform returns the number of values it clipped
next to its output.  No kernel multiplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property


class FixedPointOverflowError(OverflowError):
    """A result left the representable range under OverflowPolicy.ERROR."""


class OverflowPolicy(Enum):
    ERROR = "error"
    SATURATE = "saturate"


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed fixed-point layout: ``total_bits`` wide, ``frac_bits`` fractional.

    The derived constants (rails, LSB, raw scale) are computed once per
    format, on first use: the scalar range check reads them on every call.
    """

    total_bits: int = 16
    frac_bits: int = 12

    def __post_init__(self):
        # Plain ints only: the raw arithmetic shifts by these, and the
        # safe input bound shifts the rails further than a NumPy integer
        # holds.
        for name in ("total_bits", "frac_bits"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not 8 <= self.total_bits <= 32:
            raise ValueError(f"total_bits {self.total_bits} outside [8, 32]")
        if not 0 <= self.frac_bits <= self.total_bits - 2:
            raise ValueError(
                f"frac_bits {self.frac_bits} outside [0, {self.total_bits - 2}]"
            )

    @cached_property
    def lsb(self) -> float:
        return 2.0 ** -self.frac_bits

    @cached_property
    def raw_scale(self) -> int:
        """Raw integers per unit, ``2**frac_bits``."""
        return 1 << self.frac_bits

    @cached_property
    def min_raw(self) -> int:
        return -(1 << (self.total_bits - 1))

    @cached_property
    def max_raw(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_value(self) -> float:
        return self.min_raw * self.lsb

    @property
    def max_value(self) -> float:
        return self.max_raw * self.lsb

    def to_raw(self, x: float) -> int:
        """Quantize ``x`` to a raw integer, rounding half away from zero.

        Range checking is left to the call site so the caller can apply
        its overflow policy.
        """
        scaled = x * self.raw_scale
        return int(math.floor(scaled + 0.5)) if scaled >= 0 else int(math.ceil(scaled - 0.5))

    def from_raw(self, raw: int) -> float:
        return raw * self.lsb


@dataclass(frozen=True)
class ArithmeticMode:
    """Either exact binary64 or fixed point with a format and overflow policy.

    ``fmt is None`` selects the exact-float variant; exactly one variant
    is ever active.
    """

    fmt: FixedPointFormat | None = None
    overflow: OverflowPolicy = OverflowPolicy.ERROR

    @property
    def is_fixed(self) -> bool:
        return self.fmt is not None

    @classmethod
    def exact(cls) -> "ArithmeticMode":
        return cls()

    @classmethod
    def fixed(
        cls,
        total_bits: int = 16,
        frac_bits: int = 12,
        overflow: OverflowPolicy = OverflowPolicy.ERROR,
    ) -> "ArithmeticMode":
        return cls(FixedPointFormat(total_bits, frac_bits), overflow)


def fit_raw(raw: int, mode: ArithmeticMode) -> int:
    """Clamp or reject a raw integer that fell outside the format range."""
    fmt = mode.fmt
    if fmt.min_raw <= raw <= fmt.max_raw:
        return raw
    if mode.overflow is OverflowPolicy.ERROR:
        raise FixedPointOverflowError(
            f"raw value {raw} outside [{fmt.min_raw}, {fmt.max_raw}] "
            f"for {fmt.total_bits}.{fmt.frac_bits} format"
        )
    return fmt.min_raw if raw < fmt.min_raw else fmt.max_raw
