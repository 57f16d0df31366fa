"""Two's-complement fixed-point formats, the arithmetic-mode switch, and
the input boundary of both datapaths.

The rotator core runs either in plain binary64 (``ArithmeticMode.exact``)
or on raw two's-complement integers with a configurable word length
(``ArithmeticMode.fixed``).  Fixed-point right shifts round toward
negative infinity, matching a hardware arithmetic shifter.  A value
enters the word by one rounding rule, ``_round_half_away``, for one
number and for an array alike.  Out-of-range results either saturate or
raise, per the mode's overflow policy, which only this module reads:
:func:`fit_raw` for one value, ``_fit_array`` for an array.  The check
stays two functions because one would branch on the type at its
reduction, its count, its message and its clamp, and the two messages
differ.

The scalar rotator and the DCT cross into their datapaths here, the same
way: :func:`check_input` refuses input that is not real, non-finite or
beyond :func:`datapath_limit`, and in fixed point :func:`run_raw`
quantizes the input into the word, runs the caller's raw graph with the
word's range check on every node the caller has not proved to stay in the
word, and counts what it clipped.

A mode is a pure value.  The datapath's cost is not kept on it: adds and
shifts come from a static cost model (``DctEngine.operation_counts``),
and the fixed-point transform returns the number of values it clipped
next to its output.  No kernel multiplies.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np


class FixedPointOverflowError(OverflowError):
    """A result left the representable range under OverflowPolicy.ERROR."""


class OverflowPolicy(Enum):
    ERROR = "error"
    SATURATE = "saturate"


# The largest double below 1/2.  Adding it and truncating rounds half away
# from zero exactly: adding 1/2 itself rounds the sum up for this value
# (to 1.0) and for odd integers in [2**52, 2**53) (to the next even one),
# while a tie k + 1/2 still sums to k + 1 - 2**-54, which rounds to k + 1.
_BELOW_HALF = 0.49999999999999994


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

    def to_raw(self, x: float) -> int:
        """Quantize ``x`` to a raw integer, rounding half away from zero.

        Range checking is left to the call site so the caller can apply
        its overflow policy.
        """
        return _round_half_away(x * self.raw_scale)


def _round_half_away(v):
    """Round to the nearest integer, ties away from zero: ``trunc(v + h)``,
    where ``h`` is ``_BELOW_HALF`` with the sign of ``v``.  The one
    quantizer of both datapaths: a Python number gives a Python int, by
    ``math``; a float64 array gives an integral float64 array, by ``np``,
    which the caller range-checks before it casts it to int64.
    """
    lib = np if type(v) is np.ndarray else math
    return lib.trunc(v + lib.copysign(_BELOW_HALF, v))


@dataclass(frozen=True)
class ArithmeticMode:
    """Either exact binary64 or fixed point with a format and overflow policy.

    ``fmt is None`` selects the exact-float variant; exactly one variant
    is ever active.
    """

    fmt: FixedPointFormat | None = None
    overflow: OverflowPolicy = OverflowPolicy.ERROR

    def __post_init__(self):
        # Every check branches on these by identity: a look-alike value
        # such as the string "error" would take the other branch.
        if self.fmt is not None and not isinstance(self.fmt, FixedPointFormat):
            raise ValueError(f"fmt must be None or a FixedPointFormat, got {self.fmt!r}")
        if not isinstance(self.overflow, OverflowPolicy):
            raise ValueError(f"overflow must be an OverflowPolicy, got {self.overflow!r}")

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


def _fit_array(raw: np.ndarray, mode: ArithmeticMode) -> tuple[np.ndarray, int]:
    """Clamp or reject the values of ``raw`` outside the word; also return
    how many were clamped.  Within the rails that is ``raw`` itself and 0,
    found by two reductions that make no temporary."""
    fmt = mode.fmt
    if fmt.min_raw <= raw.min(initial=0) and raw.max(initial=0) <= fmt.max_raw:
        return raw, 0
    low = (raw < fmt.min_raw)
    high = (raw > fmt.max_raw)
    n_out = int(low.sum()) + int(high.sum())
    if n_out:
        if mode.overflow is OverflowPolicy.ERROR:
            raise FixedPointOverflowError(
                f"{n_out} value(s) outside {fmt.total_bits}.{fmt.frac_bits} range"
            )
        raw = np.clip(raw, fmt.min_raw, fmt.max_raw)
    return raw, n_out


# Headroom the input limits leave below binary64 overflow: it covers the
# rounding of a growth bound and of the values it bounds, and keeps the
# outputs small enough for a caller to subtract a reference from them.
OVERFLOW_MARGIN = 2.0


def overflow_limit(growth: float) -> float:
    """Largest input magnitude for a computation whose values are at most
    ``growth`` times its largest input: ``DBL_MAX / (OVERFLOW_MARGIN * growth)``."""
    return sys.float_info.max / (OVERFLOW_MARGIN * growth)


def datapath_limit(mode: ArithmeticMode, float_limit) -> float:
    """Largest input magnitude a datapath in ``mode`` accepts.  Fixed point:
    :func:`overflow_limit` of the quantizing multiply by ``2**frac_bits``,
    the one float operation before the range-checked integers.  Float:
    ``float_limit()``, the caller's growth limit, called only then."""
    if mode.is_fixed:
        return overflow_limit(float(mode.fmt.raw_scale))
    return float_limit()


# The real scalars, of the dtype kinds ``dct8._real`` takes (a bool is an
# int).  Concrete types: ``numbers.Real`` costs several times more per value.
_INTEGER = (int, np.integer)
_REAL = (float, *_INTEGER, np.floating, np.bool_)


def check_input(values, limit: float, message) -> None:
    """Refuse datapath input: raise ``ValueError`` on a value of ``values``
    (a list of Python numbers, or a NumPy array) that is not a real number
    (``_REAL``: a complex, a string, ``None``, a datetime), and with
    ``message(limit)`` on one that is non-finite or beyond ``limit``."""
    if not isinstance(values, list):  # two reductions and no temporary
        values = (values.min(initial=limit), values.max(initial=-limit))
    for v in values:
        if not isinstance(v, _REAL):
            raise ValueError(f"expected real values, got {v!r}")
        if not -limit <= v <= limit:  # NaN fails every comparison
            raise ValueError(message(limit))


def _unchecked(value):
    return value


def run_raw(values, mode: ArithmeticMode, graph, thresholds: tuple | None):
    """Quantize ``values`` into the word of ``mode``, run ``graph(raw,
    fit)`` on the raw integers and return its raw outputs and the number of
    values clipped, at quantization and by ``fit``.

    ``values`` is a list of Python numbers or a float64 array, quantized
    alike by ``_round_half_away`` (:meth:`FixedPointFormat.to_raw` per
    number): into Python ints checked by :func:`fit_raw`, or an array
    checked by ``_fit_array`` before its cast to int64.  An int64 array is
    taken as raw words a graph in this word returned, in the word already:
    run as they are, they clip nothing, and their peak is the one
    quantizing them again would give.  ``graph`` passes each node it
    forms, each value that could leave the word, through ``fit``, and
    ``fit`` checks node ``i``, the ``i``-th, only when the input's
    ``max|raw|`` exceeds ``thresholds[0][i]``: at or below it the caller
    has proved that node ``i`` stays in the word.  The rule is the same for
    ints and arrays.  ``thresholds`` is that tuple with its least value, so
    a call whose peak is at or below it checks no node without a per-node
    lookup; ``None`` checks every node.
    """
    fmt = mode.fmt
    clipped = 0
    if isinstance(values, list):
        def check(raw):
            nonlocal clipped
            fitted = fit_raw(raw, mode)
            clipped += fitted != raw
            return fitted

        raw = [fmt.to_raw(v) for v in values]
        peak = max(map(abs, raw))
        if peak > fmt.max_raw:
            raw = [check(r) for r in raw]
    else:
        def check(raw):
            nonlocal clipped
            raw, n = _fit_array(raw, mode)
            clipped += n
            return raw

        if values.dtype == np.int64:
            raw = values
            peak = int(np.abs(raw).max(initial=0))
        else:
            raw = _round_half_away(values * float(fmt.raw_scale))
            peak = float(np.abs(raw).max(initial=0.0))
            if peak > fmt.max_raw:
                # Range-check while still in float: casting a float beyond int64 is
                # undefined (INT64_MIN on x86, whatever the sign).
                raw = check(raw)
            raw = raw.astype(np.int64)
    out = graph(raw, _node_fit(check, peak, thresholds))
    return out, clipped


def _node_fit(check, peak, thresholds):
    """The ``fit`` of :func:`run_raw`: ``check`` on each node whose
    threshold ``peak`` exceeds, :func:`_unchecked` on the others."""
    if thresholds is None:
        return check
    per_node, least = thresholds
    if peak <= least:
        return _unchecked
    fits = iter([check if peak > t else _unchecked for t in per_node])
    return lambda raw: next(fits)(raw)
