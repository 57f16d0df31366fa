"""Rotator tests: micro-rotation kernels, plan matrices, CSD scaling,
fixed-point arithmetic semantics and instrumentation."""

import math
import re
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cordic_dct.fixedpoint import (
    ArithmeticMode,
    FixedPointFormat,
    FixedPointOverflowError,
    OverflowPolicy,
    _round_half_away,
    _unchecked,
    fit_raw,
)
from cordic_dct.dct8 import DctEngine
from cordic_dct.planner import MicroRotation, decompose
from cordic_dct.rotator import (
    CsdScale,
    CsdToleranceError,
    Matrix2,
    Vector2,
    apply_plan,
    csd_scale,
    ideal_rotation_matrix,
    micro_rotate,
    overflow_limit,
    plan_matrix,
    rotate_float,
    rotate_raw,
)

PI = math.pi
WORDS = [(8, 4), (16, 12), (32, 20)]
POLICIES = [OverflowPolicy.ERROR, OverflowPolicy.SATURATE]


def exact_round_half_away(x) -> int:
    """``x`` (a float, or an exact ``Fraction``) rounded to the nearest
    integer, ties away from zero, in exact rational arithmetic."""
    magnitude = math.floor(abs(Fraction(x)) + Fraction(1, 2))
    return magnitude if x >= 0 else -magnitude


# Ties, their neighbours and the band [2**52, 2**53), where adding 0.5 in
# binary64 rounds an odd integer up to the next even one.
ROUNDING_EDGES = [0.5, -0.5, 0.49999999999999994, -0.49999999999999994,
                  math.nextafter(0.5, 1.0), 1.5, -2.5, 2.0 ** 51 + 0.5, 2.0 ** 52 - 0.5,
                  2.0 ** 52 + 1, -(2.0 ** 52 + 1), 2.0 ** 53 - 1, 0.0]


def near_ties():
    """Multiples of one half, and their neighbours one ULP either way."""
    return st.tuples(
        st.integers(-(2 ** 54), 2 ** 54).map(lambda h: h / 2),
        st.sampled_from([None, -math.inf, math.inf]),
    ).map(lambda t: t[0] if t[1] is None else math.nextafter(*t))


class TestMicroRotate:
    def test_unit_x_index_zero(self):
        out = micro_rotate(Vector2(1.0, 0.0), MicroRotation(0, 1))
        assert (out.x, out.y) == (1.0, 1.0)

    def test_negative_direction_half_shift(self):
        out = micro_rotate(Vector2(1.0, 1.0), MicroRotation(1, -1))
        assert (out.x, out.y) == (1.5, 0.5)

    def test_five_step_chain_matches_composite_matrix(self):
        plan = decompose(PI / 16, 1e-4)
        v = Vector2(1.0, 0.0)
        for step in plan.steps:
            v = micro_rotate(v, step)
        assert v.x == pytest.approx(1.013067933963612, abs=1e-12)
        assert v.y == pytest.approx(0.2015148886130191, abs=1e-12)


class TestApplyPlan:
    def test_empty_plan_identity(self):
        plan = decompose(0.0, 1e-3)
        v = Vector2(0.3, -0.7)
        assert apply_plan(v, plan, compensate=True) == v

    def test_pi16_compensated(self):
        plan = decompose(PI / 16, 1e-4)
        out = apply_plan(Vector2(1.0, 0.0), plan, compensate=True)
        assert out.x == pytest.approx(math.cos(PI / 16), abs=3e-4)
        assert out.y == pytest.approx(math.sin(PI / 16), abs=3e-4)

    def test_pi4_compensated_exact(self):
        plan = decompose(PI / 4, 1e-3)
        out = apply_plan(Vector2(1.0, 0.0), plan, compensate=True)
        assert out.x == pytest.approx(0.7071067811865476, abs=1e-6)
        assert out.y == pytest.approx(0.7071067811865476, abs=1e-6)

    def test_uncompensated_matches_plan_matrix_columns(self):
        plan = decompose(3 * PI / 8, 1e-4)
        m = plan_matrix(plan)
        c0 = apply_plan(Vector2(1.0, 0.0), plan)
        c1 = apply_plan(Vector2(0.0, 1.0), plan)
        # identical op sequences, so bit-for-bit equality
        assert (c0.x, c0.y) == (m.a, m.c)
        assert (c1.x, c1.y) == (m.b, m.d)

    @given(
        theta=st.floats(-PI / 2, PI / 2),
        eps=st.sampled_from([1e-3, 1e-4]),
        x=st.floats(-1, 1),
        y=st.floats(-1, 1),
    )
    def test_consistency_with_matrix(self, theta, eps, x, y):
        plan = decompose(theta, eps)
        got = apply_plan(Vector2(x, y), plan)
        ref = plan_matrix(plan).apply(Vector2(x, y))
        assert got.x == pytest.approx(ref.x, abs=1e-12)
        assert got.y == pytest.approx(ref.y, abs=1e-12)

    @given(
        theta=st.floats(-PI / 2, PI / 2),
        eps=st.sampled_from([1e-3, 1e-4]),
        phi=st.floats(0, 2 * PI),
    )
    def test_rotation_accuracy_on_unit_vectors(self, theta, eps, phi):
        plan = decompose(theta, eps)
        v = Vector2(math.cos(phi), math.sin(phi))
        got = apply_plan(v, plan, compensate=True)
        ref = ideal_rotation_matrix(theta).apply(v)
        assert math.hypot(got.x - ref.x, got.y - ref.y) <= eps + 1e-6


class TestPlanMatrix:
    def test_known_five_step_matrix(self):
        m = plan_matrix(decompose(PI / 16, 1e-4))
        assert m.a == pytest.approx(1.013067933963612, abs=1e-12)
        assert m.b == pytest.approx(-0.2015148886130191, abs=1e-12)
        assert m.c == pytest.approx(0.2015148886130191, abs=1e-12)
        assert m.d == pytest.approx(1.013067933963612, abs=1e-12)

    def test_empty_plan_is_identity(self):
        assert plan_matrix(decompose(0.0, 1e-3)) == Matrix2(1.0, 0.0, 0.0, 1.0)

    @given(theta=st.floats(-PI / 2, PI / 2), eps=st.sampled_from([1e-3, 1e-4, 1e-6]))
    def test_determinant_equals_inverse_gain_squared(self, theta, eps):
        plan = decompose(theta, eps)
        expected = 1.0 / plan.gain**2
        m = plan_matrix(plan)
        assert m.a * m.d - m.b * m.c == pytest.approx(expected, rel=1e-12)

    @given(theta=st.floats(-PI / 2, PI / 2), eps=st.sampled_from([1e-3, 1e-4]))
    def test_scaled_matrix_approximates_ideal_rotation(self, theta, eps):
        plan = decompose(theta, eps)
        m = plan_matrix(plan)
        ideal = ideal_rotation_matrix(theta)
        k = plan.gain
        frob = math.sqrt(
            (k * m.a - ideal.a) ** 2
            + (k * m.b - ideal.b) ** 2
            + (k * m.c - ideal.c) ** 2
            + (k * m.d - ideal.d) ** 2
        )
        assert frob <= 2 * eps + 1e-9


class TestIdealRotationMatrix:
    def test_zero(self):
        assert ideal_rotation_matrix(0.0) == Matrix2(1.0, 0.0, 0.0, 1.0)

    def test_quarter_turn(self):
        m = ideal_rotation_matrix(PI / 2)
        assert m.a == pytest.approx(0.0, abs=1e-15)
        assert m.b == pytest.approx(-1.0)
        assert m.c == pytest.approx(1.0)
        assert m.d == pytest.approx(0.0, abs=1e-15)

    def test_pi_over_16(self):
        m = ideal_rotation_matrix(PI / 16)
        assert m.a == math.cos(PI / 16)
        assert m.c == math.sin(PI / 16)


class TestCsdScale:
    def test_one_is_a_single_term(self):
        s = csd_scale(1.0, tolerance=0.0)
        assert s.terms == ((0, 1),)
        assert s.error == 0.0

    def test_three_quarters_is_exact(self):
        s = csd_scale(0.75, tolerance=0.0)
        assert s.terms == ((0, 1), (2, -1))
        assert s.value() == 0.75
        assert s.error == 0.0

    def test_gain_expansion_is_short(self):
        plan = decompose(PI / 16, 1e-4)
        s = csd_scale(plan.gain, max_terms=16, tolerance=1e-4)
        assert len(s.terms) <= 6
        assert abs(s.value() - plan.gain) <= 1e-4
        assert s.error == abs(plan.gain - s.value())

    def test_shifts_strictly_increase(self):
        s = csd_scale(1.2345, max_terms=16, tolerance=1e-6)
        shifts = [j for j, _ in s.terms]
        assert shifts == sorted(set(shifts))

    def test_tolerance_unreachable(self):
        with pytest.raises(CsdToleranceError):
            csd_scale(1.0 / 3.0, max_terms=2, tolerance=1e-9)

    @pytest.mark.parametrize("value", [0.0, -0.5, 2.0, 2.5])
    def test_domain(self, value):
        with pytest.raises(ValueError):
            csd_scale(value)

    @pytest.mark.parametrize("tolerance", [float("nan"), -1e-6])
    def test_tolerance_must_be_a_number_at_least_zero(self, tolerance):
        # NaN would end the expansion at once, an empty one (a multiplier of
        # 0) passing as exact, and no expansion meets a negative tolerance:
        # both are refused before expanding, not as a CsdToleranceError.
        with pytest.raises(ValueError, match="tolerance") as info:
            csd_scale(0.7, tolerance=tolerance)
        assert type(info.value) is ValueError

    @given(value=st.floats(1e-3, 1.999))
    def test_value_within_tolerance(self, value):
        s = csd_scale(value, max_terms=16, tolerance=1e-3)
        assert abs(s.value() - value) <= 1e-3

    def test_apply_raw_matches_value(self):
        s = csd_scale(0.625, tolerance=0.0)  # 1/2 + 1/8
        assert s.apply_raw(256) == 160
        assert s.apply_raw(-256) == -160


# Values the kernels must treat alike on arrays and on Python numbers: signed
# zeros, floats near 2**+-1000 (scaled products there stay exact or round,
# but never overflow), ordinary ones, and raw words at the 32-bit rails.
FLOAT_OPERANDS = [0.0, -0.0, 1.0, -1.5, math.pi, 2.0 ** 1000, -(2.0 ** 1000) * 1.75,
                  math.nextafter(2.0 ** 1000, 0.0), 2.0 ** -1000, -(2.0 ** -1000) * 1.25,
                  math.nextafter(2.0 ** -1000, 1.0), 5e-324, 1e-300, 123456.789]
RAW_OPERANDS = [0, 1, -1, 2, -2, 255, -256, 12345, -54321, 2 ** 31 - 1, -(2 ** 31),
                2 ** 31 - 2, -(2 ** 31) + 1, 2 ** 30, -(2 ** 30)]
SHIFTS = range(63)


class TestKernelOperands:
    """The kernels take their constants as 0-d arrays on NumPy operands and
    as Python numbers on every other: both must give the same bits, for
    every shift a word takes and both directions."""

    @staticmethod
    def _pairs(values):
        # every value against every other, as the x and y columns
        return [(a, b) for a in values for b in values]

    @staticmethod
    def _steps(index):
        return [SimpleNamespace(index=index, direction=d) for d in (1, -1)]

    @pytest.mark.parametrize("index", SHIFTS)
    def test_rotate_float(self, index):
        x, y = map(list, zip(*self._pairs(FLOAT_OPERANDS)))
        for step in self._steps(index):
            ax, ay = rotate_float(np.array(x), np.array(y), [step], _unchecked)
            scalar = [rotate_float(a, b, [step], _unchecked) for a, b in zip(x, y)]
            assert all(type(v) is float for pair in scalar for v in pair)
            # the signed factor t = direction * 2**-i: a step branches on the
            # direction instead, for the same bits
            t = step.direction * 2.0 ** -index
            signed = [(a - t * b, b + t * a) for a, b in zip(x, y)]
            sx, sy = (np.array(column) for column in zip(*scalar))
            rx, ry = (np.array(column) for column in zip(*signed))
            assert ax.dtype == ay.dtype == np.float64
            assert ax.tobytes() == sx.tobytes() == rx.tobytes()
            assert ay.tobytes() == sy.tobytes() == ry.tobytes()

    @pytest.mark.parametrize("index", SHIFTS)
    def test_rotate_raw(self, index):
        x, y = map(list, zip(*self._pairs(RAW_OPERANDS)))
        for step in self._steps(index):
            ax, ay = rotate_raw(np.array(x, np.int64), np.array(y, np.int64), [step], _unchecked)
            scalar = [rotate_raw(a, b, [step], _unchecked) for a, b in zip(x, y)]
            assert all(type(v) is int for pair in scalar for v in pair)
            assert ax.dtype == ay.dtype == np.int64
            assert (ax.tolist(), ay.tolist()) == tuple(map(list, zip(*scalar)))

    @pytest.mark.parametrize("index", SHIFTS)
    def test_apply_raw(self, index):
        expansions = [CsdScale(((index, 1),), 0.0), CsdScale(((index, -1),), 0.0),
                      CsdScale(((-1, 1), (index, -1)), 0.0),
                      CsdScale(((index, 1), (index + 1, -1), (64 + index, 1)), 0.0)]
        for scale in expansions:
            out = scale.apply_raw(np.array(RAW_OPERANDS, np.int64))
            scalar = [scale.apply_raw(v) for v in RAW_OPERANDS]
            assert all(type(v) is int for v in scalar)
            assert out.dtype == np.int64 and out.tolist() == scalar

    @pytest.mark.parametrize("theta", [PI / 16, -PI / 3, 0.2])
    def test_whole_plans(self, theta):
        # chained steps of both directions, as the DCT's rotators run them
        steps = decompose(theta, 1e-9).steps
        x, y = map(list, zip(*self._pairs(FLOAT_OPERANDS)))
        ax, ay = rotate_float(np.array(x), np.array(y), steps, _unchecked)
        sx, sy = (np.array(c) for c in zip(*[rotate_float(a, b, steps, _unchecked)
                                             for a, b in zip(x, y)]))
        assert ax.tobytes() == sx.tobytes() and ay.tobytes() == sy.tobytes()
        x, y = map(list, zip(*self._pairs(RAW_OPERANDS)))
        ax, ay = rotate_raw(np.array(x, np.int64), np.array(y, np.int64), steps, _unchecked)
        scalar = [rotate_raw(a, b, steps, _unchecked) for a, b in zip(x, y)]
        assert (ax.tolist(), ay.tolist()) == tuple(map(list, zip(*scalar)))


class TestFixedPointFormat:
    def test_ranges(self):
        fmt = FixedPointFormat(16, 12)
        assert fmt.min_raw == -32768
        assert fmt.max_raw == 32767
        assert fmt.min_raw * fmt.lsb == -8.0
        assert fmt.max_raw * fmt.lsb == pytest.approx(8.0 - 2.0**-12)

    @pytest.mark.parametrize("total,frac", [(7, 0), (33, 0), (16, 15), (16, -1)])
    def test_validation(self, total, frac):
        with pytest.raises(ValueError):
            FixedPointFormat(total, frac)

    @pytest.mark.parametrize("total,frac", [(16.5, 8), (16.0, 8), (16, 8.0), (True, 0)])
    def test_non_int_fields_refused(self, total, frac):
        with pytest.raises(ValueError, match="must be an int"):
            FixedPointFormat(total, frac)
        with pytest.raises(ValueError, match="must be an int"):
            ArithmeticMode.fixed(total, frac)

    @pytest.mark.parametrize("overflow", ["error", "saturate", None])
    def test_overflow_must_be_a_policy(self, overflow):
        # Every check tests ``is ERROR``, so "error" would saturate.
        with pytest.raises(ValueError, match="OverflowPolicy"):
            ArithmeticMode.fixed(16, 12, overflow)
        with pytest.raises(ValueError, match="OverflowPolicy"):
            ArithmeticMode(FixedPointFormat(16, 12), overflow)

    @pytest.mark.parametrize("fmt", [(16, 12), "16.12", 16])
    def test_fmt_must_be_none_or_a_format(self, fmt):
        with pytest.raises(ValueError, match="FixedPointFormat"):
            ArithmeticMode(fmt=fmt)

    def test_rounding_half_away_from_zero(self):
        fmt = FixedPointFormat(16, 12)
        lsb = fmt.lsb
        assert fmt.to_raw(0.5 * lsb) == 1
        assert fmt.to_raw(-0.5 * lsb) == -1
        assert fmt.to_raw(1.49 * lsb) == 1
        assert fmt.to_raw(0.0) == 0

    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), near_ties()),
                    max_size=20))
    def test_rounding_equals_the_exact_rule(self, drawn):
        # The one quantizer, through to_raw, on each Python float and on
        # an array, against exact rounding: the largest double below 1/2
        # goes to 0, and 2**52 + 1 stays odd.
        values = ROUNDING_EDGES + drawn
        expected = [exact_round_half_away(v) for v in values]
        assert [FixedPointFormat(32, 0).to_raw(v) for v in values] == expected
        scalar = [_round_half_away(v) for v in values]
        assert scalar == expected and {type(r) for r in scalar} == {int}
        assert _round_half_away(np.array(values)).tolist() == expected
        fmt = FixedPointFormat(16, 12)
        assert fmt.to_raw(0.49999999999999994 * fmt.lsb) == 0


class TestFixedPointRotation:
    def test_floor_shift_semantics(self):
        # raw y = -5 shifted right by 1 must give -3 (floor), not -2
        fmt = FixedPointFormat(16, 12)
        mode = ArithmeticMode(fmt)
        v = Vector2(0.0, -5 * fmt.lsb)
        out = micro_rotate(v, MicroRotation(1, 1), mode)
        assert fmt.to_raw(out.x) == 3  # x - (y >> 1) = 0 - (-3)
        assert fmt.to_raw(out.y) == -5  # y + (x >> 1) = -5 + 0

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_component_refused(self, fixed, value):
        mode = ArithmeticMode.fixed(16, 12) if fixed else ArithmeticMode.exact()
        plan = decompose(PI / 4, 1e-3)
        for v in (Vector2(value, 0.0), Vector2(0.0, value)):
            with pytest.raises(ValueError, match="non-finite"):
                micro_rotate(v, MicroRotation(1, 1), mode)
            with pytest.raises(ValueError, match="non-finite"):
                apply_plan(v, plan, mode, compensate=True)

    @pytest.mark.parametrize("mode", [None, "fixed", FixedPointFormat(16, 12)])
    def test_mode_must_be_an_arithmetic_mode(self, mode):
        plan = decompose(PI / 4, 1e-3)
        with pytest.raises(ValueError, match="ArithmeticMode"):
            micro_rotate(Vector2(1.0, 0.0), MicroRotation(1, 1), mode)
        with pytest.raises(ValueError, match="ArithmeticMode"):
            apply_plan(Vector2(1.0, 0.0), plan, mode)

    @pytest.mark.parametrize("compensate", ["no", "", 0, 1, None, np.bool_(True)])
    def test_compensate_must_be_a_bool(self, compensate):
        # Read by truthiness, "no" would compensate.
        for mode in (ArithmeticMode.exact(), ArithmeticMode.fixed(16, 12)):
            with pytest.raises(ValueError, match="compensate must be a bool"):
                apply_plan(Vector2(1.0, 0.0), decompose(0.3, 1e-4), mode, compensate)

    @pytest.mark.parametrize("bits", [None, (16, 12)])
    def test_complex_components_refused(self, bits):
        # Float would rotate them into complex results; 16.12 would drop the
        # imaginary part of a NumPy complex (ComplexWarning) or fail on a
        # Python one with TypeError.
        mode = ArithmeticMode() if bits is None else ArithmeticMode.fixed(*bits)
        plan = decompose(0.3, 1e-4)
        for v in (Vector2(1j, 0.0), Vector2(0.0, np.complex128(1 + 1j)),
                  Vector2(np.complex64(2), 1.0), Vector2(1 + 0j, 0.0)):
            for compensate in (False, True):
                with pytest.raises(ValueError, match="expected real values"):
                    apply_plan(v, plan, mode, compensate)
            with pytest.raises(ValueError, match="expected real values"):
                micro_rotate(v, MicroRotation(2, -1), mode)

    def test_overflow_error_policy(self):
        mode = ArithmeticMode.fixed(8, 4)  # range [-8, 8)
        with pytest.raises(FixedPointOverflowError):
            micro_rotate(Vector2(7.5, 7.5), MicroRotation(0, -1), mode)

    def test_saturate_policy_counts(self):
        mode = ArithmeticMode.fixed(8, 4, OverflowPolicy.SATURATE)
        # x + y = 15 clips to the rail; y - x = 0 does not
        out = micro_rotate(Vector2(7.5, 7.5), MicroRotation(0, -1), mode)
        assert out == Vector2(mode.fmt.max_raw * mode.fmt.lsb, 0.0)

    def test_zero_multiplies_and_op_counts(self):
        # The fixed path is rotate_raw, then the gain's CSD sum per
        # component, on Python ints: the kernels criterion 9's traced
        # rotator test (test_acceptance.py) runs on values that refuse any
        # multiply, counting 2 adds + 2 shifts per micro-rotation and 1 of
        # each per CSD term applied.
        plan = decompose(PI / 16, 1e-4)
        mode = ArithmeticMode.fixed(16, 12, OverflowPolicy.ERROR)
        fmt = mode.fmt
        got = apply_plan(Vector2(0.5, 0.25), plan, mode, compensate=True)

        def fit(raw):
            return fit_raw(raw, mode)

        gain = csd_scale(plan.gain, max_terms=16, tolerance=max(fmt.lsb / 2, 2.0**-18))
        x, y = rotate_raw(fmt.to_raw(0.5), fmt.to_raw(0.25), plan.steps, fit)
        assert got == Vector2(fit(gain.apply_raw(x)) * fmt.lsb,
                              fit(gain.apply_raw(y)) * fmt.lsb)

    def test_fixed_tracks_exact_float(self):
        import random

        rng = random.Random(99)
        fmt = FixedPointFormat(16, 12)
        mode = ArithmeticMode(fmt)
        for _ in range(300):
            theta = rng.uniform(-PI / 2, PI / 2)
            plan = decompose(theta, 1e-3)
            v = Vector2(rng.uniform(-1, 1), rng.uniform(-1, 1))
            fixed = apply_plan(v, plan, mode, compensate=True)
            exact = apply_plan(v, plan, compensate=True)
            bound = (len(plan.steps) + 2) * 2.0 ** (-fmt.frac_bits + 1)
            assert abs(fixed.x - exact.x) <= bound
            assert abs(fixed.y - exact.y) <= bound


class TestOverflowLimit:
    """Float and fixed rotations refuse a component beyond
    ``overflow_limit(sqrt2 * growth)``, the steps' norm growth being
    ``1 / plan.gain``; below it nothing overflows binary64."""

    @given(
        theta=st.floats(-PI / 2, PI / 2),
        eps=st.floats(1e-6, 1e-2),
        xs=st.tuples(*[st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0))] * 2),
        compensate=st.booleans(),
    )
    def test_components_up_to_the_limit_stay_finite(self, theta, eps, xs, compensate):
        plan = decompose(theta, eps)
        limit = overflow_limit(math.sqrt(2.0) * (1.0 / plan.gain))
        v = Vector2(xs[0] * limit, xs[1] * limit)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = apply_plan(v, plan, compensate=compensate)
            ideal = ideal_rotation_matrix(theta).apply(v)  # what the CLI computes next
            assert math.isfinite(math.hypot(out.x - ideal.x, out.y - ideal.y))
            for step in plan.steps[:1]:
                step_limit = overflow_limit(math.sqrt(2.0) * math.hypot(1.0, 2.0 ** -step.index))
                out = micro_rotate(Vector2(xs[0] * step_limit, xs[1] * step_limit), step)
                assert math.isfinite(out.x) and math.isfinite(out.y)

    @pytest.mark.parametrize("fixed", [False, True])
    def test_components_beyond_the_limit_are_refused(self, fixed):
        mode = ArithmeticMode.fixed(16, 12) if fixed else ArithmeticMode.exact()
        plan = decompose(PI / 4, 1e-4)
        beyond = math.nextafter(overflow_limit(math.sqrt(2.0) * (1.0 / plan.gain)), math.inf)
        for value in (beyond, -beyond, 1e308):
            for v in (Vector2(value, 0.0), Vector2(0.0, value)):
                with pytest.raises(ValueError, match="beyond"):
                    apply_plan(v, plan, mode, compensate=True)
        step = MicroRotation(0, 1)
        beyond = math.nextafter(overflow_limit(2.0), math.inf)
        with pytest.raises(ValueError, match="beyond"):
            micro_rotate(Vector2(beyond, 0.0), step, mode)

    @pytest.mark.parametrize("bits", WORDS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_fixed_refuses_beyond_the_word_limit(self, bits, policy):
        # Fixed point's one float step is the quantizing multiply by
        # 2**frac_bits, so its limit is the engine's, below the float one.
        mode = ArithmeticMode.fixed(*bits, policy)
        limit = overflow_limit(float(1 << bits[1]))
        assert limit == DctEngine(mode=mode).input_limit
        plan = decompose(0.3, 1e-4)
        assert limit < overflow_limit(math.sqrt(2.0) / plan.gain)
        step = MicroRotation(0, 1)
        beyond = math.nextafter(limit, math.inf)
        for value in (beyond, -beyond):
            for v in (Vector2(value, 0.0), Vector2(0.0, value)):
                with pytest.raises(ValueError, match=re.escape(f"beyond {limit:.4g}, where")):
                    apply_plan(v, plan, mode, compensate=True)
                with pytest.raises(ValueError, match=re.escape(f"beyond {limit:.4g}, where")):
                    micro_rotate(v, step, mode)
        # At the limit the input is answered: it leaves the word, so it
        # raises the word's own error, or saturates to its rail.
        fmt = mode.fmt
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in (limit, -limit, 1e300):
                rail = (fmt.max_raw if value > 0 else fmt.min_raw) * fmt.lsb
                for rotate in (lambda x: apply_plan(Vector2(x, 0.0), plan, mode, compensate=True),
                               lambda x: micro_rotate(Vector2(0.0, x), step, mode)):
                    if policy is OverflowPolicy.ERROR:
                        with pytest.raises(FixedPointOverflowError, match="raw value"):
                            rotate(value)
                    else:
                        assert rotate(value) == rotate(rail)

    def test_1e300_is_answered(self):
        out = apply_plan(Vector2(1e300, 1e300), decompose(PI / 4, 1e-4), compensate=True)
        assert math.isfinite(out.x) and math.isfinite(out.y)


def model_rotate(v: Vector2, steps, gain, mode: ArithmeticMode) -> Vector2:
    """The fixed-point rotator written out here, not taken from the library
    kernels: quantize each component (round half away from zero, in exact
    arithmetic), range-check it, run each step as floor shifts and adds,
    each result range-checked, then multiply each component by the gain's
    CSD expansion at ``max(lsb / 2, 2**-18)``, range-checked.  A check
    clamps to the rail, or raises the library's error under ``ERROR``."""
    fmt = mode.fmt

    def fit(raw):
        if fmt.min_raw <= raw <= fmt.max_raw:
            return raw
        if mode.overflow is OverflowPolicy.ERROR:
            raise FixedPointOverflowError(
                f"raw value {raw} outside [{fmt.min_raw}, {fmt.max_raw}] "
                f"for {fmt.total_bits}.{fmt.frac_bits} format"
            )
        return max(fmt.min_raw, min(raw, fmt.max_raw))

    x, y = (fit(exact_round_half_away(Fraction(c) * 2 ** fmt.frac_bits)) for c in (v.x, v.y))
    for step in steps:
        d, k = step.direction, 2 ** step.index
        x, y = fit(x - d * (y // k)), fit(y + d * (x // k))
    if gain is not None and steps:
        terms = csd_scale(gain, max_terms=16, tolerance=max(fmt.lsb / 2, 2.0 ** -18)).terms
        x, y = (fit(sum(sign * (c // 2 ** shift) for shift, sign in terms)) for c in (x, y))
    return Vector2(x * fmt.lsb, y * fmt.lsb)


def _outcome(call):
    """The bits of the vector ``call()`` returns, or its error's type and
    message."""
    try:
        out = call()
    except FixedPointOverflowError as exc:
        return type(exc), str(exc)
    return repr(out.x), repr(out.y)


def components(fmt: FixedPointFormat):
    """Components up to 4x the rail: any float, or a multiple of half an
    LSB, which is a raw value or a rounding tie."""
    rail = 4 * fmt.max_raw * fmt.lsb
    return st.one_of(
        st.floats(-rail, rail),
        st.integers(8 * fmt.min_raw, 8 * fmt.max_raw).map(lambda h: h * fmt.lsb / 2),
    )


@given(
    data=st.data(),
    bits=st.sampled_from(WORDS),
    policy=st.sampled_from(POLICIES),
    theta=st.floats(-PI / 2, PI / 2),
    eps=st.floats(1e-6, 1e-2),
    compensate=st.booleans(),
    index=st.integers(0, 30),
    direction=st.sampled_from([1, -1]),
)
@example(data=None, bits=(16, 12), policy=OverflowPolicy.ERROR, theta=PI / 16, eps=1e-4,
         compensate=True, index=0, direction=-1)  # a node past the rail under ERROR
def test_fixed_rotator_equals_the_scalar_model(
    data, bits, policy, theta, eps, compensate, index, direction
):
    mode = ArithmeticMode.fixed(*bits, policy)
    if data is None:
        v = Vector2(7.5, 7.5)
    else:
        v = Vector2(data.draw(components(mode.fmt)), data.draw(components(mode.fmt)))
    plan = decompose(theta, eps)
    gain = plan.gain if compensate else None
    assert _outcome(lambda: apply_plan(v, plan, mode, compensate)) == _outcome(
        lambda: model_rotate(v, plan.steps, gain, mode))
    step = MicroRotation(index, direction)
    assert _outcome(lambda: micro_rotate(v, step, mode)) == _outcome(
        lambda: model_rotate(v, (step,), None, mode))
