"""Planner tests: published rotation tables, invariants, the index rule."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cordic_dct.planner import (
    ATAN_TABLE,
    INDEX_MAX,
    MicroRotation,
    RotationPlan,
    decompose,
    generate_table,
    reconstruct_angle,
    table_to_csv,
    table_to_json,
)

from greedy_reference import greedy_reference_steps, tan_rule_steps

PI = math.pi

# The four fixed rotation angles and their known decompositions under the
# nearest-shift rule (directions here follow the residual-sign rule).
KNOWN_PLANS = {
    (PI / 4, 1e-3): ((0,), (1,)),
    (PI / 4, 1e-4): ((0,), (1,)),
    (3 * PI / 8, 1e-3): ((0, 1, 4, 7), (1, 1, -1, -1)),
    (3 * PI / 8, 1e-4): ((0, 1, 4, 7, 10, 12), (1, 1, -1, -1, -1, 1)),
    (PI / 16, 1e-3): ((2, 4, 6, 9), (1, -1, 1, -1)),
    (PI / 16, 1e-4): ((2, 4, 6, 9, 13), (1, -1, 1, -1, 1)),
    (3 * PI / 16, 1e-3): ((1, 3, 10), (1, 1, 1)),
    (3 * PI / 16, 1e-4): ((1, 3, 10), (1, 1, 1)),
}


class TestKnownDecompositions:
    @pytest.mark.parametrize("key,expected", sorted(KNOWN_PLANS.items()))
    def test_table_cells(self, key, expected):
        theta, eps = key
        plan = decompose(theta, eps)
        assert plan.indices == expected[0]
        assert plan.directions == expected[1]

    def test_pi_16_fine_plan(self):
        plan = decompose(PI / 16, 1e-4)
        assert plan.indices == (2, 4, 6, 9, 13)
        assert plan.directions == (1, -1, 1, -1, 1)
        rec = reconstruct_angle(plan)
        assert rec == pytest.approx(0.1963525295467985, abs=1e-14)
        assert abs(rec - PI / 16) < 1e-4

    def test_pi_4_is_exact_single_step(self):
        plan = decompose(PI / 4, 1e-3)
        assert plan.indices == (0,)
        assert plan.directions == (1,)
        assert plan.residual == 0.0

    def test_3pi_16_residual(self):
        plan = decompose(3 * PI / 16, 1e-3)
        assert plan.residual == pytest.approx(6.9456811e-05, rel=1e-6)
        assert reconstruct_angle(plan) == pytest.approx(0.5889791657371268, abs=1e-14)
        assert reconstruct_angle(plan) == pytest.approx(0.5889792, abs=1e-7)

    def test_zero_angle_gives_empty_plan(self):
        plan = decompose(0.0, 1e-3)
        assert plan.steps == ()
        assert plan.residual == 0.0
        assert plan.gain == 1.0
        assert reconstruct_angle(plan) == 0.0


class TestGain:
    def test_empty_plan(self):
        assert decompose(0.0, 1e-3).gain == 1.0

    def test_single_step_index_zero(self):
        plan = decompose(PI / 4, 1e-3)
        assert plan.gain == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_five_step_plan(self):
        plan = decompose(PI / 16, 1e-4)
        k = plan.gain
        assert k == pytest.approx(0.968133196651088, rel=1e-12)
        # cos of the realized angle over the gain reproduces the composite
        # matrix diagonal; against cos(pi/16) the agreement is only as good
        # as the plan residual.
        assert math.cos(PI / 16) / k == pytest.approx(1.013067933963612, abs=2e-6)

    def test_gain_ignores_directions(self):
        fwd = decompose(3 * PI / 8, 1e-4)
        rev = decompose(-3 * PI / 8, 1e-4)
        assert fwd.indices == rev.indices
        assert fwd.gain == rev.gain


class TestDomainErrors:
    @pytest.mark.parametrize("theta", [PI / 2 + 1e-9, -2.0, math.inf, math.nan])
    def test_angle_out_of_domain(self, theta):
        with pytest.raises(ValueError):
            decompose(theta, 1e-3)

    @pytest.mark.parametrize("eps", [0.0, 1e-10, 0.2, -1e-3])
    def test_epsilon_out_of_domain(self, eps):
        with pytest.raises(ValueError):
            decompose(0.1, eps)

    def test_micro_rotation_validation(self):
        with pytest.raises(ValueError):
            MicroRotation(-1, 1)
        with pytest.raises(ValueError):
            MicroRotation(INDEX_MAX + 1, 1)
        with pytest.raises(ValueError):
            MicroRotation(0, 0)
        # A shift index is an integer: a float or a string indexes no table.
        for index in (3.0, "3", None):
            with pytest.raises(ValueError, match=r"^shift index .* outside \[0, 30\]$"):
                MicroRotation(index, 1)
        assert MicroRotation(np.int64(3), 1).angle == math.atan(2.0 ** -3)

    def test_plan_invariant_checks(self):
        with pytest.raises(ValueError):
            RotationPlan(0.5, 1e-3, (), 0.5, 1.0)


class TestInvariants:
    @given(
        theta=st.floats(-PI / 2, PI / 2),
        eps=st.sampled_from([1e-3, 1e-4, 1e-6]),
    )
    def test_reconstruction_within_tolerance(self, theta, eps):
        plan = decompose(theta, eps)
        assert abs(theta - reconstruct_angle(plan)) <= eps

    @given(
        theta=st.floats(-PI / 2, PI / 2),
        eps=st.sampled_from([1e-3, 1e-5]),
    )
    def test_residual_identity_and_progress(self, theta, eps):
        plan = decompose(theta, eps)
        assert abs(plan.residual) <= eps
        # residual equals target minus the running signed micro-angle sum
        r = theta
        prev = abs(r)
        for step in plan.steps:
            r -= step.angle
            assert abs(r) < prev or prev == 0.0
            prev = abs(r)
        assert r == pytest.approx(plan.residual, abs=1e-12)

    @given(theta=st.floats(1e-2, PI / 2), eps=st.sampled_from([1e-3, 1e-4]))
    def test_oddness(self, theta, eps):
        pos = decompose(theta, eps)
        neg = decompose(-theta, eps)
        assert pos.indices == neg.indices
        assert tuple(-d for d in pos.directions) == neg.directions

    def test_bulk_reconstruction_seeded(self):
        import random

        rng = random.Random(20240301)
        for _ in range(10_000):
            theta = rng.uniform(-PI / 2, PI / 2)
            eps = rng.choice([1e-3, 1e-4, 1e-6])
            plan = decompose(theta, eps)
            assert abs(theta - reconstruct_angle(plan)) <= eps

    def test_index_range(self):
        plan = decompose(PI / 2, 1e-9)
        assert all(0 <= i <= INDEX_MAX for i in plan.indices)
        assert abs(plan.residual) <= 1e-9


class TestGreedyReference:
    """The brute-force scan validates decompose where both agree and pins the
    one published cell where the two selection rules legitimately differ."""

    AGREEING_CELLS = [
        (PI / 4, 1e-3),
        (PI / 4, 1e-4),
        (3 * PI / 8, 1e-3),
        (PI / 16, 1e-3),
        (PI / 16, 1e-4),
        (3 * PI / 16, 1e-3),
        (3 * PI / 16, 1e-4),
    ]

    @pytest.mark.parametrize("theta,eps", AGREEING_CELLS)
    def test_matches_nearest_policy(self, theta, eps):
        plan = decompose(theta, eps)
        ref = greedy_reference_steps(theta, eps)
        assert [(s.index, s.direction) for s in plan.steps] == ref

    def test_documented_divergence_cell(self):
        # Minimizing the next residual picks shift 11 at the fifth step of
        # 3pi/8 @ 1e-4; the log-nearest rule (and the published table) pick
        # 10.  Both still converge to tolerance.
        plan = decompose(3 * PI / 8, 1e-4)
        ref = greedy_reference_steps(3 * PI / 8, 1e-4)
        assert plan.indices == (0, 1, 4, 7, 10, 12)
        assert [i for i, _ in ref] == [0, 1, 4, 7, 11, 12]
        ref_residual = 3 * PI / 8 - sum(s * ATAN_TABLE[i] for i, s in ref)
        assert abs(ref_residual) <= 1e-4

    def test_reference_reaches_tolerance_on_random_angles(self):
        import random

        rng = random.Random(7)
        for _ in range(200):
            theta = rng.uniform(-PI / 2, PI / 2)
            ref = greedy_reference_steps(theta, 1e-4)
            residual = theta - sum(s * ATAN_TABLE[i] for i, s in ref)
            assert abs(residual) <= 1e-4


class TestLiteralPolicy:
    """The floor(-log2(tan))+1 rule converges but picks different shifts."""

    @pytest.mark.parametrize("theta", [PI / 4, 3 * PI / 8, PI / 16, 3 * PI / 16])
    def test_converges(self, theta):
        steps = tan_rule_steps(theta, 1e-3)
        assert abs(theta - sum(s * ATAN_TABLE[i] for i, s in steps)) <= 1e-3

    def test_differs_from_nearest_on_3pi8(self):
        lit = tan_rule_steps(3 * PI / 8, 1e-3)
        assert tuple(i for i, _ in lit) != (0, 1, 4, 7)

    def test_differs_from_nearest_on_pi16(self):
        lit = tan_rule_steps(PI / 16, 1e-3)
        assert lit[0][0] == 3  # nearest picks 2 here


class TestTableGeneration:
    def test_paper_angle_grid(self):
        angles = [PI / 4, 3 * PI / 8, PI / 16, 3 * PI / 16]
        rows = generate_table(angles, [1e-3, 1e-4])
        assert len(rows) == 8
        by_cell = {(r.target, r.tolerance): r for r in rows}
        for (theta, eps), (indices, directions) in KNOWN_PLANS.items():
            row = by_cell[(theta, eps)]
            assert row.indices == indices
            assert row.directions == directions

    def test_row_formatting(self):
        rows = generate_table([PI / 16], [1e-4])
        assert rows[0].indices_str == "2/4/6/9/13"
        assert rows[0].directions_str == "+-+-+"

    def test_zero_angle_row(self):
        rows = generate_table([0.0], [1e-3])
        assert rows[0].indices == ()
        assert rows[0].indices_str == ""

    def test_empty_angle_list(self):
        assert generate_table([], [1e-3]) == []
        assert table_to_csv([]) == "angle_rad,epsilon,indices,directions,residual_rad,gain\n"

    def test_csv_round_trip_values(self):
        rows = generate_table([PI / 16], [1e-4])
        csv = table_to_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == "angle_rad,epsilon,indices,directions,residual_rad,gain"
        fields = lines[1].split(",")
        assert float(fields[0]) == PI / 16
        assert fields[2] == "2/4/6/9/13"
        assert fields[3] == "+-+-+"
        assert float(fields[5]) == rows[0].gain

    def test_json_structure(self):
        rows = generate_table([PI / 16, 0.0], [1e-3])
        payload = json.loads(table_to_json(rows))
        assert len(payload) == 2
        assert payload[0]["indices"] == [2, 4, 6, 9]
        assert payload[0]["directions"] == "+-+-"
        assert payload[1]["indices"] == []
