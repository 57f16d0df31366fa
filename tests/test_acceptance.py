"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 6 has two parts because its printed Gram-matrix constant (1/2)
is unattainable: the reference transform matrix defined by the frozen
impulse/constant responses is orthonormal, so M @ M.T equals the
identity, not I/2.  The literal check is kept as a strict expected
failure; the round-trip half and the true orthogonality statement pass.
"""

import math
import os
import time

import numpy as np
import pytest

from cordic_dct.cli import main as cli_main
from cordic_dct.codec import sweep
from cordic_dct.dct8 import (
    DCT_MATRIX,
    DctEngine,
    _flow,
    _unchecked,
    dct2d_oracle,
    idct2d_oracle,
    transform8,
)
from cordic_dct.fixedpoint import ArithmeticMode, OverflowPolicy
from cordic_dct.pgm import read_pgm, write_pgm
from cordic_dct.planner import (
    decompose,
    reconstruct_angle,
)
from cordic_dct.rotator import (
    Vector2,
    apply_plan,
    csd_scale,
    ideal_rotation_matrix,
    plan_matrix,
    rotate_raw,
)

from greedy_reference import greedy_reference_steps

PI = math.pi


def report(num, text):
    print(f"\ncriterion {num:02d}: {text}")


def test_criterion_01_fine_pi16_plan():
    t0 = time.perf_counter()
    plan = decompose(PI / 16, 1e-4)
    assert plan.indices == (2, 4, 6, 9, 13)
    assert plan.directions == (1, -1, 1, -1, 1)
    rec = reconstruct_angle(plan)
    assert abs(rec - 0.196349) <= 5e-6
    elapsed = time.perf_counter() - t0
    report(1, f"PASS - pi/16 @1e-4 -> 2/4/6/9/13, + - + - +, angle {rec:.6f} ({elapsed*1e3:.2f} ms)")


# index lists for all eight (angle, eps) cells; directions follow the
# residual-sign rule (the published sign strings for pi/4 and 3pi/8 @1e-3
# are inconsistent with the angle-sum identity, hence the oracle check
# below instead).
EXPECTED_CELLS = {
    (PI / 4, 1e-3): (0,),
    (PI / 4, 1e-4): (0,),
    (3 * PI / 8, 1e-3): (0, 1, 4, 7),
    (3 * PI / 8, 1e-4): (0, 1, 4, 7, 10, 12),
    (PI / 16, 1e-3): (2, 4, 6, 9),
    (PI / 16, 1e-4): (2, 4, 6, 9, 13),
    (3 * PI / 16, 1e-3): (1, 3, 10),
    (3 * PI / 16, 1e-4): (1, 3, 10),
}

CONSISTENT_DIRECTIONS = {
    (3 * PI / 8, 1e-4): (1, 1, -1, -1, -1, 1),
    (PI / 16, 1e-3): (1, -1, 1, -1),
    (PI / 16, 1e-4): (1, -1, 1, -1, 1),
    (3 * PI / 16, 1e-3): (1, 1, 1),
    (3 * PI / 16, 1e-4): (1, 1, 1),
}

RECONCILED_CELLS = [(PI / 4, 1e-3), (PI / 4, 1e-4), (3 * PI / 8, 1e-3)]


def test_criterion_02_index_table_reproduction():
    for (theta, eps), indices in EXPECTED_CELLS.items():
        plan = decompose(theta, eps)
        assert plan.indices == indices, (theta, eps)
    for cell, directions in CONSISTENT_DIRECTIONS.items():
        assert decompose(*cell).directions == directions, cell
    # cells whose printed signs contradict the angle-sum identity must
    # instead agree with the brute-force greedy reference
    for theta, eps in RECONCILED_CELLS:
        plan = decompose(theta, eps)
        ref = greedy_reference_steps(theta, eps)
        assert [(s.index, s.direction) for s in plan.steps] == ref, (theta, eps)
    # and they really do differ from the published sign strings
    assert decompose(PI / 4, 1e-3).directions != (-1,)
    assert decompose(3 * PI / 8, 1e-3).directions != (-1, 1, -1, -1)
    report(2, "PASS - all 8 index cells reproduced; typo cells match the greedy reference")


def test_criterion_03_composite_matrix():
    m = plan_matrix(decompose(PI / 16, 1e-4))
    assert abs(m.a - 1.013067933963612) <= 1e-12
    assert abs(m.b - -0.2015148886130191) <= 1e-12
    assert abs(m.c - 0.2015148886130191) <= 1e-12
    assert abs(m.d - 1.013067933963612) <= 1e-12
    report(3, "PASS - five-step composite matrix entries reproduced to 1e-12")


def test_criterion_04_rotation_accuracy_bulk():
    import random

    rng = random.Random(13)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        theta = rng.uniform(-PI / 2, PI / 2)
        eps = 10.0 ** rng.uniform(-6, -2)
        phi = rng.uniform(0, 2 * PI)
        plan = decompose(theta, eps)
        v = Vector2(math.cos(phi), math.sin(phi))
        got = apply_plan(v, plan, compensate=True)
        ref = ideal_rotation_matrix(theta).apply(v)
        err = math.hypot(got.x - ref.x, got.y - ref.y)
        assert err <= eps + 1e-6
        worst = max(worst, err - eps)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(4, f"PASS - 10^4 compensated rotations within eps+1e-6 ({elapsed:.2f} s)")


def test_criterion_05_transform_oracle_equivalence():
    rng = np.random.default_rng(17)
    X = rng.integers(-128, 128, size=(10_000, 8)).astype(np.float64)
    ref = X @ DCT_MATRIX.T
    bounds = {1e-3: 1.5, 1e-4: 0.15}
    maxima = {}
    means = []
    for eps in (1e-2, 1e-3, 1e-4, 1e-6):
        eng = DctEngine(epsilon=eps)
        err = np.abs(transform8(eng, X)[0] - ref)
        means.append(err.mean())
        maxima[eps] = err.max()
        if eps in bounds:
            assert err.max() <= bounds[eps], eps
    assert all(a >= b for a, b in zip(means, means[1:]))
    report(
        5,
        "PASS - max |flow - oracle| = "
        f"{maxima[1e-3]:.3g} (<=1.5 @1e-3), {maxima[1e-4]:.3g} (<=0.15 @1e-4); "
        "mean error monotone in eps",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the reference matrix is orthonormal: M @ M.T == I, so the "
    "printed Gram constant 1/2 cannot hold (see notes in README)",
)
def test_criterion_06a_gram_constant_as_printed():
    gram = DCT_MATRIX @ DCT_MATRIX.T
    report(
        6,
        "FAIL (expected) - Gram diagonal is "
        f"{gram[0, 0]:.12f}, the printed constant 1/2 is unattainable",
    )
    assert np.abs(gram - 0.5 * np.eye(8)).max() <= 1e-12


def test_criterion_06b_orthogonality_and_round_trip():
    gram = DCT_MATRIX @ DCT_MATRIX.T
    assert np.abs(gram - np.eye(8)).max() <= 1e-12
    rng = np.random.default_rng(23)
    for _ in range(50):
        block = rng.uniform(-256, 255, size=(8, 8))
        assert np.abs(idct2d_oracle(dct2d_oracle(block)) - block).max() <= 1e-9
    report(6, "PASS - M @ M.T = I to 1e-12; 2-D round trip identity to 1e-9")


def test_criterion_07_psnr_trends(photo512):
    t0 = time.perf_counter()
    rep = sweep(photo512, [1e-3, 1e-4, 1e-6], [95, 90, 85, 80, 75])
    elapsed = time.perf_counter() - t0
    by = {(r.epsilon, r.quality): r.psnr_db for r in rep.rows}

    for eps in (1e-3, 1e-4, 1e-6):
        vals = [by[(eps, q)] for q in (95, 90, 85, 80, 75)]
        assert all(a > b for a, b in zip(vals, vals[1:])), eps
    for q in (95, 90, 85, 80, 75):
        assert abs(by[(1e-4, q)] - by[(1e-3, q)]) <= 0.05, q
    assert by[(1e-6, 95)] - by[(1e-3, 95)] <= 0.01
    assert elapsed < 30.0
    report(
        7,
        "PASS - PSNR strictly decreasing Q95->Q75; |d(1e-4,1e-3)| <= 0.05 dB; "
        f"1e-6 gain {by[(1e-6, 95)] - by[(1e-3, 95)]:+.4f} dB at Q95 ({elapsed:.1f} s)",
    )


LENA_PATHS = [
    os.environ.get("CORDIC_DCT_LENA", ""),
    os.path.join(os.path.dirname(__file__), "data", "lena512.pgm"),
]


def test_criterion_08_lena_absolute_band():
    path = next((p for p in LENA_PATHS if p and os.path.exists(p)), None)
    if path is None:
        report(8, "SKIP - informative check; supply a 512x512 Lena via CORDIC_DCT_LENA")
        pytest.skip("no Lena image supplied (informative, non-gating criterion)")
    img = read_pgm(path)
    assert (img.width, img.height) == (512, 512)
    rep = sweep(img, [1e-3], [95])
    value = rep.rows[0].psnr_db
    assert 40.0 <= value <= 47.0
    report(8, f"PASS - Lena @ Q95, eps 1e-3: {value:.3f} dB inside [40, 47]")


def test_criterion_09_shift_add_purity():
    # The DCT flow graph and the rotator kernel, run on values that refuse
    # anything but shift-add (see _Traced below).
    eng = DctEngine(epsilon=1e-3, mode=ArithmeticMode.fixed(24, 8, OverflowPolicy.ERROR))
    ops = {"adds": 0, "shifts": 0}
    _flow(eng._set, [_Traced(ops) for _ in range(8)], rotate_raw, eng._set.scale_raw, _unchecked)
    rotate_raw(_Traced(ops), _Traced(ops), decompose(PI / 16, 1e-4).steps, _unchecked)

    per_transform = eng.operation_counts()
    assert per_transform["multiplies"] == 0
    report(
        9,
        "PASS - zero multiplies; per-8-point transform: "
        f"{per_transform['adds']} adds, {per_transform['shifts']} shifts "
        f"(rotation steps {per_transform['rotation_steps']})",
    )


# Criterion 9 made able to fail: the datapath itself, run on values that
# refuse anything but shift-add, must do exactly what the cost model charges.
# The model charges the first term of each CSD sum as an add; the kernel
# seeds its sum with that term instead, one add fewer per scaled column.


class _Traced:
    """A raw datapath value that counts adds/subtracts and shifts and
    refuses every other arithmetic operation, so a kernel run on it either
    proves itself shift-add or fails."""

    __slots__ = ("ops",)

    def __init__(self, ops: dict):
        self.ops = ops  # tally shared by every value of one trace

    def _add(self, other):
        if not isinstance(other, _Traced):
            raise AssertionError(f"add with a non-datapath operand {other!r}")
        self.ops["adds"] += 1
        return _Traced(self.ops)

    def _shift(self, k):
        if type(k) is not int:
            raise AssertionError(f"shift by a non-constant amount {k!r}")
        self.ops["shifts"] += 1
        return _Traced(self.ops)

    __add__ = __sub__ = _add
    __lshift__ = __rshift__ = _shift

    def _refuse(self, *args):
        raise AssertionError("a non shift-add operation ran in the datapath")

    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _refuse
    __floordiv__ = __rfloordiv__ = __mod__ = __rmod__ = _refuse
    __pow__ = __rpow__ = __matmul__ = __rmatmul__ = _refuse
    __neg__ = __pos__ = __abs__ = __float__ = __int__ = __index__ = _refuse


@pytest.mark.parametrize("compensation", ["folded", "per_rotator"])
@pytest.mark.parametrize("fold", [False, True])
@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-6])
def test_criterion_09_traced_flow_graph(compensation, fold, eps):
    engine = DctEngine(eps, compensation=compensation, fold_into_quantizer=fold)
    ops = {"adds": 0, "shifts": 0}
    _flow(engine._set, [_Traced(ops) for _ in range(8)], rotate_raw, engine._set.scale_raw,
          _unchecked)
    counts = engine.operation_counts()
    scaled_columns = (8 if compensation == "per_rotator" else 2) + (0 if fold else 8)
    assert ops["shifts"] == counts["shifts"]
    assert ops["adds"] == counts["adds"] - scaled_columns


@pytest.mark.parametrize("theta", [PI / 16, -PI / 3, 0.2])
@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
def test_criterion_09_traced_rotator(theta, eps):
    plan = decompose(theta, eps)
    # the kernels apply_plan runs in 16.12 (test_rotator.py ties them to its
    # output): the rotation, then the gain's CSD sum per component
    fmt = ArithmeticMode.fixed(16, 12).fmt
    gain = csd_scale(plan.gain, max_terms=16, tolerance=max(fmt.lsb / 2, 2.0**-18))
    ops = {"adds": 0, "shifts": 0}
    x, y = rotate_raw(_Traced(ops), _Traced(ops), plan.steps, _unchecked)
    gain.apply_raw(x), gain.apply_raw(y)
    # the rotator's cost model: 2 adds and 2 shifts per step and per CSD
    # term; the kernel seeds each CSD sum with its first term, one add fewer
    model = 2 * len(plan.steps) + 2 * len(gain.terms)
    assert ops["shifts"] == model
    assert ops["adds"] == model - 2


def test_criterion_10_determinism(tmp_path):
    from cordic_dct.images import photo_proxy

    img = photo_proxy(64)
    src = tmp_path / "probe.pgm"
    write_pgm(img, src)
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = cli_main(
            [
                "eval", str(src),
                "--qualities", "95,85,75",
                "--epsilons", "1e-3,1e-4",
                "--out", str(out),
            ]
        )
        assert rc == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    direct = [sweep(img, [1e-3], [95, 75]).to_csv() for _ in range(2)]
    assert direct[0] == direct[1]
    report(10, "PASS - repeated eval runs are byte-identical")
