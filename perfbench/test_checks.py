"""Self-test of the benchmark: every check can fail, every metric is emitted.

    python3 -m pytest -q perfbench/test_checks.py

The last two tests run the benchmark itself (about two minutes).
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from cordic_dct.images import photo_proxy  # noqa: E402
from cordic_dct.planner import decompose  # noqa: E402
from cordic_dct.rotator import Vector2, apply_plan  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _sweep_check(wl, cfg, golden: bool) -> checks.SweepCheck:
    oracle = checks.oracle_psnr(photo_proxy(wl.size, wl.seed).samples, wl.qualities)
    text = wl.golden_path(cfg).read_text() if golden else None
    return checks.SweepCheck(wl.epsilons, wl.qualities, oracle, cfg.psnr_tol,
                             cfg.zero_saturations, text)


def _bump_field(text: str, row: int, field: int, change) -> str:
    lines = text.split("\n")
    fields = lines[row].split(",")
    fields[field] = change(fields[field])
    lines[row] = ",".join(fields)
    return "\n".join(lines)


def _bump_last_digit(value: str) -> str:
    return value[:-1] + str((int(value[-1]) + 1) % 10)


@pytest.mark.parametrize("make", [workloads.sweep_float, workloads.sweep_fixed])
def test_golden_outputs_pass_their_checks(make, tmp_path):
    wl = make(workloads.DEFAULT_SEED, tmp_path)
    for cfg in wl.configs:
        check = _sweep_check(wl, cfg, golden=True)
        text = wl.golden_path(cfg).read_text()
        assert check(text) is None
        assert check(text) is None  # a repeat op


@pytest.mark.parametrize("make", [workloads.sweep_float, workloads.sweep_fixed])
def test_one_psnr_digit_changed_fails(make, tmp_path):
    wl = make(workloads.DEFAULT_SEED, tmp_path)
    for cfg in wl.configs:
        text = wl.golden_path(cfg).read_text()
        bad = _bump_field(text, 2, 2, _bump_last_digit)
        assert bad != text
        assert _sweep_check(wl, cfg, golden=True)(bad) is not None
        # without a golden (other seeds) the repeat-identity check catches it
        check = _sweep_check(wl, cfg, golden=False)
        assert check(text) is None
        assert check(bad) is not None


def test_saturation_count_off_by_one_fails(tmp_path):
    wl = workloads.sweep_fixed(workloads.DEFAULT_SEED, tmp_path)
    for cfg in wl.configs:
        text = wl.golden_path(cfg).read_text()
        bad = _bump_field(text, 1, 4, lambda s: str(int(s) + 1))
        assert _sweep_check(wl, cfg, golden=True)(bad) is not None
        if cfg.zero_saturations:  # 24.8 must report 0 on any seed, first op included
            assert _sweep_check(wl, cfg, golden=False)(bad) is not None
        else:
            check = _sweep_check(wl, cfg, golden=False)
            assert check(text) is None
            assert check(bad) is not None


def test_fixed_rotation_off_by_10_lsb_fails():
    rng = random.Random(11)
    mode = workloads.FIXED_ROTATE
    lsb = mode.fmt.lsb
    for _ in range(300):
        theta = rng.uniform(-math.pi / 2, math.pi / 2)
        eps = 10.0 ** rng.uniform(-6, -2)
        v = Vector2(rng.uniform(-2, 2), rng.uniform(-2, 2))
        plan = decompose(theta, eps)
        got = apply_plan(v, plan, mode, compensate=True)
        assert checks.rotation_problem(theta, eps, v, plan, got, mode.fmt) is None
        for dx, dy in ((10, 0), (0, -10)):
            off = Vector2(got.x + dx * lsb, got.y + dy * lsb)
            assert checks.rotation_problem(theta, eps, v, plan, off, mode.fmt) is not None


def test_changed_operation_count_fails():
    table = workloads.op_count_table(layers.api())
    assert workloads.op_count_problems(table) == []
    key = next(iter(table))
    table[key] = dict(table[key], adds=table[key]["adds"] + 1)
    assert workloads.op_count_problems(table) != []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NumPy casts of inf, nan and 1e300
def test_timed_calls_only_get_invalid_input_that_is_refused(tmp_path):
    api = layers.api()
    wl = workloads.CallsWorkload(workloads.DEFAULT_SEED, tmp_path)
    wl.prepare(api)
    made, refused, not_refused = wl.refusal_probe(api)
    assert made == sum(map(len, workloads.INVALID.values()))
    assert made - refused == len(not_refused) > 0
    for kind, inputs in workloads.LOOP_INVALID.items():
        assert set(inputs) <= set(workloads.INVALID[kind])
        assert not {f"{kind}[{bad}]" for bad in inputs} & set(not_refused)


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = BENCHMARK["command"] + ["--workload", workload, "--seed", "7",
                                  "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        assert result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected
        for name, unit in expected.items():  # also printed by name, with the unit
            assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                       for line in proc.stdout.split("\n")), name
        if trace:
            m = {k: v["value"] for k, v in result["metrics"].items()}
            reuse = {"sweep-float": 1 / 6, "sweep-fixed": 1 / 3, "calls": 0.0}[workload]
            assert m["codec.forward_reuse_ratio"] == pytest.approx(reuse)
            if workload == "sweep-fixed":
                assert m["dct8.saturations.q24_8"] == 0
                assert m["dct8.saturations.q16_5"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out"))
    proc = _run("calls", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
