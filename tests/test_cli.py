"""CLI tests: argument parsing, output shapes, status lines, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cordic_dct
from cordic_dct.cli import _PI_RE, main, parse_angle
from cordic_dct.codec import GrayImage
from cordic_dct.dct8 import DctEngine
from cordic_dct.fixedpoint import FixedPointFormat
from cordic_dct.images import photo_proxy
from cordic_dct.planner import decompose
from cordic_dct.pgm import write_pgm


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_quiet(argv, stdin=""):
    """``main(argv)`` with ``stdin`` as standard input; (exit code, stdout)."""
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


# Tokens that parse as a non-finite float ("1e999" overflows to inf).
NON_FINITE = st.sampled_from(["inf", "-inf", "nan", "-nan", "Infinity", "1e999", "-1e999"])


def beyond_word(fmt: FixedPointFormat):
    """Finite values that quantize outside the word, as text."""
    magnitude = st.floats(fmt.max_raw * fmt.lsb + 1, 1e300)
    return st.tuples(st.sampled_from([1.0, -1.0]), magnitude).map(lambda t: repr(t[0] * t[1]))


def mode_args(mode: str, bits: tuple[int, int]) -> list[str]:
    return ["--mode=float"] if mode == "float" else [f"--mode={bits[0]}.{bits[1]}"]


def assert_refused(rc: int, out: str, result_label: str) -> None:
    assert rc == 1
    assert out.strip().split("\n")[-1].startswith("status: error:")
    assert result_label not in out


@given(
    data=st.data(),
    mode=st.sampled_from(["float", "fixed"]),
    bits=st.sampled_from([(24, 8), (16, 5), (32, 16)]),
    count=st.sampled_from([8, 64]),
)
def test_dct_non_finite_or_out_of_range_input_fails(data, mode, bits, count):
    fmt = FixedPointFormat(*bits)
    bad = NON_FINITE if mode == "float" else st.one_of(NON_FINITE, beyond_word(fmt))
    values = data.draw(st.lists(st.floats(-255, 255).map(repr), min_size=count, max_size=count))
    for k in data.draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=3, unique=True)):
        values[k] = data.draw(bad)
    eps = data.draw(st.floats(1e-6, 1e-2))
    rc, out = run_quiet(["dct", "--input=-", f"--eps={eps!r}", *mode_args(mode, bits)],
                        " ".join(values))
    assert_refused(rc, out, "coefficients")


@given(
    data=st.data(),
    mode=st.sampled_from(["float", "fixed"]),
    bits=st.sampled_from([(16, 12), (24, 8), (12, 3)]),
    which=st.sampled_from(["x", "y", "angle", "eps"]),
    compensate=st.booleans(),
)
def test_rotate_non_finite_or_out_of_range_input_fails(data, mode, bits, which, compensate):
    fmt = FixedPointFormat(*bits)
    args = {
        "angle": repr(data.draw(st.floats(-math.pi / 2, math.pi / 2))),
        "eps": repr(data.draw(st.floats(1e-6, 1e-2))),
        "x": repr(data.draw(st.floats(-2, 2))),
        "y": repr(data.draw(st.floats(-2, 2))),
    }
    if which in ("x", "y"):
        bad = NON_FINITE if mode == "float" else st.one_of(NON_FINITE, beyond_word(fmt))
    elif which == "angle":  # outside [-pi/2, pi/2]
        beyond = st.floats(math.pi / 2, 1e300, exclude_min=True)
        bad = st.one_of(NON_FINITE, beyond.map(repr), beyond.map(lambda a: repr(-a)))
    else:  # outside [1e-9, 1e-1]
        bad = st.one_of(NON_FINITE, st.floats(-1.0, 1e-9, exclude_max=True).map(repr),
                        st.floats(0.1, 1e300, exclude_min=True).map(repr))
    args[which] = data.draw(bad)
    argv = ["rotate", *(f"--{k}={v}" for k, v in args.items()), *mode_args(mode, bits)]
    if not compensate:
        argv.append("--no-compensate")
    assert_refused(*run_quiet(argv), "rotated")


def beyond(limit: float):
    """Finite values of either sign over ``limit``, as text."""
    magnitude = st.floats(limit, sys.float_info.max, exclude_min=True)
    return st.tuples(st.sampled_from([1.0, -1.0]), magnitude).map(lambda t: repr(t[0] * t[1]))


def run_strict(argv, stdin=""):
    """``run_quiet`` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_quiet(argv, stdin)


@given(
    data=st.data(),
    mode=st.sampled_from(["float", "fixed"]),
    bits=st.sampled_from([(24, 8), (16, 5), (32, 16)]),
    count=st.sampled_from([8, 64]),
)
def test_dct_input_beyond_the_overflow_limit_fails(data, mode, bits, count):
    # Half of DBL_MAX over the largest factor by which a value the transform
    # computes can exceed its input: the float engine's input_limit, or over
    # the fixed-point quantizer's 2**frac.
    eps = data.draw(st.floats(1e-6, 1e-2))
    if mode == "float":
        limit = DctEngine(eps).input_limit
    else:
        limit = sys.float_info.max / (2.0 * 2.0 ** bits[1])
    values = data.draw(st.lists(st.floats(-255, 255).map(repr), min_size=count, max_size=count))
    values[data.draw(st.integers(0, count - 1))] = data.draw(beyond(limit))
    rc, out = run_strict(["dct", "--input=-", f"--eps={eps!r}", *mode_args(mode, bits)],
                         " ".join(values))
    assert_refused(rc, out, "coefficients")


@given(
    data=st.data(),
    mode=st.sampled_from(["float", "fixed"]),
    which=st.sampled_from(["x", "y"]),
    compensate=st.booleans(),
)
def test_rotate_input_beyond_the_overflow_limit_fails(data, mode, which, compensate):
    args = {
        "angle": repr(data.draw(st.floats(-math.pi / 2, math.pi / 2))),
        "eps": repr(data.draw(st.floats(1e-6, 1e-2))),
        "x": repr(data.draw(st.floats(-2, 2))),
        "y": repr(data.draw(st.floats(-2, 2))),
    }
    plan = decompose(float(args["angle"]), float(args["eps"]))
    # Half of DBL_MAX over the rotation's growth: sqrt2 times the norm growth 1 / plan.gain.
    growth = math.sqrt(2.0) * (1.0 / plan.gain)
    args[which] = data.draw(beyond(sys.float_info.max / (2.0 * growth)))
    argv = ["rotate", *(f"--{k}={v}" for k, v in args.items()), *mode_args(mode, (16, 12))]
    if not compensate:
        argv.append("--no-compensate")
    assert_refused(*run_strict(argv), "rotated")


def test_binary64_overflow_examples_fail():
    assert_refused(*run_strict(["dct", "--input=-"], " ".join(["1e308"] * 8)), "coefficients")
    assert_refused(*run_strict(["rotate", "--angle=pi/4", "--x=1e308", "--y=1e308"]), "rotated")
    rc, out = run_strict(["dct", "--input=-"], " ".join(["1e300"] + ["0"] * 7))
    assert rc == 0 and "coefficients" in out


class TestAngleParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pi/16", math.pi / 16),
            ("3pi/8", 3 * math.pi / 8),
            ("3*pi/8", 3 * math.pi / 8),
            ("-pi/4", -math.pi / 4),
            ("pi", math.pi),
            ("0.5", 0.5),
            ("-0.25", -0.25),
            ("deg:90", math.pi / 2),
            ("deg:-45", -math.pi / 4),
        ],
    )
    def test_expressions(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, rel=1e-15)

    def test_round_trip(self):
        for theta in (0.0, math.pi / 16, -1.23456789, 0.1963495408):
            assert parse_angle(repr(theta)) == theta

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_angle("two pies")

    @pytest.mark.parametrize("text", ["pi/0", "3pi/0.0", "-pi / 00", "2*pi/0.000"])
    def test_zero_denominator_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="divides by zero"):
            parse_angle(text)

    @given(text=st.from_regex(_PI_RE, fullmatch=True))
    def test_pi_expressions_give_a_float_or_a_value_error(self, text):
        try:
            value = parse_angle(text)
        except ValueError:
            return
        assert isinstance(value, float)

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--angle", "pi/0"],
            ["table", "--angles", "pi/4,3pi/0.0"],
            ["rotate", "--angle", "3pi/0.0", "--x", "1", "--y", "0"],
        ],
    )
    def test_zero_denominator_fails_in_every_subcommand(self, argv):
        rc, out = run_quiet(argv)
        assert rc == 1
        assert out.strip().split("\n")[-1].startswith("status: error:")


class TestDecompose:
    def test_pi16_table_row(self, capsys):
        rc, out = run_cli(capsys, "decompose", "--angle", "pi/16", "--eps", "1e-4")
        assert rc == 0
        assert "i: 2/4/6/9/13" in out
        assert "sigma: + - + - +" in out
        assert out.strip().endswith("status: ok")

    def test_zero_angle_notice(self, capsys):
        rc, out = run_cli(capsys, "decompose", "--angle", "0", "--eps", "1e-3")
        assert rc == 0
        assert "empty plan" in out

    def test_3pi16(self, capsys):
        rc, out = run_cli(capsys, "decompose", "--angle", "3pi/16", "--eps", "1e-3")
        assert rc == 0
        assert "i: 1/3/10" in out
        assert "sigma: + + +" in out

    def test_domain_error_exits_nonzero(self, capsys):
        rc, out = run_cli(capsys, "decompose", "--angle", "3.0", "--eps", "1e-3")
        assert rc == 1
        assert "status: error:" in out

    def test_csv_format(self, capsys):
        # ``decompose`` prints text only; ``table`` renders a plan as CSV.
        rc, out = run_cli(
            capsys, "table", "--angles", "pi/16", "--epsilons", "1e-4", "--format", "csv"
        )
        assert rc == 0
        assert "angle_rad,epsilon,indices,directions,residual_rad,gain" in out
        assert "2/4/6/9/13,+-+-+" in out


class TestTable:
    def test_paper_grid_csv(self, capsys):
        rc, out = run_cli(capsys, "table", "--format", "csv")
        assert rc == 0
        lines = [l for l in out.strip().split("\n") if l and not l.startswith("status")]
        assert len(lines) == 1 + 8
        assert any(",0/1/4/7/10/12,++---+," in l for l in lines)
        assert any(",2/4/6/9,+-+-," in l for l in lines)
        assert any(",1/3/10,+++," in l for l in lines)

    def test_empty_angles_header_only(self, capsys):
        rc, out = run_cli(capsys, "table", "--angles", "", "--format", "csv")
        assert rc == 0
        lines = [l for l in out.strip().split("\n") if l and not l.startswith("status")]
        assert lines == ["angle_rad,epsilon,indices,directions,residual_rad,gain"]

    def test_json_format(self, capsys):
        rc, out = run_cli(capsys, "table", "--format", "json")
        assert rc == 0
        body = out[: out.rindex("status:")]
        payload = json.loads(body)
        assert len(payload) == 8

    def test_extended_epsilons(self, capsys):
        rc, out = run_cli(
            capsys, "table", "--angles", "pi/16", "--epsilons", "1e-3,1e-6", "--format", "csv"
        )
        assert rc == 0
        assert "2/4/6/9," in out
        assert "2/4/6/9/13/18," in out


class TestRotate:
    def test_small_error_against_ideal(self, capsys):
        rc, out = run_cli(
            capsys, "rotate", "--angle", "pi/16", "--eps", "1e-4", "--x", "1", "--y", "0"
        )
        assert rc == 0
        err_line = [l for l in out.split("\n") if l.startswith("error:")][0]
        assert float(err_line.split()[-1]) < 1e-3

    def test_fixed_mode(self, capsys):
        rc, out = run_cli(
            capsys,
            "rotate", "--angle", "pi/4", "--eps", "1e-3",
            "--x", "0.5", "--y", "0.25",
            "--mode", "16.12",
        )
        assert rc == 0
        assert "rotated:" in out

    def test_fixed_mode_non_finite_input_fails(self, capsys):
        rc, out = run_cli(
            capsys, "rotate", "--angle", "pi/4", "--x", "inf", "--y", "0", "--mode", "fixed"
        )
        assert rc == 1
        assert out.strip().split("\n")[-1].startswith("status: error:")

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_float_mode_non_finite_input_fails(self, capsys, value):
        rc, out = run_cli(capsys, "rotate", "--angle", "pi/4", "--x", value, "--y", "0")
        assert rc == 1
        assert out.strip().split("\n")[-1].startswith("status: error:")
        assert "rotated:" not in out

    def test_fixed_mode_out_of_range_result_fails(self, capsys):
        # 16.12 holds [-8, 8); the uncompensated pi/4 rotation of (7, 7) leaves it
        rc, out = run_cli(
            capsys, "rotate", "--angle", "pi/4", "--x", "7", "--y", "7",
            "--mode", "fixed", "--no-compensate",
        )
        assert rc == 1
        assert out.strip().split("\n")[-1].startswith("status: error:")
        assert "rotated:" not in out


class TestDct:
    def test_constant_vector_from_file(self, capsys, tmp_path):
        src = tmp_path / "vec.txt"
        src.write_text("1 1 1 1 1 1 1 1\n")
        rc, out = run_cli(capsys, "dct", "--input", str(src), "--eps", "1e-4")
        assert rc == 0
        assert "2.828427" in out
        assert "status: ok" in out

    def test_zero_vector(self, capsys, tmp_path):
        src = tmp_path / "vec.txt"
        src.write_text("0 0 0 0 0 0 0 0")
        rc, out = run_cli(capsys, "dct", "--input", str(src))
        assert rc == 0
        assert "max error vs oracle: 0" in out

    def test_block_input_json(self, capsys, tmp_path):
        src = tmp_path / "block.txt"
        src.write_text(" ".join(["128"] * 64))
        rc, out = run_cli(capsys, "dct", "--input", str(src), "--format", "json")
        assert rc == 0
        payload = json.loads(out[: out.rindex("status:")])
        assert len(payload["coefficients"]) == 8
        assert payload["max_error_vs_oracle"] < 1e-2

    @pytest.mark.parametrize("mode", ["float", "fixed"])
    @pytest.mark.parametrize("count", [8, 64])
    def test_non_finite_input_fails(self, capsys, tmp_path, mode, count):
        src = tmp_path / "vec.txt"
        src.write_text(" ".join(["inf"] + ["0"] * (count - 1)))
        rc, out = run_cli(capsys, "dct", "--input", str(src), "--mode", mode)
        assert rc == 1
        assert out.strip().split("\n")[-1].startswith("status: error:")

    @pytest.mark.parametrize("count", [8, 64])
    def test_fixed_mode_out_of_range_input_fails(self, capsys, tmp_path, count):
        src = tmp_path / "vec.txt"
        src.write_text(" ".join(["1e300"] + ["0"] * (count - 1)))
        rc, out = run_cli(capsys, "dct", "--input", str(src), "--mode", "fixed")
        assert rc == 1
        assert out.strip().split("\n")[-1].startswith("status: error:")
        assert "coefficients:" not in out

    def test_wrong_count_fails(self, capsys, tmp_path):
        src = tmp_path / "vec.txt"
        src.write_text("1 2 3")
        rc, out = run_cli(capsys, "dct", "--input", str(src))
        assert rc == 1
        assert "status: error:" in out


class TestEval:
    @pytest.fixture
    def small_pgm(self, tmp_path):
        rng = np.random.default_rng(5)
        img = GrayImage.from_array(rng.integers(0, 256, size=(32, 32)).astype(np.uint8))
        path = tmp_path / "img.pgm"
        write_pgm(img, path)
        return path

    def test_single_cell(self, capsys, small_pgm, tmp_path):
        out_path = tmp_path / "report.csv"
        rc, out = run_cli(
            capsys,
            "eval", str(small_pgm),
            "--qualities", "95", "--epsilons", "1e-3",
            "--out", str(out_path),
        )
        assert rc == 0
        assert "status: ok" in out
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "epsilon,quality,psnr_db,mean_abs_coef_err,saturations"
        assert len(lines) == 2

    def test_repeat_runs_byte_identical(self, capsys, small_pgm, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc, _ = run_cli(
                capsys,
                "eval", str(small_pgm),
                "--qualities", "95,85", "--epsilons", "1e-3",
                "--out", str(path),
            )
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fold_into_quantizer_flag(self, capsys, small_pgm, tmp_path):
        out_path = tmp_path / "folded.csv"
        rc, _ = run_cli(
            capsys,
            "eval", str(small_pgm),
            "--qualities", "95", "--epsilons", "1e-4",
            "--fold-into-quantizer",
            "--out", str(out_path),
        )
        assert rc == 0
        assert len(out_path.read_text().strip().split("\n")) == 2

    def test_json_report(self, capsys, small_pgm, tmp_path):
        out_path = tmp_path / "report.json"
        rc, _ = run_cli(
            capsys,
            "eval", str(small_pgm),
            "--qualities", "90", "--epsilons", "1e-3",
            "--format", "json", "--out", str(out_path),
        )
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload[0]["quality"] == 90

    @pytest.mark.parametrize("flags,repeated", [
        (["--qualities", "90,90", "--epsilons", "1e-3,1e-3"], "epsilon 0.001"),
        (["--qualities", "90,75,90", "--epsilons", "1e-3"], "quality 90"),
        (["--qualities", "90", "--epsilons", "1e-3,0.001"], "epsilon 0.001"),
    ])
    def test_repeated_cell_fails(self, capsys, small_pgm, flags, repeated):
        rc, out = run_cli(capsys, "eval", str(small_pgm), *flags)
        assert rc == 1
        assert out.startswith(f"status: error: {repeated} repeated")

    def test_missing_file_fails(self, capsys):
        rc, out = run_cli(capsys, "eval", "/nonexistent/image.pgm")
        assert rc == 1
        assert "status: error:" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--angle", "pi/16", "--mode", "fixed"],
        ["decompose", "--angle", "pi/16", "--bits", "16"],
        ["decompose", "--angle", "pi/16", "--frac", "12"],
        ["decompose", "--angle", "pi/16", "--format", "csv"],
        ["table", "--mode", "fixed"],
        ["table", "--bits", "16"],
        ["table", "--frac", "12"],
        ["table", "--format", "csv", "--paper"],
        ["table", "--eps", "1e-4"],
        ["table", "--eps-list", "1e-3,1e-4"],
        ["rotate", "--angle", "pi/16", "--x", "1", "--y", "0", "--format", "text"],
        ["rotate", "--angle", "pi/16", "--x", "1", "--y", "0", "--bits", "16"],
        ["rotate", "--angle", "pi/16", "--x", "1", "--y", "0", "--frac", "12"],
        ["dct", "--format", "csv"],
        ["dct", "--mode", "fixed", "--bits", "24"],
        ["dct", "--mode", "fixed", "--frac", "8"],
        ["eval", "synthetic", "--format", "text"],
        ["eval", "synthetic", "--bits", "24"],
        ["eval", "synthetic", "--frac", "8"],
        ["decompose", "--angle", "pi/16", "--policy", "nearest"],
        ["table", "--policy", "nearest"],
        ["rotate", "--angle", "pi/16", "--x", "1", "--y", "0", "--policy", "nearest"],
        ["dct", "--policy", "nearest"],
        ["eval", "synthetic", "--policy", "nearest"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_flag_the_command_does_not_read_is_refused(capsys, argv):
    # Each subcommand takes only the flags it reads: argparse refuses the
    # rest with its usage error, before any work is done.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "status:" not in capsys.readouterr().out


# The stdout of each removed flag's invocation, as printed before the flag
# was removed, and the invocation that replaces it.  The paper grid in JSON
# is pinned by its sha256: the same eight plans as the CSV, 1757 bytes.
PAPER_TABLE_TEXT = """\
       angle       eps  i                sigma           residual  gain
        pi/4     0.001  0                +              0.000e+00  0.707107
        pi/4    0.0001  0                +              0.000e+00  0.707107
       3pi/8     0.001  0/1/4/7          ++--          -7.174e-04  0.631205
       3pi/8    0.0001  0/1/4/7/10/12    ++---+         1.505e-05  0.631204
       pi/16     0.001  2/4/6/9          +-+-           1.191e-04  0.968133
       pi/16    0.0001  2/4/6/9/13       +-+-+         -2.989e-06  0.968133
      3pi/16     0.001  1/3/10           +++            6.946e-05  0.887520
      3pi/16    0.0001  1/3/10           +++            6.946e-05  0.887520
status: ok
"""
PAPER_TABLE_CSV = """\
angle_rad,epsilon,indices,directions,residual_rad,gain
0.7853981633974483,0.001,0,+,0.0,0.7071067811865476
0.7853981633974483,0.0001,0,+,0.0,0.7071067811865476
1.1780972450961724,0.001,0/1/4/7,++--,-0.0007173762460234928,0.631204611979837
1.1780972450961724,0.0001,0/1/4/7/10/12,++---+,1.504532338646484e-05,0.6312042921868855
0.19634954084936207,0.001,2/4/6/9,+-+-,0.00011908161445726376,0.9681332038642425
0.19634954084936207,0.0001,2/4/6/9/13,+-+-+,-2.988697436406444e-06,0.9681331966510881
0.5890486225480862,0.001,1/3/10,+++,6.945681095935812e-05,0.8875198907580049
0.5890486225480862,0.0001,1/3/10,+++,6.945681095935812e-05,0.8875198907580049
status: ok
"""
PAPER_TABLE_JSON_SHA256 = "682aa5cd4284851c7a7dc576f51c37b8bcf869891555c5ced0c23dad776b4d5e"
PI16_TABLE_CSV = """\
angle_rad,epsilon,indices,directions,residual_rad,gain
0.19634954084936207,0.001,2/4/6/9,+-+-,0.00011908161445726376,0.9681332038642425
0.19634954084936207,1e-06,2/4/6/9/13/18,+-+-+-,8.259998292000522e-07,0.968133196644044
status: ok
"""
PI16_PLAN_CSV = """\
angle_rad,epsilon,indices,directions,residual_rad,gain
0.19634954084936207,0.0001,2/4/6/9/13,+-+-+,-2.988697436406444e-06,0.9681331966510881
status: ok
"""
PLAN_3PI8_JSON = """\
[
  {
    "angle_rad": 1.1780972450961724,
    "epsilon": 1e-06,
    "indices": [
      0,
      1,
      4,
      7,
      10,
      12,
      16
    ],
    "directions": "++---++",
    "residual_rad": -2.1346567485092204e-07,
    "gain": 0.6312042921134036
  }
]
status: ok
"""
DECOMPOSE_PI16 = """\
i: 2/4/6/9/13  sigma: + - + - +
residual: -2.988697436406444e-06
gain: 0.9681331966510881
reconstructed: 0.1963525295467985
status: ok
"""
TABLE_10_DEG = """\
       angle       eps  i                sigma           residual  gain
      deg:10     1e-05  3/4/6/8/11/15    ++-+--        -4.582e-06  0.990217
status: ok
"""
ROTATE_3PI8 = """\
rotated: (0.38269733238811365, 0.9238737748107272)
ideal:   (0.38268343236508984, 0.9238795325112867)
error:   1.505e-05
status: ok
"""
DCT_DESCENDING = """\
coefficients: 12.727922 6.442356 0.000000 0.673024 0.000000 0.201352 0.000000 0.050484
max error vs oracle: 4.495e-04
status: ok
"""
EVAL_75 = """\
epsilon,quality,psnr_db,mean_abs_coef_err,saturations
0.0001,75,33.071,6.809238e-04,0
status: ok
"""
ROTATE_12_6 = """\
rotated: (0.1875, 0.546875)
ideal:   (0.17677669529663692, 0.5303300858899106)
error:   1.972e-02
status: ok
"""
DCT_16_5 = """\
coefficients: 12.750000 -6.437500 0.000000 -0.781250 0.000000 -0.312500 0.000000 0.000000
max error vs oracle: 1.116e-01
status: ok
"""
EVAL_16_5 = """\
epsilon,quality,psnr_db,mean_abs_coef_err,saturations
0.001,90,34.708,1.945289e-01,522
status: ok
"""


@pytest.mark.parametrize("argv,stdin,expected", [
    pytest.param(["table"], "", PAPER_TABLE_TEXT, id="table --paper"),
    pytest.param(["table", "--format", "csv"], "", PAPER_TABLE_CSV,
                 id="table --paper --format csv"),
    pytest.param(["table", "--angles", "pi/16", "--epsilons", "1e-3,1e-6", "--format", "csv"], "",
                 PI16_TABLE_CSV, id="table --angles pi/16 --eps-list 1e-3,1e-6 --format csv"),
    pytest.param(["table", "--angles", "pi/16", "--epsilons", "1e-4", "--format", "csv"], "",
                 PI16_PLAN_CSV, id="decompose --angle pi/16 --eps 1e-4 --format csv"),
    pytest.param(["table", "--angles", "3pi/8", "--epsilons", "1e-6", "--format", "json"], "",
                 PLAN_3PI8_JSON, id="decompose --angle 3pi/8 --eps 1e-6 --format json"),
    pytest.param(["rotate", "--angle", "pi/4", "--eps", "1e-3", "--x", "0.5", "--y", "0.25",
                  "--mode", "12.6"], "", ROTATE_12_6,
                 id="rotate --angle pi/4 --eps 1e-3 --x 0.5 --y 0.25 "
                    "--mode fixed --bits 12 --frac 6"),
    pytest.param(["dct", "--input", "-", "--mode", "16.5"], "1 2 3 4 5 6 7 8\n", DCT_16_5,
                 id="dct --input - --mode fixed --bits 16 --frac 5"),
    pytest.param(["eval", "synthetic", "--qualities", "90", "--epsilons", "1e-3", "--mode", "16.5"],
                 "", EVAL_16_5,
                 id="eval synthetic --qualities 90 --epsilons 1e-3 --mode fixed --bits 16 --frac 5"
                 ),
    pytest.param(["decompose", "--angle", "pi/16", "--eps", "1e-4"], "", DECOMPOSE_PI16,
                 id="decompose --angle pi/16 --eps 1e-4 --policy nearest"),
    pytest.param(["table", "--angles", "deg:10", "--epsilons", "1e-5"], "", TABLE_10_DEG,
                 id="table --angles deg:10 --epsilons 1e-5 --policy nearest"),
    pytest.param(["rotate", "--angle", "3pi/8", "--eps", "1e-4", "--x", "1", "--y", "0"], "",
                 ROTATE_3PI8, id="rotate --angle 3pi/8 --eps 1e-4 --x 1 --y 0 --policy nearest"),
    pytest.param(["dct", "--input", "-", "--eps", "1e-3"], "8 7 6 5 4 3 2 1\n", DCT_DESCENDING,
                 id="dct --input - --eps 1e-3 --policy nearest"),
    pytest.param(["eval", "synthetic", "--qualities", "75", "--epsilons", "1e-4"], "", EVAL_75,
                 id="eval synthetic --qualities 75 --epsilons 1e-4 --policy nearest"),
])
def test_removed_flag_replacement_prints_the_same_bytes(argv, stdin, expected):
    # Each id is the removed invocation whose stdout ``expected`` is.
    assert run_quiet(argv, stdin) == (0, expected)


def test_paper_table_json_is_pinned():
    rc, out = run_quiet(["table", "--format", "json"])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PAPER_TABLE_JSON_SHA256


@pytest.mark.parametrize("value", ["16", "16.", ".5", "16.5.1", "-16.5", "16,5", "fixed16",
                                   "Float", ""])
@pytest.mark.parametrize("command", [["rotate", "--angle", "pi/4", "--x", "1", "--y", "0"],
                                     ["dct"], ["eval", "synthetic"]])
def test_malformed_mode_is_a_usage_error(capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        main([*command, f"--mode={value}"])
    assert exc.value.code == 2
    assert "status:" not in capsys.readouterr().out


@pytest.mark.parametrize("word,message", [("40.8", "total_bits 40 outside [8, 32]"),
                                          ("16.15", "frac_bits 15 outside [0, 14]")])
def test_word_the_format_refuses_fails(word, message):
    rc, out = run_quiet(["rotate", "--angle", "pi/4", "--x", "1", "--y", "0", f"--mode={word}"])
    assert (rc, out) == (1, f"status: error: {message}\n")


def test_closed_reader_ends_quietly():
    # More JSON than a pipe buffer holds, so the write fails whenever the
    # reader closes.
    angles = ",".join(f"deg:{d}" for d in range(1, 80))
    src = str(Path(cordic_dct.__file__).parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "cordic_dct.cli", "table", "--angles", angles,
         "--epsilons", "1e-3,1e-4,1e-5,1e-6,1e-7", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """Every ``cordic-dct`` command the README shows: the lines of its sh
    blocks that run one (after an ``echo ... |`` for stdin), and the
    commands quoted in its prose, even when a quote wraps."""
    text = README.read_text()
    lines = [line.split("#")[0].strip()
             for block in re.findall(r"```sh\n(.*?)```", text, re.DOTALL)
             for line in block.splitlines()]
    commands = [line for line in lines if re.match(r"(echo [^|]*\| *)?cordic-dct ", line)]
    prose = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    return commands + [" ".join(quote.split())
                       for quote in re.findall(r"`(cordic-dct [^`]+)`", prose)]


def test_readme_commands_run(tmp_path):
    # ``image.pgm`` is a temporary image, and ``--out`` writes to tmp_path.
    image = tmp_path / "image.pgm"
    write_pgm(photo_proxy(64), image)
    commands = readme_commands()
    assert len(commands) >= 6
    for command in commands:
        echo, _, command = command.rpartition("|")
        stdin = " ".join(shlex.split(echo)[1:]) + "\n" if echo else ""
        argv = [str(image) if arg == "image.pgm" else arg for arg in shlex.split(command)[1:]]
        if "--out" in argv:
            k = argv.index("--out") + 1
            argv[k] = str(tmp_path / argv[k])
        rc, out = run_quiet(argv, stdin)
        assert rc == 0, (command, out)
