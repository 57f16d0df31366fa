"""CLI tests: argument parsing, output shapes, status lines, exit codes."""

import contextlib
import io
import json
import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cordic_dct.cli import _PI_RE, main, parse_angle
from cordic_dct.codec import GrayImage
from cordic_dct.dct8 import DctEngine
from cordic_dct.fixedpoint import FixedPointFormat
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
    magnitude = st.floats(fmt.max_value + 1, 1e300)
    return st.tuples(st.sampled_from([1.0, -1.0]), magnitude).map(lambda t: repr(t[0] * t[1]))


def mode_args(mode: str, bits: tuple[int, int]) -> list[str]:
    return ["--mode=float"] if mode == "float" else ["--mode=fixed", f"--bits={bits[0]}",
                                                     f"--frac={bits[1]}"]


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
        rc, out = run_cli(
            capsys, "decompose", "--angle", "pi/16", "--eps", "1e-4", "--format", "csv"
        )
        assert rc == 0
        assert "angle_rad,epsilon,indices,directions,residual_rad,gain" in out
        assert "2/4/6/9/13,+-+-+" in out


class TestTable:
    def test_paper_grid_csv(self, capsys):
        rc, out = run_cli(capsys, "table", "--paper", "--format", "csv")
        assert rc == 0
        lines = [l for l in out.strip().split("\n") if l and not l.startswith("status")]
        assert len(lines) == 1 + 8
        assert any(",0/1/4/7/10/12,++---+," in l for l in lines)
        assert any(",2/4/6/9,+-+-," in l for l in lines)
        assert any(",1/3/10,+++," in l for l in lines)

    def test_empty_angles_header_only(self, capsys):
        rc, out = run_cli(capsys, "table", "--format", "csv")
        assert rc == 0
        lines = [l for l in out.strip().split("\n") if l and not l.startswith("status")]
        assert lines == ["angle_rad,epsilon,indices,directions,residual_rad,gain"]

    def test_json_format(self, capsys):
        rc, out = run_cli(capsys, "table", "--paper", "--format", "json")
        assert rc == 0
        body = out[: out.rindex("status:")]
        payload = json.loads(body)
        assert len(payload) == 8

    def test_extended_epsilons(self, capsys):
        rc, out = run_cli(
            capsys, "table", "--angles", "pi/16", "--eps-list", "1e-3,1e-6", "--format", "csv"
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
            "--mode", "fixed", "--bits", "16", "--frac", "12",
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
        ["table", "--paper", "--mode", "fixed"],
        ["table", "--paper", "--bits", "16"],
        ["table", "--paper", "--frac", "12"],
        ["rotate", "--angle", "pi/16", "--x", "1", "--y", "0", "--format", "text"],
        ["dct", "--format", "csv"],
        ["eval", "synthetic", "--format", "text"],
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
