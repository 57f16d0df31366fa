"""Command-line front end: decompose, table, rotate, dct, eval.

Every run prints a final machine-readable ``status:`` line and exits 0
only if no operation failed.  Angle arguments accept plain radians
(``0.3927``), multiples of pi (``pi/16``, ``3pi/8``, ``-pi/4``) and
degrees (``deg:22.5``).  ``--mode`` takes ``float``, ``fixed`` (the
command's own word) or a fixed-point word ``T.F``, such as ``16.5``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import codec, images, pgm, planner, rotator
from .dct8 import DCT_ANGLES, DctEngine, dct2d, dct2d_oracle, dct8_cordic, dct8_oracle
from .fixedpoint import ArithmeticMode, OverflowPolicy

_PI_RE = re.compile(r"^([+-]?)(\d+(?:\.\d+)?)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?$")


def parse_angle(text: str) -> float:
    """Parse an angle expression to radians."""
    s = text.strip().lower()
    if s.startswith("deg:"):
        return math.radians(float(s[4:]))
    m = _PI_RE.match(s)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0.0:
            raise ValueError(f"angle {text!r} divides by zero")
        return sign * num * math.pi / den
    return float(s)


_MODE_RE = re.compile(r"(float)|(fixed)|(\d+)\.(\d+)")


def _mode_word(text: str, fixed: tuple[int, int]) -> tuple[int, int] | None:
    """The word ``(total_bits, frac_bits)`` a ``--mode`` value names, None
    for float; a value of any other form is a usage error."""
    m = _MODE_RE.fullmatch(text)
    if not m:
        raise argparse.ArgumentTypeError(f"invalid mode {text!r}: expected float, fixed or T.F")
    return None if m[1] else fixed if m[2] else (int(m[3]), int(m[4]))


def _parse_mode(args, overflow: OverflowPolicy = OverflowPolicy.ERROR) -> ArithmeticMode:
    """The arithmetic of ``--mode``.  Fixed point refuses out-of-range
    values unless the caller reports saturations itself (``eval``)."""
    if args.mode is None:
        return ArithmeticMode.exact()
    return ArithmeticMode.fixed(*args.mode, overflow=overflow)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _add_common(p, formats=(), word=None):
    """``--out``; ``--format`` if the command prints any of ``formats``
    (the first is the default); and, given the ``(bits, frac)`` of its
    fixed-point ``word``, ``--mode``."""
    if word is not None:
        p.add_argument("--mode", type=lambda text: _mode_word(text, word), default="float",
                       metavar="{float,fixed,T.F}", help=f"fixed is {word[0]}.{word[1]}")
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")


def cmd_decompose(args) -> int:
    theta = parse_angle(args.angle)
    plan = planner.decompose(theta, args.eps)
    lines = []
    if not plan.steps:
        lines.append(f"angle {theta!r} already within eps={args.eps:g}: empty plan")
    else:
        sigma = " ".join(plan.directions_str)
        lines.append(f"i: {plan.indices_str}  sigma: {sigma}")
    lines.append(f"residual: {plan.residual!r}")
    lines.append(f"gain: {plan.gain!r}")
    lines.append(f"reconstructed: {planner.reconstruct_angle(plan)!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# The paper's tolerances: ``table``'s and ``eval``'s default grid.
_PAPER_EPSILONS = "1e-3,1e-4"


def cmd_table(args) -> int:
    angle_exprs = [a for a in args.angles.split(",") if a]
    epsilons = [float(e) for e in args.epsilons.split(",")]
    angles = [parse_angle(a) for a in angle_exprs]
    plans = planner.generate_table(angles, epsilons)
    if args.format == "json":
        _emit(planner.table_to_json(plans), args.out)
    elif args.format == "csv":
        _emit(planner.table_to_csv(plans), args.out)
    else:
        lines = [f"{'angle':>12}  {'eps':>8}  {'i':<16} {'sigma':<10} {'residual':>13}  gain"]
        for k, p in enumerate(plans):
            expr = angle_exprs[k // len(epsilons)]
            lines.append(
                f"{expr:>12}  {p.tolerance:>8g}  {p.indices_str or '-':<16} "
                f"{p.directions_str or '-':<10} {p.residual:>13.3e}  {p.gain:.6f}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_rotate(args) -> int:
    theta = parse_angle(args.angle)
    plan = planner.decompose(theta, args.eps)
    mode = _parse_mode(args)
    v = rotator.Vector2(args.x, args.y)
    got = rotator.apply_plan(v, plan, mode, compensate=not args.no_compensate)
    ideal = rotator.ideal_rotation_matrix(theta).apply(v)
    err = math.hypot(got.x - ideal.x, got.y - ideal.y)
    lines = [
        f"rotated: ({got.x!r}, {got.y!r})",
        f"ideal:   ({ideal.x!r}, {ideal.y!r})",
        f"error:   {err:.3e}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _read_numbers(source: str) -> list[float]:
    if source == "-":
        text = sys.stdin.read()
    else:
        with open(source) as fh:
            text = fh.read()
    return [float(tok) for tok in text.replace(",", " ").split()]


def cmd_dct(args) -> int:
    values = _read_numbers(args.input)
    if len(values) not in (8, 64):
        raise ValueError(f"expected 8 or 64 numbers, got {len(values)}")
    engine = DctEngine(epsilon=args.eps, mode=_parse_mode(args))
    if len(values) == 8:
        got = dct8_cordic(np.array(values), engine)
        ref = dct8_oracle(np.array(values))
    else:
        block = np.array(values).reshape(8, 8)
        got = dct2d(block, engine)
        ref = dct2d_oracle(block)
    err = float(np.max(np.abs(got - ref)))
    if args.format == "json":
        _emit(
            json.dumps({"coefficients": got.tolist(), "max_error_vs_oracle": err}, indent=2),
            args.out,
        )
    else:
        flat = got.reshape(-1)
        lines = ["coefficients: " + " ".join(f"{c:.6f}" for c in flat)]
        lines.append(f"max error vs oracle: {err:.3e}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_eval(args) -> int:
    img = pgm.read_pgm(args.image) if args.image != "synthetic" else images.photo_proxy()
    qualities = [int(q) for q in args.qualities.split(",")]
    epsilons = [float(e) for e in args.epsilons.split(",")]
    mode = _parse_mode(args, OverflowPolicy.SATURATE)  # the report counts saturations
    report = codec.sweep(
        img, epsilons, qualities, mode=mode, fold_into_quantizer=args.fold_into_quantizer,
    )
    if args.format == "json":
        _emit(report.to_json(), args.out)
    else:
        _emit(report.to_csv(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cordic-dct")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="micro-rotation plan for one angle")
    p.add_argument("--angle", required=True)
    p.add_argument("--eps", type=float, default=1e-4)
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("table", help="decomposition table for angle/eps grids")
    p.add_argument("--angles", default=",".join(DCT_ANGLES), help="comma-separated angles")
    p.add_argument("--epsilons", default=_PAPER_EPSILONS, help="comma-separated tolerances")
    _add_common(p, formats=["text", "csv", "json"])
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("rotate", help="rotate a 2-vector through a plan")
    p.add_argument("--angle", required=True)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--no-compensate", action="store_true")
    _add_common(p, word=(16, 12))
    p.set_defaults(func=cmd_rotate)

    p = sub.add_parser("dct", help="8-point or 8x8 DCT of numbers from a file or stdin")
    p.add_argument("--input", default="-", help="path or '-' for stdin")
    p.add_argument("--eps", type=float, default=1e-4)
    _add_common(p, formats=["text", "json"], word=(24, 8))
    p.set_defaults(func=cmd_dct)

    p = sub.add_parser("eval", help="PSNR sweep over qualities and precisions")
    p.add_argument("image", help="PGM path, or 'synthetic' for the bundled test image")
    p.add_argument("--qualities", default="95,90,85,80,75")
    p.add_argument("--epsilons", default=_PAPER_EPSILONS)
    p.add_argument("--fold-into-quantizer", dest="fold_into_quantizer", action="store_true",
                   help="skip transform post-scales and divide them into the quantizer")
    _add_common(p, formats=["csv", "json"], word=(24, 8))
    p.set_defaults(func=cmd_eval)

    # Flags are spelled in full: a prefix such as ``--eps`` would otherwise
    # pass for ``--epsilons``.
    for p in sub.choices.values():
        p.allow_abbrev = False
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            rc, status = args.func(args), "ok"
        except BrokenPipeError:
            raise
        except (ValueError, OverflowError, OSError, RuntimeError) as exc:
            rc, status = 1, f"error: {exc}"
        print(f"status: {status}")
        sys.stdout.flush()  # so a closed reader shows here, not at exit
    except BrokenPipeError:
        # The reader closed stdout early.  Python's documented recipe (the
        # signal module's note on SIGPIPE): point stdout at devnull, so the
        # interpreter's flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
