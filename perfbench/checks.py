"""Correctness checks for every op the benchmark times.

Each check returns ``None`` when the output is right and a one-line
problem otherwise; the caller counts an op as failed on any problem.
The references are captured at import time, so the traced run never
counts the checker's own calls as library work.
"""

from __future__ import annotations

import math

import numpy as np

from cordic_dct.codec import quant_table_for_quality
from cordic_dct.dct8 import DCT_ANGLES, dct2d_oracle, dct8_oracle
from cordic_dct.rotator import csd_scale, ideal_rotation_matrix

# A call on invalid input passes when it refuses with one of these.
REFUSALS = (ValueError, OverflowError)

# Largest |PSNR(shift-add sweep row) - PSNR(oracle round trip)| accepted,
# in dB.  At the default seed the float rows sit within 0.002 dB and the
# 24.8 rows within 0.003 dB of the oracle; quantizer rounding flips make a
# few thousandths of a dB normal, a real defect moves PSNR by far more.
FLOAT_PSNR_TOL_DB = 0.02
FIXED24_PSNR_TOL_DB = 0.05


def _dct_matrix() -> np.ndarray:
    """Orthonormal 8-point DCT-II, built here rather than taken from src."""
    k = np.arange(8)[:, None]
    x = np.arange(8)[None, :]
    m = 0.5 * np.cos((2 * x + 1) * k * np.pi / 16.0)
    m[0] /= math.sqrt(2.0)
    return m


_M = _dct_matrix()


def _round_half_away(v: np.ndarray) -> np.ndarray:
    return np.trunc(v + np.copysign(0.5, v))


def oracle_psnr(samples: np.ndarray, qualities) -> dict[int, float]:
    """PSNR per quality of a batched NumPy round trip through the exact DCT.

    Same stages as the codec (edge padding, level shift, Annex-K scaled
    quantizer, round half away from zero, exact inverse, clamp), done on
    all blocks at once.
    """
    h, w = samples.shape
    padded = np.pad(samples, ((0, -h % 8), (0, -w % 8)), mode="edge").astype(np.float64)
    ph, pw = padded.shape
    blocks = (padded - 128.0).reshape(ph // 8, 8, pw // 8, 8).transpose(0, 2, 1, 3)
    coefs = _M @ blocks @ _M.T
    src = samples.astype(np.float64)
    out = {}
    for q in qualities:
        step = quant_table_for_quality(q).astype(np.float64)
        rec = _M.T @ (_round_half_away(coefs / step) * step) @ _M + 128.0
        rec = np.clip(_round_half_away(rec), 0, 255)
        img = rec.transpose(0, 2, 1, 3).reshape(ph, pw)[:h, :w]
        mse = float(np.mean((img - src) ** 2))
        out[q] = math.inf if mse == 0.0 else 10.0 * math.log10(255.0 * 255.0 / mse)
    return out


class SweepCheck:
    """Checks the ``to_csv()`` text of one sweep configuration.

    * ``golden`` (stored bytes, default seed only): the text must equal it.
    * Every op after the first must repeat the first op's bytes exactly.
    * Rows must be the (epsilon ascending, quality descending) grid; with
      ``psnr_tol`` each PSNR must lie that close to the oracle round trip,
      and with ``zero_saturations`` every row must report 0 saturations.
    """

    def __init__(self, epsilons, qualities, oracle: dict[int, float],
                 psnr_tol: float | None, zero_saturations: bool, golden: str | None):
        self.grid = [(e, q) for e in sorted(epsilons) for q in sorted(qualities, reverse=True)]
        self.oracle = oracle
        self.psnr_tol = psnr_tol
        self.zero_saturations = zero_saturations
        self.golden = golden
        self.first: str | None = None

    def __call__(self, text: str) -> str | None:
        if self.golden is not None and text != self.golden:
            return "CSV bytes differ from the golden output"
        if self.first is None:
            self.first = text
        elif text != self.first:
            return "CSV bytes differ from the first op on the same input"
        lines = text.split("\n")
        if lines[0] != "epsilon,quality,psnr_db,mean_abs_coef_err,saturations":
            return f"unexpected header {lines[0]!r}"
        if len(lines) != len(self.grid) + 2 or lines[-1] != "":
            return f"expected {len(self.grid)} rows"
        for line, (eps, q) in zip(lines[1:], self.grid):
            fields = line.split(",")
            if len(fields) != 5 or fields[0] != f"{eps:g}" or fields[1] != str(q):
                return f"row {line!r} is not the ({eps:g}, {q}) cell"
            psnr_db, coef_err, sats = float(fields[2]), float(fields[3]), int(fields[4])
            if not (math.isfinite(coef_err) and coef_err >= 0.0):
                return f"bad coefficient error in row {line!r}"
            if self.psnr_tol is not None and not abs(psnr_db - self.oracle[q]) <= self.psnr_tol:
                return (f"PSNR {psnr_db} at ({eps:g}, {q}) is more than {self.psnr_tol} dB "
                        f"from the oracle's {self.oracle[q]:.4f}")
            if self.zero_saturations and sats != 0:
                return f"{sats} saturations at ({eps:g}, {q}), expected 0"
        return None


def csv_rows_for(text: str, epsilons) -> str:
    """The header and the rows of ``epsilons`` of a sweep CSV."""
    keep = {f"{e:g}" for e in epsilons}
    lines = text.split("\n")
    return "\n".join([lines[0]] + [ln for ln in lines[1:] if ln.split(",", 1)[0] in keep]
                     + [""])


def saturations_in(text: str) -> int:
    """Sum of the ``saturations`` column of a sweep CSV."""
    return sum(int(line.rsplit(",", 1)[1]) for line in text.split("\n")[1:] if line)


def plan_problem(theta: float, eps: float, plan) -> str | None:
    """The plan's realized angle, summed here from ``atan(2**-i)``, must be
    within ``eps`` of ``theta``."""
    realized = math.fsum(s.direction * math.atan(2.0 ** -s.index) for s in plan.steps)
    residual = theta - realized
    if not abs(residual) <= eps + 1e-14:  # slack: rounding of the re-summed angle
        return f"plan residual {residual:.3g} exceeds eps {eps:g}"
    return None


def fixed_rotation_reference(v, plan, fmt) -> tuple[float, float]:
    """Bit-exact model of the fixed-point ``apply_plan(..., compensate=True)``
    datapath with saturation: round-half-away quantization, floor shifts,
    and a CSD gain expansion to half an LSB."""
    lo, hi = fmt.min_raw, fmt.max_raw

    def fit(r: int) -> int:
        return lo if r < lo else hi if r > hi else r

    def quantize(x: float) -> int:
        s = x * (1 << fmt.frac_bits)
        return fit(math.floor(s + 0.5) if s >= 0 else math.ceil(s - 0.5))

    xr, yr = quantize(v.x), quantize(v.y)
    for step in plan.steps:
        sx, sy = xr >> step.index, yr >> step.index
        xr, yr = fit(xr - step.direction * sy), fit(yr + step.direction * sx)
    if plan.steps:
        terms = csd_scale(plan.gain, max_terms=16, tolerance=max(fmt.lsb / 2, 2.0 ** -18)).terms
        xr = fit(sum(sign * (xr >> shift) for shift, sign in terms))
        yr = fit(sum(sign * (yr >> shift) for shift, sign in terms))
    return xr * fmt.lsb, yr * fmt.lsb


def rotation_problem(theta, eps, v, plan, got, fmt=None) -> str | None:
    """Compensated rotation of ``v``: within ``eps * |v|`` (plus rounding in
    fixed point) of the ideal rotation, and bit-exact in fixed point."""
    problem = plan_problem(theta, eps, plan)
    if problem:
        return problem
    if not (math.isfinite(v.x) and math.isfinite(v.y)):
        return "returned a rotation of a non-finite vector"
    if not (math.isfinite(got.x) and math.isfinite(got.y)):
        return "non-finite output"
    norm = math.hypot(v.x, v.y)
    tol = (eps + 1e-12) * norm
    if fmt is not None:
        tol += (3 + 4 * len(plan.steps) + 32) * fmt.lsb
    ideal = ideal_rotation_matrix(theta).apply(v)
    err = math.hypot(got.x - ideal.x, got.y - ideal.y)
    if not err <= tol:
        return f"rotation error {err:.3g} > {tol:.3g}"
    if fmt is not None:
        rx, ry = fixed_rotation_reference(v, plan, fmt)
        if (got.x, got.y) != (rx, ry):
            off = max(abs(got.x - rx), abs(got.y - ry)) / fmt.lsb
            return f"fixed rotation differs from the bit-exact model by {off:g} LSB"
    return None


def dct_problem(x: np.ndarray, got, engine) -> str | None:
    """8-point or 8x8 coefficients within the plan tolerance of the oracle.

    A float rotator with residual r moves its outputs by at most
    |r| * |input pair|, and the flow graph's gains keep the total under
    4 * eps * |x| per pass; fixed point adds rounding (a few LSB per
    micro-rotation and per CSD term) and the 2**-14 CSD constant error.
    """
    got = np.asarray(got)
    if got.shape != x.shape:
        return f"output shape {got.shape} != {x.shape}"
    if not np.all(np.isfinite(x)):
        return "returned coefficients for non-finite input"
    if not np.all(np.isfinite(got)):
        return "non-finite coefficients"
    two_d = x.ndim == 2
    ref = dct2d_oracle(x) if two_d else dct8_oracle(x)
    scale = float(np.max(np.abs(x))) * (8.0 if two_d else math.sqrt(8.0))  # >= |x|_2
    passes = 2 if two_d else 1
    tol = passes * (4 * engine.epsilon + 1e-12) * scale
    if engine.mode.is_fixed:
        steps = sum(len(p.steps) for p in engine.plans.values())
        tol += passes * (2.0 ** -12 * scale + (16 + 2 * steps) * 4 * engine.mode.fmt.lsb)
    err = float(np.max(np.abs(got - ref)))
    if not err <= tol:
        return f"coefficient error {err:.3g} > {tol:.3g}"
    return None


def engine_problem(engine, eps) -> str | None:
    """The four DCT rotation plans must realize their angles within eps."""
    if sorted(p.target for p in engine.plans.values()) != sorted(DCT_ANGLES.values()):
        return "engine plans do not target the four DCT angles"
    for name, plan in engine.plans.items():
        problem = plan_problem(plan.target, eps, plan)
        if problem:
            return f"{name}: {problem}"
    if not np.all(np.isfinite(engine.post_scales) & (engine.post_scales > 0)):
        return "post-scales not finite and positive"
    return None
