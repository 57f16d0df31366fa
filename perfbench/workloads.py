"""The benchmark's three workloads: set-up, one op, and its check.

Every workload is a closed loop: one client thread issues an op, waits
for it, checks it, then issues the next.  Inputs come only from the seed.

* ``sweep-float``: ``read_pgm`` + ``sweep`` + ``to_csv`` of a seeded
  ``photo_proxy(512)`` over eps {1e-3, 1e-4, 1e-6} x Q {95..75}, exact
  float.  The paper's headline evaluation (``cordic-dct eval``), issued
  one eps at a time.
* ``sweep-fixed``: the same op on ``photo_proxy(128)`` over eps
  {1e-3, 1e-4} x Q {90, 75} in saturating fixed point; the word format
  alternates per op between 24.8 (never saturates) and 16.5 (saturates).
* ``calls``: a seeded mix of single API calls in equal shares, about 2%
  of them on invalid input the library refuses.  Every workload also
  runs the refusal probe once, untimed: each kind of call on each kind
  of invalid input.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from cordic_dct.fixedpoint import ArithmeticMode, OverflowPolicy
from cordic_dct.pgm import write_pgm
from cordic_dct.rotator import Vector2

import checks
from layers import COMPENSATIONS, OP_COUNT_EPSILONS

DEFAULT_SEED = 7
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
OP_COUNTS_GOLDEN = GOLDEN_DIR / "op_counts.json"


@dataclass
class OpResult:
    latency_s: float
    problem: str | None
    group: str          # statistics group: one op of each group makes a round
    kind: str           # sweep format or call kind
    invalid: str | None  # which invalid input the call got (calls only)
    work: float         # pixels x (eps, Q) cells, or samples transformed
    saturations: int = 0


def op_count_table(api) -> dict:
    """``DctEngine.operation_counts()`` per (compensation, eps)."""
    return {
        (comp, eps): api.DctEngine(epsilon=eps, compensation=comp).operation_counts()
        for comp in COMPENSATIONS for eps in OP_COUNT_EPSILONS
    }


def op_counts_to_json(table: dict) -> str:
    return json.dumps({f"{c}/{e:g}": v for (c, e), v in table.items()}, indent=2,
                      sort_keys=True) + "\n"


def op_count_problems(table: dict) -> list[str]:
    golden = json.loads(OP_COUNTS_GOLDEN.read_text())
    got = json.loads(op_counts_to_json(table))
    return [f"operation_counts() for {k} differ from the golden counts"
            for k in sorted(golden) if got.get(k) != golden[k]]


@dataclass(frozen=True)
class SweepConfig:
    label: str                   # also the golden file's stem
    bits: tuple[int, int] | None  # fixed-point (total, frac), None for float
    psnr_tol: float | None
    zero_saturations: bool

    @property
    def mode(self) -> ArithmeticMode | None:
        if self.bits is None:
            return None
        return ArithmeticMode.fixed(*self.bits, overflow=OverflowPolicy.SATURATE)


class SweepWorkload:
    """A round runs every configuration once.  With ``split_eps`` a
    configuration's sweep is issued as one ``sweep`` call per eps, each
    with every quality: the same rows and bytes, in pieces short enough
    for calibration bursts to bracket (see run.py)."""

    def __init__(self, name, size, epsilons, qualities, configs, seed, out_dir: Path,
                 split_eps: bool = False):
        self.name, self.size, self.seed = name, size, seed
        self.epsilons, self.qualities, self.configs = epsilons, qualities, configs
        eps_parts = [(e,) for e in sorted(epsilons)] if split_eps else [tuple(epsilons)]
        self.pieces = [(cfg, part) for cfg in configs for part in eps_parts]
        self.round_ops = len(self.pieces)
        self.round_size = len(configs)  # sweeps a round completes
        self.tail_over_ops = False
        self.min_ops = 2 * self.round_ops
        self.pgm_path = out_dir / f"{name}-seed{seed}.pgm"
        self.padded_pixels = (-(-size // 8) * 8) ** 2
        self.working_set_bytes = self.padded_pixels * 8  # one float64 copy of the padded image

    def golden_path(self, cfg: SweepConfig) -> Path:
        return GOLDEN_DIR / f"{self.name}-{cfg.label}.csv"

    def setup(self, api) -> list[str]:
        img = api.photo_proxy(self.size, self.seed)
        write_pgm(img, self.pgm_path)
        oracle = checks.oracle_psnr(img.samples, self.qualities)
        self.checks = []
        for cfg, part in self.pieces:
            golden = None
            if self.seed == DEFAULT_SEED:
                golden = checks.csv_rows_for(self.golden_path(cfg).read_text(), part)
            self.checks.append(checks.SweepCheck(
                part, self.qualities, oracle, cfg.psnr_tol, cfg.zero_saturations, golden))
        self.op_counts = op_count_table(api)
        return op_count_problems(self.op_counts)

    def restart(self) -> None:
        pass

    def traced_ops(self) -> int:
        return self.round_ops

    def forward_rows_needed(self, ops: int) -> int:
        """Rows one forward transform per eps would need: a row and a
        column pass over every padded 8x8 block."""
        eps_per_op = len(self.pieces[0][1])
        return ops * eps_per_op * 2 * self.padded_pixels // 8

    def run_sweep(self, cfg: SweepConfig, api, epsilons=None) -> str:
        img = api.read_pgm(self.pgm_path)
        return api.to_csv(api.sweep(img, epsilons or self.epsilons, self.qualities,
                                    mode=cfg.mode))

    def op(self, i: int, api) -> OpResult:
        cfg, part = self.pieces[i % len(self.pieces)]
        t0 = perf_counter()
        text = self.run_sweep(cfg, api, part)
        latency = perf_counter() - t0
        problem = self.checks[i % len(self.pieces)](text)
        group = cfg.label if len(part) > 1 else f"{cfg.label}@{part[0]:g}"
        return OpResult(latency, problem, group, cfg.label, None,
                        self.size * self.size * len(part) * len(self.qualities),
                        checks.saturations_in(text))


def sweep_float(seed: int, out_dir: Path) -> SweepWorkload:
    cfg = SweepConfig("float", None, checks.FLOAT_PSNR_TOL_DB, True)
    return SweepWorkload("sweep-float", 512, (1e-3, 1e-4, 1e-6), (95, 90, 85, 80, 75),
                         (cfg,), seed, out_dir, split_eps=True)


def sweep_fixed(seed: int, out_dir: Path) -> SweepWorkload:
    configs = (
        SweepConfig("q24_8", (24, 8), checks.FIXED24_PSNR_TOL_DB, True),
        SweepConfig("q16_5", (16, 5), None, False),
    )
    return SweepWorkload("sweep-fixed", 128, (1e-3, 1e-4), (90, 75), configs, seed, out_dir)


# --- calls -------------------------------------------------------------

CALL_KINDS = ("rotate.float", "rotate.fixed", "dct8.float", "dct8.fixed",
              "dct2d.float", "dct2d.fixed", "engine")
INVALID_EVERY = 50  # one call in every 50 gets invalid input
ROTATE_INVALID = ("angle>pi/2", "eps<min", "eps>max", "x=inf", "x=nan", "x=1e300")
SAMPLE_INVALID = {"sample=inf": math.inf, "sample=-inf": -math.inf,
                  "sample=nan": math.nan, "sample=1e300": 1e300}
ENGINE_INVALID = {"eps<min": 1e-12, "eps>max": 0.5, "eps=nan": math.nan}
# Every invalid input of each call kind; the refusal probe calls each once.
INVALID = {kind: ROTATE_INVALID if kind.startswith("rotate.")
           else tuple(sorted(ENGINE_INVALID)) if kind == "engine"
           else tuple(sorted(SAMPLE_INVALID)) for kind in CALL_KINDS}
# The invalid inputs the timed loop draws from: those the library refused
# at the commit that added this benchmark, so that no op of the loop
# fails.  The others are answered with numbers (ROADMAP item 2's defects);
# the probe measures them as ``invalid_refused_ratio`` instead.
LOOP_INVALID = {kind: () for kind in CALL_KINDS} | {
    "rotate.float": ("angle>pi/2", "eps<min", "eps>max"),
    "rotate.fixed": ("angle>pi/2", "eps<min", "eps>max", "x=inf", "x=nan"),
    "engine": tuple(sorted(ENGINE_INVALID)),
}
ENGINE_POOL = 16    # prebuilt engines per arithmetic, eps stratified over the range
CALLS_IMAGE = 128   # dct inputs are rows and blocks of this seeded image
FIXED_ROTATE = ArithmeticMode.fixed(16, 12, overflow=OverflowPolicy.SATURATE)
FIXED_DCT = ArithmeticMode.fixed(24, 8, overflow=OverflowPolicy.SATURATE)


def _log_uniform_eps(rng: random.Random, lo: float = 0.0, hi: float = 1.0) -> float:
    """eps log-uniform over [1e-6, 1e-2] (the sub-range [lo, hi] of it)."""
    return 10.0 ** (-6.0 + 4.0 * rng.uniform(lo, hi))


@dataclass
class Call:
    kind: str
    invalid: str | None
    run: object      # api -> output
    check: object    # output -> problem or None
    work: int


class CallsWorkload:
    """Calls come in rounds of one call of each kind, in a seeded order;
    a latency sample is a round's mean call latency."""

    name = "calls"
    round_ops = round_size = len(CALL_KINDS)
    tail_over_ops = True
    min_ops = 1000 * len(CALL_KINDS)  # 1000 rounds, so p50 rests on many samples
    working_set_bytes = 8 * 8 * 8  # one float64 8x8 block

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.pgm_path = out_dir / f"calls-seed{seed}.pgm"

    def setup(self, api) -> list[str]:
        self.prepare(api)
        self.op_counts = op_count_table(api)
        self.restart()
        return op_count_problems(self.op_counts)

    def prepare(self, api) -> None:
        """The inputs calls draw from: a seeded image and an engine pool."""
        write_pgm(api.photo_proxy(CALLS_IMAGE, self.seed), self.pgm_path)
        self.samples = api.read_pgm(self.pgm_path).samples.astype(float) - 128.0
        rng = random.Random(f"{self.seed}/engines")
        self.engines = {}
        for arith, mode in (("float", None), ("fixed", FIXED_DCT)):
            self.engines[arith] = [
                api.DctEngine(_log_uniform_eps(rng, k / ENGINE_POOL, (k + 1) / ENGINE_POOL),
                              mode=mode)
                for k in range(ENGINE_POOL)
            ]

    def restart(self) -> None:
        self._stream = self._calls(random.Random(f"{self.seed}/calls"))

    def traced_ops(self) -> int:
        return 300 * len(CALL_KINDS)

    def forward_rows_needed(self, ops: int) -> int:
        return 0

    def _calls(self, rng: random.Random):
        order: list[str] = []
        n = 0
        bad_at = -1
        while True:
            if not order:
                order = list(CALL_KINDS)
                rng.shuffle(order)
            if n % INVALID_EVERY == 0:
                bad_at = n + rng.randrange(INVALID_EVERY)
            kind = order.pop()
            bad = None
            if 0 <= bad_at <= n and LOOP_INVALID[kind]:  # else the next kind that has one
                bad = rng.choice(LOOP_INVALID[kind])
                bad_at = -1
            yield self._make(kind, bad, rng)
            n += 1

    def _make(self, kind: str, bad: str | None, rng: random.Random) -> Call:
        """One call of ``kind``, on the invalid input ``bad`` when given."""
        if kind == "engine":
            eps = ENGINE_INVALID[bad] if bad else _log_uniform_eps(rng)
            return Call(kind, bad, lambda api: api.DctEngine(eps),
                        lambda out: checks.engine_problem(out, eps), 0)
        arith = kind.split(".")[1]
        if kind.startswith("rotate."):
            theta = rng.uniform(-math.pi / 2, math.pi / 2)
            eps = _log_uniform_eps(rng)
            x, y = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            if bad == "angle>pi/2":
                theta = math.copysign(rng.uniform(math.pi / 2 + 1e-3, math.pi), theta)
            elif bad == "eps<min":
                eps = 1e-12
            elif bad == "eps>max":
                eps = 0.5
            elif bad:
                x = {"x=inf": math.inf, "x=nan": math.nan, "x=1e300": 1e300}[bad]
            v = Vector2(x, y)
            mode = FIXED_ROTATE if arith == "fixed" else ArithmeticMode.exact()
            fmt = mode.fmt

            def run(api):
                plan = api.decompose(theta, eps)
                return plan, api.apply_plan(v, plan, mode, compensate=True)

            return Call(kind, bad, run,
                        lambda out: checks.rotation_problem(theta, eps, v, out[0], out[1], fmt), 2)
        engine = rng.choice(self.engines[arith])
        h, w = self.samples.shape
        r, c = rng.randrange(h - 7), rng.randrange(w - 7)
        if kind.startswith("dct8."):
            x = self.samples[r, c:c + 8].copy()
            transform = "dct8_cordic"
        else:
            x = self.samples[r:r + 8, c:c + 8].copy()
            transform = "dct2d"
        if bad:
            x.flat[rng.randrange(x.size)] = SAMPLE_INVALID[bad]
        return Call(kind, bad, lambda api: getattr(api, transform)(x, engine),
                    lambda out: checks.dct_problem(x, out, engine), x.size)

    @staticmethod
    def _run(call: Call, api) -> tuple[float, str | None]:
        """Run one call: its latency, and its problem (None when right)."""
        t0 = perf_counter()
        try:
            out = call.run(api)
        except checks.REFUSALS as exc:
            latency = perf_counter() - t0
            problem = None if call.invalid else f"valid input refused: {exc!r}"
        except Exception as exc:  # any other error is a failed call, not a crash
            latency = perf_counter() - t0
            problem = f"raised {exc!r}"
        else:
            latency = perf_counter() - t0
            problem = call.check(out)
        return latency, problem

    def op(self, i: int, api) -> OpResult:
        call = next(self._stream)
        latency, problem = self._run(call, api)
        return OpResult(latency, problem, call.kind, call.kind, call.invalid, call.work)

    def refusal_probe(self, api) -> tuple[int, int, dict[str, str]]:
        """Call every kind once on each of its invalid inputs, untimed.

        Returns the calls made, how many refused (raised one of
        ``checks.REFUSALS``), and for each ``kind[input]`` that did not,
        what happened instead.
        """
        rng = random.Random(f"{self.seed}/probe")
        made, refused, other = 0, 0, {}
        for kind in CALL_KINDS:
            for bad in INVALID[kind]:
                call = self._make(kind, bad, rng)
                made += 1
                try:
                    out = call.run(api)
                except checks.REFUSALS:
                    refused += 1
                except Exception as exc:
                    other[f"{kind}[{bad}]"] = f"raised {exc!r}"
                else:
                    other[f"{kind}[{bad}]"] = "answered: " + (call.check(out) or "within tolerance")
        return made, refused, other


WORKLOADS = {
    "sweep-float": sweep_float,
    "sweep-fixed": sweep_fixed,
    "calls": CallsWorkload,
}
