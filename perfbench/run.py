"""Benchmark of the cordic_dct package: one command, three workloads.

    python3 perfbench/run.py --workload {sweep-float,sweep-fixed,calls} \
        [--seed 7] [--seconds 30] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src/``
of that checkout and nothing is installed.  With ``--trace 0`` the last
stdout line is a JSON object with every end-to-end metric; with
``--trace 1`` it holds every per-layer metric of a separate traced run.
The lines before it give the environment, the metrics with their units
and every failed check.  perfbench/README.md defines each metric.
"""

from __future__ import annotations

import os
import sys

# Cap native thread pools before NumPy loads: one client thread and no
# helper threads, well under the machine's core count.
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREAD_CAP)
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import warnings  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 21
# Host-speed calibration.  The shared host this benchmark was written on
# runs the same code up to about 1.5x slower for seconds to minutes at a
# time, and the program's Python-bound ops slow down with it.  So timed
# work runs in chunks (one set-up, one sweep piece, or CHUNK_S of calls),
# and after each chunk the benchmark times a burst of fixed calibration
# passes: at least BURST_PASSES, and for at least BURST_SHARE of the
# chunk's time.  Each time in a chunk is scaled by CAL_REF_S / (median
# time of the passes in the bursts that end no more than CAL_WINDOW_S
# before the chunk starts or begin no more than CAL_WINDOW_S after it
# ends, which always includes the bursts on either side of it): it is
# reported as it would read on a host where a pass takes CAL_REF_S.  The
# raw wall-clock values are printed and stored as well.
CHUNK_S = 0.5
BURST_PASSES = 12
BURST_SHARE = 0.1
CAL_WINDOW_S = 1.0
CAL_REF_S = 0.005   # about the median pass on a 2-vCPU Intel Xeon KVM guest, Python 3.11
CAL_INT_STEPS = 20000
CAL_ARRAY_STEPS = 500

E2E_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "mpix_cells_per_s": "Mpx.cell/s",
    "call_p50_us": "us",
    "call_p99_us": "us",
    "calls_per_s": "1/s",
    "invalid_refused_ratio": "ratio",
    "peak_rss_mb": "MiB",
}
# timing metrics whose traced-minus-untraced difference is the tracing overhead
OVERHEAD_KEYS = ("sweep_s", "mpix_cells_per_s", "call_p50_us", "call_p99_us", "calls_per_s")


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment(wl) -> dict:
    """Versions, cores, CPU model, cache sizes and the computed working set."""
    import numpy as np

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in range(8):
        level = _read(f"{base}/index{idx}/level")
        kind = _read(f"{base}/index{idx}/type")
        if level and kind != "Instruction":
            caches[f"L{level}"] = _read(f"{base}/index{idx}/size")
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model or platform.processor(),
        "caches": caches,
        "thread_cap": {var: os.environ[var] for var in THREAD_VARS},
        "working_set_bytes_computed": wl.working_set_bytes,
    }


class Tally:
    """Running totals of op results.

    Only the latencies are kept per op, in arrays, so the benchmark's own
    memory does not grow with the number of ops it completes.
    """

    def __init__(self):
        self.latencies: dict[str, array] = {}
        self.chunk_ids: dict[str, array] = {}  # calibration chunk of each latency
        self.pending: list[str] = []           # groups of the ops in the open chunk
        self.pending_s = 0.0
        self.ops = self.ok = 0
        self.work = 0.0
        self.attempted, self.failed, self.saturations = Counter(), Counter(), Counter()
        self.example: dict[str, str] = {}

    def add(self, r) -> None:
        self.latencies.setdefault(r.group, array("d")).append(r.latency_s)
        self.pending.append(r.group)
        self.pending_s += r.latency_s
        self.ops += 1
        self.work += r.work
        self.saturations[r.kind] += r.saturations
        key = r.kind if r.invalid is None else f"{r.kind}[{r.invalid}]"
        self.attempted[key] += 1
        if r.problem is None:
            self.ok += 1
        else:
            self.failed[key] += 1
            self.example.setdefault(key, r.problem)

    def close_chunk(self, chunk_id: int) -> None:
        for group in self.pending:
            self.chunk_ids.setdefault(group, array("l")).append(chunk_id)
        self.pending.clear()
        self.pending_s = 0.0

    def scaled(self, group: str, scales):
        import numpy as np

        return np.asarray(self.latencies[group]) * np.asarray(scales)[self.chunk_ids[group]]


def calibration_pass() -> float:
    """Time one fixed pass of interpreter arithmetic and small-array NumPy
    calls, the mix the program's per-row code spends its time on."""
    import numpy as np

    t0 = perf_counter()
    seen, acc = {}, 0
    for i in range(CAL_INT_STEPS):
        seen[i & 255] = acc
        acc += (i * 7) % 13
    row = np.arange(8.0)
    for _ in range(CAL_ARRAY_STEPS):
        row = np.round(row * 0.5 + 1.0)
    return perf_counter() - t0


class Calibration:
    """Bursts of calibration passes between chunks of timed work."""

    def __init__(self):
        self.passes = array("d")
        self.bursts: list[tuple[float, float, list[float]]] = []  # start, end, pass times
        self.chunks: list[tuple[float, float]] = []               # start, end

    def burst(self, chunk_s: float = 0.0) -> None:
        """Burst that opens the next chunk."""
        t0 = perf_counter()
        times = []
        while len(times) < BURST_PASSES or math.fsum(times) < BURST_SHARE * chunk_s:
            times.append(calibration_pass())
        self.passes.extend(times)
        self.bursts.append((t0, perf_counter(), times))

    def close(self, chunk_s: float) -> int:
        """Close the chunk the last burst opened, holding ``chunk_s`` of
        timed work, and open the next one; returns the closed chunk's id."""
        self.chunks.append((self.bursts[-1][1], perf_counter()))
        self.burst(chunk_s)
        return len(self.chunks) - 1

    def scales(self) -> list[float]:
        """The scale for the times of each chunk."""
        out = []
        for start, end in self.chunks:
            near = [t for b0, b1, times in self.bursts
                    if b1 >= start - CAL_WINDOW_S and b0 <= end + CAL_WINDOW_S for t in times]
            out.append(CAL_REF_S / statistics.median(near))
        return out


def run_loop(wl, api, seconds: float, min_ops: int, cal: Calibration, tracer=None) -> Tally:
    """Closed loop: issue ops one at a time until ``seconds`` have passed,
    at least ``min_ops`` ran, and the last round is complete.  A
    calibration burst follows every CHUNK_S of op time."""
    tally = Tally()
    cal.burst()
    deadline = perf_counter() + seconds
    while tally.ops < min_ops or perf_counter() < deadline or tally.ops % wl.round_ops:
        if tracer:
            tracer.op_id = tally.ops
        tally.add(wl.op(tally.ops, api))
        if tally.pending_s >= CHUNK_S:
            tally.close_chunk(cal.close(tally.pending_s))
    if tally.pending:
        tally.close_chunk(cal.close(tally.pending_s))
    return tally


def end_to_end(wl, tally: Tally, setup_times, refused_ratio: float, scales=None) -> dict:
    """The eight end-to-end metrics over one tally of ops; with
    ``scales`` (per calibration chunk) every time is scaled to the
    reference host.

    ``setup_times`` holds (wall-clock time, chunk id) pairs.  A latency
    sample is one round (an op of each group) divided by the sweeps or
    calls it completes: on sweep-fixed the mean of a sweep per word
    format, so both formats weigh the same; on sweep-float the sum of the
    three one-eps pieces of a sweep; on calls the mean of a call of each
    kind.  The p99 is taken over single calls on calls (a round's mean
    hides which call was slow), unscaled, and over rounds on the sweeps.
    """
    import numpy as np

    if scales is not None:
        groups = [tally.scaled(g, scales) for g in tally.latencies]
        setups = [t * scales[chunk] for t, chunk in setup_times]
    else:
        groups = [np.asarray(v) for v in tally.latencies.values()]
        setups = [t for t, _ in setup_times]
    rounds = np.sum([v[:min(map(len, groups))] for v in groups], axis=0) / wl.round_size
    p50 = float(np.median(rounds))
    tail = rounds
    if wl.tail_over_ops:
        # Wall-clock: the slowest 1% of single calls follow the host's
        # speed only in part (a 1.7x faster host phase moved this p99 by
        # at most 1.3x), so scaling them by it adds noise.
        tail = np.concatenate([np.asarray(v) for v in tally.latencies.values()])
    p99 = float(np.percentile(tail, 99))
    busy = math.fsum(float(v.sum()) for v in groups)
    return {
        "setup_s": statistics.median(setups),
        "sweep_s": p50,
        "mpix_cells_per_s": tally.work / busy / 1e6,
        "call_p50_us": p50 * 1e6,
        "call_p99_us": p99 * 1e6,
        "calls_per_s": tally.ops / wl.round_ops * wl.round_size / busy,
        "invalid_refused_ratio": refused_ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def failure_table(*tallies: Tally) -> dict:
    """Attempted and failed ops per kind (and invalid-input variant)."""
    attempted = sum((t.attempted for t in tallies), Counter())
    failed = sum((t.failed for t in tallies), Counter())
    example = {}
    for t in reversed(tallies):
        example.update(t.example)
    return {k: {"attempted": attempted[k], "failed": failed[k], "example": example.get(k)}
            for k in sorted(attempted)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep-float", "sweep-fixed", "calls"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cordic_dct" / "__init__.py").is_file():
        print(f"perfbench: no cordic_dct package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import cordic_dct

    if Path(cordic_dct.__file__).resolve().parent != (SRC / "cordic_dct").resolve():
        print(f"perfbench: imported cordic_dct from {cordic_dct.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import layers
    import spans
    import workloads

    # Invalid inputs make NumPy warn on every cast; the checks judge them.
    np.seterr(all="ignore")
    warnings.simplefilter("ignore", RuntimeWarning)
    OUT.mkdir(exist_ok=True)

    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    plain = layers.api()
    cal = Calibration()
    cal.burst()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        setup_problems = wl.setup(plain)
        t = perf_counter() - t0
        setup_times.append((t, cal.close(t)))

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        traced_api = layers.api(tracer)
        with tracer.patch(layers.lower_layer_targets(tracer), layers.NAMESPACES):
            setup_problems = wl.setup(traced_api)

    budget = args.seconds / 2 if tracer else args.seconds
    min_ops = -(-wl.min_ops // 2) if tracer else wl.min_ops
    results = run_loop(wl, plain, budget, min_ops, cal)

    traced = Tally()
    if tracer:
        wl.restart()
        with tracer.patch(layers.lower_layer_targets(tracer), layers.NAMESPACES):
            traced = run_loop(wl, traced_api, 0.0, wl.traced_ops(), cal, tracer)

    # Untimed: every kind of call on every kind of invalid input.
    probe = wl
    if not isinstance(wl, workloads.CallsWorkload):
        probe = workloads.CallsWorkload(args.seed, OUT)
        probe.prepare(plain)
    probed, refused, not_refused = probe.refusal_probe(plain)

    scales = cal.scales()
    e2e = end_to_end(wl, results, setup_times, refused / probed, scales)
    raw = end_to_end(wl, results, setup_times, refused / probed)
    if tracer:
        traced_e2e = end_to_end(wl, traced, setup_times, refused / probed, scales)
        metrics = layers.per_layer(
            tracer,
            op_counts=wl.op_counts,
            saturations=traced.saturations,
            forward_rows_needed=wl.forward_rows_needed(traced.ops),
            overhead={k: traced_e2e[k] - e2e[k] for k in OVERHEAD_KEYS},
        )
        units = layers.PER_LAYER_UNITS
        tracer.save(OUT / f"trace-{args.workload}.npz")
    else:
        metrics, units = e2e, E2E_UNITS

    failures = failure_table(results, traced)
    attempted = results.ops + traced.ops
    n_failed = attempted - results.ok - traced.ok
    env = environment(wl)
    calibration = {"passes": len(cal.passes), "median_s": statistics.median(cal.passes),
                   "reference_s": CAL_REF_S}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_problems": setup_problems,
        "setup_repeats": SETUP_REPEATS, "untraced_ops": results.ops, "traced_ops": traced.ops,
        "failed_ratio": {"failed": n_failed, "attempted": attempted},
        "failures": failures,
        "refusal_probe": {"calls": probed, "refused": refused, "not_refused": not_refused},
        "calibration": calibration,
        "end_to_end": e2e,
        "end_to_end_wall_clock": raw,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    l2 = env["caches"].get("L2", "?")
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"cpu {env['cpu']!r}, caches {env['caches']}, native thread cap {THREAD_CAP}")
    print(f"# working set (computed): {wl.working_set_bytes} B; L2 {l2}")
    print(f"# ops: {results.ops} untraced, {traced.ops} traced; setup x{SETUP_REPEATS}")
    print(f"# failed_ratio {n_failed}/{attempted} = {n_failed / attempted:.6f} ratio")
    for key, row in failures.items():
        if row["failed"]:
            print(f"# failing kind {key}: {row['failed']}/{row['attempted']} ({row['example']})")
    for problem in setup_problems:
        print(f"# setup problem: {problem}")
    print(f"# refusal probe: {refused}/{probed} invalid-input calls refused")
    for key, what in not_refused.items():
        print(f"# not refused {key}: {what}")
    print(f"# calibration: {len(cal.passes)} passes, median {calibration['median_s']:.6g} s; "
          f"times below are scaled to a {CAL_REF_S:g} s pass")
    print("# wall-clock: " + ", ".join(
        f"{k} {raw[k]:.6g} {E2E_UNITS[k]}" for k in OVERHEAD_KEYS + ("setup_s",)))
    shown = dict(e2e, **metrics) if tracer else e2e
    shown_units = dict(E2E_UNITS, **units)
    for key, value in shown.items():
        print(f"{key} {value:.6g} {shown_units[key]}")
    print(json.dumps({
        "correct": not setup_problems and n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
