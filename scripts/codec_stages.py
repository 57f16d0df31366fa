#!/usr/bin/env python3
"""Per-stage times and page faults of the codec sweep, per tile and per op.

Usage:
    PYTHONPATH=src python scripts/codec_stages.py

``codec.sweep`` runs over tiles of ``codec._TILE_BLOCKS`` blocks.  This
script times each stage it runs on one full tile of the bundled 512x512
``photo_proxy`` image, through the same helpers, for one epsilon (1e-4,
exact float): the transpose of the tile into (64, n) planes with the level
shift, and the oracle transform with its own level shift (once per tile);
the forward transform on the planes, the signed halves of its coefficients
that every quality's rounding adds, the reference pixels (128 added to the
planes after the transform and taken off again before the next epsilon's)
and the coefficient errors (once per tile and epsilon); and quantize
(divide, add the halves, truncate), decode and the squared-error sum
against the float reference per quality.
Each line gives the minimum wall time of 5 runs and the median of their
minor page faults (``resource.getrusage(...).ru_minflt``).

Then the forward transform of the 128x128 image's one tile in saturating
24.8 and 16.5 fixed point, at the two epsilons of the fixed sweep, in the
``folded`` compensation the sweep uses and in ``per_rotator``, with the
number of nodes each pass range-checks out of the flow graph's nodes:
those whose threshold the pass's quantized input peak exceeds.

Then the per-call section: one-vector ``dct8_cordic`` and one-block
``dct2d`` on a level-shifted block of the 128x128 image, at epsilon 1e-4
in float and in saturating 24.8, each the minimum over ``REPEAT`` runs of
``CALLS`` calls, per call: the calls the ``calls`` benchmark workload
spends most of its time in.

Then the construction section: ``photo_proxy(512)`` and
``photo_proxy(128)``, and ``DctEngine(3e-4)`` in float and in saturating
24.8, alone and with its first one-block ``dct2d``, which derives what the
engines of its plan set share (the plan-set cache is emptied before each
run), each the minimum time and median faults of ``REPEAT`` runs: what the
benchmark's ``calls`` set-up spends its time in.

Then benchmark-shaped ops, each a fresh ``read_pgm`` of the image, one
``sweep`` and ``to_csv``: one epsilon and five qualities on the 512x512
image in float, and two epsilons and two qualities on a 128x128 one in
saturating 24.8 and 16.5 fixed point.

Whether an op takes page faults depends on the process's history: glibc
trims the top of its heap when freed memory there exceeds a threshold
that earlier frees of large blocks move.  This process reads none.  So
the last lines run the ops of perfbench's ``sweep-float`` and
``sweep-fixed`` workloads each in a fresh process, with BLAS capped at
one thread, after the workload's own set-up ran ``SETUP_REPEATS`` times
as ``perfbench/run.py`` runs it (``photo_proxy``, PGM write and read,
the oracle-PSNR table and the op-count engines): the median wall time
and minor faults of ``SHAPED_OPS`` ops, in which every op's heap growth
is given back and faulted in again if the op's transient arrays outgrow
the space that set-up left.
"""

import itertools
import multiprocessing
import os
import resource
import statistics
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from cordic_dct import codec, dct8
from cordic_dct.dct8 import (DctEngine, _dct2d_planes, _planes, dct2d, dct2d_oracle, dct8_cordic,
                             transform8)
from cordic_dct.fixedpoint import _BELOW_HALF, ArithmeticMode, OverflowPolicy, _round_half_away
from cordic_dct.images import photo_proxy
from cordic_dct.pgm import read_pgm, write_pgm

EPSILON = 1e-4
QUALITIES = (95, 90, 85, 80, 75)
FIXED_EPSILONS = (1e-3, 1e-4)
FIXED_WORDS = {"24.8": (24, 8), "16.5": (16, 5)}
COMPENSATIONS = ("folded", "per_rotator")
REPEAT = 5
CALLS = 200  # calls per timed run of the per-call section
CONSTRUCTION_EPSILON = 3e-4
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SETUP_REPEATS = 21  # as perfbench/run.py
SHAPED_OPS = 30


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(fn, setup=None) -> tuple[float, float]:
    """Minimum wall time in ms and median minor page faults of ``REPEAT``
    calls of ``fn``; ``setup``, if given, runs untimed before each call."""
    times, faults = [], []
    for _ in range(REPEAT):
        if setup is not None:
            setup()
        f0, t0 = _minflt(), time.perf_counter()
        fn()
        t1, f1 = time.perf_counter(), _minflt()
        times.append(t1 - t0)
        faults.append(f1 - f0)
    return 1e3 * min(times), statistics.median(faults)


def tile_stages(img) -> list:
    """``(name, ms, faults)`` of each stage ``sweep`` runs on the first tile."""
    engine = DctEngine(epsilon=EPSILON)
    blocks = codec._blocks_of(codec._pad_to_blocks(img.samples)).reshape(-1, 64)
    tile = blocks[: codec._TILE_BLOCKS]

    def planes_and_shift():
        return np.subtract(_planes(tile), 128.0, dtype=np.float64)

    def oracle():
        return dct2d_oracle(
            np.subtract(tile, 128.0, dtype=np.float64).reshape(-1, 8, 8)
        ).reshape(-1, 64)

    def reference():
        np.add(shifted, 128.0, out=shifted)
        np.subtract(shifted, 128.0, out=shifted)

    shifted = planes_and_shift()
    exact = oracle()
    coefs, _ = _dct2d_planes(engine, shifted)
    pixels = shifted + 128.0  # the reference the sweep makes of the shifted planes
    levels, decoded, halves = (np.empty_like(coefs) for _ in range(3))
    errors = np.empty(len(tile))
    scratch = levels.reshape(-1, 64)
    rows = [
        ("planes and level shift", *measure(planes_and_shift)),
        ("oracle dct2d", *measure(oracle)),
        ("forward dct2d on planes", *measure(lambda: _dct2d_planes(engine, shifted))),
        ("signed halves", *measure(lambda: np.copysign(_BELOW_HALF, coefs, out=halves))),
        ("reference +128 and -128", *measure(reference)),
        ("coefficient errors",
         *measure(lambda: codec._block_coef_errors(coefs, exact, engine, scratch, errors))),
    ]
    per_quality = {"quantize": [0.0, 0.0], "decode": [0.0, 0.0], "sse": [0.0, 0.0]}
    for quality in QUALITIES:
        step = codec._step(codec.quant_table_for_quality(quality))
        divisor = codec._divisor(engine, step)
        quantized = codec._quantize(coefs, divisor, halves)
        stages = {  # in order: each reads what the one before wrote
            "quantize": (lambda: codec._quantize(coefs, divisor, halves, out=levels), None),
            # decoding overwrites the levels, so each run starts from a copy
            "decode": (lambda: codec._decode(levels, step, out=decoded),
                       lambda: np.copyto(levels, quantized)),
            "sse": (lambda: codec._stack_sse(decoded, pixels, 0, img, levels), None),
        }
        for name, (fn, setup) in stages.items():
            ms, faults = measure(fn, setup)
            per_quality[name][0] += ms / len(QUALITIES)
            per_quality[name][1] += faults / len(QUALITIES)
    rows += [(f"mean {name} per quality", ms, faults)
             for name, (ms, faults) in per_quality.items()]
    return rows


def checked_nodes(engine: DctEngine, words: np.ndarray) -> int:
    """How many nodes a fixed-point pass over the raw ``words`` range-checks:
    those whose threshold the peak of ``words`` exceeds."""
    per_node, _ = engine._set.thresholds(engine.mode.fmt)
    peak = np.abs(words).max()
    return sum(peak > t for t in per_node)


def fixed_tile_rows(img) -> list:
    """``(name, ms, faults, checks)`` of the forward transform of the one
    tile of ``img`` in each fixed word, compensation and epsilon; ``checks``
    gives the nodes the row and the column pass range-check, of all
    nodes."""
    blocks = codec._blocks_of(codec._pad_to_blocks(img.samples)).reshape(-1, 64)
    shifted = np.subtract(_planes(blocks[: codec._TILE_BLOCKS]), 128.0, dtype=np.float64)
    n = shifted.shape[1]
    row_input = shifted.reshape(8, 8, n)  # as _dct2d_planes runs its row pass
    rows = []
    for word, bits in FIXED_WORDS.items():
        mode = ArithmeticMode.fixed(*bits, OverflowPolicy.SATURATE)
        for compensation, eps in itertools.product(COMPENSATIONS, FIXED_EPSILONS):
            engine = DctEngine(eps, mode=mode, compensation=compensation)
            # the row pass quantizes the samples and hands its raw words on
            row_words = _round_half_away(row_input * engine.mode.fmt.raw_scale)
            column_words = transform8(engine, row_input, _axis=1)[0]
            nodes = len(engine._set.thresholds(engine.mode.fmt)[0])
            checks = (f"{checked_nodes(engine, row_words)}/{nodes}",
                      f"{checked_nodes(engine, column_words)}/{nodes}")
            ms, faults = measure(lambda: _dct2d_planes(engine, shifted))
            rows.append((f"{word} {compensation}, eps {eps:g}", ms, faults, checks))
    return rows


def per_call_rows(img) -> list:
    """``(name, us)`` of one ``dct8_cordic`` of a vector and one ``dct2d``
    of a block of ``img``, in float and saturating 24.8: the minimum over
    ``REPEAT`` runs of ``CALLS`` calls, divided by ``CALLS``."""
    block = np.subtract(img.samples[64:72, 64:72], 128.0, dtype=np.float64)
    engines = {
        "float": DctEngine(EPSILON),
        "24.8": DctEngine(EPSILON, mode=ArithmeticMode.fixed(24, 8, OverflowPolicy.SATURATE)),
    }
    rows = []
    for arith, engine in engines.items():
        calls = {"dct8_cordic, one vector": lambda: dct8_cordic(block[0], engine),
                 "dct2d, one block": lambda: dct2d(block, engine)}
        for name, call in calls.items():
            call()  # warm-up: the engine's constants are built on first use
            times = []
            for _ in range(REPEAT):
                t0 = time.perf_counter()
                for _ in range(CALLS):
                    call()
                times.append(time.perf_counter() - t0)
            rows.append((f"{name}, {arith}", 1e6 * min(times) / CALLS))
    return rows


def construction_rows(img) -> list:
    """``(name, ms, faults)`` of building the test images and engines; an
    engine's first ``dct2d`` of a block of ``img`` derives its plan set's
    shared data, from an empty plan-set cache."""
    block = np.subtract(img.samples[64:72, 64:72], 128.0, dtype=np.float64)
    rows = [(f"photo_proxy({size})", *measure(lambda: photo_proxy(size))) for size in (512, 128)]
    for arith, mode in (("float", None),
                        ("24.8", ArithmeticMode.fixed(24, 8, OverflowPolicy.SATURATE))):
        rows.append((f"DctEngine({CONSTRUCTION_EPSILON:g}), {arith}",
                     *measure(lambda: DctEngine(CONSTRUCTION_EPSILON, mode=mode))))
        rows.append((f"  and first dct2d, {arith}",
                     *measure(lambda: dct2d(block, DctEngine(CONSTRUCTION_EPSILON, mode=mode)),
                              dct8._PLAN_SETS.clear)))
    return rows


def op_rows(directory: Path) -> list:
    """``(name, ms, faults)`` of benchmark-shaped ops: fresh ``read_pgm``,
    one ``sweep`` and ``to_csv``."""
    ops = [
        ("128^2 24.8 op, 2 eps x 2 Q", 128, [1e-3, 1e-4], (90, 75), (24, 8)),
        ("128^2 16.5 op, 2 eps x 2 Q", 128, [1e-3, 1e-4], (90, 75), (16, 5)),
        ("512^2 float op, 1 eps x 5 Q", 512, [EPSILON], QUALITIES, None),
    ]  # smallest first: a larger op's heap growth would hide a smaller one's faults
    rows = []
    for name, size, epsilons, qualities, bits in ops:
        path = directory / f"photo{size}.pgm"
        write_pgm(photo_proxy(size), path)
        mode = None if bits is None else ArithmeticMode.fixed(*bits, OverflowPolicy.SATURATE)

        def op():
            codec.sweep(read_pgm(path), epsilons, qualities, mode=mode).to_csv()

        op()  # warm-up: the engines' plans and the first heap growth
        rows.append((name, *measure(op)))
    return rows


def shaped_op(workload: str) -> tuple[float, float]:
    """Median ms and minor faults per op of a perfbench sweep workload,
    run in this process after ``SETUP_REPEATS`` of its set-ups."""
    sys.path.insert(0, str(PERFBENCH))
    import layers
    import workloads

    with tempfile.TemporaryDirectory() as directory:
        wl = workloads.WORKLOADS[workload](workloads.DEFAULT_SEED, Path(directory))
        api = layers.api()
        for _ in range(SETUP_REPEATS):
            wl.setup(api)
        times, faults = [], []
        for i in range(SHAPED_OPS):
            f0 = _minflt()
            result = wl.op(i, api)
            faults.append(_minflt() - f0)
            if result.problem:
                raise RuntimeError(f"{workload} op {i}: {result.problem}")
            times.append(result.latency_s)
    return 1e3 * statistics.median(times), statistics.median(faults)


def shaped_rows() -> list:
    """``(name, ms, faults)`` of each sweep workload's ops, each workload
    in a fresh process with BLAS capped at one thread, as the benchmark
    runs it."""
    os.environ.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                            "MKL_NUM_THREADS")})
    rows = []
    for workload in ("sweep-float", "sweep-fixed"):
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            rows.append((f"{workload} op", *pool.submit(shaped_op, workload).result()))
    return rows


def main():
    img = photo_proxy(512)
    tiles = -(-len(codec._blocks_of(codec._pad_to_blocks(img.samples))) // codec._TILE_BLOCKS)
    with tempfile.TemporaryDirectory() as directory:
        ops = op_rows(Path(directory))  # before the stages, which grow the heap
    construction = construction_rows(photo_proxy(128))
    rows = tile_stages(img)
    fixed = fixed_tile_rows(photo_proxy(128))
    per_call = per_call_rows(photo_proxy(128))
    shaped = shaped_rows()

    print(f"{img.width}x{img.height} photo_proxy: {tiles} tiles of {codec._TILE_BLOCKS} "
          f"blocks; eps {EPSILON:g}, float; min ms and median faults of {REPEAT} runs")
    print(f"{'per tile':<32} {'ms':>8} {'faults':>8}")
    for name, ms, faults in rows:
        print(f"{name:<32} {ms:8.2f} {faults:8.0f}")
    print(f"{'128x128 tile, saturating':<32} {'ms':>8} {'faults':>8} "
          f"{'row checks':>11} {'col checks':>11}")
    for name, ms, faults, (row_checks, column_checks) in fixed:
        print(f"{name:<32} {ms:8.2f} {faults:8.0f} {row_checks:>11} {column_checks:>11}")
    print(f"{f'per call, min of {REPEAT} x {CALLS}':<32} {'us':>8}")
    for name, us in per_call:
        print(f"{name:<32} {us:8.1f}")
    print(f"{'construction':<32} {'ms':>8} {'faults':>8}")
    for name, ms, faults in construction:
        print(f"{name:<32} {ms:8.3f} {faults:8.0f}")
    print(f"{'per op':<32} {'ms':>8} {'faults':>8}")
    for name, ms, faults in ops:
        print(f"{name:<32} {ms:8.2f} {faults:8.0f}")
    print(f"{'per op after perfbench set-up':<32} {'ms':>8} {'faults':>8}")
    for name, ms, faults in shaped:
        print(f"{name:<32} {ms:8.2f} {faults:8.0f}")


if __name__ == "__main__":
    main()
