"""Which library calls the traced run wraps, and the per-layer metrics
computed from the spans they leave.

Entry calls are the ones the workloads make themselves, through the
namespace :func:`api` returns.  Lower-layer calls are wrapped where the
upper layers look them up (see :meth:`spans.Tracer.patch`).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from cordic_dct import codec, dct8, images, pgm, planner, rotator

from spans import SpanView, Tracer

# Upper-layer module namespaces searched for lower-layer bindings.
NAMESPACES = (codec, dct8, rotator)

CODEC_SPANS = ("codec.sweep", "codec.roundtrip")


def _steps(args, kwargs, result) -> int:
    return len(result.steps)


def _rows(args, kwargs, result) -> int:
    return int(np.size(args[1])) // 8


def _blocks(args, kwargs, result) -> int:
    img = args[0]
    return -(-img.height // 8) * -(-img.width // 8)


def _transform8_name(args) -> str:
    return "dct8.transform8.fixed" if args[0].mode.is_fixed else "dct8.transform8.float"


def _apply_plan_name(args) -> str:
    return "rotator.apply_plan.fixed" if args[2].is_fixed else "rotator.apply_plan.float"


def api(tracer: Tracer | None = None) -> SimpleNamespace:
    """The entry calls the workloads make, wrapped in spans when traced."""
    entries = {
        "photo_proxy": (images.photo_proxy, "images.photo_proxy", None),
        "read_pgm": (pgm.read_pgm, "pgm.read", None),
        "sweep": (codec.sweep, "codec.sweep", None),
        "to_csv": (codec.PsnrReport.to_csv, "codec.to_csv", None),
        "decompose": (planner.decompose, "planner.decompose", _steps),
        "apply_plan": (rotator.apply_plan, _apply_plan_name, None),
        "dct8_cordic": (dct8.dct8_cordic, "dct8.dct8_cordic", None),
        "dct2d": (dct8.dct2d, "dct8.dct2d", None),
        "DctEngine": (dct8.DctEngine, "dct8.engine.build", None),
    }
    if tracer is None:
        return SimpleNamespace(**{k: fn for k, (fn, _, _) in entries.items()})
    return SimpleNamespace(**{k: tracer.wrap(fn, n, c) for k, (fn, n, c) in entries.items()})


def lower_layer_targets(tracer: Tracer) -> list:
    """``(callable, span name, count)`` for every lower-layer public call."""

    def csd_key(args, kwargs, result) -> int:
        tracer.csd_keys.add((args, tuple(sorted(kwargs.items()))))
        return 1

    oracle = "dct8.oracle"
    return [
        (planner.decompose, "planner.decompose", _steps),
        (rotator.csd_scale, "rotator.csd_scale", csd_key),
        (dct8.DctEngine, "dct8.engine.build", None),
        (dct8.transform8, _transform8_name, _rows),
        (dct8.dct2d, "dct8.dct2d", None),
        (dct8.dct8_cordic, "dct8.dct8_cordic", None),
        (dct8.dct8_oracle, oracle, None),
        (dct8.idct8_oracle, oracle, None),
        (dct8.dct2d_oracle, oracle, None),
        (dct8.idct2d_oracle, oracle, None),
        (codec.roundtrip_image, "codec.roundtrip", _blocks),
        (codec.psnr, "codec.psnr", None),
    ]


OP_COUNT_EPSILONS = (1e-3, 1e-4, 1e-6)
COMPENSATIONS = ("folded", "per_rotator")
OP_KINDS = ("adds", "shifts", "multiplies")
SATURATION_FORMATS = ("q24_8", "q16_5")

PER_LAYER_UNITS = {
    "planner.decompose.calls": "count",
    "planner.decompose.p50_us": "us",
    "planner.decompose.busy_s": "s",
    "planner.steps": "count",
    "rotator.apply_plan.float_p50_us": "us",
    "rotator.apply_plan.fixed_p50_us": "us",
    "rotator.csd_scale.calls": "count",
    "rotator.csd_scale.busy_s": "s",
    "rotator.csd_scale.reuse_ratio": "ratio",
    "dct8.engine.builds": "count",
    "dct8.engine.build_p50_us": "us",
    **{
        f"dct8.transform8.{arith}.{field}": unit
        for arith in ("float", "fixed")
        for field, unit in (("calls", "count"), ("rows", "rows"), ("busy_s", "s"),
                            ("ns_per_row", "ns"))
    },
    "dct8.rows_per_call": "rows",
    "dct8.oracle.calls": "count",
    "dct8.oracle.busy_s": "s",
    **{f"dct8.saturations.{fmt}": "count" for fmt in SATURATION_FORMATS},
    **{
        f"dct8.op_{kind}.{comp}.eps_{eps:g}": "count"
        for comp in COMPENSATIONS for eps in OP_COUNT_EPSILONS for kind in OP_KINDS
    },
    "codec.sweep.self_s": "s",
    "codec.roundtrip.calls": "count",
    "codec.roundtrip.p50_s": "s",
    "codec.blocks": "count",
    "codec.psnr.busy_s": "s",
    "codec.forward_reuse_ratio": "ratio",
    "pgm.read_s": "s",
    "images.photo_proxy_s": "s",
    "trace.overhead.sweep_s": "s",
    "trace.overhead.mpix_cells_per_s": "Mpx.cell/s",
    "trace.overhead.call_p50_us": "us",
    "trace.overhead.call_p99_us": "us",
    "trace.overhead.calls_per_s": "1/s",
}


def op_count_metrics(table: dict) -> dict[str, float]:
    """``table[(compensation, eps)]`` is ``DctEngine.operation_counts()``."""
    return {
        f"dct8.op_{kind}.{comp}.eps_{eps:g}": table[(comp, eps)][kind]
        for comp in COMPENSATIONS for eps in OP_COUNT_EPSILONS for kind in OP_KINDS
    }


def per_layer(tracer: Tracer, *, op_counts: dict, saturations: dict,
              forward_rows_needed: int, overhead: dict) -> dict[str, float]:
    """Every per-layer metric, as totals over the traced work.

    A layer the workload never calls reports 0 calls and 0 s, and a ratio
    whose base is 0 reports 0.
    """
    v = SpanView(tracer)

    def per_call(name: str) -> float:
        n = v.calls(name)
        return v.busy_s(name) / n if n else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {
        "planner.decompose.calls": v.calls("planner.decompose"),
        "planner.decompose.p50_us": v.p50("planner.decompose") * 1e6,
        "planner.decompose.busy_s": v.busy_s("planner.decompose"),
        "planner.steps": v.total_count("planner.decompose"),
        "rotator.apply_plan.float_p50_us": v.p50("rotator.apply_plan.float") * 1e6,
        "rotator.apply_plan.fixed_p50_us": v.p50("rotator.apply_plan.fixed") * 1e6,
        "rotator.csd_scale.calls": v.calls("rotator.csd_scale"),
        "rotator.csd_scale.busy_s": v.busy_s("rotator.csd_scale"),
        "rotator.csd_scale.reuse_ratio": ratio(len(tracer.csd_keys), v.calls("rotator.csd_scale")),
        "dct8.engine.builds": v.calls("dct8.engine.build"),
        "dct8.engine.build_p50_us": v.p50("dct8.engine.build") * 1e6,
    }
    for arith in ("float", "fixed"):
        name = f"dct8.transform8.{arith}"
        rows, busy = v.total_count(name), v.busy_s(name)
        m[f"{name}.calls"] = v.calls(name)
        m[f"{name}.rows"] = rows
        m[f"{name}.busy_s"] = busy
        m[f"{name}.ns_per_row"] = ratio(busy * 1e9, rows)
    all_t8 = ("dct8.transform8.float", "dct8.transform8.fixed")
    m["dct8.rows_per_call"] = ratio(v.total_count(*all_t8), v.calls(*all_t8))
    m["dct8.oracle.calls"] = v.calls("dct8.oracle")
    m["dct8.oracle.busy_s"] = v.busy_s("dct8.oracle")
    for fmt in SATURATION_FORMATS:
        m[f"dct8.saturations.{fmt}"] = saturations.get(fmt, 0)
    m.update(op_count_metrics(op_counts))
    m["codec.sweep.self_s"] = v.busy_s("codec.sweep") - v.child_time_s(CODEC_SPANS, CODEC_SPANS)
    m["codec.roundtrip.calls"] = v.calls("codec.roundtrip")
    m["codec.roundtrip.p50_s"] = v.p50("codec.roundtrip")
    m["codec.blocks"] = v.total_count("codec.roundtrip")
    m["codec.psnr.busy_s"] = v.busy_s("codec.psnr")
    m["codec.forward_reuse_ratio"] = ratio(forward_rows_needed, v.total_count(*all_t8))
    m["pgm.read_s"] = per_call("pgm.read")
    m["images.photo_proxy_s"] = per_call("images.photo_proxy")
    m.update({f"trace.overhead.{k}": val for k, val in overhead.items()})
    assert m.keys() == PER_LAYER_UNITS.keys()
    return m
