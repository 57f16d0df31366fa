"""In-memory span tracer for the benchmark's traced run.

A span is ``(name, start, end, parent, op id, count)``: ``start``/``end``
are ``perf_counter_ns`` readings, ``parent`` is the index of the enclosing
span (-1 at the top), ``op`` is the benchmark op the span belongs to (-1
during set-up) and ``count`` is work measured at the boundary (rows for
``transform8``, micro-rotation steps for ``decompose``, blocks for a
round trip).  Apart from the two timing fields every span is a pure
function of the workload's inputs.

Nothing inside ``src/`` is edited.  :meth:`Tracer.patch` replaces, for
the duration of a ``with`` block, every binding of a lower layer's public
callable that an upper layer's module namespace holds (``transform8`` in
``dct8``, the ``dct8`` names in ``codec``, ``decompose``/``csd_scale`` in
``dct8`` and ``rotator``, ...).  The match is by object identity, so a
later refactor that binds ``transform8`` directly into ``codec`` is
traced without editing this file.  Entry calls are wrapped by the
workload with :meth:`Tracer.wrap`.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.count = array("q")
        self._stack: list[int] = []
        self.op_id = -1
        # distinct (args, kwargs) keys seen by csd_scale, for its reuse ratio
        self.csd_keys: set = set()

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, count=None):
        """Return ``fn`` wrapped in a span.

        ``name`` is a string or a function of the positional arguments
        returning one; ``count(args, kwargs, result)`` fills the span's
        count field when the call returns.
        """
        fixed_id = self._id(name) if isinstance(name, str) else None
        stack, clock = self._stack, time.perf_counter_ns
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, ops, counts = self.parent, self.op, self.count

        def traced(*args, **kwargs):
            nid = fixed_id if fixed_id is not None else self._id(name(args))
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            counts.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                counts[idx] = count(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patch(self, targets, namespaces):
        """Wrap every binding of each target inside ``namespaces``.

        ``targets`` holds ``(callable, name, count)`` triples; a binding is
        replaced wherever a namespace module holds that very object.
        Bindings are restored on exit.
        """
        saved = []
        try:
            for fn, name, count in targets:
                wrapped = self.wrap(fn, name, count)
                for module in namespaces:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            saved.append((module, attr, value))
                            setattr(module, attr, wrapped)
            yield
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as NumPy columns, for metrics and for saving."""
        n = len(self.end)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32, count=n).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64, count=n).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64, count=n).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32, count=n).copy(),
            "count": np.frombuffer(self.count, dtype=np.int64, count=n).copy(),
        }

    def save(self, path) -> None:
        """Write every span to ``path`` as an uncompressed ``.npz``."""
        cols = self.arrays()
        cols["names"] = np.array(self.names, dtype=str)
        np.savez(path, **cols)


class SpanView:
    """Read-side helpers over :meth:`Tracer.arrays`."""

    def __init__(self, tracer: Tracer):
        self.cols = tracer.arrays()
        self.names = tracer.names
        self.dur_ns = self.cols["end_ns"] - self.cols["start_ns"]

    def mask(self, *names: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(self.cols["name_id"], ids)

    def calls(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def busy_s(self, *names: str) -> float:
        return float(self.dur_ns[self.mask(*names)].sum()) / 1e9

    def p50(self, *names: str) -> float:
        """Median span duration in seconds; 0.0 when no such span ran."""
        d = self.dur_ns[self.mask(*names)]
        return float(np.median(d)) / 1e9 if d.size else 0.0

    def total_count(self, *names: str) -> int:
        return int(self.cols["count"][self.mask(*names)].sum())

    def child_time_s(self, parents: tuple[str, ...], exclude: tuple[str, ...]) -> float:
        """Time of spans whose parent is one of ``parents`` and whose own
        name is not in ``exclude`` (the children of another layer)."""
        par = self.cols["parent"]
        has_parent = par >= 0
        parent_ok = np.zeros_like(has_parent)
        parent_ok[has_parent] = self.mask(*parents)[par[has_parent]]
        sel = parent_ok & ~self.mask(*exclude)
        return float(self.dur_ns[sel].sum()) / 1e9
