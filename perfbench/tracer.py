"""Span recording around the package's public functions, for the traced run.

``Tracer.install`` wraps every public function defined in the layer
modules and rebinds each name, in every loaded ``altknot`` module
namespace that refers to the function (the package ``__init__``
included), to the wrapper.  Calls are recorded only while an operation
id is set, so set-up can be attributed to the id ``"setup"`` and output
checks are not recorded at all.  Spans stay in memory until
``write``.  Only the traced worker process imports this module.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("diagram", "analysis", "reduction", "augmentation", "volume", "generate", "render", "cli")


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent span index or -1, operation id)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op = None

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, op)

        return traced

    def install(self) -> int:
        """Wrap the layer modules' public functions; returns how many."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"altknot.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "altknot" or modname.startswith("altknot."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, attr, wrapped[obj])
        return len(wrapped)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def summary(self, op_filter) -> dict[str, dict[str, float]]:
        """calls, total and self seconds per function over the spans whose
        operation id passes ``op_filter``.  Self time is a span's duration
        minus the durations of its direct children, which never overlap
        because calls nest in one thread."""
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if op_filter(op):
                rec = out[name]
                rec["calls"] += 1
                rec["total_s"] += end - start
                rec["self_s"] += end - start - child_time[idx]
        return dict(out)

    def child_calls(self, child: str, parent: str, op_filter) -> int:
        """Number of ``child`` spans whose parent span is a ``parent`` span."""
        return sum(
            1 for name, _s, _e, p, op in self.spans
            if name == child and p >= 0 and self.spans[p][0] == parent and op_filter(op)
        )
