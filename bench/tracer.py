"""Per-layer tracing from outside the program.

Each traced function is wrapped by rebinding its name in every sqft module
that holds it: engine imports is_trivial, normalize, bypass_surgery and
canonical_form by name, so patching the defining module alone would miss
engine's calls. While recording is on, a wrapper counts the call and adds
its self time, the span's duration minus the durations of its direct child
spans. While `keep_spans` is also on it keeps the span (name, operation,
parent span, start, end) in memory; kept spans are written out when the run
ends.
"""

from __future__ import annotations

import json
import sys
from array import array
from functools import wraps
from pathlib import Path
from time import perf_counter_ns

LAYERS = {
    "engine": ("suture_element", "compile_script", "apply_script_to_sutures"),
    "regions": ("is_trivial", "regions"),
    "sutures": ("normalize", "bypass_triples", "bypass_surgery", "basic_bits",
                "validate_sutures", "transport_glue"),
    "surface": ("canonical_form", "validate_complex", "glue"),
    "quad": ("tighten", "collapse_slack_square"),
    "routing": ("transport_collapse", "split_disc"),
    "tensor": ("apply_op", "apply_annihilate"),
    "formats": ("parse_surface", "parse_sutures", "parse_script",
                "emit_sutures"),
    "census": ("matching_system",),
}
MEMO = ("memo_lookups", "memo_hits", "memo_entries")


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in reporting order."""
    out = []
    for module, functions in LAYERS.items():
        for fn in functions:
            out.append((f"{module}.{fn}.calls", "count/op"))
            out.append((f"{module}.{fn}.self_ms", "ms/op"))
        out.append((f"{module}.self_ms", "ms/op"))
    out.extend((f"engine.{m}", "count/op") for m in MEMO)
    return out


class Tracer:
    def __init__(self) -> None:
        self.names = [f"{m}.{fn}" for m, fns in LAYERS.items() for fn in fns]
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.stack: list[list[int]] = []   # [kept span or -1, child ns]
        self.recording = False
        self.keep_spans = False
        self.op = -1               # index of the operation being traced
        self.ops = 0               # operations traced
        self.memo_lookups = 0
        self.memo_entries = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, lookup: bool = False):
        tr = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tr.recording:
                return fn(*args, **kwargs)
            if lookup:
                tr.memo_lookups += 1
            idx = -1
            if tr.keep_spans:
                idx = len(tr.span_name)
                tr.span_name.append(name_id)
                tr.span_op.append(tr.op)
                tr.span_parent.append(tr.stack[-1][0] if tr.stack else -1)
                tr.span_end.append(0)
            frame = [idx, 0]
            tr.stack.append(frame)
            start = perf_counter_ns()
            if idx >= 0:
                tr.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tr.stack.pop()
                if tr.stack:
                    tr.stack[-1][1] += end - start
                tr.calls[name_id] += 1
                tr.self_ns[name_id] += end - start - frame[1]
                if idx >= 0:
                    tr.span_end[idx] = end
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "sqft" or name.startswith("sqft.")]
        for name_id, name in enumerate(self.names):
            module, fn_name = name.split(".")
            original = getattr(sys.modules[f"sqft.{module}"], fn_name)
            wrapper = self._wrap(name_id, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
            if name == "surface.canonical_form":
                # the memo key is built through engine's binding only, so
                # that binding also counts lookups
                engine = sys.modules["sqft.engine"]
                setattr(engine, "canonical_form",
                        self._wrap(name_id, original, lookup=True))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and memo traffic per traced operation."""
        ops = max(self.ops, 1)
        out: dict[str, float] = {}
        module_ns: dict[str, int] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[k] / ops
            out[f"{name}.self_ms"] = self.self_ns[k] / 1e6 / ops
            module = name.split(".")[0]
            module_ns[module] = module_ns.get(module, 0) + self.self_ns[k]
        for module, ns in module_ns.items():
            out[f"{module}.self_ms"] = ns / 1e6 / ops
        out["engine.memo_lookups"] = self.memo_lookups / ops
        out["engine.memo_entries"] = self.memo_entries / ops
        # one thread: every miss inserts exactly one memo entry
        out["engine.memo_hits"] = \
            (self.memo_lookups - self.memo_entries) / ops
        return out

    def write(self, path: Path, meta: dict) -> None:
        doc = dict(meta, names=self.names, spans={
            "name": self.span_name.tolist(),
            "op": self.span_op.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
        })
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
