"""Per-layer spans for the traced run.

Wrappers are installed around vopol's public functions from here, where
the caller looks the name up (``vopol.engine.apply_action``, the method
on ``VoModel``), and removed again after the traced repeat; nothing under
``src/`` changes. A layer's self time is its span time minus the time of
the spans nested in it.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# span name -> the public names it wraps, as "module:attribute.path"
WRAPPED = {
    "engine.event": ("vopol.engine:Engine.handle_event",),
    "engine.dispatch": ("vopol.engine:Engine.dispatch_trigger",),
    "model.validate": ("vopol.engine:validate_model",),
    "model.graph": ("vopol.model:VoModel.predecessors", "vopol.model:VoModel.successors"),
    "model.clone": ("vopol.model:VoModel.clone",),
    "model.duties": ("vopol.model:VoModel.iter_duties",),
    "domain.predicate": ("vopol.engine:eval_predicate",),
    "policy.evaluate": ("vopol.engine:evaluate_rule_group",),
    "domain.resolve": ("vopol.engine:resolve_action",),
    "domain.apply": ("vopol.engine:apply_action",),
    "conflict.detect": ("vopol.engine:detect_conflicts",),
    "model.write": (
        "vopol.domain:insert_task_node",
        "vopol.domain:remove_task_node",
        "vopol.domain:set_dataflow_edge",
    ),
    "domain.bootstrap": ("vopol.engine:run_bootstrap",),
}


def _resolve(target: str):
    """(owner, attribute, current value) for a wrapped name, or None when
    the name no longer exists."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Spans:
    """Call counts, inclusive time and self time per span name."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.conflict_pairs = 0
        self.absent: set[str] = set()
        self._child_time: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _close(self, name: str, elapsed: float):
        children = self._child_time.pop()
        self.calls[name] += 1
        self.total[name] += elapsed
        self.self_time[name] += elapsed - children
        if self._child_time:
            self._child_time[-1] += elapsed

    @contextmanager
    def span(self, name: str):
        self._child_time.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, perf_counter() - start)

    def _wrapper(self, name: str, fn):
        child_time = self._child_time
        close = self._close
        count_pairs = name == "conflict.detect"

        def wrapped(*args, **kwargs):
            if count_pairs:
                n = len(args[0])
                self.conflict_pairs += n * (n - 1) // 2
            child_time.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, perf_counter() - start)

        return wrapped

    def install(self):
        for name, targets in WRAPPED.items():
            found = [_resolve(t) for t in targets]
            if any(f is None for f in found):
                self.absent.add(name)
                continue
            for owner, attr, value in found:
                # methods are looked up on the class, so wrap the plain function
                setattr(owner, attr, self._wrapper(name, value))
                self._undo.append((owner, attr, value))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def layer_metrics(spans: Spans, records, n_events: int, tokens: int, trace_bytes: int) -> dict[str, float | None]:
    """Per-layer metrics of one traced repeat; ``None`` marks a metric whose
    public name is gone or whose base is zero (reported as absent)."""
    kinds = Counter(r.kind for r in records)
    user_applied = sum(1 for r in records if r.kind == "ACTION-APPLIED" and r.get("policy") != "@bootstrap")
    admitted = sum(
        1 for r in records
        if r.kind == "ACTION-APPLIED" and r.get("policy") == "@bootstrap" and r.get("action") == "add_member"
    )
    boot_failed = sum(1 for r in records if r.kind == "ACTION-FAILED" and r.get("policy") == "@bootstrap")
    calls, total, self_s = spans.calls, spans.total, spans.self_time
    out: dict[str, float | None] = {
        "model.load.s": total["model.load"],
        "model.validate.calls": calls["model.validate"],
        "model.validate.s": total["model.validate"],
        "policy.parser.s": total["policy.parser"],
        "policy.parser.tokens_per_s": _ratio(tokens, total["policy.parser"]),
        "policy.validate.s": total["policy.validate"],
        "engine.init.s": total["engine.init"],
        "engine.event.self_s": self_s["engine.event"],
        "engine.dispatch.calls": calls["engine.dispatch"],
        "engine.dispatch.self_s": self_s["engine.dispatch"],
        "model.graph.calls": calls["model.graph"],
        "model.graph.self_s": self_s["model.graph"],
        "model.clone.calls": calls["model.clone"],
        "model.clone.self_s": self_s["model.clone"],
        "model.clone.per_event": _ratio(calls["model.clone"], n_events),
        "model.duties.calls": calls["model.duties"],
        "model.duties.self_s": self_s["model.duties"],
        "domain.predicate.calls": calls["domain.predicate"],
        "domain.predicate.self_s": self_s["domain.predicate"],
        "policy.evaluate.calls": calls["policy.evaluate"],
        "policy.evaluate.self_s": self_s["policy.evaluate"],
        "policy.fire_ratio": _ratio(kinds["POLICY-FIRED"], calls["policy.evaluate"]),
        "domain.resolve.calls": calls["domain.resolve"],
        "domain.apply.calls": calls["domain.apply"],
        "domain.apply.self_s": self_s["domain.apply"],
        "domain.apply.per_applied": _ratio(calls["domain.apply"], user_applied),
        "conflict.detect.calls": calls["conflict.detect"],
        "conflict.detect.self_s": self_s["conflict.detect"],
        "conflict.pairs": spans.conflict_pairs,
        "conflict.found": kinds["CONFLICT"],
        "model.write.calls": calls["model.write"],
        "model.write.self_s": self_s["model.write"],
        "domain.bootstrap.calls": calls["domain.bootstrap"],
        "domain.bootstrap.self_s": self_s["domain.bootstrap"],
        "domain.bootstrap.admitted": admitted,
        "domain.bootstrap.failed": boot_failed,
        "trace.format.s": total["trace.format"],
        "trace.format.bytes_per_s": _ratio(trace_bytes, total["trace.format"]),
        "trace.parse.s": total["trace.parse"],
        "trace.records": len(records),
        "trace.policy_fired": kinds["POLICY-FIRED"],
        "trace.action_applied": kinds["ACTION-APPLIED"],
        "trace.action_failed": kinds["ACTION-FAILED"],
        "trace.error": kinds["ERROR"],
    }
    for span in spans.absent:
        for key in out:
            if key.startswith(span + "."):
                out[key] = None
    # ratios whose numerator comes from a missing span
    derived = {"policy.fire_ratio": "policy.evaluate", "conflict.pairs": "conflict.detect"}
    for key, span in derived.items():
        if span in spans.absent:
            out[key] = None
    return out


def count_keys(metrics: dict[str, float | None]) -> dict[str, float | None]:
    """The metrics that must repeat exactly: counts and ratios of counts."""
    return {k: v for k, v in metrics.items() if not (k.endswith("_s") or k.endswith(".s") or k.endswith("_per_s"))}
