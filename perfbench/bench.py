"""Measurement and correctness checks for one workload.

A run is a closed loop with one caller: each scenario event goes to
``Engine.handle_event`` only after the previous one returned, because a
scenario replays one instance's lifecycle in order. A repeat covers the
whole ``vopol run`` path minus interpreter start: loading and validating
both inputs, building the engine, every event, and ``format_trace``.

Times are reported in reference seconds. A shared cloud host changes
speed by a quarter or more over seconds and minutes, and pure Python
code slows with it, so a repeat also runs a fixed probe (see
``HostSpeed``) between its steps and after every event. Each phase's wall
time is scaled by the probe's reference time over its measured time in
that phase: a slower host slows the probe and vopol alike and cancels
out, while a change to vopol shows in full. The wall-clock figures are
printed next to the scaled ones.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from vopol import (
    VOCABULARY,
    Engine,
    format_trace,
    load_model,
    parse_policy_document,
    parse_trace,
    run_scenario,
    validate_model,
    validate_policies,
)
from vopol.cli import model_symbols, parse_scenario
from vopol.policy.parser import tokenize

from layers import Spans, count_keys, layer_metrics

MIN_REPEATS = 3
MIN_TRACED_REPEATS = 2

# probe runs between set-up steps and around format_trace, and after every event
STEP_PROBES = 20
EVENT_PROBES = 4

_PROBE_KEYS = [f"key{i:03d}" for i in range(64)]


def _probe() -> int:
    """Fixed interpreter work of the kinds vopol does: dict writes, a keyed
    sort, attribute-free loops and a set build; 25-45 us on a 2-vCPU
    cloud VM with Python 3.11."""
    table = {}
    for i, key in enumerate(_PROBE_KEYS):
        table[key] = (i * 7) % 13
    total = 0
    for key, value in sorted(table.items(), key=lambda kv: (kv[1], kv[0])):
        if value > 3:
            total += len(key) + value
    return total + len(set(table.values()))


class HostSpeed:
    """Probe time spent in one phase of a repeat.

    ``factor`` turns the phase's wall time into reference seconds: the
    time it would have taken on a host that runs one probe in
    ``REFERENCE_S``. The collector is paused while probing, so garbage
    left by vopol is not collected on the probe's clock, and one untimed
    probe runs first, so the timed ones see the host, not cold caches.
    """

    REFERENCE_S = 36e-6  # a typical warm probe on that VM

    def __init__(self):
        self.runs = 0
        self.spent = 0.0

    def sample(self, runs: int) -> None:
        enabled = gc.isenabled()
        gc.disable()
        _probe()  # untimed: refills the caches vopol's work just used
        start = perf_counter()
        for _ in range(runs):
            _probe()
        self.spent += perf_counter() - start
        self.runs += runs
        if enabled:
            gc.enable()

    @property
    def factor(self) -> float:
        return self.REFERENCE_S * self.runs / self.spent


@dataclass
class Repeat:
    """One pass; ``*_wall`` fields are wall clock, ``*_speed`` the probe
    factor of each phase, and the properties give reference seconds."""

    setup_wall: float
    events_wall: float
    format_wall: float
    wall_latencies: list[float]
    setup_speed: float
    events_speed: float
    format_speed: float
    raised: int
    text: str
    records: list
    final_model: object
    problems: list[str] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return self.setup_wall * self.setup_speed

    @property
    def events_s(self) -> float:
        return self.events_wall * self.events_speed

    @property
    def latencies(self) -> list[float]:
        return [x * self.events_speed for x in self.wall_latencies]

    @property
    def total_s(self) -> float:
        return self.setup_s + self.events_s + self.format_wall * self.format_speed

    @property
    def total_wall(self) -> float:
        return self.setup_wall + self.events_wall + self.format_wall

    @property
    def events_per_s(self) -> float:
        return len(self.wall_latencies) / self.events_s

    @property
    def wall_events_per_s(self) -> float:
        return len(self.wall_latencies) / self.events_wall


def _untimed(_name: str):
    return nullcontext()


def run_repeat(workload, spans: Spans | None = None) -> Repeat:
    """One pass over the workload; ``spans`` times the layers when given."""
    span = spans.span if spans is not None else _untimed
    problems: list[str] = []
    setup_speed, events_speed, format_speed = HostSpeed(), HostSpeed(), HostSpeed()
    setup_wall = 0.0

    def step(name, run):
        # one set-up step, timed on its own, with the probe run after it
        nonlocal setup_wall
        start = perf_counter()
        with span(name) if name else nullcontext():
            out = run()
        setup_wall += perf_counter() - start
        setup_speed.sample(STEP_PROBES)
        return out

    setup_speed.sample(STEP_PROBES)
    model = step("model.load", lambda: load_model(workload.model))
    diags = step("model.validate", lambda: validate_model(model))
    doc = step("policy.parser", lambda: parse_policy_document(workload.policies))
    symbols = step(None, lambda: model_symbols(model))
    policy_diags = step("policy.validate", lambda: validate_policies(doc, VOCABULARY, symbols))
    events = step(None, lambda: parse_scenario(workload.scenario))
    engine = step("engine.init", lambda: Engine(model, doc))
    problems += [f"model: {d.message}" for d in diags]
    problems += [f"policies: {d.message}" for d in policy_diags if d.severity == "error"]

    # closed loop; the probe between events is not part of any latency
    latencies = []
    raised = 0
    for ev in events:
        start = perf_counter()
        try:
            engine.handle_event(ev)
        except Exception as err:  # a raising event is a failed event; keep going
            raised += 1
            if raised == 1:
                problems.append(f"event {ev.kind} {ev.args} raised {err!r}")
        latencies.append(perf_counter() - start)
        events_speed.sample(EVENT_PROBES)
    format_speed.sample(STEP_PROBES)
    start = perf_counter()
    with span("trace.format"):
        text = format_trace(engine.records)
    format_wall = perf_counter() - start
    format_speed.sample(STEP_PROBES)
    return Repeat(setup_wall, sum(latencies), format_wall, latencies,
                  setup_speed.factor, events_speed.factor, format_speed.factor,
                  raised, text, engine.records, engine.model, problems)


def golden_problems(root: Path) -> list[str]:
    """The pinned fixture must reproduce its golden trace byte for byte."""
    fixtures = root / "tests" / "fixtures"
    model = load_model((fixtures / "visitus.vo").read_text(encoding="utf-8"))
    policies = parse_policy_document((fixtures / "morebeds.pol").read_text(encoding="utf-8"))
    events = parse_scenario((fixtures / "golden.scenario").read_text(encoding="utf-8"))
    _, _, records = run_scenario(model, policies, events, base_dir=fixtures)
    want = (fixtures / "morebeds.records").read_text(encoding="utf-8")
    return [] if format_trace(records) == want else ["golden: morebeds trace differs from tests/fixtures/morebeds.records"]


def final_problems(rep: Repeat, parsed: list | None = None) -> list[str]:
    """Checks on the outputs of one repeat: a valid final model and a trace
    that parses back to the records it came from."""
    out = [f"final model: {d.message}" for d in validate_model(rep.final_model)]
    if parsed is None:
        parsed = parse_trace(rep.text)
    if parsed != rep.records:
        out.append("trace: parse_trace(format_trace(records)) != records")
    return out


@dataclass
class Result:
    metrics: dict[str, float | None]
    attempted: int
    failed: int
    problems: list[str]
    notes: dict[str, object]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentiles(latencies: list[float]) -> tuple[float, float]:
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return cuts[49], cuts[94]


def _tally(reps: list[Repeat], problems: list[str]) -> tuple[int, int]:
    """Events attempted and failed; a run that fails a check fails every event."""
    attempted = sum(len(r.wall_latencies) for r in reps)
    failed = attempted if problems else sum(r.raised for r in reps)
    return attempted, failed


def _room_for_another(start: float, seconds: float, last: float) -> bool:
    """Whether one more repeat, as long as the last, still ends in time."""
    return perf_counter() - start + last <= seconds


def _timed_repeat(workload, spans: Spans | None = None) -> tuple[Repeat, float]:
    """A repeat and its elapsed wall time, probes included."""
    start = perf_counter()
    rep = run_repeat(workload, spans)
    return rep, perf_counter() - start


def _wall_notes(reps: list[Repeat]) -> dict[str, object]:
    """The unscaled figures and the host speed the scaling used."""
    med = statistics.median
    return {
        "host_speed": round(med(r.events_speed for r in reps), 4),
        "wall setup_s": round(med(r.setup_wall for r in reps), 6),
        "wall events_per_s": round(med(r.wall_events_per_s for r in reps), 3),
        "wall total_s": round(med(r.total_wall for r in reps), 6),
    }


def _check_repeats(reps: list[Repeat]) -> list[str]:
    out = [p for r in reps for p in r.problems]
    if any(r.text != reps[0].text for r in reps):
        out.append("determinism: repeats produced different traces")
    return out


def measure(workload, seconds: float, root: Path) -> Result:
    """End-to-end metrics with tracing off."""
    problems = golden_problems(root)
    reps: list[Repeat] = []
    peak_rss = 0.0
    last = 0.0
    start = perf_counter()
    while len(reps) < MIN_REPEATS or _room_for_another(start, seconds, last):
        gc.collect()
        rep, last = _timed_repeat(workload)
        if not reps:
            # the process has run the workload once: its peak is the workload's
            peak_rss = _peak_rss_mb()
        else:
            rep.records = rep.final_model = None  # keep one copy of the outputs
        reps.append(rep)
    problems += _check_repeats(reps) + final_problems(reps[0])
    pooled = [x for r in reps for x in r.latencies]
    p50, p95 = _percentiles(pooled)
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in reps),
        "events_per_s": statistics.median(r.events_per_s for r in reps),
        "event_p50_ms": p50 * 1e3,
        "event_p95_ms": p95 * 1e3,
        "total_s": statistics.median(r.total_s for r in reps),
        "peak_rss_mb": peak_rss,
    }
    attempted, failed = _tally(reps, problems)
    notes = {
        "repeats": len(reps),
        "event_samples": len(pooled),
        "p95_samples_beyond": sum(1 for x in pooled if x > p95),
        "failed_event_ratio": failed / attempted,
        "trace_sha256": hashlib.sha256(reps[0].text.encode()).hexdigest(),
        **_wall_notes(reps),
    }
    return Result(metrics, attempted, failed, problems, notes)


def measure_layers(workload, seconds: float, root: Path) -> Result:
    """Per-layer metrics: untraced and traced repeats alternate, so the
    tracing overhead is measured under the same conditions."""
    problems = golden_problems(root)
    tokens = len(tokenize(workload.policies))
    untraced: list[Repeat] = []
    traced: list[tuple[Repeat, dict]] = []
    last = 0.0
    start = perf_counter()
    while len(traced) < MIN_TRACED_REPEATS or _room_for_another(start, seconds, last):
        pair_start = perf_counter()
        gc.collect()
        plain = run_repeat(workload)
        plain.records = plain.final_model = None
        untraced.append(plain)
        gc.collect()
        spans = Spans()
        spans.install()
        try:
            rep = run_repeat(workload, spans)
            with spans.span("trace.parse"):
                parsed = parse_trace(rep.text)
        finally:
            spans.uninstall()
        layer = layer_metrics(spans, rep.records, len(rep.wall_latencies), tokens, len(rep.text.encode()))
        if not traced:
            problems += final_problems(rep, parsed)
        rep.records = rep.final_model = None
        traced.append((rep, layer))
        last = perf_counter() - pair_start
    reps = untraced + [rep for rep, _ in traced]
    problems += _check_repeats(reps)
    counts = [count_keys(layer) for _, layer in traced]
    if any(c != counts[0] for c in counts):
        problems.append("layers: per-layer counts differ between traced repeats")

    metrics: dict[str, float | None] = {}
    for key, first in traced[0][1].items():
        if first is None:
            metrics[key] = None
        elif key in counts[0]:
            metrics[key] = first
        else:
            metrics[key] = statistics.median(layer[key] for _, layer in traced)
    eps = statistics.median(r.events_per_s for r in untraced)
    traced_eps = statistics.median(r.events_per_s for r, _ in traced)
    metrics["tracing_overhead"] = traced_eps / eps
    attempted, failed = _tally(reps, problems)
    notes = {
        "repeats": len(untraced),
        "traced_repeats": len(traced),
        "failed_event_ratio": failed / attempted,
        "trace_sha256": hashlib.sha256(reps[0].text.encode()).hexdigest(),
    }
    return Result(metrics, attempted, failed, problems, notes)
