"""Deterministic execution of one workflow instance over a model.

The engine consumes scenario events strictly in order, maintains the task
lifecycle, raises task_entry/task_exit/task_failure triggers, dispatches
the active policies against them and applies the surviving actions. Every
observable consequence lands in the trace; identical inputs produce
byte-identical traces.

A dispatch runs in phases: (1) evaluate every active policy in order
against a speculative copy of the model, so later conditions observe
earlier actions while collecting each attempted action; (2) detect
conflicts in the collected list and suppress the later half of each
conflicting pair (first writer wins); (3) apply the survivors in order to
the authoritative model, recording success or failure per action; (4) for
task_entry only, run the bootstrap allocator, failing the task when it
cannot cover the requirements.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .policy.ast import ActionCall, Ident, Policy, PolicyDocument, Pred, TriggerSpec
from .policy.evaluate import evaluate_rule_group
from .policy.parser import parse_policy_document
from .policy.validate import validate_policies
from .conflict import detect_conflicts
from .domain import (
    VOCABULARY,
    DomainAction,
    DomainTrigger,
    EvalContext,
    apply_action,
    can_run,
    eval_predicate,
    remaining_shortfall,
    resolve_action,
    run_bootstrap,
)
from .errors import (
    IllegalTransitionError,
    InvalidArgumentError,
    InvalidModelError,
    ModelError,
    ParseError,
    TaskFailure,
    VopolError,
)
from .model import CUSTOMER, VoModel, adjust_reserved_capacity, validate_model
from .state import InstanceState, Status
from .trace import TraceRecord

BOOTSTRAP_POLICY = "@bootstrap"

# the STATE text of each status, looked up once per task per record
_STATUS_TEXT = {status: status.value for status in Status}


@dataclass(frozen=True)
class ScenarioEvent:
    """One line of a scenario file: ``start``, ``activate <task>``,
    ``complete <task>``, ``fail <task>``, ``consume <member> <cap> <n>``,
    ``release <member> <cap> <n>``, ``load-policy <path>`` or
    ``retract-policy <name>``."""

    kind: str
    args: tuple[str | int, ...] = ()


# number of arguments each scenario event kind takes
EVENT_ARITY = {
    "start": 0,
    "activate": 1,
    "complete": 1,
    "fail": 1,
    "load-policy": 1,
    "retract-policy": 1,
    "consume": 3,
    "release": 3,
}


def _adjacency(edges: set[tuple[str, str]]) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Predecessor and successor lists per task, from one pass over the
    control edges."""
    preds: dict[str, list[str]] = {}
    succs: dict[str, list[str]] = {}
    for p, s in edges:
        preds.setdefault(s, []).append(p)
        succs.setdefault(p, []).append(s)
    return preds, succs


def _eligible(m: VoModel, s: InstanceState, task: str, preds: list[str]) -> bool:
    """The readiness rule: every in-process predecessor of ``task`` is
    completed and every input of ``task`` has arrived."""
    if not m.tasks[task].inputs <= s.available_data:
        return False
    for p in preds:
        if s.status.get(p) is not Status.COMPLETED and m.tasks[p].in_process:
            return False
    return True


def ready_set(m: VoModel, s: InstanceState) -> set[str]:
    """Pending tasks whose in-process predecessors are all completed and
    whose inputs have arrived."""
    preds = _adjacency(m.control_edges)[0]
    return {
        t
        for t, status in s.status.items()
        if status is Status.PENDING and _eligible(m, s, t, preds.get(t, []))
    }


def init_instance(m: VoModel) -> InstanceState:
    """Fresh instance: in-process tasks pending, customer data available,
    entry-eligible tasks promoted to ready."""
    problems = validate_model(m)
    if problems:
        raise InvalidModelError(f"model is invalid: {problems[0].message}", m.name)
    state = InstanceState(
        status={t: Status.PENDING for t in m.in_process_tasks()},
        available_data={f.item for f in m.dataflows if f.source == CUSTOMER},
    )
    for task in ready_set(m, state):
        state.status[task] = Status.READY
    return state


@dataclass
class _Collected:
    """One attempted action from the evaluation phase."""

    policy: str
    call: ActionCall
    action: DomainAction | None
    error: ModelError | None


class Engine:
    """Runs one instance; processes events strictly sequentially."""

    def __init__(self, model: VoModel, policies: PolicyDocument, base_dir: Path | None = None):
        self.model = model.clone()
        self.policies: list[Policy] = list(policies.policies)
        self.base_dir = base_dir
        self.records: list[TraceRecord] = []
        self._seq = 0
        self.instance = init_instance(self.model)
        self._preds, self._succs = _adjacency(self.model.control_edges)
        # data item -> catalogue tasks that declare it as an input
        self._consumers: dict[str, set[str]] = {}
        for task, task_def in self.model.tasks.items():
            for item in task_def.inputs:
                self._consumers.setdefault(item, set()).add(task)
        # tasks whose readiness may have changed since the last refresh
        self._touched: set[str] = set()
        self._emit_state()

    # trace helpers ------------------------------------------------------

    def _emit(self, kind: str, *pairs: tuple[str, str]) -> TraceRecord:
        self._seq += 1
        rec = TraceRecord(self._seq, kind, tuple(pairs))
        self.records.append(rec)
        return rec

    def _emit_state(self):
        status = self.instance.status
        tasks = ",".join(f"{t}:{_STATUS_TEXT[status[t]]}" for t in sorted(status))
        data = ",".join(sorted(self.instance.available_data))
        members = ",".join(sorted(self.model.members))
        self._emit("STATE", ("tasks", tasks), ("data", data), ("members", members))

    def _emit_error(self, err: VopolError, detail: str | None = None):
        self._emit("ERROR", ("error", err.code), ("detail", detail or err.message))

    # lifecycle helpers ----------------------------------------------------

    def _refresh_readiness(self):
        """Re-check the readiness of the touched tasks against the current
        graph, then forget them.

        A touched task that joined the process appears as pending, one that
        left it is dropped, and a pending or ready one gets the readiness
        rule's verdict; started tasks are never changed.
        """
        status = self.instance.status
        for task in sorted(self._touched):
            if not self.model.tasks[task].in_process:
                status.pop(task, None)
                continue
            current = status.setdefault(task, Status.PENDING)
            if current is Status.PENDING or current is Status.READY:
                eligible = _eligible(self.model, self.instance, task, self._preds.get(task, []))
                status[task] = Status.READY if eligible else Status.PENDING
        self._touched.clear()

    def _touch_applied(self, action: DomainAction):
        """Note the tasks whose readiness an applied action may change:
        the task a graph change adds or deletes with its successors, or
        the task whose inputs changed. ``self.model`` is already the new
        version; the adjacency maps still describe the old one."""
        if action.name == "delete_task":
            task = str(action.args[0])
            self._touched.add(task)
            self._touched.update(self._succs.get(task, []))
            self._preds, self._succs = _adjacency(self.model.control_edges)
        elif action.name == "add_task":
            task = str(action.args[0])
            self._preds, self._succs = _adjacency(self.model.control_edges)
            self._touched.add(task)
            self._touched.update(self._succs.get(task, []))
        elif action.name in ("provide_input", "remove_input"):
            item, task = str(action.args[0]), str(action.args[1])
            self._touched.add(task)
            if action.name == "provide_input":
                # never dropped on removal: a stale consumer costs one re-check
                self._consumers.setdefault(item, set()).add(task)

    def _release_holds(self, task: str):
        for hold in self.instance.release_holds(task):
            # a scenario release event may already have freed held units
            current = self.model.ledger.get(hold.member, hold.capability)
            self.model.ledger.add(hold.member, hold.capability, -min(hold.amount, current))

    # dispatch -------------------------------------------------------------

    def dispatch_trigger(self, trig: DomainTrigger) -> list[TraceRecord]:
        mark = len(self.records)
        self._emit("TRIGGER", ("trigger", trig.name), ("task", trig.task))
        event_spec = TriggerSpec(trig.name, (Ident(trig.task),))

        # phase 1: evaluate policies against a speculative model, collecting
        # every attempted action; it starts as the authoritative model, which
        # predicates only read and apply_action never writes
        box = [self.model]
        collected: list[_Collected] = []

        def predicate(pred: Pred) -> bool:
            ctx = EvalContext(box[0], self.instance, trig.task)
            return eval_predicate(ctx, pred.name, pred.args)

        def make_attempt(policy_name: str):
            def attempt(call: ActionCall) -> bool:
                ctx = EvalContext(box[0], self.instance, trig.task)
                try:
                    action = resolve_action(ctx, call)
                except ModelError as err:
                    # without its traceback, whose frames hold ``collected``
                    collected.append(_Collected(policy_name, call, None, err.with_traceback(None)))
                    return False
                collected.append(_Collected(policy_name, call, action, None))
                try:
                    box[0] = apply_action(ctx, action)
                except ModelError:
                    return False
                return True

            return attempt

        for policy in list(self.policies):
            collect_mark = len(collected)
            try:
                applied = evaluate_rule_group(
                    policy.body, event_spec, trig.task, predicate, make_attempt(policy.name)
                )
            except ModelError as err:
                del collected[collect_mark:]
                self._emit_error(err, f"policy {policy.name!r}: {err.message}")
                continue
            for rule_idx in applied:
                self._emit("POLICY-FIRED", ("policy", policy.name), ("rule", str(rule_idx)))

        # the last speculative version is dead from here on; drop its
        # containers before phase 3 builds the authoritative versions
        box.clear()

        # phase 2: conflict detection over the collected list
        resolved_idx = [i for i, c in enumerate(collected) if c.action is not None]
        conflicts = detect_conflicts(
            [(collected[i].policy, collected[i].action) for i in resolved_idx]  # type: ignore[misc]
        )
        suppressed = set()
        for conflict in conflicts:
            suppressed.add(resolved_idx[conflict.second_index])
            self._emit(
                "CONFLICT",
                ("class", conflict.reason),
                ("first_policy", conflict.first[0]),
                ("first_action", conflict.first[1].render()),
                ("second_policy", conflict.second[0]),
                ("second_action", conflict.second[1].render()),
            )

        # phase 3: apply survivors in order to the authoritative model
        for i, entry in enumerate(collected):
            if i in suppressed:
                continue
            if entry.error is not None or entry.action is None:
                err = entry.error
                self._emit(
                    "ACTION-FAILED",
                    ("policy", entry.policy),
                    ("action", entry.call.name),
                    ("args", ",".join(str(getattr(a, "value", a)) for a in entry.call.args)),
                    ("error", err.code if err else "UnknownAction"),
                    ("detail", err.message if err else "unresolvable action"),
                )
                continue
            action = self._materialize(entry.action)
            ctx = EvalContext(self.model, self.instance, trig.task)
            try:
                new_model = apply_action(ctx, action)
            except ModelError as err:
                self._emit(
                    "ACTION-FAILED",
                    ("policy", entry.policy),
                    ("action", action.name),
                    ("args", ",".join(str(a) for a in action.args if a is not None)),
                    ("error", err.code),
                    ("detail", err.message),
                )
                continue
            self.model = new_model
            self._touch_applied(action)
            self.instance.holds.extend(ctx.hold_sink)
            self._emit(
                "ACTION-APPLIED",
                ("policy", entry.policy),
                ("action", action.name),
                ("args", ",".join(str(a) for a in action.args if a is not None)),
            )

        # phase 4: bootstrap, task_entry only
        bootstrap_failed = False
        if trig.name == "task_entry":
            ctx = EvalContext(self.model, self.instance, trig.task)
            try:
                new_model, performed = run_bootstrap(ctx, trig.task)
            except TaskFailure as err:
                self._emit(
                    "ACTION-FAILED",
                    ("policy", BOOTSTRAP_POLICY),
                    ("action", "bootstrap"),
                    ("args", trig.task),
                    ("error", err.code),
                    ("detail", err.message),
                )
                bootstrap_failed = True
            else:
                self.model = new_model
                for action in performed:
                    self._emit(
                        "ACTION-APPLIED",
                        ("policy", BOOTSTRAP_POLICY),
                        ("action", action.name),
                        ("args", ",".join(str(a) for a in action.args if a is not None)),
                    )

        if bootstrap_failed and self.instance.status.get(trig.task) is Status.ACTIVE:
            self.instance.status[trig.task] = Status.FAILED
            self._release_holds(trig.task)

        self._refresh_readiness()
        self._emit_state()

        if bootstrap_failed:
            self.dispatch_trigger(DomainTrigger("task_failure", trig.task))
        return self.records[mark:]

    def _materialize(self, action: DomainAction) -> DomainAction:
        """Fill application-time defaults (a duty amount left open becomes
        the task's current shortfall)."""
        if action.name == "assign_duty" and action.args[3] is None:
            member, task, capability, _ = action.args
            assert isinstance(task, str) and isinstance(capability, str)
            if task in self.model.tasks:
                amount = remaining_shortfall(self.model, task, capability)
                return DomainAction(action.name, (member, task, capability, amount))
        return action

    # events ---------------------------------------------------------------

    def handle_event(self, ev: ScenarioEvent) -> list[TraceRecord]:
        mark = len(self.records)
        wanted = EVENT_ARITY.get(ev.kind)
        if wanted is None:
            self._reject(ev, IllegalTransitionError(f"unknown event kind {ev.kind!r}", ev.kind))
        elif len(ev.args) != wanted:
            self._reject(
                ev,
                InvalidArgumentError(
                    f"{ev.kind} takes {wanted} argument(s), got {len(ev.args)}", ev.kind
                ),
            )
        else:
            getattr(self, "_ev_" + ev.kind.replace("-", "_"))(ev)
        return self.records[mark:]

    def _reject(self, ev: ScenarioEvent, err: VopolError):
        """Trace an unknown or malformed event: its kind, then the error."""
        self._emit("EVENT", ("event", ev.kind))
        self._emit_error(err)

    def _ev_start(self, ev: ScenarioEvent):
        self._emit("EVENT", ("event", "start"))

    def _require_status(self, task: str, wanted: Status, verb: str) -> bool:
        current = self.instance.status.get(task)
        if current is not wanted:
            shown = current.value if current is not None else "not in the process"
            self._emit_error(
                IllegalTransitionError(
                    f"cannot {verb} task {task!r}: status is {shown}, needs {wanted.value}",
                    task,
                )
            )
            return False
        return True

    def _ev_activate(self, ev: ScenarioEvent):
        task = str(ev.args[0])
        self._emit("EVENT", ("event", "activate"), ("task", task))
        if not self._require_status(task, Status.READY, "activate"):
            return
        self.instance.status[task] = Status.ACTIVE
        self.dispatch_trigger(DomainTrigger("task_entry", task))

    def _ev_complete(self, ev: ScenarioEvent):
        task = str(ev.args[0])
        self._emit("EVENT", ("event", "complete"), ("task", task))
        if not self._require_status(task, Status.ACTIVE, "complete"):
            return
        self.instance.status[task] = Status.COMPLETED
        self._release_holds(task)
        arrived = {f.item for f in self.model.dataflows if f.source == task}
        arrived -= self.instance.available_data
        self.instance.available_data |= arrived
        for item in arrived:
            self._touched.update(self._consumers.get(item, ()))
        self._touched.update(self._succs.get(task, []))
        self._refresh_readiness()
        self.dispatch_trigger(DomainTrigger("task_exit", task))

    def _ev_fail(self, ev: ScenarioEvent):
        task = str(ev.args[0])
        self._emit("EVENT", ("event", "fail"), ("task", task))
        if not self._require_status(task, Status.ACTIVE, "fail"):
            return
        self.instance.status[task] = Status.FAILED
        self._release_holds(task)
        self.dispatch_trigger(DomainTrigger("task_failure", task))

    def _ev_consume(self, ev: ScenarioEvent):
        self._adjust_capacity(ev, 1)

    def _ev_release(self, ev: ScenarioEvent):
        self._adjust_capacity(ev, -1)

    def _adjust_capacity(self, ev: ScenarioEvent, sign: int):
        member, capability, raw = str(ev.args[0]), str(ev.args[1]), ev.args[2]
        try:
            amount = int(raw)
        except (TypeError, ValueError):
            self._reject(ev, InvalidArgumentError(f"amount must be an integer, got {raw!r}", ev.kind))
            return
        self._emit(
            "EVENT",
            ("event", ev.kind),
            ("member", member),
            ("capability", capability),
            ("amount", str(amount)),
        )
        try:
            self.model = adjust_reserved_capacity(self.model, member, capability, sign * amount)
        except ModelError as err:
            self._emit_error(err)

    def _ev_load_policy(self, ev: ScenarioEvent):
        rel = str(ev.args[0])
        self._emit("EVENT", ("event", "load-policy"), ("path", rel))
        path = Path(rel)
        if not path.is_absolute() and self.base_dir is not None:
            path = self.base_dir / path
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as err:
            self._emit("ERROR", ("error", "IOError"), ("detail", str(err)))
            return
        try:
            doc = parse_policy_document(text)
        except ParseError as err:
            self._emit_error(err)
            return
        problems = [d for d in validate_policies(doc, VOCABULARY) if d.severity == "error"]
        if problems:
            self._emit(
                "ERROR",
                ("error", "InvalidPolicy"),
                ("detail", f"{len(problems)} diagnostic(s), first: {problems[0].message}"),
            )
            return
        # dynamic update: a reloaded name keeps its evaluation position
        by_name = {p.name: i for i, p in enumerate(self.policies)}
        for policy in doc.policies:
            if policy.name in by_name:
                self.policies[by_name[policy.name]] = policy
            else:
                by_name[policy.name] = len(self.policies)
                self.policies.append(policy)

    def _ev_retract_policy(self, ev: ScenarioEvent):
        name = str(ev.args[0])
        self._emit("EVENT", ("event", "retract-policy"), ("policy", name))
        remaining = [p for p in self.policies if p.name != name]
        if len(remaining) == len(self.policies):
            self._emit(
                "ERROR",
                ("error", "UnknownPolicy"),
                ("detail", f"no active policy named {name!r}"),
            )
            return
        self.policies = remaining


def run_scenario(
    model: VoModel,
    policies: PolicyDocument,
    events: list[ScenarioEvent],
    base_dir: Path | None = None,
) -> tuple[VoModel, InstanceState, list[TraceRecord]]:
    """Fold the events over a fresh engine; returns the final model, the
    final instance state and the complete trace."""
    engine = Engine(model, policies, base_dir)
    for ev in events:
        engine.handle_event(ev)
    return engine.model, engine.instance, engine.records


__all__ = [
    "BOOTSTRAP_POLICY",
    "Engine",
    "ScenarioEvent",
    "init_instance",
    "ready_set",
    "run_scenario",
    "can_run",
]
