"""Deterministic execution of one workflow instance over a model.

The engine consumes scenario events strictly in order, maintains the task
lifecycle, raises task_entry/task_exit/task_failure triggers, dispatches
the active policies against them and applies the actions they request.
Every observable consequence lands in the trace; identical inputs produce
byte-identical traces.

A dispatch evaluates, in order, every active policy that has a rule whose
trigger name and location match the trigger; no other policy can fire,
request an action or raise. It runs them against the live model and
handles each requested action once, when it is requested: the action is
resolved and checked against every earlier request of the dispatch,
suppressed ones included. If it conflicts with one, it is suppressed
(first writer wins) and never applied; otherwise it is applied at once,
so later conditions observe it. The dispatch files each request's writes
by key, so the exact check (``detect_conflicts``) runs only for a request
that writes a key an earlier one wrote with another value; no other
request can conflict. A suppressed request counts as a failed
attempt, so ``andthen`` stops and ``orelse`` tries its right side. A
policy whose evaluation raises is rolled back: its model writes, holds
included, are undone through the model's journal, and its requests and
conflicts are dropped. The trace lists the POLICY-FIRED (or ERROR)
records per policy, then the CONFLICT records by (first, second) index,
then the ACTION-APPLIED and ACTION-FAILED records in attempt order. For
task_entry only, the bootstrap allocator runs last and fails the task
when it cannot cover the requirements.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

from .policy.ast import ActionCall, GroupNode, Ident, Policy, PolicyDocument, PolicyRule, Pred, RuleLeaf, TriggerSpec
from .policy.ast import iter_rules
from .policy.evaluate import evaluate_rule_group
from .policy.parser import parse_policy_document
from .policy.validate import validate_policies
from .conflict import Conflict, detect_conflicts
from .domain import (
    VOCABULARY,
    DomainAction,
    DomainTrigger,
    EvalContext,
    apply_action,
    can_run,
    eval_predicate,
    materialize,
    resolve_action,
    run_bootstrap,
)
from .errors import (
    MAX_NUMBER_DIGITS,
    IllegalTransitionError,
    InvalidArgumentError,
    InvalidModelError,
    ModelError,
    ParseError,
    TaskFailure,
    VopolError,
    parse_int,
    quoted,
    too_long,
)
from .model import (
    _ABSENT,
    CUSTOMER,
    VoModel,
    _free_holds,
    _write,
    adjust_reserved_capacity,
    commit,
    journal_mark,
    undo,
    validate_model,
)
from .state import InstanceState, Status
from .trace import TraceRecord

BOOTSTRAP_POLICY = "@bootstrap"

# the statuses as plain module globals, and the STATE text of each: either
# read costs a fraction of an Enum member or ``value`` lookup
_PENDING, _READY, _ACTIVE = Status.PENDING, Status.READY, Status.ACTIVE
_COMPLETED, _FAILED = Status.COMPLETED, Status.FAILED
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


def read_text(path: Path) -> str:
    """The UTF-8 text of ``path``; undecodable bytes, and a path that no
    file can have, raise ``OSError``."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise OSError(f"{path}: not valid UTF-8 ({err.reason} at byte {err.start})") from None
    except ValueError:  # a NUL byte in the path
        raise OSError(f"{str(path)!r}: a path cannot hold a NUL byte") from None


def _eligible(m: VoModel, s: InstanceState, task: str) -> bool:
    """The readiness rule: every in-process predecessor of ``task`` is
    completed and every input of ``task`` has arrived."""
    tasks = m._tasks
    if not tasks[task].inputs <= s.available_data:
        return False
    for p in m.predecessors(task):
        if s.status.get(p) is not _COMPLETED and tasks[p].in_process:
            return False
    return True


def ready_set(m: VoModel, s: InstanceState) -> set[str]:
    """Pending tasks whose in-process predecessors are all completed and
    whose inputs have arrived."""
    return {
        t for t, status in s.status.items() if status is _PENDING and _eligible(m, s, t)
    }


def init_instance(m: VoModel) -> InstanceState:
    """Fresh instance: in-process tasks pending, customer data available,
    entry-eligible tasks promoted to ready."""
    problems = validate_model(m)
    if problems:
        raise InvalidModelError(f"model is invalid: {problems[0].message}", m.name)
    data = frozenset(f.item for f in m.dataflows if f.source == CUSTOMER)
    pending = InstanceState(dict.fromkeys(m.in_process_tasks(), _PENDING), data)
    ready = ready_set(m, pending)
    return InstanceState({t: _READY if t in ready else s for t, s in pending.status.items()}, data)


def _check_body(policy: Policy):
    """Refuse a hand-built policy whose body is not a rule group: a tree of
    ``GroupNode`` over ``RuleLeaf`` nodes that each hold a ``PolicyRule``
    with a tuple of ``TriggerSpec``. A parsed policy always passes."""
    nodes = [policy.body]
    while nodes:
        node = nodes.pop()
        if isinstance(node, GroupNode):
            nodes += node.left, node.right
        elif not (isinstance(node, RuleLeaf) and isinstance(node.rule, PolicyRule)):
            shown = type(node.rule if isinstance(node, RuleLeaf) else node).__name__
            raise InvalidArgumentError(f"policy {policy.name!r}: a {shown} in place of a rule group", policy.name)
        elif not (isinstance(node.rule.triggers, tuple) and all(isinstance(t, TriggerSpec) for t in node.rule.triggers)):
            shown = f"triggers {quoted(node.rule.triggers)} are not a tuple of TriggerSpec"
            raise InvalidArgumentError(f"policy {policy.name!r}: {shown}", policy.name)


def _trigger_index(policies: tuple[Policy, ...]) -> dict[tuple[str | None, str | None], list[int]]:
    """The positions of the policies with a rule filed under each (trigger
    name, location), in ascending order. A rule without triggers is filed
    under the name ``None``, a rule without a location under the location
    ``None``."""
    index: dict[tuple[str | None, str | None], list[int]] = {}
    for position, policy in enumerate(policies):
        for _, rule in iter_rules(policy.body):
            for name in [t.name for t in rule.triggers] or [None]:
                index.setdefault((name, rule.location), []).append(position)
    return index


def _action_fields(policy: str, name: str, args: tuple) -> tuple[tuple[str, str], ...]:
    """The policy, action and args fields of an ACTION-* record: a policy
    argument shows its value, an open duty amount is left out."""
    shown = ",".join([str(getattr(a, "value", a)) for a in args if a is not None])
    return ("policy", policy), ("action", name), ("args", shown)


class Engine:
    """Runs one instance; processes events strictly sequentially.

    ``model`` is the engine's working model, a copy of the one it was
    given: every event writes it in place, and its journal holds the
    writes of the event under way, so a policy that raises is undone.
    ``instance.status`` and ``instance.available_data`` are journaled
    there too, and :meth:`_emit_state` reads the journal before each
    STATE record to learn what the record and readiness need; no action
    name is read here. One context per dispatch serves predicates,
    actions and the bootstrap; an action writes its holds into the model
    itself, and a task that finishes frees them. A hand-built policy
    whose body is not a rule group, or whose triggers are not a tuple of
    ``TriggerSpec``, is refused here; any other malformed node, such as
    an unknown operator, raises when a dispatch reaches it, and the
    policy is rolled back like any policy that raises."""

    def __init__(self, model: VoModel, policies: PolicyDocument, base_dir: Path | None = None):
        for policy in policies.policies:
            _check_body(policy)
        self.model = model.clone()
        self._activate(tuple(policies.policies))
        self.base_dir = base_dir
        self.records: list[TraceRecord] = []
        self._seq = 0
        self.instance = init_instance(self.model)
        # data item -> catalogue tasks that declare it as an input
        self._consumers: dict[str, set[str]] = {}
        for task, task_def in self.model.tasks.items():
            for item in task_def.inputs:
                self._consumers.setdefault(item, set()).add(task)
        self._restate()
        self._emit_state()

    @property
    def policies(self) -> tuple[Policy, ...]:
        """The active policies in evaluation order; only ``load-policy``
        and ``retract-policy`` events change them."""
        return self._policies

    def _activate(self, policies: tuple[Policy, ...]):
        """Make ``policies`` the active ones and index them."""
        self._policies = policies
        self._index = _trigger_index(policies)

    def _candidates(self, trig: DomainTrigger) -> list[Policy]:
        """The active policies with a rule whose trigger name and location
        match ``trig``, in evaluation order: the only ones that can fire."""
        index = self._index
        positions: list[int] = []
        for key in ((trig.name, trig.task), (trig.name, None), (None, trig.task), (None, None)):
            positions += index.get(key, ())
        return [self._policies[i] for i in sorted(set(positions))]

    # trace helpers ------------------------------------------------------

    def _emit(self, kind: str, *pairs: tuple[str, str]) -> TraceRecord:
        self._seq += 1
        rec = TraceRecord(self._seq, kind, tuple(pairs))
        self.records.append(rec)
        return rec

    def _restate(self):
        """Derive the STATE record's fields from the instance and the model
        (the tasks of ``instance.status`` by name, the name:Status fragment
        of each, the data and the members) and read the open journal from
        its start. The engine does so when it starts, and when it finds the
        journal shorter than the part it has read: a caller's commit or undo
        cut it, and may have rolled back writes the fields show."""
        statuses = self.instance.status
        self._order = sorted(statuses)
        self._fragments = [f"{t}:{_STATUS_TEXT[statuses[t]]}" for t in self._order]
        self._data_text = ",".join(sorted(self.instance.available_data))
        self._members_text = ",".join(sorted(self.model.members))
        self._read = 0  # how far _read_journal has read the open journal

    def _emit_state(self):
        """Read the journal on from where the last STATE record stopped,
        then trace the STATE record."""
        self._read_journal()
        tasks = ",".join(self._fragments)
        self._emit("STATE", ("tasks", tasks), ("data", self._data_text), ("members", self._members_text))

    def _read_journal(self):
        """Read the open journal on from where the reader stopped.

        A written status renews its task's STATE fragment, and a written
        data or members slot its field, which is rebuilt once after the
        reader has read every entry. A task whose predecessor bucket or
        record was written, a successor of a completed task and a consumer
        of an arrived item are re-checked: one that joined the process
        appears as pending, one that left it is dropped, a pending or ready
        one gets the readiness rule's verdict and a started one keeps its
        status. A re-check writes a status too, so the reader goes on until
        it has read every entry."""
        m, instance, journal = self.model, self.instance, self.model._journal
        statuses, slots, catalogue, preds, members = instance.status, vars(instance), m._tasks, m._preds, m._members
        order, fragments = self._order, self._fragments
        data_written = members_written = False
        while journal is not None and self._read < len(journal):
            recheck: set[str] = set()
            for table, key, old in journal[self._read:]:
                if table is statuses:
                    status = statuses.get(key)
                    i = bisect_left(order, key)
                    if i == len(order) or order[i] != key:
                        order.insert(i, key)
                        fragments.insert(i, "")
                    if status is None:
                        del order[i], fragments[i]
                        continue
                    fragments[i] = f"{key}:{_STATUS_TEXT[status]}"
                    if status is _COMPLETED:
                        recheck |= m.successors(key)
                elif table is preds:
                    recheck.add(key)
                elif table is catalogue:
                    recheck.add(key)
                    # never dropped: a stale consumer costs one re-check
                    for item in catalogue[key].inputs:
                        self._consumers.setdefault(item, set()).add(key)
                elif table is slots:
                    data_written = True
                    for item in instance.available_data - old:
                        recheck.update(self._consumers.get(item, ()))
                elif table is members:
                    members_written = True
            self._read = len(journal)
            for task in sorted(recheck):
                current = statuses.get(task, _PENDING)
                if not catalogue[task].in_process:
                    self._set_status(task, None)
                elif current is _PENDING or current is _READY:
                    self._set_status(task, _READY if _eligible(m, instance, task) else _PENDING)
        if data_written:
            self._data_text = ",".join(sorted(instance.available_data))
        if members_written:
            self._members_text = ",".join(sorted(members))

    def _emit_error(self, err: VopolError, detail: str | None = None):
        self._emit("ERROR", ("error", err.code), ("detail", detail or err.message))

    # lifecycle helpers ----------------------------------------------------

    def _set_status(self, task: str, status: Status | None):
        """Set the status of ``task``, or drop the task for None: the one
        writer of ``instance.status``, journaled for the reader."""
        if self.instance.status.get(task) is not status:
            _write(self.model, self.instance.status, task, _ABSENT if status is None else status)

    # dispatch -------------------------------------------------------------

    def dispatch_trigger(self, trig: DomainTrigger) -> list[TraceRecord]:
        opened = self.model._journal is None  # a direct call's is committed below
        if journal_mark(self.model) < self._read:
            self._restate()
        journal = self.model._journal  # nothing the dispatch runs commits it
        mark = len(self.records)
        self._emit("TRIGGER", ("trigger", trig.name), ("task", trig.task))
        event_spec = TriggerSpec(trig.name, (Ident(trig.task),))

        # every resolved request (suppressed ones included), the conflicts
        # among them and the ACTION-* records, traced after the policies ran
        requests: list[tuple[str, DomainAction]] = []
        conflicts: list[Conflict] = []
        # each key those requests wrote -> the values written there
        filed: dict[tuple[str, object], set[object]] = {}
        outcomes: list[tuple[str, tuple[tuple[str, str], ...]]] = []

        ctx = EvalContext(self.model, self.instance, trig.task)

        def predicate(pred: Pred) -> bool:
            return eval_predicate(ctx, pred.name, pred.args)

        def failed(fields: tuple[tuple[str, str], ...], err: ModelError) -> bool:
            outcomes.append(("ACTION-FAILED", (*fields, ("error", err.code), ("detail", err.message))))
            return False

        def attempt(call: ActionCall) -> bool:
            # a request of the policy that the loop below is evaluating
            policy_name = policy.name
            try:
                action = resolve_action(ctx, call)
            except ModelError as err:
                return failed(_action_fields(policy_name, call.name, call.args), err)
            requests.append((policy_name, action))
            # only a key filed with another value can clash; a rolled-back
            # policy's entries stay filed, which costs an exact call that
            # finds nothing but never hides a conflict
            contested = False
            for key, value in action.writes.items():
                values = filed.get(key)
                if values is None:
                    filed[key] = {value}
                else:
                    contested = contested or len(values) > (value in values)
                    values.add(value)
            clashes = contested and detect_conflicts(requests, start=len(requests) - 1)
            if clashes:
                # first writer wins: the later request is never applied
                conflicts.extend(clashes)
                return False
            action = materialize(ctx.model, action)
            fields = _action_fields(policy_name, action.name, action.args)
            try:
                # every check runs before the first write, so a failed
                # action leaves the model and the holds as they were
                apply_action(ctx, action)
            except ModelError as err:
                return failed(fields, err)
            outcomes.append(("ACTION-APPLIED", fields))
            return True

        for policy in self._candidates(trig):
            saved = len(journal)
            marks = len(requests), len(conflicts), len(outcomes)
            try:
                applied = evaluate_rule_group(policy.body, event_spec, trig.task, predicate, attempt)
            except ModelError as err:
                undo(self.model, saved)
                for log, kept in zip((requests, conflicts, outcomes), marks):
                    del log[kept:]
                self._emit_error(err, f"policy {policy.name!r}: {err.message}")
                continue
            for rule_idx in applied:
                self._emit("POLICY-FIRED", ("policy", policy.name), ("rule", str(rule_idx)))

        for conflict in sorted(conflicts, key=lambda c: (c.first_index, c.second_index)):
            self._emit(
                "CONFLICT",
                ("class", conflict.reason),
                ("first_policy", conflict.first[0]),
                ("first_action", conflict.first[1].render()),
                ("second_policy", conflict.second[0]),
                ("second_action", conflict.second[1].render()),
            )
        for kind, fields in outcomes:
            self._emit(kind, *fields)

        # bootstrap, task_entry only
        bootstrap_failed = False
        if trig.name == "task_entry":
            try:
                # a failure leaves the model as it was
                performed = run_bootstrap(ctx, trig.task)
            except TaskFailure as err:
                fields = _action_fields(BOOTSTRAP_POLICY, "bootstrap", (trig.task,))
                self._emit("ACTION-FAILED", *fields, ("error", err.code), ("detail", err.message))
                bootstrap_failed = True
                if self.instance.status.get(trig.task) is _ACTIVE:
                    self._set_status(trig.task, _FAILED)
                    _free_holds(self.model, trig.task)
            else:
                for action in performed:
                    self._emit("ACTION-APPLIED", *_action_fields(BOOTSTRAP_POLICY, action.name, action.args))

        self._emit_state()

        if bootstrap_failed:
            self.dispatch_trigger(DomainTrigger("task_failure", trig.task))
        if opened:
            commit(self.model)
            self._read = 0
        return self.records[mark:]

    # events ---------------------------------------------------------------

    def handle_event(self, ev: ScenarioEvent) -> list[TraceRecord]:
        mark = len(self.records)
        # a journal open before the event holds writes a caller made since
        # the last one; they are read before the commit below, whether or
        # not the event traces a STATE record
        journaled = self.model._journal is not None
        kind, args = ev.kind, ev.args
        wanted = EVENT_ARITY.get(kind) if isinstance(kind, str) else None
        if wanted is None:
            self._reject(ev, IllegalTransitionError(f"unknown event kind {quoted(kind)}", str(kind)))
        elif not isinstance(args, tuple):
            self._reject(ev, InvalidArgumentError(f"{kind} takes a tuple of arguments, got {quoted(args)}", kind))
        elif len(args) != wanted:
            self._reject(ev, InvalidArgumentError(f"{kind} takes {wanted} argument(s), got {len(args)}", kind))
        elif wanted and not (isinstance(args[0], str) and isinstance(args[wanted > 1], str)):
            # the names come first: one, or two before consume's and release's amount
            odd = next(a for a in args if not isinstance(a, str))
            self._reject(ev, InvalidArgumentError(f"{kind} takes names as str, got {quoted(odd)}", kind))
        else:
            getattr(self, "_ev_" + kind.replace("-", "_"))(ev)
        if journaled:
            self._read_journal()
        commit(self.model)  # the journal holds one event's writes at most
        self._read = 0
        return self.records[mark:]

    def _reject(self, ev: ScenarioEvent, err: VopolError):
        """Trace an unknown or malformed event: its kind (quoted unless a
        ``str``), then the error."""
        self._emit("EVENT", ("event", ev.kind if isinstance(ev.kind, str) else quoted(ev.kind)))
        self._emit_error(err)

    def _ev_start(self, ev: ScenarioEvent):
        self._emit("EVENT", ("event", "start"))

    def _task_event(self, ev: ScenarioEvent, wanted: Status, new: Status) -> str | None:
        """Trace a task's lifecycle event and move the task from ``wanted``
        to ``new``, freeing its holds unless it starts; the task, or None
        after an error record when its status is not ``wanted``."""
        task = ev.args[0]
        self._emit("EVENT", ("event", ev.kind), ("task", task))
        current = self.instance.status.get(task)
        if current is wanted:
            if new is not _ACTIVE:
                _free_holds(self.model, task)
            if journal_mark(self.model) < self._read:
                self._restate()
            self._set_status(task, new)
            return task
        shown = current.value if current is not None else "not in the process"
        message = f"cannot {ev.kind} task {task!r}: status is {shown}, needs {wanted.value}"
        self._emit_error(IllegalTransitionError(message, task))
        return None

    def _ev_activate(self, ev: ScenarioEvent):
        task = self._task_event(ev, _READY, _ACTIVE)
        if task is not None:
            self.dispatch_trigger(DomainTrigger("task_entry", task))

    def _ev_complete(self, ev: ScenarioEvent):
        task = self._task_event(ev, _ACTIVE, _COMPLETED)
        if task is not None:
            data = self.instance.available_data
            arrived = {f.item for f in self.model.flows_from(task)} - data
            if arrived:
                _write(self.model, vars(self.instance), "available_data", data | arrived)
            self.dispatch_trigger(DomainTrigger("task_exit", task))

    def _ev_fail(self, ev: ScenarioEvent):
        task = self._task_event(ev, _ACTIVE, _FAILED)
        if task is not None:
            self.dispatch_trigger(DomainTrigger("task_failure", task))

    def _ev_consume(self, ev: ScenarioEvent):
        self._adjust_capacity(ev, 1)

    def _ev_release(self, ev: ScenarioEvent):
        self._adjust_capacity(ev, -1)

    def _adjust_capacity(self, ev: ScenarioEvent, sign: int):
        member, capability, raw = ev.args
        amount = None
        if isinstance(raw, str):
            amount = parse_int(raw)
        elif isinstance(raw, int) and not isinstance(raw, bool):  # a bool is no amount
            amount = int(raw)
        if amount is None:
            self._reject(ev, InvalidArgumentError(f"amount must be an integer, got {quoted(raw)}", ev.kind))
            return
        if too_long(amount):
            self._reject(ev, InvalidArgumentError(f"amount must have at most {MAX_NUMBER_DIGITS} digits", ev.kind))
            return
        if amount < 0:
            self._reject(ev, InvalidArgumentError(f"amount must not be negative, got {quoted(raw)}", ev.kind))
            return
        self._emit(
            "EVENT",
            ("event", ev.kind),
            ("member", member),
            ("capability", capability),
            ("amount", str(amount)),
        )
        try:
            adjust_reserved_capacity(self.model, member, capability, sign * amount)
        except ModelError as err:
            self._emit_error(err)

    def _ev_load_policy(self, ev: ScenarioEvent):
        rel = ev.args[0]
        self._emit("EVENT", ("event", "load-policy"), ("path", rel))
        path = Path(rel)
        if not path.is_absolute() and self.base_dir is not None:
            path = self.base_dir / path
        try:
            text = read_text(path)
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
        policies = list(self._policies)
        by_name = {p.name: i for i, p in enumerate(policies)}
        for policy in doc.policies:
            if policy.name in by_name:
                policies[by_name[policy.name]] = policy
            else:
                by_name[policy.name] = len(policies)
                policies.append(policy)
        self._activate(tuple(policies))

    def _ev_retract_policy(self, ev: ScenarioEvent):
        name = ev.args[0]
        self._emit("EVENT", ("event", "retract-policy"), ("policy", name))
        remaining = tuple(p for p in self._policies if p.name != name)
        if len(remaining) == len(self._policies):
            self._emit(
                "ERROR",
                ("error", "UnknownPolicy"),
                ("detail", f"no active policy named {name!r}"),
            )
            return
        self._activate(remaining)


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
