"""The naive engine, the one differential oracle for every optimised path.

``NaiveEngine`` is an ``Engine`` that takes the slow, obviously right
form of each hook the engine optimises:

- ``_activate`` and ``_candidates``: no index, every active policy in
  order (the engine reads a trigger index);
- ``evaluate_rule_group``: leaves numbered by ``iter_rules`` and each
  group, condition and action operator decided by the obvious recursion
  (the engine's walk keeps its state in arguments and matches triggers
  inline);
- ``_set_status`` and ``_emit_state``: a plain ``dict`` write, then a
  full sweep through ``ready_set`` over the in-process tasks (its own
  ``_refresh_readiness``) and a fresh sorted join (the engine journals
  each status write, and before each STATE record one reader of the
  journal re-checks the tasks the writes may affect and renews the
  fragments and fields they wrote);
- ``can_run`` and the duty writer: a sum over ``iter_duties`` per
  required capability, and ``assign_duty``/``unassign_duty`` checked in
  their order through ``anyone``, ``free_capacity`` and ``materialize``
  (the engine reads each record once, from the model's tables);
- ``dispatch_trigger``: one-pass semantics, with a request suppressed when
  the hand-written pair rules find it clashing with any earlier request
  (the engine compares what each request writes), every action applied
  to a clone of the model that replaces it on success (the engine writes
  its one working model in place), the hand-written bootstrap allocator
  that walks the whole population and scans every duty on a scratch
  clone (the engine applies ordinary actions over a shared ranking, reads
  duty buckets and undoes a failed walk through the model's journal), and
  a clone taken before each policy to roll it back, holds included (the
  engine undoes the policy's writes and truncates its logs).

So the engine's journal is checked against copy and swap: no write of
the naive engine ever reaches a model that a snapshot still holds.

A new index or cache adds its naive form here rather than a new frozen
copy of the code it replaces.
"""

from __future__ import annotations

from functools import partial

from vopol import domain
from vopol.conflict import Conflict
from vopol.domain import (
    COMPETITION,
    DomainAction,
    DomainTrigger,
    EvalContext,
    _name_arg,
    _set_duty,
    materialize,
    resolve_action,
)
from vopol.engine import BOOTSTRAP_POLICY, Engine, _action_fields, ready_set
from vopol.errors import (
    AtomicityViolationError,
    CapabilityMissingError,
    CapacityExceededError,
    InvalidArgumentError,
    ModelError,
    NotAMemberError,
    TaskFailure,
    UnknownDutyError,
    UnknownMemberError,
    UnknownTaskError,
    UnresolvedIdentifierError,
)
from vopol.model import TaskType, VoModel, _free_holds, _move_member, _put_duty, _reserve, free_capacity
from vopol.policy.ast import (
    ActionCall,
    AndCond,
    Ident,
    NotCond,
    Policy,
    Pred,
    RuleLeaf,
    TriggerSpec,
    iter_rules,
)
from vopol.state import Status
from vopol.trace import TraceRecord

# policy walk --------------------------------------------------------------


def evaluate_rule_group(group, event, location, predicate_eval, action_sink) -> list[int]:
    """The numbers, as ``iter_rules`` gives them, of the rules of ``group``
    that apply to ``event`` raised at ``location``; a rule that applies
    runs its action through ``action_sink``."""

    def holds(cond) -> bool:
        if isinstance(cond, Pred):
            return bool(predicate_eval(cond))
        if isinstance(cond, NotCond):
            return not holds(cond.child)
        if isinstance(cond, AndCond):
            return holds(cond.left) and holds(cond.right)
        return holds(cond.left) or holds(cond.right)

    def run(action) -> bool:
        if isinstance(action, ActionCall):
            return bool(action_sink(action))
        left = run(action.left)
        if action.op == "and":
            return run(action.right) and left
        if action.op == "andthen":
            return left and run(action.right)
        if action.op == "orelse":
            return left or run(action.right)
        return left  # "or" never runs its right operand

    def applies(rule) -> bool:
        return (
            rule.location in (None, location)
            and (not rule.triggers or event.name in [t.name for t in rule.triggers])
            and (rule.condition is None or holds(rule.condition))
        )

    def walk(node, first: int) -> list[int]:
        if isinstance(node, RuleLeaf):
            if not applies(node.rule):
                return []
            run(node.rule.action)
            return [first]
        left = walk(node.left, first)
        if left and node.op in ("gchoice", "uchoice"):
            return left
        return left + walk(node.right, first + len(list(iter_rules(node.left))))

    return walk(group, 0)


# requests -----------------------------------------------------------------


def can_run(m: VoModel, task: str) -> bool:
    """Every capability ``task`` requires is covered by the duties that
    current members hold on it."""
    if task not in m.tasks:
        raise UnresolvedIdentifierError(f"unknown task {task!r}", task)
    duties = [d for d in m.iter_duties() if d.task == task]
    if any(d.member not in m.members for d in duties):
        return False
    return all(
        sum(d.amount for d in duties if d.capability == capability) >= need
        for capability, need in m.tasks[task].required.items()
    )


def eval_predicate(ctx: EvalContext, name: str, args: tuple) -> bool:
    if name == "can_run" and len(args) == 1:
        return can_run(ctx.model, _name_arg(ctx, args[0], "can_run task"))
    return domain.eval_predicate(ctx, name, args)


def _duty_action(ctx: EvalContext, action: DomainAction):
    m = ctx.model
    member, task, capability = key = action.args[:3]
    if m.anyone(member) is None:
        raise UnknownMemberError(f"unknown member {member!r}", member)
    if task not in m.tasks:
        raise UnknownTaskError(f"unknown task {task!r}", task)
    if action.name == "unassign_duty":
        if key not in m.duties:
            raise UnknownDutyError(f"no duty ({member}, {task}, {capability}) to unassign", member)
        _set_duty(m, ctx, {key: None})
        return
    if member not in m.members:
        raise NotAMemberError(f"{member!r} is not a member", member)
    if m.declared(member, capability) is None:
        raise CapabilityMissingError(f"{member!r} declares no capability {capability!r}", member)
    if capability not in m.tasks[task].required:
        raise CapabilityMissingError(f"task {task!r} does not require {capability!r}", task)
    others = sorted({d.member for d in m.iter_duties() if d.task == task} - {member})
    if m.tasks[task].ttype is TaskType.ATOMIC and others:
        raise AtomicityViolationError(f"atomic task {task!r} is already assigned to {others[0]!r}", task)
    amount = materialize(m, action).args[3]
    if amount < 0:
        raise InvalidArgumentError("duty amount must be non-negative", member)
    old = m.duties.get(key, 0)
    free = free_capacity(m, member, capability)
    if amount - old > free:
        raise CapacityExceededError(
            f"assigning {amount} of ({member}, {capability}) exceeds free capacity {free} + held {old}", member
        )
    _set_duty(m, ctx, {key: amount})


def apply_action(ctx: EvalContext, action: DomainAction):
    if action.name in ("assign_duty", "unassign_duty"):
        _duty_action(ctx, action)
    else:
        domain.apply_action(ctx, action)


# conflicts ----------------------------------------------------------------


def _target_tasks(action: DomainAction) -> set[str]:
    name, args = action.name, action.args
    if name in ("delete_task", "change_type"):
        return {str(args[0])}
    if name == "add_task":
        return {str(args[0]), str(args[1])}
    if name in ("provide_input", "remove_input", "assign_duty", "unassign_duty"):
        return {str(args[1])}
    return set()


def _classify(a: DomainAction, b: DomainAction) -> str | None:
    """The conflict class of two requests, or None when they are compatible."""
    if a.name == b.name and a.args == b.args:
        return None  # duplicate request, the later one simply fails to apply
    pair = {a.name, b.name}
    if pair == {"add_member", "remove_member"} and a.args[0] == b.args[0]:
        return "member-add-remove"
    # (member, task, capability); amounts never matter for clashing
    if pair == {"assign_duty", "unassign_duty"} and a.args[:3] == b.args[:3]:
        return "duty-assign-unassign"
    if pair == {"provide_input", "remove_input"} and a.args == b.args:
        return "input-add-remove"
    if a.name == b.name == "change_type" and a.args[0] == b.args[0] and a.args[1] != b.args[1]:
        return "task-type-divergence"
    if "delete_task" in pair:
        doomed, other = (a, b) if a.name == "delete_task" else (b, a)
        if str(doomed.args[0]) in _target_tasks(other):
            return "task-delete-target"
    return None


def detect_conflicts(actions: list[tuple[str, DomainAction]], start: int = 0) -> list[Conflict]:
    """Every clashing pair whose later request sits at ``start`` or after,
    by (earlier, later) position."""
    out: list[Conflict] = []
    for i in range(len(actions)):
        for j in range(max(i + 1, start), len(actions)):
            reason = _classify(actions[i][1], actions[j][1])
            if reason is not None:
                out.append(Conflict(i, j, actions[i], actions[j], reason))
    return out


# bootstrap ----------------------------------------------------------------

_KIND_RANK = {"Partner": 0, "Associate": 1, "ExtEntity": 2}
_NO_BID = 10**9


def _duties_on(m: VoModel, task: str) -> dict[tuple[str, str, str], int]:
    return {key: amount for key, amount in m.duties.items() if key[1] == task}


def _shortfall(m: VoModel, task: str, capability: str) -> int:
    covered = sum(
        amount
        for (mid, _, cap), amount in _duties_on(m, task).items()
        if cap == capability and mid in m.members
    )
    return max(0, m.tasks[task].required.get(capability, 0) - covered)


def _member_order(m: VoModel, capability: str, competition: bool) -> list[str]:
    if not competition:
        return sorted(m.members)
    return sorted(m.members, key=lambda mid: (m.members[mid].cost.get(capability, _NO_BID), mid))


def _candidate_order(m: VoModel, capability: str, competition: bool) -> list[str]:
    def key(mid: str):
        who = m.registry[mid]
        rank = _KIND_RANK[who.kind.value]
        if competition:
            return (rank, who.cost.get(capability, _NO_BID), mid)
        return (rank, mid)

    return sorted(m.registry, key=key)


def run_bootstrap(ctx: EvalContext, task: str) -> tuple[VoModel, list[DomainAction]]:
    """Top up each under-covered capability of ``task`` from the members,
    then from the candidates, on a scratch copy; an atomic task draws on
    one member only."""
    m = ctx.model
    if task not in m.tasks:
        raise UnknownTaskError(f"unknown task {task!r}", task)
    task_def = m.tasks[task]
    competition = task_def.sharing == COMPETITION
    scratch = m.clone()
    performed: list[DomainAction] = []

    def allowed(mid: str) -> bool:
        if scratch.tasks[task].ttype is not TaskType.ATOMIC:
            return True
        holders = {key[0] for key in _duties_on(scratch, task)}
        return not holders or holders == {mid}

    def take_from(mid: str, capability: str, shortfall: int) -> int:
        free = free_capacity(scratch, mid, capability)
        if not free or free <= 0:
            return 0
        take = min(free, shortfall)
        new_amount = scratch.duties.get((mid, task, capability), 0) + take
        _put_duty(scratch, {(mid, task, capability): new_amount})
        _reserve(scratch, mid, capability, take)
        performed.append(DomainAction("assign_duty", (mid, task, capability, new_amount)))
        return take

    for capability in sorted(task_def.required):
        shortfall = _shortfall(scratch, task, capability)
        for mid in _member_order(scratch, capability, competition):
            if shortfall == 0:
                break
            if allowed(mid):
                shortfall -= take_from(mid, capability, shortfall)
        candidates = _candidate_order(scratch, capability, competition) if shortfall else []
        for mid in candidates:
            if shortfall == 0:
                break
            free = free_capacity(scratch, mid, capability)
            if not allowed(mid) or not free or free <= 0:
                continue
            _move_member(scratch, mid, admit=True)
            performed.append(DomainAction("add_member", (mid,)))
            shortfall -= take_from(mid, capability, shortfall)
        if shortfall > 0:
            raise TaskFailure(
                f"task {task!r} needs {shortfall} more of {capability!r} and no suitable member can cover it",
                task,
            )
    return scratch, performed


# engine -------------------------------------------------------------------


class NaiveEngine(Engine):
    """An ``Engine`` that takes the naive form of every optimised hook."""

    def _activate(self, policies: tuple[Policy, ...]):
        self._policies = policies

    def _candidates(self, trig: DomainTrigger) -> list[Policy]:
        return list(self.policies)

    def _refresh_readiness(self):
        status, in_process = self.instance.status, self.model.in_process_tasks()
        for task in set(status) - set(in_process):
            del status[task]
        for task in in_process:
            if status.setdefault(task, Status.PENDING) is Status.READY:
                status[task] = Status.PENDING
        for task in ready_set(self.model, self.instance):
            status[task] = Status.READY

    def _set_status(self, task: str, status: Status | None):
        if status is None:
            self.instance.status.pop(task, None)
        else:
            self.instance.status[task] = status

    def _emit_state(self):
        status = self.instance.status
        tasks = ",".join(f"{task}:{status[task].value}" for task in sorted(status))
        data = ",".join(sorted(self.instance.available_data))
        members = ",".join(sorted(self.model.members))
        self._emit("STATE", ("tasks", tasks), ("data", data), ("members", members))

    def dispatch_trigger(self, trig: DomainTrigger) -> list[TraceRecord]:
        mark = len(self.records)
        self._emit("TRIGGER", ("trigger", trig.name), ("task", trig.task))
        event_spec = TriggerSpec(trig.name, (Ident(trig.task),))
        # every resolved request, suppressed ones included, and the
        # ACTION-* records in attempt order
        requests: list[tuple[str, DomainAction]] = []
        outcomes: list[tuple[str, tuple[tuple[str, str], ...]]] = []

        def predicate(pred: Pred) -> bool:
            return eval_predicate(EvalContext(self.model, self.instance, trig.task), pred.name, pred.args)

        def failed(fields: tuple[tuple[str, str], ...], err: ModelError) -> bool:
            outcomes.append(("ACTION-FAILED", (*fields, ("error", err.code), ("detail", err.message))))
            return False

        def attempt(policy: str, call: ActionCall) -> bool:
            ctx = EvalContext(self.model, self.instance, trig.task)
            try:
                action = resolve_action(ctx, call)
            except ModelError as err:
                return failed(_action_fields(policy, call.name, call.args), err)
            requests.append((policy, action))
            if any(c.second_index == len(requests) - 1 for c in detect_conflicts(requests)):
                return False  # first writer wins
            action = materialize(ctx.model, action)
            fields = _action_fields(policy, action.name, action.args)
            ctx.model = self.model.clone()
            try:
                apply_action(ctx, action)
            except ModelError as err:
                return failed(fields, err)
            self.model = ctx.model
            outcomes.append(("ACTION-APPLIED", fields))
            return True

        for policy in self._candidates(trig):
            snapshot = (self.model.clone(), list(requests), list(outcomes))
            try:
                applied = evaluate_rule_group(
                    policy.body, event_spec, trig.task, predicate, partial(attempt, policy.name)
                )
            except ModelError as err:
                self.model, requests[:], outcomes[:] = snapshot
                self._emit_error(err, f"policy {policy.name!r}: {err.message}")
                continue
            for rule_idx in applied:
                self._emit("POLICY-FIRED", ("policy", policy.name), ("rule", str(rule_idx)))

        # every clashing pair suppressed its later request, so each is traced
        for conflict in detect_conflicts(requests):
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

        bootstrap_failed = False
        if trig.name == "task_entry":
            try:
                self.model, performed = run_bootstrap(EvalContext(self.model, self.instance, trig.task), trig.task)
            except TaskFailure as err:
                fields = _action_fields(BOOTSTRAP_POLICY, "bootstrap", (trig.task,))
                self._emit("ACTION-FAILED", *fields, ("error", err.code), ("detail", err.message))
                bootstrap_failed = True
            else:
                for action in performed:
                    self._emit("ACTION-APPLIED", *_action_fields(BOOTSTRAP_POLICY, action.name, action.args))

        if bootstrap_failed and self.instance.status.get(trig.task) is Status.ACTIVE:
            self.instance.status[trig.task] = Status.FAILED
            _free_holds(self.model, trig.task)
        self._refresh_readiness()
        self._emit_state()
        if bootstrap_failed:
            self.dispatch_trigger(DomainTrigger("task_failure", trig.task))
        return self.records[mark:]
