"""Domain vocabulary for organisation reconfiguration.

Maps the policy-level action and predicate names onto the structural
model: nine actions (workflow control/data, task typing, membership,
duties), five read-only predicates, the three task-lifecycle triggers and
the hidden bootstrap allocator that runs when a task starts.

:func:`apply_action` and :func:`run_bootstrap` are all-or-nothing: they
write the context's model, under its undo journal if one is open, and
leave it passing :func:`vopol.model.validate_model`, or raise with it as
it was. Call ``ctx.model.clone()`` first to keep a snapshot. Units freed
from an active task stay reserved under a hold in ``ctx.model.holds``,
written and undone like any other model slot.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .policy.ast import ActionCall, Arg, Ident, Number, Text
from .policy.validate import THIS, Vocabulary
from .errors import (
    MAX_NUMBER_DIGITS,
    ActiveTaskError,
    AlreadyMemberError,
    AtomicityViolationError,
    CapabilityMissingError,
    CapacityExceededError,
    InvalidArgumentError,
    ModelError,
    NotAMemberError,
    TaskFailure,
    UnknownActionError,
    UnknownDutyError,
    UnknownMemberError,
    UnknownPredicateError,
    UnknownTaskError,
    UnresolvedIdentifierError,
    quoted,
    too_long,
)
from .model import (
    TaskDef,
    TaskType,
    VoModel,
    _TASK_TYPES,
    _hold,
    _move_member,
    _put_duty,
    _put_task,
    _reserve,
    commit,
    insert_task_node,
    journal_mark,
    remove_task_node,
    set_dataflow_edge,
    undo,
)
from .state import InstanceState

TRIGGER_NAMES = ("task_entry", "task_exit", "task_failure")

COMPETITION = "competition"

VOCABULARY = Vocabulary(
    triggers={name: (0, 1) for name in TRIGGER_NAMES},
    predicates={
        "can_run": (1, 1),
        "active": (1, 1),
        "task_type": (2, 2),
        "has_capacity": (3, 3),
        "has_capability": (2, 2),
    },
    actions={
        "add_task": (3, 3),
        "delete_task": (1, 1),
        "provide_input": (2, 2),
        "remove_input": (2, 2),
        "change_type": (2, 3),
        "add_member": (1, 1),
        "remove_member": (1, 1),
        "assign_duty": (2, 4),
        "unassign_duty": (2, 3),
    },
)

# the argument positions that name the tasks an action targets
_TARGETS = {
    "add_task": (0, 1),
    "delete_task": (0,),
    "change_type": (0,),
    "provide_input": (1,),
    "remove_input": (1,),
    "assign_duty": (1,),
    "unassign_duty": (1,),
}

# the actions whose last argument may stay open (None), and its type when given
_OPEN_LAST = {"assign_duty": int, "change_type": str}
# each action's full arity and the type of an open last argument
_SHAPES = {name: (hi, _OPEN_LAST.get(name)) for name, (_, hi) in VOCABULARY.actions.items()}

_KIND_RANK = {"Partner": 0, "Associate": 1, "ExtEntity": 2}
_NO_BID = 10**9  # members without a bid sort after any real offer


class _computed_once:
    """An attribute computed on its first read and kept in the instance's
    ``__dict__``, where every later read finds it first. Unlike
    ``functools.cached_property`` before Python 3.12, it takes no lock: a
    race computes the same value twice."""

    def __init__(self, compute):
        self._compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name: str):
        self._name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self._name] = self._compute(instance)
        return value


@dataclass(frozen=True)
class DomainTrigger:
    name: str
    task: str


@dataclass(frozen=True)
class DomainAction:
    """A resolved reconfiguration request: action name plus literal
    arguments. ``assign_duty`` normalizes to (member, task, capability,
    amount-or-None); a None amount means "the task's remaining shortfall,
    decided at application time". A vocabulary action carries exactly its
    upper arity of arguments, open ones as None, as :func:`resolve_action`
    pads them: every argument is a name (``str``) but ``assign_duty``'s
    amount (an ``int`` or None) and ``change_type``'s sharing (a name or
    None). An unknown name takes any arguments."""

    name: str
    args: tuple[str | int | None, ...]

    def __post_init__(self):
        shape = _SHAPES.get(self.name)
        if shape is None:
            return
        arity, last_type = shape
        names = self.args
        if len(names) != arity:
            raise InvalidArgumentError(
                f"{self.name} needs {arity} argument(s), open ones as None, got {len(names)}",
                self.name,
            )
        if last_type is not None:
            names, last = names[:-1], names[-1]
            if last is not None and (type(last) is bool or not isinstance(last, last_type)):
                raise InvalidArgumentError(
                    f"{self.name} takes a {last_type.__name__} or None last, got {quoted(last)}", self.name
                )
            if last_type is int and last is not None and too_long(last):
                raise InvalidArgumentError(f"{self.name} amount must have at most {MAX_NUMBER_DIGITS} digits", self.name)
        for arg in names:
            if not isinstance(arg, str):
                raise InvalidArgumentError(f"{self.name} takes names as str, got {quoted(arg)}", self.name)

    def render(self) -> str:
        shown = ["?" if a is None else str(a) for a in self.args]
        return f"{self.name}({','.join(shown)})"

    @_computed_once
    def writes(self) -> dict[tuple[str, object], object]:
        """What the request writes, as (conflict class, key) -> value. Two
        requests of one dispatch conflict when they write the same key with
        different values; an unknown action writes nothing."""
        name, args = self.name, self.args
        out: dict[tuple[str, object], object] = {}
        if name in ("add_member", "remove_member"):
            out["member-add-remove", args[0]] = name
        elif name in ("assign_duty", "unassign_duty"):
            out["duty-assign-unassign", args[:3]] = name
        elif name in ("provide_input", "remove_input"):
            out["input-add-remove", args] = name
        elif name == "change_type":
            out["task-type-divergence", args[0]] = args[1]
        for position in _TARGETS.get(name, ()):
            out["task-delete-target", str(args[position])] = name == "delete_task"
        return out


@dataclass
class EvalContext:
    """Evaluation environment for predicates and actions: the current
    model, the running instance (may be absent for pure library use) and
    the triggering task. An action that frees units of an active task
    holds them in ``model.holds``."""

    model: VoModel
    instance: InstanceState | None = None
    this_task: str | None = None

    @property
    def params(self) -> Mapping[str, int]:
        return self.model.params

    def is_active(self, task: str) -> bool:
        return self.instance.is_active(task) if self.instance is not None else False


# ---------------------------------------------------------------------------
# argument resolution
# ---------------------------------------------------------------------------


def _name_arg(ctx: EvalContext, arg: Arg, what: str) -> str:
    """Entity-position argument: an identifier (``this`` resolves to the
    triggering task) or a quoted string used verbatim."""
    if isinstance(arg, Ident):
        if arg.value == THIS:
            if ctx.this_task is None:
                raise UnresolvedIdentifierError("no triggering task bound for 'this'", THIS)
            return ctx.this_task
        return arg.value
    if isinstance(arg, Text):
        return arg.value
    # a hand-built policy may hold a bare value in place of an argument node
    raise InvalidArgumentError(f"{what} must be a name, got {quoted(getattr(arg, 'value', arg))}")


def _amount_arg(ctx: EvalContext, arg: Arg, what: str) -> int:
    """Amount-position argument: an integer literal or a declared model
    parameter."""
    if isinstance(arg, Number):
        return arg.value
    if isinstance(arg, Ident):
        if arg.value in ctx.params:
            return ctx.params[arg.value]
        raise UnresolvedIdentifierError(
            f"{what}: {arg.value!r} is not a declared parameter", arg.value
        )
    raise InvalidArgumentError(f"{what} must be an integer or parameter")


def resolve_action(ctx: EvalContext, call: ActionCall) -> DomainAction:
    """Normalize a syntactic action call into a :class:`DomainAction`.

    Fills the defaults the short forms leave out: an omitted duty task
    defaults to the triggering task, an omitted duty amount or type
    sharing stays None (the amount is sized by :func:`materialize`).
    """
    name = call.name
    arity = VOCABULARY.actions.get(name)
    if arity is None:
        raise UnknownActionError(f"unknown action {name!r}", name)
    lo, hi = arity
    if not lo <= len(call.args) <= hi:
        want = str(lo) if lo == hi else f"{lo}..{hi}"
        raise InvalidArgumentError(f"{name} takes {want} argument(s), got {len(call.args)}", name)

    # every argument but assign_duty's amount (the fourth) is a name
    what = f"{name} argument"
    args: list[str | int | None] = [_name_arg(ctx, a, what) for a in call.args[:3]]
    if name in ("assign_duty", "unassign_duty") and len(args) == 2:
        if ctx.this_task is None:
            raise UnresolvedIdentifierError(f"{name} without a task needs a triggering task", name)
        args.insert(1, ctx.this_task)
    if len(call.args) == 4:
        args.append(_amount_arg(ctx, call.args[3], f"{name} amount"))
    # an omitted amount or sharing stays open
    return DomainAction(name, (*args, *[None] * (hi - len(args))))


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------


def _coverage(m: VoModel, task: str, capability: str) -> int:
    duties = m._duties
    return sum(
        duties[key] for key in m._duties_on.get(task, ()) if key[2] == capability and key[0] in m._members
    )


def remaining_shortfall(m: VoModel, task: str, capability: str) -> int:
    """Required amount minus what current members' duties already cover."""
    required = m.tasks[task].required.get(capability, 0)
    return max(0, required - _coverage(m, task, capability))


def _set_duty(m: VoModel, ctx: EvalContext, amounts: dict[tuple[str, str, str], int | None]):
    """Write a batch of duties (None drops one) and move their units in
    the batch's order: added units are reserved, freed ones are held
    until a running task finishes or else released."""
    for (member, task, capability), amount in amounts.items():
        freed = m._duties.get((member, task, capability), 0) - (amount or 0)
        if freed > 0 and ctx.is_active(task):
            # commitment to a running task remains until it finishes
            _hold(m, task, member, capability, freed)
        else:
            _reserve(m, member, capability, -freed)
    _put_duty(m, amounts)


def materialize(m: VoModel, action: DomainAction) -> DomainAction:
    """Fill the application-time default: a duty amount left open becomes
    the task's current shortfall on ``m``."""
    if action.name == "assign_duty" and action.args[3] is None:
        member, task, capability, _ = action.args
        if task in m.tasks:
            amount = remaining_shortfall(m, task, capability)
            return DomainAction(action.name, (member, task, capability, amount))
    return action


# Each writer below applies one kind of action to ``ctx.model`` in place
# and runs every check before its first write.


def _member_action(ctx: EvalContext, action: DomainAction):
    m = ctx.model
    (who,) = action.args
    if action.name == "add_member":
        if who in m.members:
            raise AlreadyMemberError(f"{who!r} is already a member", who)
        if who not in m.registry:
            raise UnknownMemberError(f"{who!r} is not in the candidate registry", who)
        _move_member(m, who, admit=True)
        return
    if who not in m.members:
        raise NotAMemberError(f"{who!r} is not a member", who)
    _set_duty(m, ctx, dict.fromkeys(sorted(m._duties_of.get(who, ()))))
    _move_member(m, who, admit=False)


def _duty_action(ctx: EvalContext, action: DomainAction):
    m = ctx.model
    member, task, capability = key = action.args[:3]
    who = m._members.get(member)  # None for a candidate too
    if who is None and member not in m._registry:
        raise UnknownMemberError(f"unknown member {member!r}", member)
    task_def = m._tasks.get(task)
    if task_def is None:
        raise UnknownTaskError(f"unknown task {task!r}", task)

    if action.name == "unassign_duty":
        if key not in m._duties:
            raise UnknownDutyError(f"no duty ({member}, {task}, {capability}) to unassign", member)
        _set_duty(m, ctx, {key: None})
        return

    if who is None:
        raise NotAMemberError(f"{member!r} is not a member", member)
    declared = who.capabilities.get(capability)
    if declared is None:
        raise CapabilityMissingError(f"{member!r} declares no capability {capability!r}", member)
    if capability not in task_def.required:
        raise CapabilityMissingError(f"task {task!r} does not require {capability!r}", task)
    if task_def.ttype is TaskType.ATOMIC:
        others = {held[0] for held in m._duties_on.get(task, ())} - {member}
        if others:
            raise AtomicityViolationError(f"atomic task {task!r} is already assigned to {min(others)!r}", task)
    amount = action.args[3]
    if amount is None:  # the engine sizes an open amount first, a library caller may not
        amount = remaining_shortfall(m, task, capability)
    if amount < 0:
        raise InvalidArgumentError("duty amount must be non-negative", member)
    old = m._duties.get(key, 0)
    free = declared - m._reserved.get((member, capability), 0)
    if amount - old > free:
        raise CapacityExceededError(
            f"assigning {amount} of ({member}, {capability}) exceeds free capacity {free} + held {old}",
            member,
        )
    _set_duty(m, ctx, {key: amount})


def _change_type(ctx: EvalContext, action: DomainAction):
    m = ctx.model
    task, new_type, sharing = action.args
    old = m._tasks.get(task)
    if old is None:
        raise UnknownTaskError(f"unknown task {task!r}", task)
    ttype = _TASK_TYPES.get(new_type)  # a name, as DomainAction checks
    if ttype is None:
        raise InvalidArgumentError(f"unknown task type {new_type!r}", task)
    if ttype is TaskType.ATOMIC:
        holders = {held[0] for held in m._duties_on.get(task, ())}
        if len(holders) > 1:
            raise AtomicityViolationError(
                f"cannot make {task!r} atomic: duties from {len(holders)} members", task
            )
    sharing = old.sharing if sharing is None else sharing
    _put_task(m, TaskDef(task, ttype, sharing, old.required, old.inputs, old.in_process))


def _workflow_action(ctx: EvalContext, action: DomainAction):
    m = ctx.model
    if action.name == "add_task":
        insert_task_node(m, *action.args)
    elif action.name == "delete_task":
        (task,) = action.args
        if ctx.is_active(task):
            raise ActiveTaskError(f"task {task!r} is active and cannot be deleted", task)
        remove_task_node(m, task)
    else:
        item, task = action.args
        mode = "add" if action.name == "provide_input" else "remove"
        set_dataflow_edge(m, item, task, mode)


_WRITERS = {
    "add_member": _member_action,
    "remove_member": _member_action,
    "assign_duty": _duty_action,
    "unassign_duty": _duty_action,
    "change_type": _change_type,
    "add_task": _workflow_action,
    "delete_task": _workflow_action,
    "provide_input": _workflow_action,
    "remove_input": _workflow_action,
}


def apply_action(ctx: EvalContext, action: DomainAction) -> None:
    """Apply one resolved action to ``ctx.model``, or raise with the model
    as it was."""
    writer = _WRITERS.get(action.name)
    if writer is None:
        raise UnknownActionError(f"unknown action {action.name!r}", action.name)
    writer(ctx, action)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def can_run(m: VoModel, task: str) -> bool:
    """All required capabilities covered by duties of current members."""
    task_def = m._tasks.get(task)
    if task_def is None:
        raise UnresolvedIdentifierError(f"unknown task {task!r}", task)
    duties, members = m._duties, m._members
    covered: dict[str, int] = {}
    for key in m._duties_on.get(task, ()):
        if key[0] not in members:
            return False
        cap = key[2]
        covered[cap] = covered.get(cap, 0) + duties[key]
    for cap, need in task_def.required.items():
        if covered.get(cap, 0) < need:
            return False
    return True


def eval_predicate(ctx: EvalContext, name: str, args: tuple[Arg, ...]) -> bool:
    """Evaluate one condition predicate; read-only on the model."""
    m = ctx.model
    arity = VOCABULARY.predicates.get(name)
    if arity is None:
        raise UnknownPredicateError(f"unknown predicate {name!r}", name)
    lo, hi = arity
    if not lo <= len(args) <= hi:
        raise InvalidArgumentError(f"{name} takes {lo} argument(s), got {len(args)}", name)

    if name == "can_run":
        return can_run(m, _name_arg(ctx, args[0], "can_run task"))
    if name == "active":
        task = _name_arg(ctx, args[0], "active task")
        if task not in m.tasks:
            raise UnresolvedIdentifierError(f"unknown task {task!r}", task)
        return ctx.is_active(task)
    if name == "task_type":
        task = _name_arg(ctx, args[0], "task_type task")
        wanted = _name_arg(ctx, args[1], "task_type type")
        if task not in m.tasks:
            raise UnresolvedIdentifierError(f"unknown task {task!r}", task)
        try:
            return m.tasks[task].ttype is _TASK_TYPES[wanted]
        except (KeyError, TypeError):  # an unhashable name is no type either
            raise InvalidArgumentError(f"unknown task type {wanted!r}", wanted) from None
    if name == "has_capacity":
        member = _name_arg(ctx, args[0], "has_capacity member")
        capability = _name_arg(ctx, args[1], "has_capacity capability")
        amount = _amount_arg(ctx, args[2], "has_capacity amount")
        who = m.anyone(member)
        if who is None:
            raise UnresolvedIdentifierError(f"unknown member {member!r}", member)
        declared = who.capabilities.get(capability)  # the free units are declared - reserved
        return declared is not None and declared - m._reserved.get((member, capability), 0) >= amount
    # has_capability: declaration is required, reservations are irrelevant
    member = _name_arg(ctx, args[0], "has_capability member")
    capability = _name_arg(ctx, args[1], "has_capability capability")
    who = m.anyone(member)
    if who is None:
        raise UnresolvedIdentifierError(f"unknown member {member!r}", member)
    return who.capabilities.get(capability) is not None


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------


class _Ranking:
    """Everyone the bootstrap can draw on, ranked once per (capability,
    competition) and shared by a model and its clones.

    The population is fixed after :func:`vopol.model.load_model`: no
    action writes a :class:`Member` record, ``add_member`` and
    ``remove_member`` only move one between ``members`` and ``registry``,
    and no caller can write those. So one ranking of the whole population
    serves a model through every action, and its clones too; a walk
    filters it by current membership.
    """

    def __init__(self, m: VoModel):
        self.people = {**m._registry, **m._members}
        self._orders: dict[tuple[str, bool], tuple[list[tuple[str, int]], ...]] = {}

    def orders(self, capability: str, competition: bool) -> tuple[list[tuple[str, int]], ...]:
        """(id, declared amount) of everyone who declares ``capability``,
        in member order and in candidate order: by bid (under competition)
        then id, and by kind rank, bid (under competition), then id."""
        key = (capability, competition)
        if key not in self._orders:
            bids = {
                mid: (who.cost.get(capability, _NO_BID) if competition else 0, mid)
                for mid, who in self.people.items()
                if capability in who.capabilities
            }
            as_member = sorted(bids, key=bids.__getitem__)
            as_candidate = sorted(bids, key=lambda mid: (_KIND_RANK[self.people[mid].kind.value], bids[mid]))
            self._orders[key] = tuple(
                [(mid, self.people[mid].capabilities[capability]) for mid in order]
                for order in (as_member, as_candidate)
            )
        return self._orders[key]


def run_bootstrap(ctx: EvalContext, task: str) -> list[DomainAction]:
    """Default start-of-task allocation: top up under-covered capabilities
    from current members first, then by admitting registry candidates.

    Every step is an ordinary ``add_member`` (candidates only) and
    ``assign_duty`` applied under the usual checks, so an atomic task only
    ever draws on a single member. Returns the actions performed, or
    raises :class:`TaskFailure` with the model as it was when the
    requirements cannot be covered. A journal the call opens is committed
    before it returns or raises; one already open is left open.
    """
    m = ctx.model
    if task not in m.tasks:
        raise UnknownTaskError(f"unknown task {task!r}", task)
    if can_run(m, task):
        return []
    opened = m._journal is None
    start = journal_mark(m)
    try:
        return _allocate(ctx, task)
    except ModelError:
        undo(m, start)
        raise
    finally:
        if opened:
            commit(m)


def _allocate(ctx: EvalContext, task: str) -> list[DomainAction]:
    """The bootstrap's walk over ``ctx.model``, under its journal; raises
    :class:`TaskFailure` at the first capability it cannot cover."""
    m = ctx.model
    task_def = m.tasks[task]
    if m._ranking is None:  # clones taken from here on share it
        m._ranking = _Ranking(m)
    ranking = m._ranking
    competition = task_def.sharing == COMPETITION
    performed: list[DomainAction] = []
    for capability in sorted(task_def.required):
        shortfall = remaining_shortfall(m, task, capability)
        orders = ranking.orders(capability, competition) if shortfall else ()
        # members first, then candidates, each filtered by membership; a
        # walk admits only the candidates it visits, each of them once
        for as_candidate, order in enumerate(orders):
            pool = m._registry if as_candidate else m._members
            for mid, declared in order:
                if shortfall == 0:
                    break
                if mid not in pool:
                    continue
                free = declared - m._reserved.get((mid, capability), 0)
                if free <= 0:
                    continue
                take = min(free, shortfall)
                held = m._duties.get((mid, task, capability), 0)
                steps = [DomainAction("add_member", (mid,))] if as_candidate else []
                steps.append(DomainAction("assign_duty", (mid, task, capability, held + take)))
                mark = journal_mark(m)
                try:
                    for step in steps:
                        apply_action(ctx, step)
                except AtomicityViolationError:
                    undo(m, mark)  # a candidate's admission is dropped with its duty
                    continue
                performed += steps
                shortfall -= take
        if shortfall > 0:
            raise TaskFailure(
                f"task {task!r} needs {shortfall} more of {capability!r} and no suitable member can cover it",
                task,
            )
    return performed
