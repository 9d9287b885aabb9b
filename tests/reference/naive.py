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

It also keeps the first form of the input readers, which the loader
differential holds the tuned ones to: ``scan`` and ``NaiveParser`` (named
regex groups read per token, one method per argument and condition term;
the engine's scanner reads numbered groups and its parser reads a call's
arguments inline), and the model row parsers with ``load_model`` (one
helper call per attribute, an ``Enum`` call per kind and type, a model
written row by row; the engine's loader parses rows into plain tables and
makes the model from them).

And it keeps the first form of ``format_text``: each line rendered on
its own, each value quoted where it appears (the engine's renderer quotes
each distinct value once per call and joins each line once).

So the engine's journal is checked against copy and swap: no write of
the naive engine ever reaches a model that a snapshot still holds.

A new index or cache adds its naive form here rather than a new frozen
copy of the code it replaces.
"""

from __future__ import annotations

import re
from dataclasses import replace
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
    MAX_NUMBER_DIGITS,
    AtomicityViolationError,
    CapabilityMissingError,
    CapacityExceededError,
    DanglingRefError,
    InvalidArgumentError,
    ModelError,
    NotAMemberError,
    ParseError,
    TaskFailure,
    UnknownDutyError,
    UnknownMemberError,
    UnknownTaskError,
    UnresolvedIdentifierError,
    parse_int,
    quoted,
)
from vopol.model import (
    CUSTOMER,
    DataFlow,
    Member,
    MemberKind,
    TaskDef,
    TaskType,
    VoModel,
    _add_flows,
    _free_holds,
    _link,
    _move_member,
    _put_duty,
    _put_task,
    _reserve,
    _write,
    free_capacity,
)
from vopol.policy import parser
from vopol.policy.ast import (
    ActionCall,
    AndCond,
    Ident,
    NotCond,
    Number,
    Policy,
    PolicyDocument,
    Pred,
    RuleLeaf,
    Text,
    TriggerSpec,
    iter_rules,
)
from vopol.state import Status
from vopol.trace import TraceRecord, _quote

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
        return can_run(ctx.model, _name_arg(ctx, args[0], "can_run", "task"))
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


# loading inputs -------------------------------------------------------------
#
# The scanner, the parser's argument and condition terms and the model row
# parsers in their first form: named regex groups read per token, one
# helper call per argument and per attribute, an Enum call per kind and
# type, and a model written row by row. The loader differential
# (test_load_differential.py) holds the tuned forms to these.

_SCAN = re.compile(
    r"""[ \t\r]*
    (?:
        (?P<newline>\n)
      | (?P<comment>\#[^\n]*)
      | (?P<punct>[(),])
      | (?P<NUMBER>[0-9]+)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<STRING>"(?:[^"\\\n]|\\["\\])*")
      | (?P<bad>[^ \t\r])
    )""",
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)")


def scan(text: str) -> tuple[list[str], list[str], list[int], list[int]]:
    """The kind, value, line and column of every token of ``text``, as four
    lists ending with the EOF token."""
    kinds, values, lines, cols = [], [], [], []
    line, line_start = 1, 0
    end = len(text)
    for m in _SCAN.finditer(text):
        group = m.lastgroup
        value = m.group(group)
        if group == "name":
            kinds.append(value if value in parser.KEYWORDS else "IDENT")
        elif group == "punct":
            kinds.append(value)
        elif group == "newline":
            line += 1
            line_start = m.end()
            continue
        elif group == "comment":
            end = m.start(group)  # a comment runs to the end of its line
            continue
        elif group == "bad":
            raise parser._scan_error(text, m.start(group), line, m.start(group) - line_start + 1)
        else:
            kinds.append(group)
            if group == "STRING":
                value = value[1:-1]
                if "\\" in value:
                    value = _ESCAPE.sub(r"\1", value)
        values.append(value)
        lines.append(line)
        cols.append(m.start(group) - line_start + 1)
    if end < line_start:  # the last comment sits on an earlier line
        end = len(text)
    kinds.append("EOF")
    values.append("")
    lines.append(line)
    cols.append(end - line_start + 1)
    return kinds, values, lines, cols


def tokenize(text: str) -> list[parser.Token]:
    return [parser.Token(*t) for t in zip(*scan(text))]


class NaiveParser(parser._Parser):
    """The parser over :func:`scan`, with an argument, a call and a
    condition term each read by its own method."""

    def __init__(self, text: str):
        self.kinds, self.values, self.lines, self.cols = scan(text)
        self.k = 0

    def call(self, node_type, *expected):
        name = self.k
        if self.kinds[name] != "IDENT":
            self.fail(*expected)
        self.k = name + 1
        self.expect("(")
        args = []
        if self.kinds[self.k] != ")":
            args.append(self.arg())
            while self.kinds[self.k] == ",":
                self.k += 1
                args.append(self.arg())
        self.expect(")")
        return node_type(self.values[name], tuple(args), pos=self.pos(name))

    def cterm(self):
        if self.kinds[self.k] == "not":
            self.k += 1
            return NotCond(self.cterm_base("IDENT", "("))
        return self.cterm_base("IDENT", "(", "not")

    def cterm_base(self, *expected):
        if self.kinds[self.k] == "(":
            return self.nested(self.condition)
        return self.call(Pred, *expected)

    def arg(self):
        k = self.k
        kind, value = self.kinds[k], self.values[k]
        if kind == "IDENT":
            self.k += 1
            return Ident(value)
        if kind == "NUMBER":
            if len(value) > MAX_NUMBER_DIGITS:
                raise ParseError(f"number literal has more than {MAX_NUMBER_DIGITS} digits", *self.pos(k))
            self.k += 1
            return Number(int(value))
        if kind == "STRING":
            self.k += 1
            return Text(value)
        self.fail("IDENT", "NUMBER", "STRING")
        raise AssertionError("unreachable")


def parse_policy_document(text: str) -> PolicyDocument:
    return NaiveParser(text).document()


def _int(tok: str, line_no: int, what: str) -> int:
    value = parse_int(tok)
    if value is None:
        raise ParseError(f"{what} must be an integer, got {quoted(tok)}", line_no, 1)
    return value


def _kv(tok: str, line_no: int) -> tuple[str, str]:
    if "=" not in tok:
        raise ParseError(f"expected key=value, got {quoted(tok)}", line_no, 1)
    key, _, value = tok.partition("=")
    return key, value


def _fresh(given, name: str, what: str, line_no: int):
    if name in given:
        raise ParseError(f"repeated {what} {quoted(name)}", line_no, 1)


def _parse_member(tokens: list[str], line_no: int) -> Member:
    if len(tokens) < 2:
        raise ParseError("member row needs an id and kind=", line_no, 1)
    mid = tokens[1]
    kind = None
    caps: dict[str, int] = {}
    costs: dict[str, int] = {}
    given: set[str] = set()
    i = 2
    while i < len(tokens):
        tok = tokens[i]
        if tok == "cap":
            if i + 1 >= len(tokens):
                raise ParseError("cap clause needs name=amount", line_no, 1)
            cap_name, cap_val = _kv(tokens[i + 1], line_no)
            _fresh(caps, cap_name, "cap", line_no)
            caps[cap_name] = _int(cap_val, line_no, f"capacity of {cap_name!r}")
            i += 2
            if i < len(tokens) and tokens[i].startswith("cost="):
                costs[cap_name] = _int(tokens[i][5:], line_no, "cost")
                i += 1
            continue
        key, value = _kv(tok, line_no)
        _fresh(given, key, "member attribute", line_no)
        given.add(key)
        if key == "kind":
            try:
                kind = MemberKind(value)
            except ValueError:
                raise ParseError(f"unknown member kind {value!r}", line_no, 1) from None
        else:
            raise ParseError(f"unknown member attribute {key!r}", line_no, 1)
        i += 1
    if kind is None:
        raise ParseError(f"member {mid!r} is missing kind=", line_no, 1)
    return Member(mid, kind, caps, costs)


def _parse_task(tokens: list[str], line_no: int) -> TaskDef:
    if len(tokens) < 2:
        raise ParseError("task row needs an id", line_no, 1)
    tid = tokens[1]
    ttype = None
    sharing = None
    required: dict[str, int] = {}
    inputs: set[str] = set()
    in_process = True
    given: set[str] = set()
    i = 2
    while i < len(tokens):
        tok = tokens[i]
        if tok == "requires":
            if i + 1 >= len(tokens):
                raise ParseError("requires clause needs cap=amount", line_no, 1)
            cap_name, cap_val = _kv(tokens[i + 1], line_no)
            _fresh(required, cap_name, "requirement", line_no)
            required[cap_name] = _int(cap_val, line_no, f"requirement {cap_name!r}")
            i += 2
            continue
        if tok == "input":
            if i + 1 >= len(tokens):
                raise ParseError("input clause needs an item name", line_no, 1)
            inputs.add(tokens[i + 1])
            i += 2
            continue
        key, value = _kv(tok, line_no)
        _fresh(given, key, "task attribute", line_no)
        given.add(key)
        if key == "type":
            try:
                ttype = TaskType(value)
            except ValueError:
                raise ParseError(f"unknown task type {value!r}", line_no, 1) from None
        elif key == "sharing":
            sharing = value
        elif key == "inprocess":
            if value not in ("true", "false"):
                raise ParseError(f"inprocess must be true or false, got {value!r}", line_no, 1)
            in_process = value == "true"
        else:
            raise ParseError(f"unknown task attribute {key!r}", line_no, 1)
        i += 1
    if ttype is None:
        raise ParseError(f"task {tid!r} is missing type=", line_no, 1)
    return TaskDef(tid, ttype, sharing, required, frozenset(inputs), in_process)


def load_model(text: str) -> VoModel:
    """A model file read row by row into a model made at its vo row."""
    model = None
    pending_edges: list[tuple[int, str, str]] = []
    pending_flows: list[tuple[int, str, str, str]] = []
    resources: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        row = tokens[0]
        if model is None:
            if row != "vo":
                raise ParseError("model file must start with a vo row", line_no, 1)
            if len(tokens) != 2:
                raise ParseError("vo row needs exactly one name", line_no, 1)
            model = VoModel(name=tokens[1])
            continue
        if row == "vo":
            raise ParseError("duplicate vo row", line_no, 1)
        if row == "param":
            if len(tokens) != 3:
                raise ParseError("param row needs a name and a value", line_no, 1)
            _fresh(model._params, tokens[1], "param", line_no)
            _write(model, model._params, tokens[1], _int(tokens[2], line_no, f"param {tokens[1]!r}"))
        elif row in ("member", "candidate"):
            who = _parse_member(tokens, line_no)
            if model.anyone(who.id) is not None:
                raise ParseError(f"duplicate member id {who.id!r}", line_no, 1)
            _write(model, model._members if row == "member" else model._registry, who.id, who)
        elif row == "task":
            task = _parse_task(tokens, line_no)
            if task.id in model._tasks:
                raise ParseError(f"duplicate task id {task.id!r}", line_no, 1)
            _put_task(model, task)
        elif row == "edge":
            if len(tokens) != 3:
                raise ParseError("edge row needs from and to", line_no, 1)
            pending_edges.append((line_no, tokens[1], tokens[2]))
        elif row == "dataflow":
            if len(tokens) != 4:
                raise ParseError("dataflow row needs item, from= and to=", line_no, 1)
            attrs = dict(_kv(tok, line_no) for tok in tokens[2:])
            if set(attrs) != {"from", "to"}:
                raise ParseError("dataflow row needs from= and to=", line_no, 1)
            pending_flows.append((line_no, tokens[1], attrs["from"], attrs["to"]))
        elif row == "resource":
            if len(tokens) != 2:
                raise ParseError("resource row needs an id", line_no, 1)
            resources.add(tokens[1])
        else:
            raise ParseError(f"unknown row kind {row!r}", line_no, 1)
    if model is None:
        raise ParseError("empty model file", 1, 1)
    model._vbe_resources = frozenset(resources)
    for line_no, src, dst in pending_edges:
        for tid in (src, dst):
            if tid not in model.tasks:
                raise DanglingRefError(f"edge references undefined task {tid!r}", line_no, 1)
    _link(model, [(src, dst) for _, src, dst in pending_edges])
    rows: dict[tuple[str, str, str], None] = {}
    for line_no, item, source, target in pending_flows:
        if source != CUSTOMER and source not in model.tasks:
            raise DanglingRefError(f"dataflow source {source!r} is not a task", line_no, 1)
        if target not in model.tasks:
            raise DanglingRefError(f"dataflow target {target!r} is not a task", line_no, 1)
        rows[item, source, target] = None
    _add_flows(model, [DataFlow(*row) for row in rows])
    for target, into in model._flows_to.items():
        task = model._tasks[target]
        _put_task(model, replace(task, inputs=task.inputs | {f.item for f in into}))
    return model


# trace rendering ------------------------------------------------------------


def format_text(records: list[TraceRecord]) -> str:
    """The ``text`` rendering, line by line."""
    lines = []
    for rec in records:
        body = " ".join(f"{k}={_quote(v)}" for k, v in rec.payload)
        lines.append(f"[{rec.seq:>4}] {rec.kind:<14} {body}".rstrip())
    return "".join(line + "\n" for line in lines)
