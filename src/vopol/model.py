"""Structural state of a virtual organisation and its primitive mutations.

The model holds members, the task catalogue, the control-flow graph over
in-process tasks, data flows, the candidate registry, named integer
parameters, duty assignments, the reserved capacity and the holds that
keep units reserved for a running task after its duty is gone. A mutating
operation writes the model it is given; call :meth:`VoModel.clone` first
to keep a snapshot. It runs every check before its first write, so a
failed operation raises and leaves the model as it was, and a successful
one always leaves a model that satisfies :func:`validate_model`.

Clones share their records: :class:`Member` and :class:`TaskDef` are
frozen, so a change puts a new record, built by its constructor, into
the private containers that each clone owns alone.

Only this module writes the containers; each public one, such as
``members``, ``reserved``, ``duties`` or ``dataflows``, is a read-only
view. :func:`load_model` reads each line once: it cuts the comment,
splits the rest and parses the row in one pass over its clauses, finding
member kinds and task types by name in a table and telling a repeated
attribute by the value it already set. The rows go into plain tables,
and the model is made from them after the last row. Every write to a
model from then on goes through :func:`_write`. From the first
:func:`journal_mark` on, it journals the old value of the slot it
overwrites, so that :func:`undo` can roll the model back to a mark,
until :func:`commit` drops the journal; the engine also reads it to
learn what changed. ``_put_duty`` keeps each duty key filed by task and
by member, as ``_link`` keeps the control graph. ``dataflows`` is
derived from the flows filed by target; ``_add_flows`` also files each
flow by task source and counts it by (item, source), with the sources of
each item, so a flow write or a task's completion reads only the flows
it touches. All three write every index bucket through the one bucket
writer ``_file``: ``_put_duty`` takes a batch of keys to set or drop,
``_link`` and ``_add_flows`` a batch to add or to remove, and each
bucket the batch touches is written once.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Collection, Iterable, Mapping
from dataclasses import dataclass, field, fields
from enum import Enum
from types import MappingProxyType

from .errors import (
    MAX_NUMBER_DIGITS,
    AlreadyInProcessError,
    CapabilityMissingError,
    CapacityExceededError,
    DanglingRefError,
    Diagnostic,
    InvalidArgumentError,
    ParseError,
    UnderflowError,
    UnknownMemberError,
    UnknownTaskError,
    parse_int,
    quoted,
    too_long,
)

CUSTOMER = "customer"


class MemberKind(str, Enum):
    PARTNER = "Partner"
    ASSOCIATE = "Associate"
    EXT_ENTITY = "ExtEntity"


class TaskType(str, Enum):
    ATOMIC = "Atomic"
    REPLICABLE = "Replicable"
    COMPOSABLE = "Composable"


RELATIONS = ("parallel", "after")


@dataclass(frozen=True)
class Member:
    id: str
    kind: MemberKind
    capabilities: dict[str, int] = field(default_factory=dict)
    cost: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class TaskDef:
    id: str
    ttype: TaskType
    sharing: str | None = None
    required: dict[str, int] = field(default_factory=dict)
    inputs: frozenset[str] = frozenset()
    in_process: bool = True


@dataclass(frozen=True)
class DataFlow:
    item: str
    source: str  # CUSTOMER or a task id
    target: str


@dataclass(frozen=True)
class Duty:
    member: str
    task: str
    capability: str
    amount: int


@dataclass
class VoModel:
    name: str
    # the members, the candidate registry, the task catalogue and the units
    # reserved per (member, capability), which never exceed the declared
    # capacity and never go negative; past load_model only _move_member,
    # _put_task and _reserve write them, and nothing writes the params and
    # resources
    _members: dict[str, Member] = field(default_factory=dict)
    _registry: dict[str, Member] = field(default_factory=dict)
    _tasks: dict[str, TaskDef] = field(default_factory=dict)
    _vbe_resources: frozenset[str] = frozenset()
    _params: dict[str, int] = field(default_factory=dict)
    _reserved: dict[tuple[str, str], int] = field(default_factory=dict)
    # (task, member, capability) -> units that stay reserved for a running
    # task after its duty shrank or went, written only by _hold and
    # _free_holds; with the duties they are the claims on the reserved units
    _holds: dict[tuple[str, str, str], int] = field(default_factory=dict)
    # the duty table and its keys by task and by member, written only by
    # _put_duty; the buckets of this and the next two groups are written only
    # through _file: replaced, never mutated, and never empty
    _duties: dict[tuple[str, str, str], int] = field(default_factory=dict)
    _duties_on: dict[str, frozenset[tuple[str, str, str]]] = field(default_factory=dict)
    _duties_of: dict[str, frozenset[tuple[str, str, str]]] = field(default_factory=dict)
    # the control graph, written only by _link; as no bucket is empty, equal
    # maps mean the same graph
    _preds: dict[str, frozenset[str]] = field(default_factory=dict)
    _succs: dict[str, frozenset[str]] = field(default_factory=dict)
    # the data flows by target and by task source (a customer flow is filed
    # by target only), the number of flows of each (item, source) and the
    # sources of each item, written only by _add_flows; no count is 0
    _flows_to: dict[str, frozenset[DataFlow]] = field(default_factory=dict)
    _flows_from: dict[str, frozenset[DataFlow]] = field(default_factory=dict)
    _flow_count: dict[tuple[str, str], int] = field(default_factory=dict)
    _item_sources: dict[str, frozenset[str]] = field(default_factory=dict)
    # the bootstrap's ranking of members and candidates (vopol.domain), a
    # cache that clones share: the population is fixed after load_model
    _ranking: object = field(default=None, compare=False, repr=False)
    # the bootstrap's frontier: (capability, competition, side) -> the
    # sorted positions, in the ranking's order for the side (0 members, 1
    # candidates), of the people in that side's pool with free units of
    # the capability. A walk builds a key (_frontier) when it first needs
    # it; from then on _reserve and _move_member, the only writers of the
    # reserved units and the pools past load_model, keep every built key
    # true. All of it is written through _write, so undo restores it with
    # the rest of the model, and clone copies it like the other dicts (the
    # tuples are replaced, never changed). It is derived from the model,
    # so equality and canonical_dump leave it out.
    _live: dict[tuple[str, bool, int], tuple[int, ...]] = field(default_factory=dict, compare=False, repr=False)
    # (container, key, old value) of every write since the first mark, in
    # write order, or None when nothing can be undone; see _write
    _journal: list | None = field(default=None, compare=False, repr=False)

    def clone(self) -> "VoModel":
        """A snapshot with no journal: each ``dict`` field is copied, and
        every other one (the name, the frozen resources and the ranking
        cache) is shared. The records and frozen buckets in the copies are
        shared with this model too, since no write changes one."""
        return VoModel(**{
            f.name: dict(value) if isinstance(value := getattr(self, f.name), dict) else value
            for f in fields(self)
            if f.name != "_journal"
        })

    def __post_init__(self):
        # read-only views of the containers, built once per model, so a read
        # costs what a plain attribute costs: id -> member or candidate
        # (``registry``, the ones ``add_member`` can admit), id -> task,
        # name -> param, (member, capability) -> reserved units (absent for
        # none), (member, task, capability) -> duty amount and (task, member,
        # capability) -> held units
        self.members = MappingProxyType(self._members)
        self.registry = MappingProxyType(self._registry)
        self.tasks = MappingProxyType(self._tasks)
        self.params = MappingProxyType(self._params)
        self.reserved = MappingProxyType(self._reserved)
        self.duties = MappingProxyType(self._duties)
        self.holds = MappingProxyType(self._holds)

    def __getstate__(self):
        # the fields alone, and __setstate__ builds the views again: a
        # mappingproxy does not pickle
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state):
        self.__init__(**state)

    @property
    def vbe_resources(self) -> frozenset[str]:
        return self._vbe_resources

    # lookups ----------------------------------------------------------

    def anyone(self, member_id: str) -> Member | None:
        """Member or registry candidate with this id."""
        return self._members.get(member_id) or self._registry.get(member_id)

    def declared(self, member_id: str, capability: str) -> int | None:
        who = self.anyone(member_id)
        if who is None or capability not in who.capabilities:
            return None
        return who.capabilities[capability]

    def in_process_tasks(self) -> list[str]:
        return sorted(t for t, d in self._tasks.items() if d.in_process)

    @property
    def control_edges(self) -> frozenset[tuple[str, str]]:
        """The (predecessor, successor) pairs of the control graph; read-only."""
        return frozenset((p, s) for p, succs in self._succs.items() for s in succs)

    def predecessors(self, task: str) -> frozenset[str]:
        return self._preds.get(task, frozenset())

    def successors(self, task: str) -> frozenset[str]:
        return self._succs.get(task, frozenset())

    @property
    def dataflows(self) -> frozenset[DataFlow]:
        """Every data flow; read-only."""
        return frozenset().union(*self._flows_to.values())

    def flows_to(self, task: str) -> frozenset[DataFlow]:
        return self._flows_to.get(task, frozenset())

    def flows_from(self, task: str) -> frozenset[DataFlow]:
        """The flows whose source is the task ``task``; the customer's
        flows are filed by target only."""
        return self._flows_from.get(task, frozenset())

    def iter_duties(self) -> list[Duty]:
        return _sorted_duties(self._duties.items())

    def duties_on(self, task: str) -> list[Duty]:
        return _sorted_duties((k, self._duties[k]) for k in self._duties_on.get(task, ()))

    def duties_of(self, member_id: str) -> list[Duty]:
        return _sorted_duties((k, self._duties[k]) for k in self._duties_of.get(member_id, ()))


# the value of a dict slot that holds no key
_ABSENT = object()


def _store(table: dict, key, value):
    """Put ``value`` under ``key``, or drop the key for ``_ABSENT``."""
    if value is _ABSENT:
        table.pop(key, None)
    else:
        table[key] = value


def _write(m: VoModel, table: dict, key, value):
    """Store ``value`` under ``key`` in ``table``, one of ``m``'s containers;
    once a mark is taken, journal the old value so that :func:`undo` can
    put it back."""
    if m._journal is not None:
        m._journal.append((table, key, table.get(key, _ABSENT)))
    _store(table, key, value)


def journal_mark(m: VoModel) -> int:
    """A point that :func:`undo` can roll ``m`` back to; from the first
    mark until :func:`commit`, every write to ``m`` is journaled."""
    if m._journal is None:
        m._journal = []
    return len(m._journal)


def undo(m: VoModel, mark: int):
    """Restore every slot written since ``mark``, newest first."""
    journal = m._journal
    while len(journal) > mark:
        _store(*journal.pop())


def commit(m: VoModel):
    """Drop the journal: the writes so far can no longer be undone, and
    later ones are not journaled until the next mark."""
    m._journal = None


def _file(m: VoModel, table: dict, pairs: Collection[tuple[object, object]], add: bool):
    """Add each (key, value) of ``pairs`` to the bucket under that key in
    ``table``, one of ``m``'s indexes, or take it out (``add`` false). Each
    bucket is written once, and one left empty is dropped."""
    if not pairs:
        return
    changes: dict[object, list] = {}
    for key, value in pairs:
        values = changes.get(key)
        if values is None:
            changes[key] = [value]
        else:
            values.append(value)
    for key, values in changes.items():
        bucket = table.get(key)
        if bucket is None:  # a new bucket, or nothing to take out of
            new = frozenset(values) if add else None
        else:
            new = bucket.union(values) if add else bucket.difference(values)
        _write(m, table, key, new or _ABSENT)


def _link(m: VoModel, edges: Collection[tuple[str, str]], add: bool = True):
    """Add the control ``edges`` to ``m``, or remove them (``add`` false)."""
    _file(m, m._preds, [(s, p) for p, s in edges], add)
    _file(m, m._succs, edges, add)


def _put_duty(m: VoModel, amounts: Mapping[tuple[str, str, str], int | None]):
    """Set each duty key of ``amounts`` in ``m`` to its amount, or drop it
    (None)."""
    filed: dict[bool, list] = {True: [], False: []}  # the new keys to file, the dropped ones to unfile
    for key, amount in amounts.items():
        add = amount is not None
        if add is not (key in m._duties):
            filed[add].append(key)
        _write(m, m._duties, key, amount if add else _ABSENT)
    for add, keys in filed.items():
        if keys:
            _file(m, m._duties_on, [(k[1], k) for k in keys], add)
            _file(m, m._duties_of, [(k[0], k) for k in keys], add)


def _add_flows(m: VoModel, flows: Collection[DataFlow], add: bool = True):
    """Add the distinct data ``flows``, each absent, to ``m``, or remove
    them, each present (``add`` false)."""
    sources = []  # the (item, source) pairs whose first or last flow this is
    for flow in flows:
        key = (flow.item, flow.source)
        old = m._flow_count.get(key, 0)
        new = old + 1 if add else old - 1
        _write(m, m._flow_count, key, new or _ABSENT)
        if not (old and new):
            sources.append(key)
    _file(m, m._flows_to, [(f.target, f) for f in flows], add)
    _file(m, m._flows_from, [(f.source, f) for f in flows if f.source != CUSTOMER], add)
    _file(m, m._item_sources, sources, add)


def _retask(task: TaskDef, inputs: frozenset[str] | None = None, in_process: bool | None = None) -> TaskDef:
    """``task`` with new ``inputs`` or ``in_process`` (None keeps a field),
    built by the constructor, which costs a fraction of
    ``dataclasses.replace``."""
    return TaskDef(
        task.id,
        task.ttype,
        task.sharing,
        task.required,
        task.inputs if inputs is None else inputs,
        task.in_process if in_process is None else in_process,
    )


def _put_task(m: VoModel, task_def: TaskDef):
    """File ``task_def`` in ``m``'s catalogue under its id."""
    _write(m, m._tasks, task_def.id, task_def)


def _move_member(m: VoModel, who: str, admit: bool):
    """Move ``who`` from the registry into the members (``admit``) or back."""
    source, target = (m._registry, m._members) if admit else (m._members, m._registry)
    record = source[who]
    _write(m, target, who, record)
    _write(m, source, who, _ABSENT)
    if m._live:
        _relive(m, who, record.capabilities)


def _reserve(m: VoModel, member: str, capability: str, delta: int):
    """Shift the units of ``capability`` that ``m`` reserves for ``member``
    by ``delta``; the caller keeps them between 0 and the declared amount."""
    key = (member, capability)
    _write(m, m._reserved, key, m._reserved.get(key, 0) + delta or _ABSENT)
    if m._live:
        _relive(m, member, (capability,))


def _frontier(m: VoModel, key: tuple[str, bool, int], order: list[tuple[str, int]]) -> tuple[int, ...]:
    """The frontier under ``key`` = (capability, competition, side), whose
    ranked (id, declared amount) ``order`` is given; built from the model
    and written when it is missing."""
    live = m._live.get(key)
    if live is None:
        capability, _, side = key
        pool, reserved = m._registry if side else m._members, m._reserved
        live = tuple(
            i for i, (who, declared) in enumerate(order)
            if who in pool and declared - reserved.get((who, capability), 0) > 0
        )
        _write(m, m._live, key, live)
    return live


def _relive(m: VoModel, who: str, capabilities: Iterable[str]):
    """Bring the built frontier keys of ``capabilities`` up to date with
    ``who``'s pool and free units: only ``who``'s entry can change."""
    live, ranking = m._live, m._ranking
    side = 0 if who in m._members else 1
    record = m._members.get(who) or m._registry[who]
    for capability in capabilities:
        declared = record.capabilities.get(capability)
        if declared is None:  # the ranking holds no entry of ``who`` for it
            continue
        free = declared - m._reserved.get((who, capability), 0)
        for competition in (False, True):
            for s in (0, 1):
                key = (capability, competition, s)
                entries = live.get(key)
                if entries is None:
                    continue
                position = ranking.positions(capability, competition)[s][who]
                i = bisect_left(entries, position)
                present = i < len(entries) and entries[i] == position
                if present != (s == side and free > 0):
                    kept = entries[i + 1:] if present else (position, *entries[i:])
                    _write(m, live, key, entries[:i] + kept)


def _hold(m: VoModel, task: str, member: str, capability: str, units: int):
    """Keep ``units`` of the units ``m`` reserves for ``member``'s
    ``capability`` claimed for the running ``task`` until it finishes."""
    key = (task, member, capability)
    _write(m, m._holds, key, m._holds.get(key, 0) + units)


def _free_holds(m: VoModel, task: str):
    """Free the units held for ``task``, which has finished."""
    for key in [key for key in m._holds if key[0] == task]:
        _reserve(m, key[1], key[2], -m._holds[key])
        _write(m, m._holds, key, _ABSENT)


def _sorted_duties(items: Iterable[tuple[tuple[str, str, str], int]]) -> list[Duty]:
    return [Duty(m, t, c, amount) for (m, t, c), amount in sorted(items)]


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


# a member kind and a task type by name, as MemberKind(name) and
# TaskType(name) find them
_MEMBER_KINDS = {k.value: k for k in MemberKind}
_TASK_TYPES = {t.value: t for t in TaskType}


def _not_int(what: str, tok: str, line_no: int) -> ParseError:
    return ParseError(f"{what} must be an integer, got {quoted(tok)}", line_no, 1)


def _not_kv(tok: str, line_no: int) -> ParseError:
    return ParseError(f"expected key=value, got {quoted(tok)}", line_no, 1)


def _repeated(what: str, name: str, line_no: int) -> ParseError:
    """A row or file that repeats a key must not let its last value win."""
    return ParseError(f"repeated {what} {quoted(name)}", line_no, 1)


def _parse_member(tokens: list[str], line_no: int) -> Member:
    n = len(tokens)
    if n < 2:
        raise ParseError("member row needs an id and kind=", line_no, 1)
    mid = tokens[1]
    kind: MemberKind | None = None  # set at most once: a repeated kind= is refused
    caps: dict[str, int] = {}
    costs: dict[str, int] = {}
    i = 2
    while i < n:
        tok = tokens[i]
        i += 1
        if tok == "cap":
            if i == n:
                raise ParseError("cap clause needs name=amount", line_no, 1)
            cap, eq, text = tokens[i].partition("=")
            if not eq:
                raise _not_kv(tokens[i], line_no)
            if cap in caps:
                raise _repeated("cap", cap, line_no)
            amount = parse_int(text)
            if amount is None:
                raise _not_int(f"capacity of {cap!r}", text, line_no)
            caps[cap] = amount
            i += 1
            if i < n and tokens[i].startswith("cost="):
                text = tokens[i][5:]
                amount = parse_int(text)
                if amount is None:
                    raise _not_int("cost", text, line_no)
                costs[cap] = amount
                i += 1
            continue
        key, eq, value = tok.partition("=")
        if not eq:
            raise _not_kv(tok, line_no)
        if key != "kind":
            raise ParseError(f"unknown member attribute {key!r}", line_no, 1)
        if kind is not None:
            raise _repeated("member attribute", key, line_no)
        kind = _MEMBER_KINDS.get(value)
        if kind is None:
            raise ParseError(f"unknown member kind {value!r}", line_no, 1)
    if kind is None:
        raise ParseError(f"member {mid!r} is missing kind=", line_no, 1)
    return Member(mid, kind, caps, costs)


def _parse_task(tokens: list[str], line_no: int) -> TaskDef:
    n = len(tokens)
    if n < 2:
        raise ParseError("task row needs an id", line_no, 1)
    tid = tokens[1]
    # each attribute is set at most once: a repeated one is refused
    ttype: TaskType | None = None
    sharing: str | None = None
    inprocess: str | None = None
    required: dict[str, int] = {}
    inputs: set[str] = set()
    i = 2
    while i < n:
        tok = tokens[i]
        i += 1
        if tok == "requires":
            if i == n:
                raise ParseError("requires clause needs cap=amount", line_no, 1)
            cap, eq, text = tokens[i].partition("=")
            if not eq:
                raise _not_kv(tokens[i], line_no)
            if cap in required:
                raise _repeated("requirement", cap, line_no)
            amount = parse_int(text)
            if amount is None:
                raise _not_int(f"requirement {cap!r}", text, line_no)
            required[cap] = amount
            i += 1
            continue
        if tok == "input":
            if i == n:
                raise ParseError("input clause needs an item name", line_no, 1)
            inputs.add(tokens[i])
            i += 1
            continue
        key, eq, value = tok.partition("=")
        if not eq:
            raise _not_kv(tok, line_no)
        if key == "type":
            if ttype is not None:
                raise _repeated("task attribute", key, line_no)
            ttype = _TASK_TYPES.get(value)
            if ttype is None:
                raise ParseError(f"unknown task type {value!r}", line_no, 1)
        elif key == "sharing":
            if sharing is not None:
                raise _repeated("task attribute", key, line_no)
            sharing = value
        elif key == "inprocess":
            if inprocess is not None:
                raise _repeated("task attribute", key, line_no)
            if value != "true" and value != "false":
                raise ParseError(f"inprocess must be true or false, got {value!r}", line_no, 1)
            inprocess = value
        else:
            raise ParseError(f"unknown task attribute {key!r}", line_no, 1)
    if ttype is None:
        raise ParseError(f"task {tid!r} is missing type=", line_no, 1)
    return TaskDef(tid, ttype, sharing, required, frozenset(inputs), inprocess != "false")


def load_model(text: str) -> VoModel:
    """Parse a model file. Raises :class:`ParseError` on malformed rows and
    :class:`DanglingRefError` when a row references an undefined id."""
    name: str | None = None
    params: dict[str, int] = {}
    members: dict[str, Member] = {}
    registry: dict[str, Member] = {}
    tasks: dict[str, TaskDef] = {}
    resources: set[str] = set()
    edges: list[tuple[str, str]] = []
    edge_lines: list[int] = []
    pending_flows: list[tuple[int, str, str, str]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        tokens = line.split()
        if not tokens:
            continue
        row = tokens[0]
        if name is None:
            if row != "vo":
                raise ParseError("model file must start with a vo row", line_no, 1)
            if len(tokens) != 2:
                raise ParseError("vo row needs exactly one name", line_no, 1)
            name = tokens[1]
        elif row == "edge":
            if len(tokens) != 3:
                raise ParseError("edge row needs from and to", line_no, 1)
            edges.append((tokens[1], tokens[2]))
            edge_lines.append(line_no)
        elif row == "task":
            task = _parse_task(tokens, line_no)
            if task.id in tasks:
                raise ParseError(f"duplicate task id {task.id!r}", line_no, 1)
            tasks[task.id] = task
        elif row == "member" or row == "candidate":
            who = _parse_member(tokens, line_no)
            if who.id in members or who.id in registry:
                raise ParseError(f"duplicate member id {who.id!r}", line_no, 1)
            (members if row == "member" else registry)[who.id] = who
        elif row == "param":
            if len(tokens) != 3:
                raise ParseError("param row needs a name and a value", line_no, 1)
            if tokens[1] in params:
                raise _repeated("param", tokens[1], line_no)
            value = parse_int(tokens[2])
            if value is None:
                raise _not_int(f"param {tokens[1]!r}", tokens[2], line_no)
            params[tokens[1]] = value
        elif row == "dataflow":
            if len(tokens) != 4:
                raise ParseError("dataflow row needs item, from= and to=", line_no, 1)
            attrs = {}
            for tok in tokens[2:]:
                key, eq, value = tok.partition("=")
                if not eq:
                    raise _not_kv(tok, line_no)
                attrs[key] = value
            if attrs.keys() != {"from", "to"}:
                raise ParseError("dataflow row needs from= and to=", line_no, 1)
            pending_flows.append((line_no, tokens[1], attrs["from"], attrs["to"]))
        elif row == "resource":
            if len(tokens) != 2:
                raise ParseError("resource row needs an id", line_no, 1)
            resources.add(tokens[1])
        elif row == "vo":
            raise ParseError("duplicate vo row", line_no, 1)
        else:
            raise ParseError(f"unknown row kind {row!r}", line_no, 1)
    if name is None:
        raise ParseError("empty model file", 1, 1)
    for line_no, (src, dst) in zip(edge_lines, edges):
        if src not in tasks:
            raise DanglingRefError(f"edge references undefined task {src!r}", line_no, 1)
        if dst not in tasks:
            raise DanglingRefError(f"edge references undefined task {dst!r}", line_no, 1)
    model = VoModel(
        name, _members=members, _registry=registry, _tasks=tasks, _vbe_resources=frozenset(resources), _params=params
    )
    _link(model, edges)
    rows: dict[tuple[str, str, str], None] = {}  # identical rows load as one flow
    for line_no, item, source, target in pending_flows:
        if source != CUSTOMER and source not in tasks:
            raise DanglingRefError(f"dataflow source {source!r} is not a task", line_no, 1)
        if target not in tasks:
            raise DanglingRefError(f"dataflow target {target!r} is not a task", line_no, 1)
        rows[item, source, target] = None
    _add_flows(model, [DataFlow(*row) for row in rows])
    for target, into in model._flows_to.items():
        task = tasks[target]
        _put_task(model, _retask(task, inputs=task.inputs | {f.item for f in into}))
    return model


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _acyclic(m: VoModel, tasks: Collection[str]) -> bool:
    """Kahn's algorithm: true iff every task can be taken off in
    topological order. Every edge of ``m`` must join two of ``tasks``."""
    preds, succs = m._preds, m._succs
    indeg = {t: len(preds.get(t, ())) for t in tasks}
    queue = [t for t, d in indeg.items() if d == 0]
    for node in queue:  # the queue grows while it is read
        for s in succs.get(node, ()):
            left = indeg[s] - 1
            indeg[s] = left
            if left == 0:
                queue.append(s)
    return len(queue) == len(tasks)


def validate_model(m: VoModel) -> list[Diagnostic]:
    """Empty result iff every structural invariant holds."""
    out: list[Diagnostic] = []

    def bad(code: str, message: str, subject: str):
        out.append(Diagnostic(code=code, message=message, subject=subject))

    for mid in sorted(m._members.keys() & m._registry.keys()):
        bad("DuplicateId", f"id {mid!r} is both a member and a registry candidate", mid)
    for population in (m._members, m._registry):
        for who in population.values():
            caps = who.capabilities
            if caps and min(caps.values()) < 0:  # sorted only to order the diagnostics
                for cap, amount in sorted(caps.items()):
                    if amount < 0:
                        bad("NegativeCapacity", f"{who.id}: declared capacity {cap}={amount} is negative", who.id)

    in_process = {t for t, d in m._tasks.items() if d.in_process}
    edge_problems = len(out)
    for p, s in sorted(m.control_edges):
        for tid in (p, s):
            if tid in in_process:
                continue
            if tid not in m._tasks:
                bad("DanglingEdge", f"edge ({p} -> {s}) references undefined task {tid!r}", tid)
            else:
                bad("EdgeOutsideProcess", f"edge ({p} -> {s}) touches catalogue-only task {tid!r}", tid)

    # An acyclic graph also satisfies the entry/exit rule: walking back
    # (or forward) from any task must stop, and it can only stop at an
    # entry (or exit) task, so no separate reachability check is needed.
    if len(out) == edge_problems and not _acyclic(m, in_process):
        bad("CycleError", "control graph contains a cycle", m.name)

    for flow in sorted(m.dataflows, key=lambda f: (f.item, f.source, f.target)):
        if flow.target not in m.tasks:
            bad("DanglingFlow", f"dataflow {flow.item!r} targets undefined task {flow.target!r}", flow.target)
        elif not m.tasks[flow.target].in_process:
            bad("FlowOutsideProcess", f"dataflow {flow.item!r} targets catalogue-only task {flow.target!r}", flow.target)
        if flow.source != CUSTOMER and flow.source not in m.tasks:
            bad("DanglingFlow", f"dataflow {flow.item!r} has undefined source {flow.source!r}", flow.source)

    holders: dict[str, set[str]] = {}
    for duty in m.iter_duties():
        holders.setdefault(duty.task, set()).add(duty.member)
        if duty.member not in m.members:
            bad("DanglingDuty", f"duty on {duty.task!r} references non-member {duty.member!r}", duty.member)
            continue
        if duty.task not in m.tasks:
            bad("DanglingDuty", f"duty of {duty.member!r} references undefined task {duty.task!r}", duty.task)
            continue
        if duty.capability not in m.members[duty.member].capabilities:
            bad(
                "CapabilityMissing",
                f"duty ({duty.member}, {duty.task}): capability {duty.capability!r} not declared by member",
                duty.member,
            )
        if duty.capability not in m.tasks[duty.task].required:
            bad(
                "CapabilityMissing",
                f"duty ({duty.member}, {duty.task}): capability {duty.capability!r} not required by task",
                duty.task,
            )
        if duty.amount < 0:
            bad("NegativeCapacity", f"duty ({duty.member}, {duty.task}) has negative amount", duty.member)

    for task, who in sorted(holders.items()):
        task_def = m.tasks.get(task)
        if task_def is not None and task_def.ttype is TaskType.ATOMIC and len(who) > 1:
            bad(
                "AtomicityViolation",
                f"atomic task {task!r} has duties from {len(who)} members: {', '.join(sorted(who))}",
                task,
            )

    for (mid, cap), reserved in sorted(m._reserved.items()):
        declared = m.declared(mid, cap)
        if declared is None:
            bad("CapabilityMissing", f"ledger entry ({mid}, {cap}) has no declared capacity", mid)
        elif reserved < 0:
            bad("NegativeCapacity", f"ledger entry ({mid}, {cap}) is negative", mid)
        elif reserved > declared:
            bad(
                "CapacityExceeded",
                f"ledger entry ({mid}, {cap}): reserved {reserved} exceeds declared {declared}",
                mid,
            )

    # the reserved units cover every claim: the duties and the holds
    claims: dict[tuple[str, str], int] = {}
    for (mid, _, cap), units in m._duties.items():
        claims[mid, cap] = claims.get((mid, cap), 0) + units
    for (_, mid, cap), units in m._holds.items():
        claims[mid, cap] = claims.get((mid, cap), 0) + units
    for (mid, cap), claimed in sorted(claims.items()):
        reserved = m._reserved.get((mid, cap), 0)
        if claimed > reserved:
            bad("UnreservedClaim", f"duties and holds claim {claimed} of ({mid}, {cap}), {reserved} reserved", mid)
    return out


# ---------------------------------------------------------------------------
# primitive mutations
# ---------------------------------------------------------------------------


def _need_task(m: VoModel, task: str, in_process: bool | None = None) -> TaskDef:
    task_def = m.tasks.get(task)
    if task_def is None:
        raise UnknownTaskError(f"unknown task {task!r}", task)
    if in_process is True and not task_def.in_process:
        raise UnknownTaskError(f"task {task!r} is not in the process", task)
    return task_def


def insert_task_node(m: VoModel, t1: str, t2: str, relation: str) -> None:
    """Wire catalogue task ``t1`` into the process next to ``t2``.

    ``after``: t1 takes over every outgoing edge of t2 and a single edge
    t2 -> t1 is added. ``parallel``: t1 receives copies of all incoming
    and outgoing edges of t2.
    """
    if relation not in RELATIONS:
        raise InvalidArgumentError(f"relation must be one of {RELATIONS}, got {relation!r}", relation)
    _need_task(m, t1)
    if m.tasks[t1].in_process:
        raise AlreadyInProcessError(f"task {t1!r} is already in the process", t1)
    _need_task(m, t2, in_process=True)
    succ = m.successors(t2)
    if relation == "after":
        _link(m, [(t2, s) for s in succ], add=False)
        _link(m, [(t1, s) for s in succ] + [(t2, t1)])
    else:
        _link(m, [(p, t1) for p in m.predecessors(t2)] + [(t1, s) for s in succ])
    _put_task(m, _retask(m.tasks[t1], in_process=True))


def remove_task_node(m: VoModel, t: str) -> None:
    """Unwire ``t`` from the process, bridging predecessors to successors.

    A bridge p -> s is added for every predecessor/successor pair that is
    not already connected by a remaining path; pairs the rest of the graph
    still orders need no repair, which is what lets inserting and then
    removing a fresh task restore the exact prior edge set. The task
    definition stays in the catalogue; its duties are dropped (with their
    reservations) and its dataflow edges removed. The caller must ensure
    ``t`` has no active instance.
    """
    _need_task(m, t, in_process=True)
    preds = m.predecessors(t)
    succs = m.successors(t)
    _link(m, {(p, t) for p in preds} | {(t, s) for s in succs}, add=False)
    bridges = set()
    for p in preds:
        # walk from p until it reaches every other successor
        missing = set(succs - {p})
        seen, frontier = {p}, [p]
        while frontier and missing:
            for s in m.successors(frontier.pop()):
                if s not in seen:
                    seen.add(s)
                    missing.discard(s)
                    frontier.append(s)
        bridges |= {(p, s) for s in missing}
        if p in succs:  # on cyclic input a task that is both pred and succ gets p -> p
            bridges.add((p, p))
    _link(m, bridges)
    dropped = m.duties_on(t)
    _put_duty(m, {(d.member, t, d.capability): None for d in dropped})
    for duty in dropped:
        _reserve(m, duty.member, duty.capability, -duty.amount)
    _add_flows(m, m.flows_from(t) | m.flows_to(t), add=False)
    _put_task(m, _retask(m.tasks[t], in_process=False))


def set_dataflow_edge(m: VoModel, item: str, t: str, mode: str) -> Diagnostic | None:
    """Add or remove the dataflow ``item -> t``; ``t.inputs`` mirrors it.

    Adding picks the item's existing source when one is already known
    (smallest by name for determinism), otherwise the customer. Removing
    an absent edge is a no-op reported through a warning diagnostic.
    """
    if mode not in ("add", "remove"):
        raise InvalidArgumentError(f"mode must be add or remove, got {mode!r}", mode)
    task_def = _need_task(m, t, in_process=True)
    existing = [f for f in m.flows_to(t) if f.item == item]
    if mode == "add":
        if not existing:
            sources = m._item_sources.get(item)
            _add_flows(m, [DataFlow(item, min(sources) if sources else CUSTOMER, t)])
        _put_task(m, _retask(task_def, inputs=task_def.inputs | {item}))
        return None
    if not existing:
        return Diagnostic(
            code="AbsentFlow",
            message=f"no dataflow {item!r} -> {t!r} to remove",
            subject=item,
            severity="warning",
        )
    _add_flows(m, existing, add=False)
    _put_task(m, _retask(task_def, inputs=task_def.inputs - {item}))
    return None


def adjust_reserved_capacity(m: VoModel, member: str, capability: str, delta: int) -> None:
    """Shift the reserved amount for (member, capability) by ``delta``,
    holding 0 <= reserved <= declared and never freeing units that duties
    or holds claim; ``delta`` is an ``int`` but not a ``bool``, of at most
    :data:`~vopol.errors.MAX_NUMBER_DIGITS` digits."""
    if type(delta) is bool or not isinstance(delta, int):
        raise InvalidArgumentError(f"delta must be an int, got {delta!r}", member)
    if too_long(delta):
        raise InvalidArgumentError(f"delta must have at most {MAX_NUMBER_DIGITS} digits", member)
    who = m.anyone(member)
    if who is None:
        raise UnknownMemberError(f"unknown member {member!r}", member)
    declared = who.capabilities.get(capability)
    if declared is None:
        raise CapabilityMissingError(
            f"{member!r} declares no capability {capability!r}", capability
        )
    reserved = m._reserved.get((member, capability), 0)
    new = reserved + delta
    if new < 0:
        raise UnderflowError(
            f"releasing {-delta} of ({member}, {capability}) would leave {new} reserved", member
        )
    if new > declared:
        raise CapacityExceededError(
            f"reserving {delta} of ({member}, {capability}) would exceed declared {declared}", member
        )
    if delta < 0:  # the units that duties and holds claim stay reserved
        claimed = sum(m._duties[key] for key in m._duties_of.get(member, ()) if key[2] == capability)
        claimed += sum(units for (_, mid, cap), units in m._holds.items() if (mid, cap) == (member, capability))
        unclaimed = reserved - claimed
        if -delta > unclaimed:
            raise UnderflowError(
                f"releasing {-delta} of ({member}, {capability}) would free units that duties "
                f"or holds claim: {unclaimed} of {reserved} reserved are unclaimed",
                member,
            )
    _reserve(m, member, capability, delta)


def free_capacity(m: VoModel, member: str, capability: str) -> int | None:
    """Declared minus reserved; ``None`` when the capability is not
    declared at all (distinguishable from declared-but-exhausted)."""
    who = m.anyone(member)
    if who is None:
        raise UnknownMemberError(f"unknown member {member!r}", member)
    declared = who.capabilities.get(capability)
    if declared is None:
        return None
    return declared - m._reserved.get((member, capability), 0)


# ---------------------------------------------------------------------------
# canonical dump
# ---------------------------------------------------------------------------


def canonical_dump(m: VoModel) -> str:
    """Deterministic full-state snapshot, suitable for hashing and diffs.

    This is a superset of the input format (duties, holds and reservations
    have no input rows); it is not meant to be loaded back.
    """
    lines = [f"vo {m.name}"]
    for name, value in sorted(m.params.items()):
        lines.append(f"param {name} {value}")
    for row, table in (("member", m.members), ("candidate", m.registry)):
        for mid in sorted(table):
            who = table[mid]
            caps = ""
            for cap in sorted(who.capabilities):
                caps += f" cap {cap}={who.capabilities[cap]}"
                if cap in who.cost:
                    caps += f" cost={who.cost[cap]}"
            lines.append(f"{row} {mid} kind={who.kind.value}{caps}")
    for tid in sorted(m.tasks):
        task = m.tasks[tid]
        bits = [f"task {tid} type={task.ttype.value}"]
        if task.sharing is not None:
            bits.append(f"sharing={task.sharing}")
        for cap in sorted(task.required):
            bits.append(f"requires {cap}={task.required[cap]}")
        for item in sorted(task.inputs):
            bits.append(f"input {item}")
        bits.append(f"inprocess={'true' if task.in_process else 'false'}")
        lines.append(" ".join(bits))
    for p, s in sorted(m.control_edges):
        lines.append(f"edge {p} {s}")
    for flow in sorted(m.dataflows, key=lambda f: (f.item, f.source, f.target)):
        lines.append(f"dataflow {flow.item} from={flow.source} to={flow.target}")
    for rid in sorted(m.vbe_resources):
        lines.append(f"resource {rid}")
    for duty in m.iter_duties():
        lines.append(f"duty {duty.member} {duty.task} {duty.capability}={duty.amount}")
    for (task, mid, cap), units in sorted(m.holds.items()):
        lines.append(f"hold {task} {mid} {cap}={units}")
    for (mid, cap), amount in sorted(m.reserved.items()):
        lines.append(f"reserved {mid} {cap}={amount}")
    return "\n".join(lines) + "\n"
