from __future__ import annotations

import ast
import copy
import dataclasses
import operator
import pickle
import random
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vopol.model
from vopol.errors import (
    AlreadyInProcessError,
    CapabilityMissingError,
    CapacityExceededError,
    DanglingRefError,
    InvalidArgumentError,
    ModelError,
    ParseError,
    UnderflowError,
    UnknownMemberError,
    UnknownTaskError,
    quoted,
)
from vopol.model import (
    CUSTOMER,
    RELATIONS,
    DataFlow,
    Duty,
    MemberKind,
    VoModel,
    _hold,
    _put_duty,
    _put_task,
    _reserve,
    adjust_reserved_capacity,
    canonical_dump,
    free_capacity,
    insert_task_node,
    journal_mark,
    load_model,
    remove_task_node,
    set_dataflow_edge,
    undo,
    validate_model,
)

from conftest import NOT_INTEGERS, VISITUS, WIDEST
from test_acceptance import _closure


def chain(*tasks: str, extra_edges=()) -> VoModel:
    rows = ["vo Chain"]
    rows += [f"task {t} type=Atomic" for t in tasks]
    edges = [(tasks[i], tasks[i + 1]) for i in range(len(tasks) - 1)]
    edges += list(extra_edges)
    rows += [f"edge {a} {b}" for a, b in edges]
    return load_model("\n".join(rows))


# --- loading ---------------------------------------------------------------


def test_visitus_fixture_loads():
    m = load_model(VISITUS)
    assert m.name == "VisitUs"
    assert len(m.members) + len(m.registry) == 2
    assert m.control_edges == {("BookFlight", "HotelProv")}
    assert m.params == {"n": 3}
    assert m.members["Hotel"].capabilities == {"beds": 10}
    assert m.members["Hotel"].cost == {"beds": 5}
    assert m.registry["newHotel"].kind is MemberKind.PARTNER
    assert m.tasks["HotelProv"].required == {"beds": 3}


def test_empty_member_list_is_valid():
    m = load_model("vo Solo\ntask T type=Atomic\n")
    assert m.members == {} and validate_model(m) == []


def test_edge_to_undefined_task_is_reference_error():
    with pytest.raises(DanglingRefError):
        load_model("vo X\ntask A type=Atomic\nedge A B\n")


def test_dataflow_rows_populate_inputs():
    m = load_model(
        "vo X\ntask A type=Atomic\ntask B type=Atomic\nedge A B\n"
        "dataflow itinerary from=customer to=A\ndataflow booking from=A to=B\n"
    )
    assert DataFlow("itinerary", CUSTOMER, "A") in m.dataflows
    assert m.tasks["A"].inputs == {"itinerary"}
    assert m.tasks["B"].inputs == {"booking"}


def test_load_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        load_model("vo X\ntask A type=Wrong\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        load_model("task A type=Atomic\n")  # must start with vo
    with pytest.raises(ParseError):
        load_model("vo X\nvo Y\n")
    with pytest.raises(ParseError):
        load_model("vo X\nmember A kind=Partner\nmember A kind=Partner\n")
    with pytest.raises(ParseError):
        load_model("vo X\nfrobnicate A\n")


# (text, error type, message, line, col), recorded from the loader before
# its rows were filed through the model's writers
MALFORMED_MODELS = [
    ("vo X\nparam n abc\n", ParseError, "param 'n' must be an integer, got 'abc'", 2, 1),
    ("vo X\nmember A kind=Partner cap c=x\n", ParseError, "capacity of 'c' must be an integer, got 'x'", 2, 1),
    ("vo X\nmember A kind=Partner cap c=1 cost=x\n", ParseError, "cost must be an integer, got 'x'", 2, 1),
    ("vo X\ntask T type=Atomic requires c=x\n", ParseError, "requirement 'c' must be an integer, got 'x'", 2, 1),
    ("vo X\nmember A kind=Partner foo\n", ParseError, "expected key=value, got 'foo'", 2, 1),
    ("vo X\nmember\n", ParseError, "member row needs an id and kind=", 2, 1),
    ("vo X\ncandidate A kind=Partner cap\n", ParseError, "cap clause needs name=amount", 2, 1),
    ("vo X\nmember A kind=Boss\n", ParseError, "unknown member kind 'Boss'", 2, 1),
    ("vo X\nmember A kind=Partner color=red\n", ParseError, "unknown member attribute 'color'", 2, 1),
    ("vo X\nmember A cap c=1\n", ParseError, "member 'A' is missing kind=", 2, 1),
    ("vo X\nmember A kind=Partner\ncandidate A kind=Partner\n", ParseError, "duplicate member id 'A'", 3, 1),
    # a repeated key is refused, not won by its last value
    ("vo X\nparam n 1\nparam n 2\n", ParseError, "repeated param 'n'", 3, 1),
    ("vo X\nmember A kind=Partner cap c=5 cap c=7\n", ParseError, "repeated cap 'c'", 2, 1),
    ("vo X\ncandidate A kind=Partner cap c=5 cost=1 cap d=1 cap c=5\n", ParseError, "repeated cap 'c'", 2, 1),
    ("vo X\nmember A kind=Partner kind=Partner\n", ParseError, "repeated member attribute 'kind'", 2, 1),
    ("vo X\ntask T type=Atomic requires c=1 requires c=2\n", ParseError, "repeated requirement 'c'", 2, 1),
    ("vo X\ntask T type=Atomic type=Replicable\n", ParseError, "repeated task attribute 'type'", 2, 1),
    ("vo X\ntask T type=Atomic sharing=s sharing=t\n", ParseError, "repeated task attribute 'sharing'", 2, 1),
    ("vo X\ntask T type=Atomic inprocess=true inprocess=false\n", ParseError, "repeated task attribute 'inprocess'", 2, 1),
    ("vo X\ntask\n", ParseError, "task row needs an id", 2, 1),
    ("vo X\ntask T type=Atomic requires\n", ParseError, "requires clause needs cap=amount", 2, 1),
    ("vo X\ntask T type=Atomic input\n", ParseError, "input clause needs an item name", 2, 1),
    ("vo X\ntask T type=Atomic inprocess=yes\n", ParseError, "inprocess must be true or false, got 'yes'", 2, 1),
    ("vo X\ntask T type=Atomic color=red\n", ParseError, "unknown task attribute 'color'", 2, 1),
    ("vo X\ntask T type=Wrong\n", ParseError, "unknown task type 'Wrong'", 2, 1),
    ("vo X\ntask T sharing=s\n", ParseError, "task 'T' is missing type=", 2, 1),
    ("vo X\ntask T type=Atomic\ntask T type=Atomic\n", ParseError, "duplicate task id 'T'", 3, 1),
    ("vo\n", ParseError, "vo row needs exactly one name", 1, 1),
    ("vo X Y\n", ParseError, "vo row needs exactly one name", 1, 1),
    ("task T type=Atomic\n", ParseError, "model file must start with a vo row", 1, 1),
    ("vo X\nvo Y\n", ParseError, "duplicate vo row", 2, 1),
    ("vo X\nparam n\n", ParseError, "param row needs a name and a value", 2, 1),
    ("vo X\nedge A\n", ParseError, "edge row needs from and to", 2, 1),
    ("vo X\ndataflow i from=A\n", ParseError, "dataflow row needs item, from= and to=", 2, 1),
    ("vo X\ndataflow i from=A at=B\n", ParseError, "dataflow row needs from= and to=", 2, 1),
    ("vo X\nresource\n", ParseError, "resource row needs an id", 2, 1),
    ("vo X\nfrobnicate A\n", ParseError, "unknown row kind 'frobnicate'", 2, 1),
    ("", ParseError, "empty model file", 1, 1),
    ("# only a comment\n\n", ParseError, "empty model file", 1, 1),
    ("vo X\ntask A type=Atomic\nedge A B\n", DanglingRefError, "edge references undefined task 'B'", 3, 1),
    ("vo X\ntask A type=Atomic\ndataflow i from=ghost to=A\n", DanglingRefError, "dataflow source 'ghost' is not a task", 3, 1),
    ("vo X\ntask A type=Atomic\ndataflow i from=customer to=ghost\n", DanglingRefError, "dataflow target 'ghost' is not a task", 3, 1),
    # every edge is checked before any dataflow
    ("vo X\ntask A type=Atomic\ndataflow i from=customer to=ghost\nedge A B\n", DanglingRefError, "edge references undefined task 'B'", 4, 1),
]


@pytest.mark.parametrize("text, error, message, line, col", MALFORMED_MODELS)
def test_malformed_model_error(text, error, message, line, col):
    with pytest.raises(ParseError) as err:
        load_model(text)
    assert type(err.value) is error
    assert (err.value.bare_message, err.value.line, err.value.col) == (message, line, col)


def test_repeated_rows_that_lose_nothing_load():
    # only a key whose last value would win is refused
    once = load_model("vo X\nresource r\ntask A type=Atomic input i\ntask B type=Atomic\nedge A B\n")
    twice = load_model(
        "vo X\nresource r\nresource r\ntask A type=Atomic input i input i\ntask B type=Atomic\nedge A B\nedge A B\n"
    )
    assert twice == once and twice._vbe_resources == {"r"}


@pytest.mark.parametrize("token", NOT_INTEGERS)
def test_model_integers_follow_the_one_rule(token):
    for row, what in [
        (f"param n {token}", "param 'n'"),
        (f"member A kind=Partner cap c={token}", "capacity of 'c'"),
        (f"member A kind=Partner cap c=1 cost={token}", "cost"),
        (f"task T type=Atomic requires c={token}", "requirement 'c'"),
    ]:
        with pytest.raises(ParseError) as err:
            load_model(f"vo X\n{row}\n")
        assert (err.value.bare_message, err.value.line) == (f"{what} must be an integer, got {quoted(token)}", 2)


def test_a_message_quotes_an_overlong_token_by_its_start_and_length():
    assert [quoted(t) for t in ("1_000", "a" * 40, 7)] == ["'1_000'", repr("a" * 40), "7"]
    assert quoted("1" * 5000) == repr("1" * 40) + "... (5000 characters)"
    with pytest.raises(ParseError) as err:
        load_model(f"vo X\nparam n {'1' * 641}\n")
    assert err.value.bare_message == f"param 'n' must be an integer, got '{'1' * 40}'... (641 characters)"


def test_quoted_keeps_40_characters_whole_and_shortens_41():
    # the boundary itself: a threshold of 41 would leave a 41-character token whole
    assert quoted("b" * 40) == repr("b" * 40)
    assert quoted("b" * 41) == repr("b" * 40) + "... (41 characters)"


def test_quoted_describes_an_int_of_more_than_640_digits():
    # from Python 3.11 on, the int-string limit leaves such an int no repr
    widest = int(WIDEST)
    assert [quoted(n) for n in (widest, -widest)] == [WIDEST, "-" + WIDEST]
    assert quoted(widest + 1) == quoted(-widest - 1) == "an integer of more than 640 digits"
    assert quoted(10**5000) == "an integer of more than 640 digits"


def test_model_integers_take_a_sign_and_640_digits():
    m = load_model(f"vo X\nparam n -3\nparam w {WIDEST}\nparam z -{WIDEST}\nmember A kind=Partner cap c=-3 cost=-3\n")
    assert m.params == {"n": -3, "w": int(WIDEST), "z": -int(WIDEST)}
    assert (m.members["A"].capabilities, m.members["A"].cost) == ({"c": -3}, {"c": -3})


def test_comments_and_blank_lines():
    m = load_model("# header\nvo X\n\ntask A type=Atomic # trailing\n")
    assert list(m.tasks) == ["A"]


# --- validation --------------------------------------------------------------


def test_visitus_validates_clean():
    assert validate_model(load_model(VISITUS)) == []


def test_cycle_detected():
    m = chain("A", "B", extra_edges=[("B", "A")])
    codes = [d.code for d in validate_model(m)]
    assert "CycleError" in codes
    self_loop = load_model("vo X\ntask A type=Atomic\nedge A A\n")
    assert [d.code for d in validate_model(self_loop)] == ["CycleError"]


def test_cycle_reported_exactly_when_a_task_reaches_itself():
    rng = random.Random(41)
    for _ in range(300):
        count = rng.randint(1, 8)
        nodes = [f"T{i}" for i in range(count)]
        edges = set()
        for i in range(count):
            for j in range(count):
                # forward edges often, back edges and self-loops now and then
                if rng.random() < (0.3 if i < j else 0.06):
                    edges.add((nodes[i], nodes[j]))
        rows = ["vo Rand"]
        rows += [f"task {n} type=Atomic" for n in nodes]
        rows += [f"task C{i} type=Atomic inprocess=false" for i in range(rng.randint(0, 2))]
        rows += [f"edge {a} {b}" for a, b in sorted(edges)]
        model = load_model("\n".join(rows))
        reach = _closure(nodes, edges)
        cyclic = any(n in reach[n] for n in nodes)
        assert [d.code for d in validate_model(model)] == (["CycleError"] if cyclic else [])


def test_atomic_two_member_duties_flagged():
    m = load_model(
        "vo X\nmember P kind=Partner cap c=5\nmember Q kind=Partner cap c=5\n"
        "task T type=Atomic requires c=4\n"
    )
    _put_duty(m, {("P", "T", "c"): 2})
    _put_duty(m, {("Q", "T", "c"): 2})
    _reserve(m, "P", "c", 2)
    _reserve(m, "Q", "c", 2)
    codes = [d.code for d in validate_model(m)]
    assert "AtomicityViolation" in codes


def test_ledger_over_reservation_flagged():
    m = load_model("vo X\nmember P kind=Partner cap c=5\ntask T type=Atomic\n")
    _reserve(m, "P", "c", 9)
    codes = [d.code for d in validate_model(m)]
    assert "CapacityExceeded" in codes


@pytest.mark.parametrize("claim", ["duty", "hold"])
def test_claims_beyond_the_reserved_units_flagged(claim):
    m = load_model("vo X\nmember P kind=Partner cap a=5\ntask T type=Replicable requires a=4\n")
    _reserve(m, "P", "a", 2)
    if claim == "duty":
        _put_duty(m, {("P", "T", "a"): 3})
    else:
        _hold(m, "T", "P", "a", 3)
    assert [(d.code, d.message) for d in validate_model(m)] == [
        ("UnreservedClaim", "duties and holds claim 3 of (P, a), 2 reserved")
    ]
    _reserve(m, "P", "a", 1)
    assert validate_model(m) == []


def test_canonical_dump_lists_the_holds_after_the_duties():
    m = load_model("vo X\nmember P kind=Partner cap a=5\ntask T type=Replicable requires a=4\n")
    adjust_reserved_capacity(m, "P", "a", 5)
    _put_duty(m, {("P", "T", "a"): 2})
    _hold(m, "T", "P", "a", 3)
    assert canonical_dump(m).splitlines()[-3:] == ["duty P T a=2", "hold T P a=3", "reserved P a=5"]


def test_negative_declared_capacity_flagged():
    m = load_model("vo X\nmember P kind=Partner cap a=-1\n")
    assert [(d.code, d.message) for d in validate_model(m)] == [
        ("NegativeCapacity", "P: declared capacity a=-1 is negative")
    ]


def test_flow_into_catalogue_task_flagged():
    m = load_model("vo X\ntask A type=Atomic inprocess=false\ndataflow i from=customer to=A\n")
    assert [(d.code, d.subject) for d in validate_model(m)] == [("FlowOutsideProcess", "A")]


def test_edge_to_catalogue_task_flagged():
    m = load_model("vo X\ntask A type=Atomic\ntask B type=Atomic inprocess=false\nedge A B\n")
    codes = [d.code for d in validate_model(m)]
    assert "EdgeOutsideProcess" in codes


def test_duty_referencing_candidate_flagged():
    m = load_model(
        "vo X\ncandidate P kind=Partner cap c=5\ntask T type=Atomic requires c=1\n"
    )
    _put_duty(m, {("P", "T", "c"): 1})
    codes = [d.code for d in validate_model(m)]
    assert "DanglingDuty" in codes


# --- the duty table's indexes ---------------------------------------------------

DUTY_MEMBERS = ["P", "Q", "R"]
DUTY_TASKS = ["T", "U"]
duty_keys = st.tuples(st.sampled_from(DUTY_MEMBERS), st.sampled_from(DUTY_TASKS), st.sampled_from(["a", "b"]))
duty_steps = st.one_of(
    # a batch that sets or drops (None) each key, absent ones too
    st.tuples(
        st.just("put"),
        st.dictionaries(duty_keys, st.none() | st.integers(min_value=0, max_value=9), max_size=4),
    ),
    st.tuples(st.just("clone")),
)


def _scan(duties: dict, keep) -> list[Duty]:
    return [Duty(*key, amount) for key, amount in sorted(duties.items()) if keep(key)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=7), duty_steps), max_size=30))
def test_duty_indexes_match_a_full_scan_in_every_version(steps):
    versions = [(VoModel(name="X"), {})]  # each version with a plain dict mirror
    for pick, step in steps:
        # mostly the newest version; sometimes one it was copied from
        model, mirror = versions[-1 if pick > 3 else pick % len(versions)]
        if step[0] == "clone":
            versions.append((model.clone(), dict(mirror)))
        else:
            _put_duty(model, step[1])
            for key, amount in step[1].items():
                if amount is None:
                    mirror.pop(key, None)
                else:
                    mirror[key] = amount
        for model, mirror in versions:  # a step changes only the version it ran on
            assert model.duties == mirror
            for task in DUTY_TASKS:
                assert model.duties_on(task) == _scan(mirror, lambda key: key[1] == task)
            for member in DUTY_MEMBERS:
                assert model.duties_of(member) == _scan(mirror, lambda key: key[0] == member)
            assert all(model._duties_on.values()) and all(model._duties_of.values())


def test_duty_table_refuses_a_key_that_is_not_a_triple():
    m = VoModel(name="X")
    _put_duty(m, {("P", "T", "a"): 1})
    for key in ["PTa", ("P", "T"), ["P", "T", "a"], ("P", "T", "a")]:  # model.duties is read-only
        with pytest.raises(TypeError):
            m.duties[key] = 2
    with pytest.raises(AttributeError):
        m.duties.pop(("P", "T", "a"))
    with pytest.raises(AttributeError):
        m.duties.update(PTa=2)
    assert m.duties == {("P", "T", "a"): 1} and m.duties_of("P") == [Duty("P", "T", "a", 1)]
    assert m.duties_on("T") == [Duty("P", "T", "a", 1)]


def test_duty_table_copies_and_pickles_with_its_indexes():
    m = VoModel(name="X")
    _put_duty(m, {("P", "T", "a"): 1})
    _put_duty(m, {("Q", "T", "b"): 2})
    for twin in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert twin == m
        _put_duty(twin, {("P", "U", "a"): 3})
        _put_duty(twin, {("Q", "T", "b"): None})
        assert twin.duties_on("U") == [Duty("P", "U", "a", 3)] and m.duties_on("U") == []
        assert twin.duties_of("P") == [Duty("P", "T", "a", 1), Duty("P", "U", "a", 3)]
        assert twin.duties_of("Q") == [] and m.duties_of("Q") == [Duty("Q", "T", "b", 2)]
        assert m.duties == {("P", "T", "a"): 1, ("Q", "T", "b"): 2}


# the model's contents, every private field that equality compares (the
# ranking cache and the journal are not contents): only model.py writes
# them, and its writers journal every write, so no write escapes undo
GUARDED = {f.name for f in dataclasses.fields(VoModel) if f.name.startswith("_") and f.compare}
MUTATORS = {
    "add", "clear", "difference_update", "discard", "intersection_update", "pop", "popitem",
    "remove", "setdefault", "symmetric_difference_update", "update",
}


def _targets(node):
    """What an assignment or ``del`` binds, with tuples unpacked."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    else:
        return
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        else:
            yield target


def _written(node):
    """The ``x`` that ``node`` writes by subscript (``x[k] = v``,
    ``x[k] += v``, ``del x[k]``) or by a mutator call (``x.update(...)``)."""
    for target in _targets(node):
        if isinstance(target, ast.Subscript):
            yield target.value
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
        yield node.func.value


def _guarded(node) -> bool:
    """``x._duties``, ``x._tasks`` and so on, or a conditional expression
    with one in either branch."""
    if isinstance(node, ast.IfExp):
        return _guarded(node.body) or _guarded(node.orelse)
    return isinstance(node, ast.Attribute) and node.attr in GUARDED


def _writes(node, where="<module>", params=frozenset()):
    """Yield (function, kind) for each write under ``node``: "index" for a
    subscript or mutator write of a guarded container, "parameter" for one
    of a parameter of the enclosing function, and the field's name for a
    binding such as ``x._tasks = {}``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where, params = node.name, {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
    for container in _written(node):
        if _guarded(container):
            yield where, "index"
        elif isinstance(container, ast.Name) and container.id in params:
            yield where, "parameter"
    for target in _targets(node):
        if isinstance(target, ast.Attribute) and target.attr in GUARDED:
            yield where, target.attr
    for child in ast.iter_child_nodes(node):
        yield from _writes(child, where, params)


@pytest.mark.parametrize(
    "snippet, found",
    [
        ("m._tasks[k] = v", "index"),
        ("(m._members if c else m._registry)[k] = v", "index"),
        ("(table if c else m._registry)[k] = v", "index"),
        ("a, *m._preds[k] = v", "index"),
        ("del m._duties[k]", "index"),
        ("m._reserved[k] += 1", "index"),
        ("m._flows_to.update(x)", "index"),
        ("(c if c else m._params).pop(k)", "index"),
        ("table[k] = v", "parameter"),
        ("table.setdefault(k, v)", "parameter"),
        ("m._vbe_resources = x", "_vbe_resources"),
        ("local = {}\nlocal[k] = v\nm._tasks.get(k)\n_write(m, m._tasks, k, v)", None),
    ],
)
def test_the_write_scan_finds_each_form(snippet, found):
    tree = ast.parse("def f(m, table, k, v, c, x):\n" + "".join(f"    {line}\n" for line in snippet.splitlines()))
    assert list(_writes(tree)) == ([("f", found)] if found else [])


def test_only_model_writes_the_duty_and_control_graph_indexes():
    # no module writes a guarded container by subscript or mutator or binds
    # a guarded field outright, and in model.py, which hands its containers
    # to its writers as parameters, only _store writes through a parameter:
    # so every write to a model, from the one load_model builds out of its
    # parsed rows on, goes through _write
    package = Path(vopol.model.__file__).parent
    writes = set()
    for path in sorted(package.rglob("*.py")):
        name = str(path.relative_to(package))
        for where, kind in _writes(ast.parse(path.read_text(), filename=str(path))):
            if kind != "parameter" or name == "model.py":
                writes.add((name, where, kind))
    assert writes == {("model.py", "_store", "parameter")}


# --- insert/remove -----------------------------------------------------------


def test_insert_after_takes_over_outgoing_edges():
    m = chain("A", "B", "C")
    _put_task(m, replace(m.tasks["A"], id="X", in_process=False))
    assert insert_task_node(m, "X", "B", "after") is None
    assert m.control_edges == {("A", "B"), ("B", "X"), ("X", "C")}
    assert m.tasks["X"].in_process
    assert validate_model(m) == []


def test_insert_parallel_copies_edges():
    m = load_model(
        "vo X\ntask A type=Atomic\ntask B type=Atomic\ntask X type=Atomic inprocess=false\nedge A B\n"
    )
    insert_task_node(m, "X", "B", "parallel")
    assert m.control_edges == {("A", "B"), ("A", "X")}
    assert not m.successors("X")  # X is an exit too
    assert validate_model(m) == []


def test_insert_already_in_process_rejected():
    m = chain("A", "B")
    with pytest.raises(AlreadyInProcessError):
        insert_task_node(m, "A", "B", "after")


def test_insert_unknown_task_rejected():
    m = chain("A", "B")
    with pytest.raises(UnknownTaskError):
        insert_task_node(m, "Ghost", "B", "after")


def test_remove_single_bridge():
    m = chain("A", "B", "C")
    assert remove_task_node(m, "B") is None
    assert m.control_edges == {("A", "C")}
    assert not m.tasks["B"].in_process
    assert "B" in m.tasks  # stays in the catalogue
    assert validate_model(m) == []


def test_remove_bridges_cross_product():
    m = load_model(
        "vo X\n"
        + "".join(f"task {t} type=Atomic\n" for t in "ABTCD")
        + "edge A T\nedge B T\nedge T C\nedge T D\n"
    )
    remove_task_node(m, "T")
    assert m.control_edges == {("A", "C"), ("A", "D"), ("B", "C"), ("B", "D")}
    assert validate_model(m) == []


def test_remove_on_cyclic_input_bridges_a_task_to_itself():
    # A is both predecessor and successor of T; A -> B -> A survives, yet
    # A is never counted as reaching itself, so the bridge A -> A is added
    m = load_model(
        "vo X\n"
        + "".join(f"task {t} type=Atomic\n" for t in "ATB")
        + "edge A T\nedge T A\nedge A B\nedge B A\n"
    )
    remove_task_node(m, "T")
    assert m.control_edges == {("A", "A"), ("A", "B"), ("B", "A")}


def test_remove_entry_task_promotes_successor():
    m = chain("A", "B")
    remove_task_node(m, "A")
    assert m.control_edges == set()
    assert not m.predecessors("B")
    assert validate_model(m) == []


def test_remove_drops_duties_and_flows():
    m = load_model(
        "vo X\nmember P kind=Partner cap c=5\n"
        "task A type=Atomic\ntask T type=Replicable requires c=2\nedge A T\n"
        "dataflow i from=customer to=T\ndataflow j from=T to=A\n"
    )
    _put_duty(m, {("P", "T", "c"): 2})
    _reserve(m, "P", "c", 2)
    remove_task_node(m, "T")
    assert m.duties == {}
    assert m.reserved.get(("P", "c"), 0) == 0
    assert m.dataflows == set()
    assert validate_model(m) == []


def test_insert_then_remove_restores_edges():
    for relation in ("after", "parallel"):
        m = chain("A", "B", "C")
        _put_task(m, replace(m.tasks["A"], id="X", in_process=False))
        before = m.clone()
        insert_task_node(m, "X", "B", relation)
        remove_task_node(m, "X")
        assert m.control_edges == before.control_edges, relation
        assert m == before, relation  # no empty adjacency entry is left behind


FAN_OUT = "\n".join(
    ["vo F", "task R type=Atomic", "task S type=Atomic", "task X type=Atomic inprocess=false", "edge R S"]
    + [f"task T{i} type=Atomic\nedge S T{i}\ndataflow d{i} from=S to=T{i}" for i in range(50)]
    + ["dataflow d0 from=customer to=T0"]
)


@pytest.mark.parametrize("primitive", [
    lambda m: remove_task_node(m, "S"),
    lambda m: insert_task_node(m, "X", "S", "after"),
    lambda m: set_dataflow_edge(m, "d0", "T0", "remove"),
], ids=["remove", "insert-after", "remove-flow"])
def test_a_primitive_journals_each_slot_at_most_twice_on_a_fan_out(primitive):
    # a primitive writes its edges and flows in one batch per direction, so
    # a slot is written at most once to remove and once to add, however wide
    # the fan-out: one write per edge or flow would make removal quadratic
    m = load_model(FAN_OUT)
    names = {id(getattr(m, f.name)): f.name for f in dataclasses.fields(m)}
    mark = journal_mark(m)
    primitive(m)
    per_slot = Counter((names[id(table)], key) for table, key, _ in m._journal[mark:])
    assert max(per_slot.values()) <= 2, per_slot.most_common(3)
    undo(m, mark)
    assert m == load_model(FAN_OUT)


def test_remove_skips_bridges_already_ordered_by_remaining_paths():
    # diamond: A->B, A->C, B->D, C->D; removing B adds no A->D shortcut
    # because A already reaches D through C
    m = load_model(
        "vo X\n"
        + "".join(f"task {t} type=Atomic\n" for t in "ABCD")
        + "edge A B\nedge A C\nedge B D\nedge C D\n"
    )
    remove_task_node(m, "B")
    assert m.control_edges == {("A", "C"), ("C", "D")}
    assert validate_model(m) == []


def test_adjacency_matches_edges_under_random_rewiring():
    # chains of inserts and removals keep the adjacency equal to a scan of
    # the edge set, never write a clone taken before, and keep the edges
    # read-only
    rng = random.Random(5)
    tasks = "ABCDEFGH"
    for _ in range(40):
        rows = ["vo R"] + [
            f"task {t} type=Atomic inprocess={'true' if i < 4 else 'false'}"
            for i, t in enumerate(tasks)
        ]
        rows += ["edge A B", "edge A C", "edge B D", "edge C D"]
        m = load_model("\n".join(rows))
        for _ in range(12):
            before = canonical_dump(m)
            snapshot = m.clone()
            spare = sorted(t for t, d in m.tasks.items() if not d.in_process)
            wired = m.in_process_tasks()
            if not wired:
                break
            if spare and rng.random() < 0.5:
                insert_task_node(m, rng.choice(spare), rng.choice(wired), rng.choice(["after", "parallel"]))
            else:
                remove_task_node(m, rng.choice(wired))
            assert canonical_dump(snapshot) == before
            edges = m.control_edges
            for t in tasks:
                assert m.predecessors(t) == {p for p, s in edges if s == t}
                assert m.successors(t) == {s for p, s in edges if p == t}
            with pytest.raises(AttributeError):
                m.control_edges.add(("A", "H"))
            with pytest.raises(AttributeError):
                m.control_edges = frozenset()
            assert validate_model(m) == []


# --- dataflow edges -----------------------------------------------------------


def test_dataflow_add_is_idempotent():
    m = chain("A", "B")
    assert set_dataflow_edge(m, "itinerary", "B", "add") is None
    assert set_dataflow_edge(m, "itinerary", "B", "add") is None
    assert len([f for f in m.dataflows if f.item == "itinerary"]) == 1
    assert m.tasks["B"].inputs == {"itinerary"}


def test_dataflow_add_then_remove_restores():
    m = chain("A", "B")
    flows = set(m.dataflows)
    set_dataflow_edge(m, "itinerary", "B", "add")
    assert set_dataflow_edge(m, "itinerary", "B", "remove") is None
    assert m.dataflows == flows
    assert m.tasks["B"].inputs == set()


def test_dataflow_remove_absent_warns_and_keeps_model():
    m = chain("A", "B")
    before = canonical_dump(m)
    warning = set_dataflow_edge(m, "ghost", "B", "remove")
    assert warning is not None and warning.severity == "warning"
    assert canonical_dump(m) == before


def test_dataflow_add_reuses_known_source():
    m = load_model(
        "vo X\ntask A type=Atomic\ntask B type=Atomic\ntask C type=Atomic\n"
        "edge A B\nedge A C\ndataflow i from=A to=B\n"
    )
    set_dataflow_edge(m, "i", "C", "add")
    assert DataFlow("i", "A", "C") in m.dataflows


def test_dataflows_is_a_read_only_view():
    m = load_model("vo X\ntask A type=Atomic\ndataflow i from=customer to=A\n")
    with pytest.raises(AttributeError):
        m.dataflows.add(DataFlow("j", CUSTOMER, "A"))
    with pytest.raises(AttributeError):
        m.dataflows = frozenset()
    with pytest.raises(TypeError):
        VoModel(name="X", dataflows={DataFlow("i", CUSTOMER, "A")})
    assert m.dataflows == {DataFlow("i", CUSTOMER, "A")}


@pytest.mark.parametrize(
    "name",
    [
        "members", "registry", "tasks", "params", "vbe_resources", "reserved", "duties", "holds", "dataflows",
        "control_edges",
    ],
)
def test_every_model_container_is_read_only(name):
    m = load_model(VISITUS + "resource Pool\ndataflow i from=customer to=BookFlight\n")
    adjust_reserved_capacity(m, "Hotel", "beds", 4)
    _put_duty(m, {("Hotel", "HotelProv", "beds"): 3})
    _hold(m, "BookFlight", "Hotel", "beds", 1)
    before = canonical_dump(m)
    view = getattr(m, name)
    key = next(iter(view))
    attempts = [
        lambda: operator.setitem(view, key, key),
        lambda: view.add(key),
        lambda: view.pop(key),
        lambda: view.update({key: key}),
        lambda: VoModel(name="X", **{name: view}),
    ]
    for attempt in attempts:
        with pytest.raises((TypeError, AttributeError)):
            attempt()
        assert canonical_dump(m) == before
    for twin in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):  # a built view is not copied
        assert twin == m and getattr(twin, name) == view and canonical_dump(twin) == before


def test_removing_a_flow_source_leaves_the_item_among_the_target_inputs():
    # the flow goes with its source; C still declares i, which nothing
    # sends any more, and the model stays valid (README "Model files")
    m = load_model(
        "vo X\ntask A type=Atomic\ntask B type=Atomic\ntask C type=Atomic\n"
        "edge A B\nedge B C\ndataflow i from=A to=C\n"
    )
    remove_task_node(m, "A")
    assert m.dataflows == set()
    assert m.tasks["C"].inputs == {"i"}
    assert validate_model(m) == []


# --- the data flow indexes -------------------------------------------------------

FLOW_MODEL = """\
vo F
task A type=Atomic
task B type=Atomic
task C type=Atomic
task D type=Atomic
task X type=Atomic inprocess=false
edge A B
edge A C
edge B D
edge C D
"""
# dataflow rows over few items, sources and targets, so that items and
# sources repeat; every third row is given twice
flow_rows = st.lists(
    st.tuples(st.sampled_from(["i", "j", "k"]), st.sampled_from([CUSTOMER, "A", "B", "C", "X"]), st.sampled_from("ABCD")),
    max_size=12,
).map(lambda rows: rows + rows[::3])
FLOW_TASKS = ["A", "B", "C", "D", "X", "ghost"]
flow_steps = st.one_of(
    st.tuples(st.sampled_from(["add", "remove"]), st.sampled_from(["i", "j", "k"]), st.sampled_from(FLOW_TASKS)),
    st.tuples(st.just("delete"), st.sampled_from(FLOW_TASKS)),
    st.tuples(st.just("insert"), st.sampled_from(FLOW_TASKS), st.sampled_from(FLOW_TASKS), st.sampled_from(RELATIONS)),
    st.tuples(st.sampled_from(["clone", "mark", "undo"])),
)


def _mirror_flow_write(flows: set[DataFlow], step: tuple):
    """What a successful ``step`` does to the plain set ``flows``."""
    if step[0] == "add":
        _, item, task = step
        if not any(f.item == item and f.target == task for f in flows):
            sources = {f.source for f in flows if f.item == item}
            flows.add(DataFlow(item, min(sources) if sources else CUSTOMER, task))
    elif step[0] == "remove":
        _, item, task = step
        flows -= {f for f in flows if f.item == item and f.target == task}
    elif step[0] == "delete":
        flows -= {f for f in flows if step[1] in (f.source, f.target)}


def _buckets(pairs) -> dict:
    out: dict = {}
    for key, value in pairs:
        out.setdefault(key, set()).add(value)
    return {key: frozenset(bucket) for key, bucket in out.items()}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(flow_rows, st.lists(st.tuples(st.integers(min_value=0, max_value=7), flow_steps), max_size=30))
def test_flow_indexes_match_a_full_scan_in_every_version(rows, steps):
    start = load_model(FLOW_MODEL + "".join(f"dataflow {i} from={s} to={t}\n" for i, s, t in rows))
    for task in FLOW_TASKS[:5]:  # the loader mirrors the flows into each target's inputs
        assert start.tasks[task].inputs == {i for i, _, t in rows if t == task}
    # each version with a plain set mirror and its (mark, mirror) stack
    versions = [(start, {DataFlow(*row) for row in rows}, [])]
    _check_flow_indexes(versions)
    for pick, step in steps:
        # mostly the newest version; sometimes one it was copied from
        at = -1 if pick > 3 else pick % len(versions)
        model, mirror, marks = versions[at]
        if step[0] == "clone":
            versions.append((model.clone(), set(mirror), []))
        elif step[0] == "mark":
            marks.append((journal_mark(model), set(mirror)))
        elif step[0] == "undo":
            if marks:
                mark, mirror = marks.pop()
                undo(model, mark)
                versions[at] = (model, mirror, marks)
        else:
            try:
                if step[0] == "delete":
                    remove_task_node(model, step[1])
                elif step[0] == "insert":
                    insert_task_node(model, *step[1:])
                else:
                    set_dataflow_edge(model, step[1], step[2], step[0])
            except ModelError:
                pass
            else:
                _mirror_flow_write(mirror, step)
        _check_flow_indexes(versions)  # a step changes only the version it ran on


def _check_flow_indexes(versions):
    for model, mirror, _ in versions:
        flows = model.dataflows
        assert flows == mirror
        assert model._flows_to == _buckets((f.target, f) for f in flows)
        assert model._flows_from == _buckets((f.source, f) for f in flows if f.source != CUSTOMER)
        assert model._flow_count == dict(Counter((f.item, f.source) for f in flows))
        assert model._item_sources == _buckets((f.item, f.source) for f in flows)
        for task in FLOW_TASKS:
            assert model.flows_to(task) == {f for f in flows if f.target == task}
            assert model.flows_from(task) == {f for f in flows if f.source == task}
        assert all(model._flows_to.values()) and all(model._flows_from.values())
        assert all(model._flow_count.values()) and all(model._item_sources.values())
        edges = model.control_edges
        assert model._preds == _buckets((s, p) for p, s in edges)
        assert model._succs == _buckets(edges)
        assert all(model._preds.values()) and all(model._succs.values())
        assert validate_model(model) == []


def test_clone_copies_each_dict_field_and_shares_the_rest():
    m = load_model(VISITUS + "resource Pool\ndataflow i from=customer to=BookFlight\n")
    _put_duty(m, {("Hotel", "HotelProv", "beds"): 3})
    adjust_reserved_capacity(m, "Hotel", "beds", 3)
    journal_mark(m)
    twin = m.clone()
    assert twin == m and twin._journal is None
    for f in dataclasses.fields(VoModel):
        mine, theirs = getattr(m, f.name), getattr(twin, f.name)
        if isinstance(mine, dict):
            assert theirs == mine and theirs is not mine, f.name
        elif f.name != "_journal":
            assert theirs is mine, f.name


# --- capacity ledger ------------------------------------------------------------


def test_reserve_and_free():
    m = load_model("vo X\nmember P kind=Partner cap beds=10\ntask T type=Atomic\n")
    snapshot = m.clone()
    assert adjust_reserved_capacity(m, "P", "beds", 8) is None
    assert free_capacity(m, "P", "beds") == 2
    assert free_capacity(snapshot, "P", "beds") == 10  # a clone keeps its own ledger


def test_reserve_beyond_declared_rejected():
    m = load_model("vo X\nmember P kind=Partner cap beds=10\ntask T type=Atomic\n")
    before = canonical_dump(m)
    with pytest.raises(CapacityExceededError):
        adjust_reserved_capacity(m, "P", "beds", 11)
    assert canonical_dump(m) == before


def test_release_below_zero_rejected():
    m = load_model("vo X\nmember P kind=Partner cap beds=10\ntask T type=Atomic\n")
    with pytest.raises(UnderflowError):
        adjust_reserved_capacity(m, "P", "beds", -1)


def test_reserve_zero_is_identity():
    m = load_model("vo X\nmember P kind=Partner cap beds=10\ntask T type=Atomic\n")
    before = canonical_dump(m)
    adjust_reserved_capacity(m, "P", "beds", 0)
    assert canonical_dump(m) == before


def test_free_capacity_distinguishes_absent_from_exhausted():
    m = load_model("vo X\nmember P kind=Partner cap beds=10\ntask T type=Atomic\n")
    full = m.clone()
    adjust_reserved_capacity(full, "P", "beds", 10)
    assert free_capacity(full, "P", "beds") == 0
    assert free_capacity(full, "P", "vans") is None
    assert free_capacity(m, "P", "beds") == 10 - 3 + 3


@pytest.mark.parametrize("delta", [1.5, True, "2", None])
def test_adjust_takes_an_int_delta(delta):
    m = load_model(VISITUS)
    before = m.clone()
    with pytest.raises(InvalidArgumentError):
        adjust_reserved_capacity(m, "Hotel", "beds", delta)
    assert m == before and canonical_dump(m) == canonical_dump(before)


def test_free_capacity_unknown_member():
    m = load_model("vo X\ntask T type=Atomic\n")
    with pytest.raises(UnknownMemberError):
        free_capacity(m, "ghost", "beds")


def test_adjust_requires_declared_capability():
    m = load_model("vo X\nmember P kind=Partner\ntask T type=Atomic\n")
    with pytest.raises(CapabilityMissingError):
        adjust_reserved_capacity(m, "P", "beds", 1)


# --- invariants under random mutation sequences ---------------------------------


def test_mutations_keep_model_valid():
    rng = random.Random(42)
    m = load_model(
        "vo R\nmember P kind=Partner cap c=9\nmember Q kind=Associate cap c=4\n"
        "task A type=Atomic\ntask B type=Replicable\ntask C type=Atomic\n"
        "task X type=Atomic inprocess=false\nedge A B\nedge B C\n"
    )
    for _ in range(300):
        op = rng.randrange(4)
        try:
            if op == 0:
                spare = sorted(t for t, d in m.tasks.items() if not d.in_process)
                wired = m.in_process_tasks()
                if spare and wired:
                    insert_task_node(m, rng.choice(spare), rng.choice(wired), rng.choice(["after", "parallel"]))
            elif op == 1:
                wired = m.in_process_tasks()
                if wired:
                    remove_task_node(m, rng.choice(wired))
            elif op == 2:
                set_dataflow_edge(
                    m,
                    rng.choice("ijk"),
                    rng.choice(m.in_process_tasks() or ["A"]),
                    rng.choice(["add", "remove"]),
                )
            else:
                adjust_reserved_capacity(m, rng.choice("PQ"), "c", rng.randint(-3, 3))
        except Exception:
            continue
        assert validate_model(m) == []


def test_canonical_dump_is_stable():
    m = load_model(VISITUS)
    assert canonical_dump(m) == canonical_dump(m.clone())
    assert canonical_dump(m) == canonical_dump(load_model(VISITUS))


def test_versions_share_frozen_records():
    m = load_model(VISITUS)
    version = m.clone()
    assert version.tasks["HotelProv"] is m.tasks["HotelProv"]
    assert version.members["Hotel"] is m.members["Hotel"]
    assert version.tasks is not m.tasks and version.members is not m.members
    with pytest.raises(FrozenInstanceError):
        m.tasks["HotelProv"].in_process = False
    with pytest.raises(FrozenInstanceError):
        m.members["Hotel"].kind = MemberKind.ASSOCIATE
