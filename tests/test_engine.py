from __future__ import annotations

import ast
from pathlib import Path

import pytest

import vopol.engine
from vopol.domain import VOCABULARY, DomainAction, DomainTrigger, EvalContext, apply_action
from vopol.engine import Engine, ScenarioEvent, init_instance, ready_set, run_scenario
from vopol.errors import InvalidArgumentError, InvalidModelError, ModelError, quoted
from vopol.model import adjust_reserved_capacity, canonical_dump, commit, journal_mark, load_model, undo, validate_model
from vopol.policy.ast import ActionCall, ActionOp, GroupNode, Ident, Policy, PolicyDocument, PolicyRule, Pred, RuleLeaf
from vopol.policy.parser import parse_policy_document
from vopol.state import Status
from vopol.trace import format_trace

from conftest import MOREBEDS, NOT_INTEGERS, VISITUS
from reference import naive

NO_POLICIES_TEXT = "policy Inert appliesTo Nowhere do add_member(nobody)\n"
NO_POLICIES = parse_policy_document(NO_POLICIES_TEXT)


def ev(kind, *args):
    return ScenarioEvent(kind, args)


def kinds(records):
    return [r.kind for r in records]


def run(model_text, policy_text, events):
    model = load_model(model_text)
    policies = parse_policy_document(policy_text)
    return run_scenario(model, policies, events)


# --- init_instance / ready_set ------------------------------------------------


def test_init_visitus():
    instance = init_instance(load_model(VISITUS))
    assert instance.status == {"BookFlight": Status.READY, "HotelProv": Status.PENDING}


def test_init_customer_data_available():
    m = load_model(
        "vo X\ntask A type=Atomic input itinerary\ntask B type=Atomic\nedge A B\n"
        "dataflow itinerary from=customer to=A\n"
    )
    instance = init_instance(m)
    assert instance.available_data == {"itinerary"}
    assert instance.status["A"] is Status.READY


def test_init_missing_input_keeps_task_pending():
    m = load_model("vo X\ntask A type=Atomic input itinerary\n")
    instance = init_instance(m)
    assert instance.status["A"] is Status.PENDING


def test_init_rejects_invalid_model():
    m = load_model("vo X\ntask A type=Atomic\ntask B type=Atomic\nedge A B\nedge B A\n")
    assert validate_model(m) != []
    with pytest.raises(InvalidModelError):
        init_instance(m)


def test_ready_set_diamond():
    m = load_model(
        "vo X\n"
        + "".join(f"task {t} type=Atomic\n" for t in "ABCD")
        + "edge A B\nedge A C\nedge B D\nedge C D\n"
    )
    instance = init_instance(m)
    instance.status["A"] = Status.COMPLETED
    assert ready_set(m, instance) == {"B", "C"}


def test_failed_predecessor_blocks_readiness():
    m = load_model("vo X\ntask A type=Atomic\ntask B type=Atomic\nedge A B\n")
    instance = init_instance(m)
    instance.status["A"] = Status.FAILED
    assert ready_set(m, instance) == set()


def test_ready_set_empty_model():
    m = load_model("vo Empty\ntask T type=Atomic inprocess=false\n")
    instance = init_instance(m)
    assert ready_set(m, instance) == set()


# --- event handling --------------------------------------------------------------


def test_activate_pending_task_is_illegal():
    final, instance, records = run(VISITUS, "policy P appliesTo X do add_member(y)\n", [ev("activate", "HotelProv")])
    errors = [r for r in records if r.kind == "ERROR"]
    assert len(errors) == 1 and errors[0].get("error") == "IllegalTransition"
    assert instance.status["HotelProv"] is Status.PENDING


def test_complete_requires_active():
    final, instance, records = run(VISITUS, "policy P appliesTo X do add_member(y)\n", [ev("complete", "BookFlight")])
    assert [r.get("error") for r in records if r.kind == "ERROR"] == ["IllegalTransition"]
    assert instance.status["BookFlight"] is Status.READY


def test_complete_produces_data_and_readiness():
    model_text = (
        "vo X\ntask A type=Atomic\ntask B type=Atomic input booking\nedge A B\n"
        "dataflow booking from=A to=B\n"
    )
    final, instance, records = run(
        model_text, "policy P appliesTo X do add_member(y)\n",
        [ev("activate", "A"), ev("complete", "A")],
    )
    assert instance.available_data == {"booking"}
    assert instance.status == {"A": Status.COMPLETED, "B": Status.READY}
    triggers = [r.get("trigger") for r in records if r.kind == "TRIGGER"]
    assert triggers == ["task_entry", "task_exit"]


def test_every_activation_emits_one_entry_trigger():
    final, instance, records = run(
        VISITUS,
        "policy P appliesTo X do add_member(y)\n",
        [ev("activate", "BookFlight"), ev("complete", "BookFlight"), ev("activate", "HotelProv")],
    )
    entries = [r for r in records if r.kind == "TRIGGER" and r.get("trigger") == "task_entry"]
    assert [r.get("task") for r in entries] == ["BookFlight", "HotelProv"]


def test_consume_and_release_adjust_ledger():
    final, instance, records = run(
        VISITUS,
        "policy P appliesTo X do add_member(y)\n",
        [ev("consume", "Hotel", "beds", 8), ev("release", "Hotel", "beds", 3)],
    )
    assert final.reserved.get(("Hotel", "beds"), 0) == 5
    assert kinds(records) == ["STATE", "EVENT", "EVENT"]


def test_release_of_units_a_duty_claims_is_underflow():
    model_text = "vo X\nmember Q kind=Partner cap a=6\ntask U type=Replicable requires a=6\n"
    engine = Engine(load_model(model_text), parse_policy_document(
        "policy P appliesTo U when task_entry() do assign_duty(Q, U, a, 6)\n"
    ))
    engine.handle_event(ev("activate", "U"))
    assert engine.model.duties == {("Q", "U", "a"): 6}
    records = engine.handle_event(ev("release", "Q", "a", 1))
    assert [(r.kind, r.get("event") or r.get("error")) for r in records] == [
        ("EVENT", "release"),
        ("ERROR", "Underflow"),
    ]
    assert records[1].get("detail") == (
        "releasing 1 of (Q, a) would free units that duties or holds claim: 0 of 6 reserved are unclaimed"
    )
    assert engine.model.reserved.get(("Q", "a"), 0) == 6


def test_release_frees_only_units_no_duty_or_hold_claims():
    model_text = (
        "vo X\nmember Q kind=Partner cap a=8\n"
        "task U type=Replicable requires a=6\ntask V type=Replicable\n"
    )
    policies = (
        "policy P appliesTo U when task_entry() do assign_duty(Q, U, a, 6)\n"
        "policy Drop appliesTo V when task_entry() do unassign_duty(Q, U, a)\n"
    )
    engine = Engine(load_model(model_text), parse_policy_document(policies))
    engine.handle_event(ev("activate", "U"))
    engine.handle_event(ev("activate", "V"))  # U runs on: its 6 units are held
    assert engine.model.duties == {}
    assert engine.model.holds == {("U", "Q", "a"): 6}

    def errors(event):
        return [r.get("error") for r in engine.handle_event(event) if r.kind == "ERROR"]

    assert errors(ev("release", "Q", "a", 1)) == ["Underflow"]
    assert errors(ev("consume", "Q", "a", 2)) == []
    assert errors(ev("release", "Q", "a", 3)) == ["Underflow"]
    assert errors(ev("release", "Q", "a", 2)) == []
    assert engine.model.reserved.get(("Q", "a"), 0) == 6
    engine.handle_event(ev("complete", "U"))
    assert engine.model.reserved.get(("Q", "a"), 0) == 0
    assert validate_model(engine.model) == []


def test_consume_beyond_declared_is_error_record():
    final, instance, records = run(
        VISITUS, "policy P appliesTo X do add_member(y)\n", [ev("consume", "Hotel", "beds", 11)]
    )
    assert final.reserved.get(("Hotel", "beds"), 0) == 0
    assert [r.get("error") for r in records if r.kind == "ERROR"] == ["CapacityExceeded"]


def test_the_engine_names_no_action():
    # what an action changes is read from the model's write journal, so the
    # engine has no branch on an action's name and a new action needs no
    # engine change
    tree = ast.parse(Path(vopol.engine.__file__).read_text(encoding="utf-8"))
    named = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert sorted(named & set(VOCABULARY.actions)) == []


# the methods that change a dict or a set in place
MUTATORS = {
    "add", "clear", "difference_update", "discard", "intersection_update", "pop", "popitem", "remove",
    "setdefault", "symmetric_difference_update", "update", "__setitem__", "__delitem__", "__ior__",
}


def test_run_state_is_written_only_through_the_journal():
    # the STATE record and the readiness re-checks are derived from the
    # model's journal, so the engine writes a status or an arrived item
    # only through model._write, never in place
    tree = ast.parse(Path(vopol.engine.__file__).read_text(encoding="utf-8"))

    def run_state(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in ("status", "available_data")

    in_place, journaled = [], []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        for target in targets:
            if any(run_state(t) for t in ast.walk(target)):  # a subscript's value is walked too
                in_place.append(ast.unparse(node))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATORS and run_state(node.func.value):
                in_place.append(ast.unparse(node))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_write":
            journaled.append(ast.unparse(node.args[1]))
    assert in_place == []
    assert sorted(journaled) == ["self.instance.status", "vars(self.instance)"]


def test_a_direct_dispatch_commits_the_journal_it_opened_and_reads_it_from_its_start():
    # each dispatch's first write, an admission or a removal, is entry 0 of
    # a new journal, after an event or a dispatch left entries in the last
    policies = parse_policy_document(
        "policy In appliesTo HotelProv when task_entry() do add_member(newHotel)\n"
        "policy Out appliesTo HotelProv when task_exit() do remove_member(newHotel)\n"
    )
    engine = Engine(load_model(VISITUS), policies)
    engine.handle_event(ev("activate", "BookFlight"))
    assert engine.model._journal is None
    for trigger, members in (("task_entry", "Hotel,newHotel"), ("task_exit", "Hotel")):
        records = engine.dispatch_trigger(DomainTrigger(trigger, "HotelProv"))
        assert engine.model._journal is None
        assert [r.kind for r in records if r.get("policy") in ("In", "Out")] == ["POLICY-FIRED", "ACTION-APPLIED"]
        assert records[-1].kind == "STATE" and records[-1].get("members") == members
    # a journal the caller opened stays open; once the caller commits it,
    # the next event is read from its own first write
    journal_mark(engine.model)
    engine.dispatch_trigger(DomainTrigger("task_entry", "HotelProv"))
    assert engine.model._journal is not None
    commit(engine.model)
    assert engine.handle_event(ev("complete", "BookFlight"))[-1].get("tasks") == "BookFlight:Completed,HotelProv:Ready"


def test_a_state_record_after_a_callers_undo_shows_the_model():
    # the caller rolls back a direct dispatch that admitted newHotel; the
    # next STATE record is derived again, as the naive engine derives each
    policies = parse_policy_document("policy Admit appliesTo HotelProv when task_entry() do add_member(newHotel)\n")
    engine, oracle = Engine(load_model(VISITUS), policies), naive.NaiveEngine(load_model(VISITUS), policies)
    for cut in (commit, None):  # the caller commits the journal, or leaves it open
        mark = journal_mark(engine.model)
        engine.dispatch_trigger(DomainTrigger("task_entry", "HotelProv"))
        assert "newHotel" in engine.model.members
        undo(engine.model, mark)
        if cut:
            cut(engine.model)
        oracle.dispatch_trigger(DomainTrigger("task_entry", "HotelProv"))  # so the records keep one numbering
        oracle.model, oracle.instance = load_model(VISITUS), init_instance(load_model(VISITUS))
    records = engine.handle_event(ev("activate", "BookFlight"))
    assert records[-1].get("members") == "Hotel" and sorted(engine.model.members) == ["Hotel"]
    assert records == oracle.handle_event(ev("activate", "BookFlight"))


@pytest.mark.parametrize(
    "journaled, first, members",
    [
        (True, None, "Hotel,newHotel"),
        (True, ev("consume", "Hotel", "beds", "1"), "Hotel,newHotel"),
        (True, ev("start"), "Hotel,newHotel"),
        (False, None, "Hotel"),
    ],
    ids=["marked", "marked-then-consume", "marked-then-start", "unmarked"],
)
def test_a_state_record_shows_a_library_write_between_events_only_through_the_journal(journaled, first, members):
    # a write to engine.model between events reaches the STATE fields only
    # through the journal: made under a mark the caller leaves open, the
    # next event reads it, whether or not it traces a STATE record, and
    # commits the journal; made with no journal open, it is never read,
    # and STATE goes on showing the members before it
    engine = Engine(load_model(VISITUS), PolicyDocument(()))
    if journaled:
        journal_mark(engine.model)
    apply_action(EvalContext(engine.model), DomainAction("add_member", ("newHotel",)))
    if first is not None:
        engine.handle_event(first)
        assert engine.model._journal is None
    records = engine.handle_event(ev("activate", "BookFlight"))
    assert sorted(engine.model.members) == ["Hotel", "newHotel"]
    assert records[-1].kind == "STATE" and records[-1].get("members") == members
    assert engine.model._journal is None


def test_unknown_scenario_event_is_error_record():
    final, instance, records = run(VISITUS, "policy P appliesTo X do add_member(y)\n", [ev("warp", "x")])
    assert [r.get("error") for r in records if r.kind == "ERROR"] == ["IllegalTransition"]


@pytest.mark.parametrize(
    "event",
    [
        ev("activate"),
        ev("consume", "Hotel", "beds"),
        ev("load-policy"),
        ev("consume", "Hotel", "beds", "x"),
        ev("consume", "Hotel", "beds", -2),
        ev("release", "Hotel", "beds", -3),
        ev("consume", "Hotel", "beds", -9),
        ev("consume", "Hotel", "beds", 2.7),
        ev("consume", "Hotel", "beds", True),
    ],
    ids=[
        "activate-no-task",
        "consume-two-args",
        "load-policy-no-path",
        "consume-non-integer",
        "consume-negative",
        "release-negative",
        "consume-negative-beyond-reserved",
        "consume-float",
        "consume-bool",
    ],
)
def test_malformed_event_is_invalid_argument_record(event):
    engine = Engine(load_model(VISITUS), NO_POLICIES)
    before = format_trace(engine.records)
    records = engine.handle_event(event)
    assert [(r.kind, r.get("event") or r.get("error")) for r in records] == [
        ("EVENT", event.kind),
        ("ERROR", "InvalidArgument"),
    ]
    assert engine.model.reserved == {}
    assert format_trace(engine.records).startswith(before)


@pytest.mark.parametrize(
    "event",
    [
        ev("activate", None),
        ev("complete", 3),
        ev("fail", ("BookFlight",)),
        ev("consume", None, "3", 1),
        ev("release", "Hotel", 3, 1),
        ev("load-policy", Path("extra.pol")),
        ev("retract-policy", ["Inert"]),
    ],
    ids=["activate", "complete", "fail", "consume-member", "release-capability", "load-policy-path", "retract-policy"],
)
def test_a_name_that_is_not_a_str_is_an_invalid_argument_record(tmp_path, event):
    # str() of it would name another entity, so it is refused; a path given
    # as a pathlib.Path is refused too, as a scenario line gives a str
    (tmp_path / "extra.pol").write_text("policy Late do add_member(newHotel)\n")
    engine = Engine(load_model(VISITUS), NO_POLICIES, base_dir=tmp_path)
    before = format_trace(engine.records)
    records = engine.handle_event(event)
    assert [(r.kind, r.get("event") or r.get("error")) for r in records] == [
        ("EVENT", event.kind),
        ("ERROR", "InvalidArgument"),
    ]
    odd = next(arg for arg in event.args if not isinstance(arg, str))
    assert records[1].get("detail") == f"{event.kind} takes names as str, got {quoted(odd)}"
    assert engine.model.reserved == {}
    assert engine.policies == NO_POLICIES.policies
    assert format_trace(engine.records).startswith(before)


@pytest.mark.parametrize(
    "event, error, detail",
    [
        (ScenarioEvent(["x"]), "IllegalTransition", f"unknown event kind {quoted(['x'])}"),
        (ScenarioEvent(5), "IllegalTransition", "unknown event kind 5"),
        (ScenarioEvent("start", None), "InvalidArgument", "start takes a tuple of arguments, got None"),
        (ScenarioEvent("start", "s" * 50), "InvalidArgument", f"start takes a tuple of arguments, got {quoted('s' * 50)}"),
    ],
    ids=["list-kind", "int-kind", "none-args", "text-args"],
)
def test_an_event_of_the_wrong_type_is_an_error_record(event, error, detail):
    # a library event is not type-checked when built: the engine refuses it
    engine = Engine(load_model(VISITUS), NO_POLICIES)
    before = format_trace(engine.records)
    records = engine.handle_event(event)
    shown = event.kind if isinstance(event.kind, str) else quoted(event.kind)
    assert [(r.kind, r.get("event") or r.get("error")) for r in records] == [("EVENT", shown), ("ERROR", error)]
    assert records[1].get("detail") == detail
    assert format_trace(engine.records).startswith(before)


@pytest.mark.parametrize("amount", NOT_INTEGERS + ["-3"])
def test_a_text_amount_follows_the_one_integer_rule(amount):
    engine = Engine(load_model(VISITUS), NO_POLICIES)
    records = engine.handle_event(ev("consume", "Hotel", "beds", amount))
    rule = "must not be negative" if amount == "-3" else "must be an integer"
    assert [(r.kind, r.get("event") or r.get("error")) for r in records] == [
        ("EVENT", "consume"),
        ("ERROR", "InvalidArgument"),
    ]
    assert records[1].get("detail") == f"amount {rule}, got {quoted(amount)}"
    assert engine.model.reserved == {}


def _event_refusal(kind):
    def refusal(amount):
        engine = Engine(load_model(VISITUS), NO_POLICIES)
        error = engine.handle_event(ev(kind, "Hotel", "beds", amount))[-1]
        assert engine.model.reserved == {}
        return (error.get("error"), error.get("detail")) if error.kind == "ERROR" else None

    return refusal


def _duty_refusal(amount):
    try:
        DomainAction("assign_duty", ("Hotel", "HotelProv", "beds", amount))
    except ModelError as err:
        return err.code, err.message


def _delta_refusal(amount):
    try:
        adjust_reserved_capacity(load_model(VISITUS), "Hotel", "beds", amount)
    except ModelError as err:
        return err.code, err.message


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "refusal",
    [_event_refusal("consume"), _event_refusal("release"), _duty_refusal, _delta_refusal],
    ids=["consume", "release", "assign_duty", "adjust_reserved_capacity"],
)
def test_an_int_of_more_than_640_digits_is_refused_unspelled(refusal, sign):
    # an int given in code follows the digit rule of text integers, and the
    # refusal does not spell it (from Python 3.11 on it cannot)
    code, message = refusal(sign * 10**640)
    assert code == InvalidArgumentError.code and "at most 640 digits" in message and len(message) < 80
    assert code == refusal(sign * 10**5000)[0]
    widest = refusal(sign * (10**640 - 1))  # 640 digits: refused, if at all, for its value
    assert widest is None or "digits" not in widest[1]


def test_a_text_amount_is_reserved_as_its_integer():
    engine = Engine(load_model(VISITUS), NO_POLICIES)
    engine.handle_event(ev("consume", "Hotel", "beds", "3"))
    assert engine.model.reserved == {("Hotel", "beds"): 3}


# --- dispatch ----------------------------------------------------------------------


def test_trivial_dispatch_emits_trigger_and_state_only():
    m = load_model("vo X\nmember P kind=Partner\ntask T type=Atomic\n")
    engine = Engine(m, NO_POLICIES)
    records = engine.dispatch_trigger(DomainTrigger("task_exit", "T"))
    assert kinds(records) == ["TRIGGER", "STATE"]


def test_two_policies_requesting_same_add_member():
    model_text = "vo X\ncandidate C kind=Partner cap c=1\ntask T type=Atomic\n"
    policy_text = (
        "policy P1 appliesTo T when task_entry() do add_member(C)\n"
        "policy P2 appliesTo T when task_entry() do add_member(C)\n"
    )
    final, instance, records = run(model_text, policy_text, [ev("activate", "T")])
    outcomes = [(r.kind, r.get("policy")) for r in records if r.kind.startswith("ACTION")]
    assert outcomes == [("ACTION-APPLIED", "P1"), ("ACTION-FAILED", "P2")]
    failed = [r for r in records if r.kind == "ACTION-FAILED"]
    assert failed[0].get("error") == "AlreadyMember"
    assert "C" in final.members


def test_orelse_fallback_applies_second_action():
    model_text = "vo X\ncandidate C kind=Partner cap c=1\ntask T type=Atomic\n"
    policy_text = "policy P appliesTo T when task_entry() do add_member(ghost) orelse add_member(C)\n"
    final, instance, records = run(model_text, policy_text, [ev("activate", "T")])
    outcomes = [(r.kind, r.get("action"), r.get("args")) for r in records if r.kind.startswith("ACTION")]
    assert outcomes == [
        ("ACTION-FAILED", "add_member", "ghost"),
        ("ACTION-APPLIED", "add_member", "C"),
    ]
    assert "C" in final.members


def test_conflicting_actions_suppress_the_later_one():
    model_text = "vo X\ncandidate C kind=Partner cap c=1\ntask T type=Atomic\n"
    policy_text = (
        "policy P1 appliesTo T when task_entry() do add_member(C)\n"
        "policy P2 appliesTo T when task_entry() do remove_member(C)\n"
    )
    final, instance, records = run(model_text, policy_text, [ev("activate", "T")])
    conflicts = [r for r in records if r.kind == "CONFLICT"]
    assert len(conflicts) == 1
    assert conflicts[0].get("class") == "member-add-remove"
    applied = [r for r in records if r.kind == "ACTION-APPLIED"]
    assert [(r.get("policy"), r.get("action")) for r in applied] == [("P1", "add_member")]
    assert "C" in final.members


def test_suppressed_request_is_invisible_to_later_conditions():
    # B clashes with A, so it is never applied: C sees A's duty, finds
    # HotelProv runnable and admits nobody
    policy_text = (
        "policy A appliesTo HotelProv when task_entry() do assign_duty(Hotel, HotelProv, beds, 3)\n"
        "policy B appliesTo HotelProv when task_entry() do unassign_duty(Hotel, HotelProv, beds)\n"
        "policy C appliesTo HotelProv when task_entry()"
        " if not can_run(HotelProv) do add_member(newHotel)\n"
    )
    events = [ev("activate", "BookFlight"), ev("complete", "BookFlight"), ev("activate", "HotelProv")]
    final, instance, records = run(VISITUS, policy_text, events)
    conflicts = [r for r in records if r.kind == "CONFLICT"]
    assert [(r.get("class"), r.get("first_policy"), r.get("second_policy")) for r in conflicts] == [
        ("duty-assign-unassign", "A", "B")
    ]
    assert not any(r.get("args") == "newHotel" for r in records if r.kind.startswith("ACTION"))
    assert [r.get("policy") for r in records if r.kind == "POLICY-FIRED"] == ["A", "B"]
    assert records[-1].get("members") == "Hotel"
    assert final.duties == {("Hotel", "HotelProv", "beds"): 3}


def test_suppressed_request_counts_as_a_failed_attempt():
    # andthen stops after a suppressed request, orelse tries its right side
    model_text = (
        "vo X\ncandidate C kind=Partner cap c=1\ncandidate D kind=Partner cap c=1\n"
        "candidate E kind=Partner cap c=1\ntask T type=Atomic\n"
    )
    policy_text = (
        "policy P1 appliesTo T when task_entry() do add_member(C)\n"
        "policy P2 appliesTo T when task_entry() do remove_member(C) andthen add_member(D)\n"
        "policy P3 appliesTo T when task_entry() do remove_member(C) orelse add_member(E)\n"
    )
    final, instance, records = run(model_text, policy_text, [ev("activate", "T")])
    conflicts = [(r.get("first_policy"), r.get("second_policy")) for r in records if r.kind == "CONFLICT"]
    assert conflicts == [("P1", "P2"), ("P1", "P3")]
    outcomes = [(r.kind, r.get("policy"), r.get("args")) for r in records if r.kind.startswith("ACTION")]
    assert outcomes == [("ACTION-APPLIED", "P1", "C"), ("ACTION-APPLIED", "P3", "E")]
    assert sorted(final.members) == ["C", "E"]


def test_conflict_records_are_ordered_by_first_then_second_request():
    model_text = (
        "vo X\ncandidate C kind=Partner cap c=1\ncandidate D kind=Partner cap c=1\n"
        "task T type=Atomic\n"
    )
    policy_text = (
        "policy P0 appliesTo T when task_entry() do add_member(C)\n"
        "policy P1 appliesTo T when task_entry() do add_member(D)\n"
        "policy P2 appliesTo T when task_entry() do remove_member(D)\n"
        "policy P3 appliesTo T when task_entry() do remove_member(C)\n"
    )
    final, instance, records = run(model_text, policy_text, [ev("activate", "T")])
    conflicts = [(r.get("first_policy"), r.get("second_policy")) for r in records if r.kind == "CONFLICT"]
    assert conflicts == [("P0", "P3"), ("P1", "P2")]
    assert sorted(final.members) == ["C", "D"]


def test_policy_that_raises_is_rolled_back():
    # P's duty is applied and its remove_member suppressed before its second
    # rule raises; Q must see neither, and the conflict is not traced
    model_text = (
        "vo X\nmember M kind=Partner cap c=5\ncandidate C kind=Partner cap c=5\n"
        "task T type=Replicable requires c=2\n"
    )
    policy_text = (
        "policy A appliesTo T when task_entry() do add_member(C)\n"
        "policy P (appliesTo T when task_entry() do assign_duty(M, T, c, 2) and remove_member(C))"
        " seq (appliesTo T when task_entry() if has_capacity(ghost, c, 1) do add_member(C))\n"
        "policy Q appliesTo T when task_entry() if not can_run(T) do assign_duty(C, T, c, 2)\n"
    )
    final, instance, records = run(model_text, policy_text, [ev("activate", "T")])
    assert [r.get("error") for r in records if r.kind == "ERROR"] == ["UnresolvedIdentifier"]
    assert [r.get("policy") for r in records if r.kind == "POLICY-FIRED"] == ["A", "Q"]
    assert not any(r.kind == "CONFLICT" for r in records)
    outcomes = [(r.kind, r.get("policy"), r.get("args")) for r in records if r.kind.startswith("ACTION")]
    assert outcomes == [("ACTION-APPLIED", "A", "C"), ("ACTION-APPLIED", "Q", "C,T,c,2")]
    assert final.duties == {("C", "T", "c"): 2}
    assert validate_model(final) == []


# each request's writes are filed by key; only one that writes a key an
# earlier request of its dispatch wrote with another value is checked
CLASH_MODEL = (
    "vo X\nmember M kind=Partner cap c=5\ncandidate C kind=Partner cap c=5\n"
    "candidate D kind=Partner cap c=5\ntask T type=Replicable\ntask U type=Replicable\nedge T U\n"
)


@pytest.fixture
def checked(monkeypatch):
    """The index of each request the engine checks with ``detect_conflicts``."""
    calls = []
    exact = vopol.engine.detect_conflicts

    def counting(requests, start=0):
        calls.append(start)
        return exact(requests, start)

    monkeypatch.setattr(vopol.engine, "detect_conflicts", counting)
    return calls


def conflict_pairs(records):
    return [(r.get("first_policy"), r.get("second_policy")) for r in records if r.kind == "CONFLICT"]


def test_only_a_request_that_writes_a_contested_key_is_checked(checked):
    # C is added on T's entry and removed on U's, another dispatch: no
    # check; then S and W each clash with R, and E writes D's key alone
    policy_text = (
        "policy A appliesTo T when task_entry() do add_member(C)\n"
        "policy B appliesTo T when task_entry() do add_member(D)\n"
        "policy R appliesTo U when task_entry() do remove_member(C)\n"
        "policy S appliesTo U when task_entry() do add_member(C)\n"
        "policy E appliesTo U when task_entry() do add_member(D)\n"
        "policy W appliesTo U when task_entry() do add_member(C)\n"
    )
    engine = Engine(load_model(CLASH_MODEL), parse_policy_document(policy_text))
    seen = []
    for event in (ev("activate", "T"), ev("complete", "T"), ev("activate", "U")):
        records = engine.handle_event(event)
        seen.append((checked[:], conflict_pairs(records)))
        checked.clear()
    assert seen == [([], []), ([], []), ([1, 3], [("R", "S"), ("R", "W")])]


def test_a_repeated_request_is_not_checked(checked):
    policy_text = (
        "policy P1 appliesTo T when task_entry() do add_member(C)\n"
        "policy P2 appliesTo T when task_entry() do add_member(C)\n"
        "policy P3 appliesTo T when task_entry() do change_type(U, Composable)\n"
        "policy P4 appliesTo T when task_entry() do change_type(U, Composable)\n"
    )
    final, _, records = run(CLASH_MODEL, policy_text, [ev("activate", "T")])
    assert checked == []
    assert conflict_pairs(records) == []
    assert [r.get("policy") for r in records if r.kind == "ACTION-APPLIED"] == ["P1", "P3", "P4"]


def test_a_suppressed_request_stays_filed(checked):
    # P2 is suppressed by P1, and P3 then clashes with P2
    policy_text = (
        "policy P1 appliesTo T when task_entry() do add_member(C)\n"
        "policy P2 appliesTo T when task_entry() do remove_member(C)\n"
        "policy P3 appliesTo T when task_entry() do add_member(C)\n"
    )
    final, _, records = run(CLASH_MODEL, policy_text, [ev("activate", "T")])
    assert checked == [1, 2]
    assert conflict_pairs(records) == [("P1", "P2"), ("P2", "P3")]
    assert [r.get("policy") for r in records if r.kind.startswith("ACTION")] == ["P1"]


def test_a_request_that_clashes_with_two_earlier_ones_gets_both_records(checked):
    policy_text = (
        "policy P1 appliesTo T when task_entry() do unassign_duty(M, U, c)\n"
        "policy P2 appliesTo T when task_entry() do change_type(U, Composable)\n"
        "policy P3 appliesTo T when task_entry() do delete_task(U)\n"
    )
    final, _, records = run(CLASH_MODEL, policy_text, [ev("activate", "T")])
    assert checked == [2]
    assert conflict_pairs(records) == [("P1", "P3"), ("P2", "P3")]
    assert {r.get("class") for r in records if r.kind == "CONFLICT"} == {"task-delete-target"}
    assert "U" in final.tasks


def test_a_clash_on_a_request_s_second_key_is_found(checked):
    # assign_duty writes its duty's key first and its task's second
    policy_text = (
        "policy P1 appliesTo T when task_entry() do delete_task(U)\n"
        "policy P2 appliesTo T when task_entry() do assign_duty(M, U, c, 1)\n"
    )
    final, _, records = run(CLASH_MODEL, policy_text, [ev("activate", "T")])
    assert checked == [1]
    assert conflict_pairs(records) == [("P1", "P2")]
    assert final.duties == {}


def test_a_rolled_back_request_stays_filed_and_hides_no_conflict(checked):
    # P's change_type is undone when its second rule raises, but its write
    # stays filed: Q's other type costs one exact check, which finds no
    # conflict, so Q's change applies, as it does in the naive engine
    policy_text = (
        "policy P (appliesTo T when task_entry() do change_type(U, Composable))"
        " seq (appliesTo T when task_entry() if has_capacity(ghost, c, 1) do add_member(C))\n"
        "policy Q appliesTo T when task_entry() do change_type(U, Atomic)\n"
    )
    events = [ev("activate", "T")]
    final, _, records = run(CLASH_MODEL, policy_text, events)
    assert checked == [0]
    assert conflict_pairs(records) == []
    assert [(r.kind, r.get("policy")) for r in records if r.kind.startswith("ACTION")] == [("ACTION-APPLIED", "Q")]
    assert final.tasks["U"].ttype.value == "Atomic"
    oracle = naive.NaiveEngine(load_model(CLASH_MODEL), parse_policy_document(policy_text))
    for event in events:
        oracle.handle_event(event)
    assert format_trace(oracle.records) == format_trace(records)


def test_state_members_follow_admissions_and_their_rollback():
    # P admits C and then raises, so the admission is undone with it; Q's
    # admission on U stands, and the STATE records list members as they are
    model_text = (
        "vo X\nmember M kind=Partner cap c=5\ncandidate C kind=Partner cap c=5\n"
        "task T type=Atomic\ntask U type=Atomic\nedge T U\n"
    )
    policy_text = (
        "policy P (appliesTo T when task_entry() do add_member(C))"
        " seq (appliesTo T when task_entry() if has_capacity(ghost, c, 1) do add_member(C))\n"
        "policy Q appliesTo U when task_entry() do add_member(C)\n"
    )
    events = [ev("activate", "T"), ev("complete", "T"), ev("activate", "U")]
    final, _, records = run(model_text, policy_text, events)
    assert [r.get("members") for r in records if r.kind == "STATE"] == ["M", "M", "M", "C,M"]
    assert sorted(final.members) == ["C", "M"]


def test_rolled_back_policy_leaves_no_hold():
    # P's unassign of a running task's duty would hold its capacity until
    # T finishes; rolled back, the duty stays and so does its reservation
    model_text = (
        "vo X\nmember M kind=Partner cap c=5\ntask T type=Replicable requires c=2\n"
        "task U type=Replicable\n"
    )
    policy_text = (
        "policy O appliesTo T when task_entry() do assign_duty(M, T, c, 2)\n"
        "policy P (appliesTo U when task_entry() do unassign_duty(M, T, c))"
        " seq (appliesTo U when task_entry() if has_capacity(ghost, c, 1) do add_member(M))\n"
    )
    events = [ev("activate", "T"), ev("activate", "U"), ev("complete", "T")]
    final, instance, records = run(model_text, policy_text, events)
    assert [r.get("error") for r in records if r.kind == "ERROR"] == ["UnresolvedIdentifier"]
    assert final.holds == {}
    assert final.duties == {("M", "T", "c"): 2}
    assert final.reserved.get(("M", "c"), 0) == 2


def test_rolled_back_graph_change_restores_readiness():
    # the add_task of a policy that raises is undone, adjacency included:
    # U keeps waiting for T, and completing T readies it
    model_text = (
        "vo X\ntask T type=Replicable\ntask U type=Replicable\n"
        "task X type=Replicable inprocess=false\nedge T U\n"
    )
    policy_text = (
        "policy P (appliesTo T when task_entry() do add_task(X, T, after))"
        " seq (appliesTo T when task_entry() if has_capacity(ghost, c, 1) do delete_task(U))\n"
    )
    engine = Engine(load_model(model_text), parse_policy_document(policy_text))
    records = engine.handle_event(ev("activate", "T"))
    assert not any(r.kind.startswith("ACTION") for r in records)
    assert engine.model.control_edges == {("T", "U")}
    assert engine.instance.status == {"T": Status.ACTIVE, "U": Status.PENDING}
    engine.handle_event(ev("complete", "T"))
    assert engine.instance.status == {"T": Status.COMPLETED, "U": Status.READY}


def test_predicate_error_skips_policy_and_continues():
    model_text = "vo X\ncandidate C kind=Partner cap c=1\ntask T type=Atomic\n"
    policy_text = (
        "policy Broken appliesTo T when task_entry() if has_capacity(ghost, c, 1) do add_member(C)\n"
        "policy Fine appliesTo T when task_entry() do add_member(C)\n"
    )
    final, instance, records = run(model_text, policy_text, [ev("activate", "T")])
    assert [r.get("error") for r in records if r.kind == "ERROR"] == ["UnresolvedIdentifier"]
    assert [r.get("policy") for r in records if r.kind == "ACTION-APPLIED"] == ["Fine"]
    assert "C" in final.members


ADMIT = ActionCall("add_member", (Ident("newHotel"),))
ADMITS = RuleLeaf(PolicyRule(None, (), None, ADMIT))


@pytest.mark.parametrize(
    "body, detail",
    [
        (GroupNode("seq", ADMITS, GroupNode("xor", ADMITS, ADMITS)), "unknown group operator: 'xor'"),
        (RuleLeaf(PolicyRule(None, (), None, ActionOp("andthen", ADMIT, ActionOp("xor", ADMIT, ADMIT)))),
         "unknown action operator: 'xor'"),
        (GroupNode("seq", ADMITS, RuleLeaf(PolicyRule(None, (), "no()", ADMIT))), "not a condition node: str"),
        (GroupNode("seq", ADMITS, RuleLeaf(PolicyRule(None, (), Pred("can_run", ("BookFlight",)), ADMIT))),
         "can_run task must be a name, got 'BookFlight'"),
        (PolicyRule(None, (), None, ADMIT), "refused: a PolicyRule in place of a rule group"),
        (RuleLeaf(PolicyRule(None, ("task_entry",), None, ADMIT)),
         "refused: triggers ('task_entry',) are not a tuple of TriggerSpec"),
        (GroupNode("seq", ADMITS, RuleLeaf(PolicyRule(None, "task_entry", None, ADMIT))),
         "refused: triggers 'task_entry' are not a tuple of TriggerSpec"),
    ],
    ids=["group-operator", "action-operator", "condition", "bare-argument", "rule-as-body", "trigger-as-str",
         "triggers-as-str"],
)
def test_a_malformed_hand_built_policy_is_an_error_record_or_refused(body, detail):
    # a walk that reaches a malformed node or a bare argument raises
    # InvalidArgument after the policy admitted newHotel: the policy is rolled
    # back, the journal is closed and the run goes on; a body that is no rule
    # group, or a rule whose triggers are no tuple of TriggerSpec, is refused
    policies = PolicyDocument((Policy("Bad", body),))
    if detail.startswith("refused: "):
        with pytest.raises(InvalidArgumentError) as refusal:
            Engine(load_model(VISITUS), policies)
        assert refusal.value.message == f"policy 'Bad': {detail.removeprefix('refused: ')}"
        return
    engine = Engine(load_model(VISITUS), policies)
    records = engine.handle_event(ev("activate", "BookFlight"))
    assert kinds(records) == ["EVENT", "TRIGGER", "ERROR", "STATE"]
    assert (records[2].get("error"), records[2].get("detail")) == ("InvalidArgument", f"policy 'Bad': {detail}")
    assert "newHotel" not in engine.model.members and engine.model._journal is None
    assert kinds(engine.handle_event(ev("complete", "BookFlight"))) == ["EVENT", "TRIGGER", "ERROR", "STATE"]
    assert engine.instance.status == {"BookFlight": Status.COMPLETED, "HotelProv": Status.READY}


def test_policy_fired_records_precede_action_records():
    final, instance, records = run(
        VISITUS,
        MOREBEDS,
        [
            ev("activate", "BookFlight"),
            ev("complete", "BookFlight"),
            ev("consume", "Hotel", "beds", 8),
            ev("activate", "HotelProv"),
        ],
    )
    sequence = [r.kind for r in records if r.kind in ("POLICY-FIRED", "ACTION-APPLIED")]
    assert sequence == ["POLICY-FIRED", "ACTION-APPLIED", "ACTION-APPLIED", "ACTION-APPLIED"]


# --- holds: discharge of commitments -------------------------------------------


HOLD_MODEL = (
    "vo X\nmember P kind=Partner cap a=5\ntask T type=Replicable requires a=2\n"
)


def test_removed_member_reservation_released_on_completion():
    m = load_model(HOLD_MODEL)
    engine = Engine(m, parse_policy_document(NO_POLICIES_TEXT))
    engine.handle_event(ev("activate", "T"))  # bootstrap assigns a=2 from P
    assert engine.model.reserved.get(("P", "a"), 0) == 2
    from vopol.domain import DomainAction, EvalContext, apply_action

    ctx = EvalContext(engine.model, engine.instance, "T")
    apply_action(ctx, DomainAction("remove_member", ("P",)))
    assert engine.model.duties == {}
    assert engine.model.reserved.get(("P", "a"), 0) == 2  # discharge obligation remains
    engine.handle_event(ev("complete", "T"))
    assert engine.model.reserved.get(("P", "a"), 0) == 0
    assert engine.model.holds == {}


def test_member_removed_at_entry_is_repaired_by_bootstrap():
    # the default task policy runs after user policies and repairs the
    # shortage the removal just created, re-admitting the candidate
    policy_text = "policy Drop appliesTo T when task_entry() do remove_member(P)\n"
    final, instance, records = run(HOLD_MODEL, policy_text, [ev("activate", "T")])
    assert instance.status["T"] is Status.ACTIVE
    assert final.duties == {("P", "T", "a"): 2}
    bootstrap_records = [r for r in records if r.get("policy") == "@bootstrap"]
    assert [r.get("action") for r in bootstrap_records] == ["add_member", "assign_duty"]


def test_unassigned_duty_reservation_released_on_failure():
    policy_text = "policy P appliesTo X do add_member(y)\n"
    m = load_model(HOLD_MODEL)
    engine = Engine(m, parse_policy_document(policy_text))
    engine.handle_event(ev("activate", "T"))  # bootstrap assigns a=2
    assert engine.model.reserved.get(("P", "a"), 0) == 2
    from vopol.domain import DomainAction, EvalContext, apply_action

    ctx = EvalContext(engine.model, engine.instance, "T")
    apply_action(ctx, DomainAction("unassign_duty", ("P", "T", "a")))
    assert engine.model.reserved.get(("P", "a"), 0) == 2  # still committed
    engine.handle_event(ev("fail", "T"))
    assert engine.model.reserved.get(("P", "a"), 0) == 0
    assert engine.model.holds == {}


@pytest.mark.parametrize("finish", ["complete", "fail"])
def test_releasing_holds_leaves_earlier_model_versions_alone(finish):
    # U's entry policy takes T's duty away while T runs, so T's units stay
    # held until T finishes; finishing T releases them in the working model
    # and leaves a snapshot cloned from it before alone
    model_text = HOLD_MODEL + "task U type=Replicable requires a=1\n"
    policy_text = "policy Drop appliesTo U when task_entry() do unassign_duty(P, T, a)\n"
    engine = Engine(load_model(model_text), parse_policy_document(policy_text))
    engine.handle_event(ev("activate", "T"))
    engine.handle_event(ev("activate", "U"))
    assert engine.model.holds == {("T", "P", "a"): 2}
    working, kept = engine.model, engine.model.clone()
    before = canonical_dump(kept)
    assert kept.reserved.get(("P", "a"), 0) == 3
    engine.handle_event(ev(finish, "T"))
    assert engine.model is working
    assert engine.model.reserved.get(("P", "a"), 0) == 1
    assert canonical_dump(kept) == before


def test_failed_resolution_leaves_no_cyclic_garbage():
    # the collected error keeps no traceback, whose frames would hold the
    # list it sits in
    import gc

    policy_text = "policy Bad appliesTo T when task_entry() do change_type(T)\n"
    engine = Engine(load_model("vo X\ntask T type=Atomic\n"), parse_policy_document(policy_text))
    gc.collect()
    gc.disable()
    try:
        records = engine.handle_event(ev("activate", "T"))
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert [r.get("error") for r in records if r.kind == "ACTION-FAILED"] == ["InvalidArgument"]


# --- bootstrap failure path ---------------------------------------------------------


def test_bootstrap_failure_dispatches_task_failure_once():
    model_text = "vo X\nmember M kind=Partner cap beds=2\ntask T type=Replicable requires beds=5\n"
    final, instance, records = run(model_text, NO_POLICIES_TEXT, [ev("activate", "T")])
    assert instance.status["T"] is Status.FAILED
    failures = [r for r in records if r.kind == "TRIGGER" and r.get("trigger") == "task_failure"]
    assert len(failures) == 1
    assert final.duties == {}


def test_failed_task_cannot_be_reactivated():
    model_text = "vo X\nmember M kind=Partner cap beds=2\ntask T type=Replicable requires beds=5\n"
    final, instance, records = run(
        model_text, NO_POLICIES_TEXT, [ev("activate", "T"), ev("activate", "T")]
    )
    assert [r.get("error") for r in records if r.kind == "ERROR"] == ["IllegalTransition"]
    assert instance.status["T"] is Status.FAILED


# --- dynamic policy set ------------------------------------------------------------


def test_load_policy_takes_effect_for_later_events(tmp_path):
    extra = tmp_path / "extra.pol"
    extra.write_text("policy Late appliesTo T when task_entry() do add_member(C)\n")
    model_text = "vo X\ncandidate C kind=Partner cap c=1\ntask T type=Atomic\ntask U type=Atomic\n"
    m = load_model(model_text)
    engine = Engine(m, parse_policy_document(NO_POLICIES_TEXT), base_dir=tmp_path)
    engine.handle_event(ev("activate", "T"))
    assert "C" not in engine.model.members
    engine.handle_event(ev("load-policy", "extra.pol"))
    engine.handle_event(ev("activate", "U"))  # Late applies to T only
    assert "C" not in engine.model.members
    engine2 = Engine(m, parse_policy_document(NO_POLICIES_TEXT), base_dir=tmp_path)
    engine2.handle_event(ev("load-policy", "extra.pol"))
    engine2.handle_event(ev("activate", "T"))
    assert "C" in engine2.model.members


def test_load_policy_replaces_same_name_in_place(tmp_path):
    v2 = tmp_path / "v2.pol"
    v2.write_text("policy Inert appliesTo T when task_entry() do add_member(C)\n")
    model_text = "vo X\ncandidate C kind=Partner cap c=1\ntask T type=Atomic\n"
    engine = Engine(load_model(model_text), parse_policy_document(NO_POLICIES_TEXT), base_dir=tmp_path)
    engine.handle_event(ev("load-policy", "v2.pol"))
    assert [p.name for p in engine.policies] == ["Inert"]
    engine.handle_event(ev("activate", "T"))
    assert "C" in engine.model.members


def test_load_policy_missing_file_is_error_record(tmp_path):
    engine = Engine(
        load_model("vo X\ntask T type=Atomic\n"),
        parse_policy_document(NO_POLICIES_TEXT),
        base_dir=tmp_path,
    )
    records = engine.handle_event(ev("load-policy", "nope.pol"))
    assert [r.get("error") for r in records if r.kind == "ERROR"] == ["IOError"]


def test_load_policy_accepts_a_document_with_warnings(tmp_path):
    # the never-run right operand of ``or`` is a warning, not an error
    (tmp_path / "or.pol").write_text("policy Either do add_member(C) or add_member(D)\n")
    engine = Engine(load_model("vo X\ntask T type=Atomic\n"), NO_POLICIES, base_dir=tmp_path)
    records = engine.handle_event(ev("load-policy", "or.pol"))
    assert kinds(records) == ["EVENT"]
    assert [p.name for p in engine.policies] == ["Inert", "Either"]


def test_load_policy_of_undecodable_bytes_is_error_record(tmp_path):
    (tmp_path / "bad.pol").write_bytes(b"\xff\xfe")
    engine = Engine(
        load_model("vo X\ntask T type=Atomic\n"),
        parse_policy_document(NO_POLICIES_TEXT),
        base_dir=tmp_path,
    )
    records = engine.handle_event(ev("load-policy", "bad.pol"))
    errors = [r for r in records if r.kind == "ERROR"]
    assert [r.get("error") for r in errors] == ["IOError"]
    assert "bad.pol: not valid UTF-8" in errors[0].get("detail")


def test_load_policy_of_a_path_with_a_nul_byte_is_error_record(tmp_path):
    engine = Engine(load_model("vo X\ntask T type=Atomic\n"), NO_POLICIES, base_dir=tmp_path)
    records = engine.handle_event(ev("load-policy", "a\x00b"))
    assert [(r.kind, r.get("event") or r.get("error")) for r in records] == [
        ("EVENT", "load-policy"),
        ("ERROR", "IOError"),
    ]
    path = str(tmp_path / "a\x00b")
    assert records[1].get("detail") == f"{path!r}: a path cannot hold a NUL byte"
    assert [p.name for p in engine.policies] == ["Inert"]


def test_load_policy_naming_an_unknown_action_is_error_record(tmp_path):
    (tmp_path / "odd.pol").write_text("policy Odd appliesTo T when task_entry() do frobnicate(T)\n")
    engine = Engine(load_model("vo X\ntask T type=Atomic\n"), NO_POLICIES, base_dir=tmp_path)
    before = engine.policies
    records = engine.handle_event(ev("load-policy", "odd.pol"))
    assert [(r.kind, r.get("event") or r.get("error")) for r in records] == [
        ("EVENT", "load-policy"),
        ("ERROR", "InvalidPolicy"),
    ]
    assert records[1].get("detail").startswith("1 diagnostic(s), first: ")
    assert "frobnicate" in records[1].get("detail")
    assert engine.policies is before
    assert kinds(engine.handle_event(ev("activate", "T"))) == ["EVENT", "TRIGGER", "STATE"]


def test_load_policy_with_an_overlong_number_is_a_parse_error_record(tmp_path):
    (tmp_path / "long.pol").write_text("policy Long do a(" + "1" * 5000 + ")\n")
    engine = Engine(load_model("vo X\ntask T type=Atomic\n"), NO_POLICIES, base_dir=tmp_path)
    records = engine.handle_event(ev("load-policy", "long.pol"))
    assert kinds(records) == ["EVENT", "ERROR"]
    assert records[1].get("error") == "ParseError"
    assert records[1].get("detail").startswith("1:18: number literal has more than")
    assert [p.name for p in engine.policies] == ["Inert"]


def test_policies_are_a_read_only_tuple(tmp_path):
    (tmp_path / "more.pol").write_text("policy More do add_member(C)\n")
    engine = Engine(load_model("vo X\ntask T type=Atomic\n"), NO_POLICIES, base_dir=tmp_path)
    with pytest.raises(AttributeError):
        engine.policies = ()
    engine.handle_event(ev("load-policy", "more.pol"))
    engine.handle_event(ev("retract-policy", "Inert"))
    assert engine.policies == parse_policy_document("policy More do add_member(C)\n").policies


def test_retract_policy_disables_it():
    model_text = "vo X\ncandidate C kind=Partner cap c=1\ntask T type=Atomic\n"
    policy_text = "policy Adder appliesTo T when task_entry() do add_member(C)\n"
    m = load_model(model_text)
    engine = Engine(m, parse_policy_document(policy_text))
    engine.handle_event(ev("retract-policy", "Adder"))
    engine.handle_event(ev("activate", "T"))
    assert "C" not in engine.model.members
    records = engine.handle_event(ev("retract-policy", "Adder"))
    assert [r.get("error") for r in records if r.kind == "ERROR"] == ["UnknownPolicy"]


# --- model changes reflect into readiness ---------------------------------------


def test_inserted_task_appears_pending_then_ready():
    model_text = (
        "vo X\ntask A type=Atomic\ntask B type=Atomic\n"
        "task X type=Atomic inprocess=false\nedge A B\n"
    )
    policy_text = "policy Ins appliesTo A when task_exit() do add_task(X, A, after)\n"
    m = load_model(model_text)
    engine = Engine(m, parse_policy_document(policy_text))
    engine.handle_event(ev("activate", "A"))
    engine.handle_event(ev("complete", "A"))
    assert engine.instance.status["X"] is Status.READY  # A completed, X next
    assert engine.instance.status["B"] is Status.PENDING  # now waits for X


def test_post_dispatch_model_always_validates():
    final, instance, records = run(
        VISITUS,
        MOREBEDS,
        [
            ev("activate", "BookFlight"),
            ev("complete", "BookFlight"),
            ev("consume", "Hotel", "beds", 8),
            ev("activate", "HotelProv"),
            ev("complete", "HotelProv"),
        ],
    )
    assert validate_model(final) == []


# --- determinism ----------------------------------------------------------------


def test_identical_inputs_identical_traces():
    events = [
        ev("start"),
        ev("activate", "BookFlight"),
        ev("complete", "BookFlight"),
        ev("consume", "Hotel", "beds", 8),
        ev("activate", "HotelProv"),
    ]
    first = format_trace(run(VISITUS, MOREBEDS, events)[2])
    second = format_trace(run(VISITUS, MOREBEDS, events)[2])
    assert first == second


def test_seq_numbers_strictly_increase():
    events = [ev("activate", "BookFlight"), ev("complete", "BookFlight")]
    records = run(VISITUS, MOREBEDS, events)[2]
    assert [r.seq for r in records] == list(range(1, len(records) + 1))


def test_random_event_soup_preserves_engine_invariants():
    # finished tasks never change status again, the model validates after
    # every event, and entry/exit triggers pair up with the transitions
    import random

    from vopol.model import validate_model as vm

    model_text = (
        "vo Soup\nmember P kind=Partner cap a=6\ncandidate C kind=Partner cap a=6\n"
        "task T1 type=Replicable requires a=2\ntask T2 type=Atomic\ntask T3 type=Replicable requires a=9\n"
        "edge T1 T2\nedge T2 T3\n"
    )
    policy_text = (
        "policy Spread appliesTo T2 when task_entry() do assign_duty(P, T1, a, 1) orelse add_member(C)\n"
    )
    rng = random.Random(99)
    for round_no in range(30):
        model = load_model(model_text)
        before = canonical_dump(model)
        engine = Engine(model, parse_policy_document(policy_text))
        settled: dict[str, Status] = {}
        activations = completions = 0
        for _ in range(rng.randint(4, 14)):
            kind = rng.choice(["activate", "complete", "fail", "consume", "release", "start"])
            task = rng.choice(["T1", "T2", "T3"])
            if kind in ("consume", "release"):
                engine.handle_event(ev(kind, "P", "a", rng.randint(1, 4)))
            elif kind == "start":
                engine.handle_event(ev("start"))
            else:
                engine.handle_event(ev(kind, task))
            assert vm(engine.model) == []
            for done_task, status in settled.items():
                assert engine.instance.status.get(done_task) is status
            for t, status in engine.instance.status.items():
                if status in (Status.COMPLETED, Status.FAILED):
                    settled[t] = status
        entries = sum(
            1 for r in engine.records if r.kind == "TRIGGER" and r.get("trigger") == "task_entry"
        )
        exits = sum(
            1 for r in engine.records if r.kind == "TRIGGER" and r.get("trigger") == "task_exit"
        )
        became_active = sum(
            1 for r in engine.records if r.kind == "EVENT" and r.get("event") == "activate"
            and not any(
                e.kind == "ERROR" and e.seq == r.seq + 1 for e in engine.records
            )
        )
        completed = sum(
            1 for r in engine.records if r.kind == "EVENT" and r.get("event") == "complete"
            and not any(
                e.kind == "ERROR" and e.seq == r.seq + 1 for e in engine.records
            )
        )
        assert entries == became_active
        assert exits == completed
        assert canonical_dump(model) == before


def test_incremental_readiness_matches_full_recompute(naive_differential):
    # the naive engine refreshes readiness by a full ready_set sweep over
    # the in-process tasks, and the naive differential compares the
    # instances after every event; the actions that reshape the graph or
    # its inputs are applied often enough in its runs
    _, applied = naive_differential
    for action in ("add_task", "delete_task", "provide_input", "remove_input"):
        assert applied[action] >= 20, applied
