from __future__ import annotations

from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vopol.policy.ast import ActionCall, Ident, Number, Text
from vopol.conflict import detect_conflicts
from vopol.domain import (
    VOCABULARY,
    DomainAction,
    EvalContext,
    _request,
    apply_action,
    can_run,
    eval_predicate,
    resolve_action,
    run_bootstrap,
)
from vopol.errors import (
    ActiveTaskError,
    AlreadyMemberError,
    AtomicityViolationError,
    CapabilityMissingError,
    CapacityExceededError,
    InvalidArgumentError,
    NotAMemberError,
    TaskFailure,
    UnderflowError,
    UnknownActionError,
    UnknownDutyError,
    UnknownMemberError,
    UnknownPredicateError,
    UnresolvedIdentifierError,
    VopolError,
)
from vopol.model import (
    CUSTOMER,
    DataFlow,
    TaskType,
    VoModel,
    _move_member,
    adjust_reserved_capacity,
    canonical_dump,
    journal_mark,
    load_model,
    undo,
    validate_model,
)
from vopol.state import InstanceState, Status


def ctx_for(model, this_task=None, active=()):
    instance = InstanceState(status={t: Status.ACTIVE for t in active})
    return EvalContext(model, instance, this_task)


def action(name, *args):
    return DomainAction(name, args)


@pytest.fixture
def visitus_ctx(visitus):
    return ctx_for(visitus, this_task="HotelProv")


# --- member actions -----------------------------------------------------------


def test_add_member_moves_candidate_in(visitus_ctx, visitus):
    assert apply_action(visitus_ctx, action("add_member", "newHotel")) is None
    assert "newHotel" in visitus.members and "newHotel" not in visitus.registry
    assert visitus.duties == {}
    assert validate_model(visitus) == []


def test_add_member_twice_fails(visitus_ctx):
    apply_action(visitus_ctx, action("add_member", "newHotel"))
    with pytest.raises(AlreadyMemberError):
        apply_action(visitus_ctx, action("add_member", "newHotel"))


def test_add_member_unknown(visitus_ctx):
    with pytest.raises(UnknownMemberError):
        apply_action(visitus_ctx, action("add_member", "ghost"))


def test_remove_member_drops_all_duties_and_reservations():
    m = load_model(
        "vo X\nmember P kind=Partner cap a=5 cap b=5\n"
        "task T type=Replicable requires a=2\ntask U type=Replicable requires b=3\nedge T U\n"
    )
    ctx = ctx_for(m)
    apply_action(ctx, action("assign_duty", "P", "T", "a", 2))
    apply_action(ctx, action("assign_duty", "P", "U", "b", 3))
    assert len(m.duties) == 2
    apply_action(ctx, action("remove_member", "P"))
    assert m.duties == {}
    assert m.reserved == {}
    assert "P" in m.registry  # back in the breeding pool
    assert validate_model(m) == []


def test_remove_member_keeps_reservation_for_active_task():
    m = load_model(
        "vo X\nmember P kind=Partner cap a=5\ntask T type=Replicable requires a=2\n"
    )
    apply_action(ctx_for(m), action("assign_duty", "P", "T", "a", 2))
    ctx = ctx_for(m, active={"T"})
    apply_action(ctx, action("remove_member", "P"))
    assert m.duties == {}
    assert m.reserved.get(("P", "a"), 0) == 2  # commitment survives the removal
    assert m.holds == {("T", "P", "a"): 2}


DUTY_FAN = "\n".join(
    ["vo F", "member M kind=Partner cap c=30", "task S type=Replicable requires c=30"]
    + [f"member P{i} kind=Partner cap c=1\ntask T{i} type=Atomic requires c=1\nedge S T{i}" for i in range(30)]
)


@pytest.mark.parametrize("removal", [action("delete_task", "S"), action("remove_member", "M")], ids=["task", "member"])
def test_a_removal_writes_each_duty_bucket_once(removal):
    # S holds a duty from each P<i> and M one on each T<i>: the removal drops
    # them in one batch, so each index bucket is written once, not per duty
    m = load_model(DUTY_FAN)
    ctx = ctx_for(m)
    for i in range(30):
        apply_action(ctx, action("assign_duty", f"P{i}", "S", "c", 1))
        apply_action(ctx, action("assign_duty", "M", f"T{i}", "c", 1))
    before = canonical_dump(m)
    mark = journal_mark(m)
    apply_action(ctx, removal)
    buckets = Counter(
        (table is m._duties_on, key) for table, key, _ in m._journal[mark:] if table in (m._duties_on, m._duties_of)
    )
    assert len(m.duties) == 30 and max(buckets.values()) == 1, buckets.most_common(2)
    assert validate_model(m) == []
    undo(m, mark)
    assert canonical_dump(m) == before


def test_remove_nonmember_rejected(visitus_ctx, visitus):
    before = canonical_dump(visitus)
    with pytest.raises(NotAMemberError):
        apply_action(visitus_ctx, action("remove_member", "ghost"))
    with pytest.raises(NotAMemberError):
        apply_action(visitus_ctx, action("remove_member", "newHotel"))
    assert canonical_dump(visitus) == before


# --- duty actions ---------------------------------------------------------------


def test_assign_creates_duty_and_reserves(visitus):
    apply_action(ctx_for(visitus), action("add_member", "newHotel"))
    apply_action(ctx_for(visitus), action("assign_duty", "newHotel", "HotelProv", "beds", 3))
    assert visitus.duties == {("newHotel", "HotelProv", "beds"): 3}
    assert visitus.reserved.get(("newHotel", "beds"), 0) == 3
    assert validate_model(visitus) == []


def test_reassign_overwrites_amount():
    m = load_model("vo X\nmember P kind=Partner cap a=9\ntask T type=Replicable requires a=9\n")
    apply_action(ctx_for(m), action("assign_duty", "P", "T", "a", 3))
    apply_action(ctx_for(m), action("assign_duty", "P", "T", "a", 5))
    assert m.duties == {("P", "T", "a"): 5}
    assert m.reserved.get(("P", "a"), 0) == 5


def test_assign_overwrite_equals_last_write():
    twice = load_model("vo X\nmember P kind=Partner cap a=9\ntask T type=Replicable requires a=9\n")
    once = twice.clone()
    apply_action(ctx_for(twice), action("assign_duty", "P", "T", "a", 3))
    apply_action(ctx_for(twice), action("assign_duty", "P", "T", "a", 5))
    apply_action(ctx_for(once), action("assign_duty", "P", "T", "a", 5))
    assert canonical_dump(twice) == canonical_dump(once)


def test_assign_capacity_check_allows_own_held_amount():
    m = load_model("vo X\nmember P kind=Partner cap a=5\ntask T type=Replicable requires a=5\n")
    apply_action(ctx_for(m), action("assign_duty", "P", "T", "a", 5))
    # 5 free + 0: raising beyond declared must fail, re-assigning 5 is fine
    apply_action(ctx_for(m), action("assign_duty", "P", "T", "a", 5))
    assert m.reserved.get(("P", "a"), 0) == 5
    with pytest.raises(CapacityExceededError):
        apply_action(ctx_for(m), action("assign_duty", "P", "T", "a", 6))


def test_assign_defaults_amount_to_shortfall(visitus):
    apply_action(ctx_for(visitus), action("add_member", "newHotel"))
    apply_action(ctx_for(visitus), action("assign_duty", "newHotel", "HotelProv", "beds", None))
    assert visitus.duties[("newHotel", "HotelProv", "beds")] == 3


def test_assign_requires_declared_capability(visitus):
    with pytest.raises(CapabilityMissingError):
        apply_action(ctx_for(visitus), action("assign_duty", "Hotel", "HotelProv", "vans", 1))


def test_assign_requires_task_requirement(visitus):
    with pytest.raises(CapabilityMissingError):
        apply_action(ctx_for(visitus), action("assign_duty", "Hotel", "BookFlight", "beds", 1))


def test_assign_atomic_second_member_rejected():
    m = load_model(
        "vo X\nmember P kind=Partner cap a=5\nmember Q kind=Partner cap a=5\n"
        "task T type=Atomic requires a=4\n"
    )
    apply_action(ctx_for(m), action("assign_duty", "P", "T", "a", 2))
    with pytest.raises(AtomicityViolationError):
        apply_action(ctx_for(m), action("assign_duty", "Q", "T", "a", 2))


def test_assign_reduction_on_active_task_keeps_commitment():
    m = load_model("vo X\nmember P kind=Partner cap a=9\ntask T type=Replicable requires a=9\n")
    apply_action(ctx_for(m), action("assign_duty", "P", "T", "a", 5))
    ctx = ctx_for(m, active={"T"})
    apply_action(ctx, action("assign_duty", "P", "T", "a", 2))
    assert m.duties[("P", "T", "a")] == 2
    assert m.reserved.get(("P", "a"), 0) == 5  # reservation unchanged until completion
    assert m.holds == {("T", "P", "a"): 3}


def test_unassign_absent_duty_rejected(visitus):
    before = canonical_dump(visitus)
    with pytest.raises(UnknownDutyError):
        apply_action(ctx_for(visitus), action("unassign_duty", "Hotel", "HotelProv", "beds"))
    assert canonical_dump(visitus) == before


def test_unassign_releases_unless_active():
    m = load_model("vo X\nmember P kind=Partner cap a=9\ntask T type=Replicable requires a=9\n")
    apply_action(ctx_for(m), action("assign_duty", "P", "T", "a", 5))
    idle, busy = m, m.clone()
    apply_action(ctx_for(idle), action("unassign_duty", "P", "T", "a"))
    assert idle.reserved.get(("P", "a"), 0) == 0
    ctx = ctx_for(busy, active={"T"})
    apply_action(ctx, action("unassign_duty", "P", "T", "a"))
    assert busy.reserved.get(("P", "a"), 0) == 5
    assert busy.holds == {("T", "P", "a"): 5}


@pytest.mark.parametrize("held", [False, True], ids=["duty", "hold"])
def test_a_release_of_claimed_units_is_refused(held):
    # T claims all 4 of P's units, by its duty or, once the duty is taken
    # from running T, by a hold; a release that freed them would let U
    # commit them again, 8 units of a capability declared as 4
    from vopol.model import adjust_reserved_capacity

    m = load_model(
        "vo X\nmember P kind=Partner cap a=4\n"
        "task T type=Replicable requires a=4\ntask U type=Replicable requires a=4\n"
    )
    apply_action(ctx_for(m), action("assign_duty", "P", "T", "a", 4))
    if held:
        apply_action(ctx_for(m, active={"T"}), action("unassign_duty", "P", "T", "a"))
        assert m.holds == {("T", "P", "a"): 4}
    before = canonical_dump(m)
    with pytest.raises(UnderflowError) as caught:
        adjust_reserved_capacity(m, "P", "a", -4)
    assert caught.value.message == (
        "releasing 4 of (P, a) would free units that duties or holds claim: 0 of 4 reserved are unclaimed"
    )
    assert canonical_dump(m) == before
    with pytest.raises(CapacityExceededError):
        apply_action(ctx_for(m), action("assign_duty", "P", "U", "a", 4))
    assert canonical_dump(m) == before and validate_model(m) == []


# --- change_type -----------------------------------------------------------------


def test_change_type_morebeds_case(visitus):
    apply_action(ctx_for(visitus), action("change_type", "HotelProv", "Replicable", "competition"))
    assert visitus.tasks["HotelProv"].ttype is TaskType.REPLICABLE
    assert visitus.tasks["HotelProv"].sharing == "competition"


def test_change_type_to_same_type_is_noop(visitus):
    before = canonical_dump(visitus)
    apply_action(ctx_for(visitus), action("change_type", "HotelProv", "Atomic", None))
    assert canonical_dump(visitus) == before


def test_change_type_to_atomic_with_two_holders_rejected():
    m = load_model(
        "vo X\nmember P kind=Partner cap a=5\nmember Q kind=Partner cap a=5\n"
        "task T type=Replicable requires a=4\n"
    )
    apply_action(ctx_for(m), action("assign_duty", "P", "T", "a", 2))
    apply_action(ctx_for(m), action("assign_duty", "Q", "T", "a", 2))
    with pytest.raises(AtomicityViolationError):
        apply_action(ctx_for(m), action("change_type", "T", "Atomic", None))


# --- workflow actions ----------------------------------------------------------


def test_delete_active_task_rejected():
    m = load_model("vo X\ntask T type=Atomic\n")
    ctx = ctx_for(m, active={"T"})
    before = canonical_dump(m)
    with pytest.raises(ActiveTaskError):
        apply_action(ctx, action("delete_task", "T"))
    assert canonical_dump(m) == before


def test_add_task_after(visitus):
    m = load_model(
        "vo X\ntask A type=Atomic\ntask HotelProv type=Atomic\ntask C type=Atomic\n"
        "task Insurance type=Atomic inprocess=false\nedge A HotelProv\nedge HotelProv C\n"
    )
    apply_action(ctx_for(m), action("add_task", "Insurance", "HotelProv", "after"))
    assert m.control_edges == {
        ("A", "HotelProv"),
        ("HotelProv", "Insurance"),
        ("Insurance", "C"),
    }


def test_provide_input_adds_flow():
    m = load_model("vo X\ntask HotelProv type=Atomic\n")
    apply_action(ctx_for(m), action("provide_input", "itinerary", "HotelProv"))
    assert any(f.item == "itinerary" and f.target == "HotelProv" for f in m.dataflows)


def test_provide_input_takes_a_source_that_still_sends_the_item():
    # i flows from A and from B; once A sends i nowhere, a new i flow must
    # come from B, not from the smaller name A
    m = load_model(
        "vo X\n"
        + "".join(f"task {t} type=Atomic\n" for t in "ABCXY")
        + "edge A X\nedge B Y\ndataflow i from=A to=X\ndataflow i from=B to=Y\n"
    )
    ctx = ctx_for(m)
    apply_action(ctx, action("remove_input", "i", "X"))
    apply_action(ctx, action("provide_input", "i", "C"))
    assert m.flows_to("C") == {DataFlow("i", "B", "C")}
    assert m.dataflows == {DataFlow("i", "B", "Y"), DataFlow("i", "B", "C")}
    assert validate_model(m) == []


def test_identical_dataflow_rows_load_as_one_flow():
    m = load_model("vo X\ntask A type=Atomic\ndataflow i from=customer to=A\ndataflow i from=customer to=A\n")
    assert m.dataflows == {DataFlow("i", CUSTOMER, "A")}
    apply_action(ctx_for(m), action("remove_input", "i", "A"))
    assert m.dataflows == set() and "i" not in m._item_sources
    assert m.tasks["A"].inputs == set()
    assert m == load_model("vo X\ntask A type=Atomic\n")  # every flow index is empty again


# --- resolve_action -------------------------------------------------------------


def make_call(name, *args):
    return ActionCall(name, args)


def test_resolve_defaults_duty_task_to_trigger(visitus):
    ctx = ctx_for(visitus, this_task="HotelProv")
    resolved = resolve_action(ctx, make_call("assign_duty", Ident("newHotel"), Ident("beds")))
    assert resolved == action("assign_duty", "newHotel", "HotelProv", "beds", None)


def test_resolve_this_and_params(visitus):
    ctx = ctx_for(visitus, this_task="HotelProv")
    resolved = resolve_action(
        ctx, make_call("assign_duty", Ident("Hotel"), Ident("this"), Ident("beds"), Ident("n"))
    )
    assert resolved == action("assign_duty", "Hotel", "HotelProv", "beds", 3)
    resolved = resolve_action(
        ctx, make_call("assign_duty", Ident("Hotel"), Ident("this"), Ident("beds"), Number(2))
    )
    assert resolved.args[3] == 2


def test_resolve_rejects_unknown_param(visitus):
    ctx = ctx_for(visitus, this_task="HotelProv")
    with pytest.raises(UnresolvedIdentifierError):
        resolve_action(ctx, make_call("assign_duty", Ident("Hotel"), Ident("this"), Ident("beds"), Ident("zz")))


def test_resolve_quoted_names(visitus):
    ctx = ctx_for(visitus, this_task="HotelProv")
    resolved = resolve_action(ctx, make_call("add_member", Text("newHotel")))
    assert resolved == action("add_member", "newHotel")


# --- predicates ------------------------------------------------------------------


def test_has_capacity_respects_reservations(visitus):
    from vopol.model import adjust_reserved_capacity

    adjust_reserved_capacity(visitus, "Hotel", "beds", 8)
    ctx = ctx_for(visitus)
    assert not eval_predicate(ctx, "has_capacity", (Ident("Hotel"), Ident("beds"), Number(3)))
    assert eval_predicate(ctx, "has_capacity", (Ident("Hotel"), Ident("beds"), Number(2)))


def test_has_capability_ignores_reservations(visitus):
    from vopol.model import adjust_reserved_capacity

    adjust_reserved_capacity(visitus, "Hotel", "beds", 10)
    ctx = ctx_for(visitus)
    assert eval_predicate(ctx, "has_capability", (Ident("Hotel"), Ident("beds")))
    assert not eval_predicate(ctx, "has_capability", (Ident("Hotel"), Ident("vans")))


def test_can_run_vacuous_without_requirements(visitus):
    assert can_run(visitus, "BookFlight")


def test_can_run_needs_covering_duties(visitus):
    assert not can_run(visitus, "HotelProv")
    apply_action(ctx_for(visitus), action("add_member", "newHotel"))
    apply_action(ctx_for(visitus), action("assign_duty", "newHotel", "HotelProv", "beds", 3))
    assert can_run(visitus, "HotelProv")


def test_task_type_predicate_flips_after_change(visitus):
    ctx = ctx_for(visitus)
    assert eval_predicate(ctx, "task_type", (Ident("HotelProv"), Ident("Atomic")))
    apply_action(ctx, action("change_type", "HotelProv", "Replicable", "competition"))
    assert not eval_predicate(ctx, "task_type", (Ident("HotelProv"), Ident("Atomic")))
    assert eval_predicate(ctx, "task_type", (Ident("HotelProv"), Ident("Replicable")))


def test_active_predicate(visitus):
    ctx = ctx_for(visitus, active={"HotelProv"})
    assert eval_predicate(ctx, "active", (Ident("HotelProv"),))
    assert not eval_predicate(ctx, "active", (Ident("BookFlight"),))


def test_unknown_predicate_and_identifier(visitus):
    ctx = ctx_for(visitus)
    with pytest.raises(UnknownPredicateError):
        eval_predicate(ctx, "is_cheap", (Ident("Hotel"),))
    with pytest.raises(UnresolvedIdentifierError):
        eval_predicate(ctx, "has_capacity", (Ident("ghost"), Ident("beds"), Number(1)))


def test_predicates_are_read_only(visitus):
    before = canonical_dump(visitus)
    ctx = ctx_for(visitus)
    eval_predicate(ctx, "can_run", (Ident("HotelProv"),))
    eval_predicate(ctx, "has_capacity", (Ident("Hotel"), Ident("beds"), Ident("n")))
    assert canonical_dump(visitus) == before


def test_param_resolution_in_condition(visitus, morebeds):
    # n resolves through model params when evaluating the guard
    cond = morebeds.policies[0].body.rule.condition
    ctx = ctx_for(visitus)
    from vopol.policy.evaluate import eval_condition

    assert not eval_condition(cond, lambda p: eval_predicate(ctx, p.name, p.args))


# --- bootstrap -------------------------------------------------------------------


def test_bootstrap_noop_when_task_can_run(visitus):
    apply_action(ctx_for(visitus), action("add_member", "newHotel"))
    apply_action(ctx_for(visitus), action("assign_duty", "newHotel", "HotelProv", "beds", 3))
    before = canonical_dump(visitus)
    assert run_bootstrap(ctx_for(visitus), "HotelProv") == []
    assert canonical_dump(visitus) == before


def test_bootstrap_tops_up_from_members_then_candidates():
    m = load_model(
        "vo X\nmember M kind=Partner cap beds=2\ncandidate C kind=Partner cap beds=8\n"
        "task T type=Replicable requires beds=3\n"
    )
    performed = run_bootstrap(ctx_for(m), "T")
    assert [a.name for a in performed] == ["assign_duty", "add_member", "assign_duty"]
    assert m.duties == {("M", "T", "beds"): 2, ("C", "T", "beds"): 1}
    assert "C" in m.members
    assert can_run(m, "T")
    assert validate_model(m) == []


def test_bootstrap_failure_rolls_back():
    m = load_model(
        "vo X\nmember M kind=Partner cap beds=2\ncandidate C kind=Partner cap beds=2\n"
        "task T type=Replicable requires beds=5\n"
    )
    before = canonical_dump(m)
    with pytest.raises(TaskFailure):
        run_bootstrap(ctx_for(m), "T")
    assert canonical_dump(m) == before


def test_a_library_bootstrap_leaves_no_journal_open(visitus):
    # an open journal would keep every later write to the model
    assert run_bootstrap(ctx_for(visitus), "HotelProv")
    assert visitus.duties == {("Hotel", "HotelProv", "beds"): 3}
    assert visitus._journal is None
    m = load_model("vo X\nmember M kind=Partner cap beds=2\ntask T type=Replicable requires beds=5\n")
    with pytest.raises(TaskFailure):
        run_bootstrap(ctx_for(m), "T")
    assert m._journal is None


def test_a_bootstrap_leaves_an_open_journal_open(visitus):
    before = visitus.clone()
    mark = journal_mark(visitus)
    assert run_bootstrap(ctx_for(visitus), "HotelProv")
    assert visitus._journal
    undo(visitus, mark)
    assert visitus == before and canonical_dump(visitus) == canonical_dump(before)


def test_bootstrap_is_idempotent():
    m = load_model(
        "vo X\nmember M kind=Partner cap beds=2\ncandidate C kind=Partner cap beds=8\n"
        "task T type=Replicable requires beds=3\n"
    )
    run_bootstrap(ctx_for(m), "T")
    once = canonical_dump(m)
    assert run_bootstrap(ctx_for(m), "T") == []
    assert canonical_dump(m) == once


def test_bootstrap_candidate_ordering_partners_first():
    m = load_model(
        "vo X\n"
        "candidate E kind=ExtEntity cap c=9\n"
        "candidate B kind=Associate cap c=9\n"
        "candidate A kind=Partner cap c=9\n"
        "task T type=Replicable requires c=1\n"
    )
    performed = run_bootstrap(ctx_for(m), "T")
    assert performed[0] == action("add_member", "A")


def test_bootstrap_competition_prefers_lowest_cost():
    m = load_model(
        "vo X\n"
        "member Pricey kind=Partner cap c=9 cost=8\n"
        "member Cheap kind=Partner cap c=9 cost=2\n"
        "task T type=Replicable sharing=competition requires c=4\n"
    )
    performed = run_bootstrap(ctx_for(m), "T")
    assert performed == [action("assign_duty", "Cheap", "T", "c", 4)]


def test_bootstrap_without_competition_uses_id_order():
    m = load_model(
        "vo X\n"
        "member Pricey kind=Partner cap c=9 cost=8\n"
        "member Cheap kind=Partner cap c=9 cost=2\n"
        "task T type=Replicable requires c=4\n"
    )
    performed = run_bootstrap(ctx_for(m), "T")
    assert performed == [action("assign_duty", "Cheap", "T", "c", 4)]
    m2 = load_model(
        "vo X\n"
        "member Alpha kind=Partner cap c=9 cost=8\n"
        "member Beta kind=Partner cap c=9 cost=2\n"
        "task T type=Replicable requires c=4\n"
    )
    performed2 = run_bootstrap(ctx_for(m2), "T")
    assert performed2 == [action("assign_duty", "Alpha", "T", "c", 4)]


def test_bootstrap_respects_atomicity():
    m = load_model(
        "vo X\nmember P kind=Partner cap a=2 cap b=2\nmember Q kind=Partner cap a=9 cap b=9\n"
        "task T type=Atomic requires a=1 requires b=1\n"
    )
    apply_action(ctx_for(m), action("assign_duty", "P", "T", "a", 1))
    run_bootstrap(ctx_for(m), "T")
    # only the existing holder may be used on an atomic task
    assert {d.member for d in m.duties_on("T")} == {"P"}
    assert can_run(m, "T")


def test_bootstrap_atomic_fails_when_single_member_cannot_cover():
    m = load_model(
        "vo X\nmember P kind=Partner cap a=1\nmember Q kind=Partner cap a=9\n"
        "task T type=Atomic requires a=5\n"
    )
    apply_action(ctx_for(m), action("assign_duty", "P", "T", "a", 1))
    with pytest.raises(TaskFailure):
        run_bootstrap(ctx_for(m), "T")


def test_bootstrap_atomic_holder_is_the_first_member_with_free_units():
    # C alone could cover T, but M takes what it has first and so becomes
    # the sole holder that every later offer must match
    m = load_model(
        "vo X\nmember M kind=Partner cap a=1\ncandidate C kind=Partner cap a=9\n"
        "task T type=Atomic requires a=3\n"
    )
    with pytest.raises(TaskFailure, match="needs 2 more of 'a'"):
        run_bootstrap(ctx_for(m), "T")


def test_bootstrap_soundness_after_success():
    m = load_model(
        "vo X\nmember M kind=Partner cap a=3 cap b=1\ncandidate C kind=Associate cap b=9\n"
        "task T type=Composable requires a=2 requires b=4\n"
    )
    run_bootstrap(ctx_for(m), "T")
    assert can_run(m, "T")
    assert validate_model(m) == []


# --- apply_action dispatcher -------------------------------------------------------


def test_apply_action_routes_each_name(visitus):
    ctx = ctx_for(visitus)
    apply_action(ctx, action("add_member", "newHotel"))
    apply_action(ctx, action("change_type", "HotelProv", "Replicable", "competition"))
    apply_action(ctx, action("assign_duty", "newHotel", "HotelProv", "beds", 3))
    apply_action(ctx, action("provide_input", "itinerary", "HotelProv"))
    apply_action(ctx, action("remove_input", "itinerary", "HotelProv"))
    apply_action(ctx, action("unassign_duty", "newHotel", "HotelProv", "beds"))
    apply_action(ctx, action("remove_member", "newHotel"))
    assert validate_model(visitus) == []


@pytest.mark.parametrize("name", sorted(VOCABULARY.actions))
def test_a_library_built_action_needs_its_full_arity(visitus, name):
    # resolve_action pads every action to its upper arity; a shorter one
    # built in code is refused where it is built, before apply_action or
    # detect_conflicts would index past its arguments
    full = VOCABULARY.actions[name][1]
    for count in range(full):
        args = ("HotelProv",) * count
        with pytest.raises(InvalidArgumentError):
            apply_action(ctx_for(visitus), DomainAction(name, args))
        with pytest.raises(InvalidArgumentError):
            detect_conflicts([("P", action("delete_task", "HotelProv")), ("Q", DomainAction(name, args))])
    with pytest.raises(InvalidArgumentError):
        DomainAction(name, ("HotelProv",) * (full + 1))


@pytest.mark.parametrize(
    "name, args",
    [
        ("add_member", (5,)),
        ("delete_task", (None,)),
        ("assign_duty", ("Hotel", "HotelProv", "beds", "3")),
        ("assign_duty", ("Hotel", "HotelProv", "beds", True)),
        ("change_type", ("BookFlight", "Replicable", 7)),
    ],
)
def test_a_library_built_action_needs_its_argument_types(visitus, name, args):
    # names are str, assign_duty's amount an int or None and change_type's
    # sharing a str or None: a mistyped action is refused where it is built,
    # so a write never fails halfway through
    before = canonical_dump(visitus)
    with pytest.raises(InvalidArgumentError):
        apply_action(ctx_for(visitus), DomainAction(name, args))
    assert canonical_dump(visitus) == before


# --- which error a request gets ----------------------------------------------------

# M holds 3 units of a on the running Topen and has 2 more reserved outside
# duties, so 5 of its 10 are free; O holds the Atomic Tat and 2 units of
# Topen; N declares b only and holds Tb; C is a candidate with a
GRID = """\
vo Grid
member M kind=Partner cap a=10 cap b=4
member N kind=Partner cap b=6
member O kind=Partner cap a=5
candidate C kind=Partner cap a=8
task Tb type=Replicable requires b=2
task Tat type=Atomic requires a=3
task Topen type=Replicable requires a=12
"""
GRID_MEMBERS = {"unknown": "ghost", "candidate": "C", "no-capability": "N", "member": "M"}
GRID_TASKS = {"unknown": "nowhere", "not-required": "Tb", "atomic-held": "Tat", "open": "Topen"}
GRID_AMOUNTS = {"open": None, "negative": -1, "over-free": 9, "fits": 4}
# change_type names no member and no amount: it runs over the tasks and these
GRID_TYPES = {
    "atomic": ("Atomic", None),
    "unknown-type": ("Bogus", None),
    "replicable-competition": ("Replicable", "competition"),
    "composable": ("Composable", None),
}


def _grid_requests() -> dict[str, DomainAction]:
    requests = {}
    for (mk, member), (tk, task) in product(GRID_MEMBERS.items(), GRID_TASKS.items()):
        for ak, amount in GRID_AMOUNTS.items():
            requests[f"assign_duty/{mk}/{tk}/{ak}"] = action("assign_duty", member, task, "a", amount)
        requests[f"unassign_duty/{mk}/{tk}"] = action("unassign_duty", member, task, "a")
    for (tk, task), (yk, (ttype, sharing)) in product(GRID_TASKS.items(), GRID_TYPES.items()):
        requests[f"change_type/{tk}/{yk}"] = action("change_type", task, ttype, sharing)
    return requests


def _grid_model() -> tuple[VoModel, EvalContext]:
    m = load_model(GRID)
    ctx = ctx_for(m, active={"Topen"})
    for duty in (("O", "Tat", "a", 3), ("O", "Topen", "a", 2), ("M", "Topen", "a", 3), ("N", "Tb", "b", 2)):
        apply_action(ctx, action("assign_duty", *duty))
    adjust_reserved_capacity(m, "M", "a", 2)
    return m, ctx


def _grid_outcome(request: DomainAction) -> tuple[str, ...]:
    """(class, code, message) of the error ``request`` raises on the grid
    model, or the lines of its ``canonical_dump`` that the request took out
    (``-``) and put in (``+``)."""
    m, ctx = _grid_model()
    before = canonical_dump(m)
    try:
        apply_action(ctx, request)
    except VopolError as err:
        assert canonical_dump(m) == before
        return type(err).__name__, err.code, err.message
    assert validate_model(m) == []
    old, new = set(before.splitlines()), set(canonical_dump(m).splitlines())
    return (*[f"-{line}" for line in sorted(old - new)], *[f"+{line}" for line in sorted(new - old)])


# read before the request path was rewritten to read each record once; the
# order of the checks is the one README "Dispatch semantics" gives
GRID_EXPECTED = {
    "assign_duty/unknown/unknown/open": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "assign_duty/unknown/unknown/negative": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "assign_duty/unknown/unknown/over-free": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "assign_duty/unknown/unknown/fits": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "unassign_duty/unknown/unknown": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "assign_duty/unknown/not-required/open": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "assign_duty/unknown/not-required/negative": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "assign_duty/unknown/not-required/over-free": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "assign_duty/unknown/not-required/fits": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "unassign_duty/unknown/not-required": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "assign_duty/unknown/atomic-held/open": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "assign_duty/unknown/atomic-held/negative": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "assign_duty/unknown/atomic-held/over-free": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "assign_duty/unknown/atomic-held/fits": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "unassign_duty/unknown/atomic-held": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "assign_duty/unknown/open/open": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "assign_duty/unknown/open/negative": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "assign_duty/unknown/open/over-free": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "assign_duty/unknown/open/fits": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "unassign_duty/unknown/open": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "assign_duty/candidate/unknown/open": ("UnknownTaskError", "UnknownTask", "unknown task 'nowhere'"),
    "assign_duty/candidate/unknown/negative": ("UnknownTaskError", "UnknownTask", "unknown task 'nowhere'"),
    "assign_duty/candidate/unknown/over-free": ("UnknownTaskError", "UnknownTask", "unknown task 'nowhere'"),
    "assign_duty/candidate/unknown/fits": ("UnknownTaskError", "UnknownTask", "unknown task 'nowhere'"),
    "unassign_duty/candidate/unknown": ("UnknownTaskError", "UnknownTask", "unknown task 'nowhere'"),
    "assign_duty/candidate/not-required/open": ("NotAMemberError", "NotAMember", "'C' is not a member"),
    "assign_duty/candidate/not-required/negative": ("NotAMemberError", "NotAMember", "'C' is not a member"),
    "assign_duty/candidate/not-required/over-free": ("NotAMemberError", "NotAMember", "'C' is not a member"),
    "assign_duty/candidate/not-required/fits": ("NotAMemberError", "NotAMember", "'C' is not a member"),
    "unassign_duty/candidate/not-required": ("UnknownDutyError", "UnknownDuty", "no duty (C, Tb, a) to unassign"),
    "assign_duty/candidate/atomic-held/open": ("NotAMemberError", "NotAMember", "'C' is not a member"),
    "assign_duty/candidate/atomic-held/negative": ("NotAMemberError", "NotAMember", "'C' is not a member"),
    "assign_duty/candidate/atomic-held/over-free": ("NotAMemberError", "NotAMember", "'C' is not a member"),
    "assign_duty/candidate/atomic-held/fits": ("NotAMemberError", "NotAMember", "'C' is not a member"),
    "unassign_duty/candidate/atomic-held": ("UnknownDutyError", "UnknownDuty", "no duty (C, Tat, a) to unassign"),
    "assign_duty/candidate/open/open": ("NotAMemberError", "NotAMember", "'C' is not a member"),
    "assign_duty/candidate/open/negative": ("NotAMemberError", "NotAMember", "'C' is not a member"),
    "assign_duty/candidate/open/over-free": ("NotAMemberError", "NotAMember", "'C' is not a member"),
    "assign_duty/candidate/open/fits": ("NotAMemberError", "NotAMember", "'C' is not a member"),
    "unassign_duty/candidate/open": ("UnknownDutyError", "UnknownDuty", "no duty (C, Topen, a) to unassign"),
    "assign_duty/no-capability/unknown/open": ("UnknownTaskError", "UnknownTask", "unknown task 'nowhere'"),
    "assign_duty/no-capability/unknown/negative": ("UnknownTaskError", "UnknownTask", "unknown task 'nowhere'"),
    "assign_duty/no-capability/unknown/over-free": ("UnknownTaskError", "UnknownTask", "unknown task 'nowhere'"),
    "assign_duty/no-capability/unknown/fits": ("UnknownTaskError", "UnknownTask", "unknown task 'nowhere'"),
    "unassign_duty/no-capability/unknown": ("UnknownTaskError", "UnknownTask", "unknown task 'nowhere'"),
    "assign_duty/no-capability/not-required/open": ("CapabilityMissingError", "CapabilityMissing", "'N' declares no capability 'a'"),
    "assign_duty/no-capability/not-required/negative": ("CapabilityMissingError", "CapabilityMissing", "'N' declares no capability 'a'"),
    "assign_duty/no-capability/not-required/over-free": ("CapabilityMissingError", "CapabilityMissing", "'N' declares no capability 'a'"),
    "assign_duty/no-capability/not-required/fits": ("CapabilityMissingError", "CapabilityMissing", "'N' declares no capability 'a'"),
    "unassign_duty/no-capability/not-required": ("UnknownDutyError", "UnknownDuty", "no duty (N, Tb, a) to unassign"),
    "assign_duty/no-capability/atomic-held/open": ("CapabilityMissingError", "CapabilityMissing", "'N' declares no capability 'a'"),
    "assign_duty/no-capability/atomic-held/negative": ("CapabilityMissingError", "CapabilityMissing", "'N' declares no capability 'a'"),
    "assign_duty/no-capability/atomic-held/over-free": ("CapabilityMissingError", "CapabilityMissing", "'N' declares no capability 'a'"),
    "assign_duty/no-capability/atomic-held/fits": ("CapabilityMissingError", "CapabilityMissing", "'N' declares no capability 'a'"),
    "unassign_duty/no-capability/atomic-held": ("UnknownDutyError", "UnknownDuty", "no duty (N, Tat, a) to unassign"),
    "assign_duty/no-capability/open/open": ("CapabilityMissingError", "CapabilityMissing", "'N' declares no capability 'a'"),
    "assign_duty/no-capability/open/negative": ("CapabilityMissingError", "CapabilityMissing", "'N' declares no capability 'a'"),
    "assign_duty/no-capability/open/over-free": ("CapabilityMissingError", "CapabilityMissing", "'N' declares no capability 'a'"),
    "assign_duty/no-capability/open/fits": ("CapabilityMissingError", "CapabilityMissing", "'N' declares no capability 'a'"),
    "unassign_duty/no-capability/open": ("UnknownDutyError", "UnknownDuty", "no duty (N, Topen, a) to unassign"),
    "assign_duty/member/unknown/open": ("UnknownTaskError", "UnknownTask", "unknown task 'nowhere'"),
    "assign_duty/member/unknown/negative": ("UnknownTaskError", "UnknownTask", "unknown task 'nowhere'"),
    "assign_duty/member/unknown/over-free": ("UnknownTaskError", "UnknownTask", "unknown task 'nowhere'"),
    "assign_duty/member/unknown/fits": ("UnknownTaskError", "UnknownTask", "unknown task 'nowhere'"),
    "unassign_duty/member/unknown": ("UnknownTaskError", "UnknownTask", "unknown task 'nowhere'"),
    "assign_duty/member/not-required/open": ("CapabilityMissingError", "CapabilityMissing", "task 'Tb' does not require 'a'"),
    "assign_duty/member/not-required/negative": ("CapabilityMissingError", "CapabilityMissing", "task 'Tb' does not require 'a'"),
    "assign_duty/member/not-required/over-free": ("CapabilityMissingError", "CapabilityMissing", "task 'Tb' does not require 'a'"),
    "assign_duty/member/not-required/fits": ("CapabilityMissingError", "CapabilityMissing", "task 'Tb' does not require 'a'"),
    "unassign_duty/member/not-required": ("UnknownDutyError", "UnknownDuty", "no duty (M, Tb, a) to unassign"),
    "assign_duty/member/atomic-held/open": ("AtomicityViolationError", "AtomicityViolation", "atomic task 'Tat' is already assigned to 'O'"),
    "assign_duty/member/atomic-held/negative": ("AtomicityViolationError", "AtomicityViolation", "atomic task 'Tat' is already assigned to 'O'"),
    "assign_duty/member/atomic-held/over-free": ("AtomicityViolationError", "AtomicityViolation", "atomic task 'Tat' is already assigned to 'O'"),
    "assign_duty/member/atomic-held/fits": ("AtomicityViolationError", "AtomicityViolation", "atomic task 'Tat' is already assigned to 'O'"),
    "unassign_duty/member/atomic-held": ("UnknownDutyError", "UnknownDuty", "no duty (M, Tat, a) to unassign"),
    "assign_duty/member/open/open": ("-duty M Topen a=3", "-reserved M a=5", "+duty M Topen a=7", "+reserved M a=9"),
    "assign_duty/member/open/negative": ("InvalidArgumentError", "InvalidArgument", "duty amount must be non-negative"),
    "assign_duty/member/open/over-free": ("CapacityExceededError", "CapacityExceeded", "assigning 9 of (M, a) exceeds free capacity 5 + held 3"),
    "assign_duty/member/open/fits": ("-duty M Topen a=3", "-reserved M a=5", "+duty M Topen a=4", "+reserved M a=6"),
    "unassign_duty/member/open": ("-duty M Topen a=3", "+hold Topen M a=3"),
    "change_type/unknown/atomic": ("UnknownTaskError", "UnknownTask", "unknown task 'nowhere'"),
    "change_type/unknown/unknown-type": ("UnknownTaskError", "UnknownTask", "unknown task 'nowhere'"),
    "change_type/unknown/replicable-competition": ("UnknownTaskError", "UnknownTask", "unknown task 'nowhere'"),
    "change_type/unknown/composable": ("UnknownTaskError", "UnknownTask", "unknown task 'nowhere'"),
    "change_type/not-required/atomic": ("-task Tb type=Replicable requires b=2 inprocess=true", "+task Tb type=Atomic requires b=2 inprocess=true"),
    "change_type/not-required/unknown-type": ("InvalidArgumentError", "InvalidArgument", "unknown task type 'Bogus'"),
    "change_type/not-required/replicable-competition": ("-task Tb type=Replicable requires b=2 inprocess=true", "+task Tb type=Replicable sharing=competition requires b=2 inprocess=true"),
    "change_type/not-required/composable": ("-task Tb type=Replicable requires b=2 inprocess=true", "+task Tb type=Composable requires b=2 inprocess=true"),
    "change_type/atomic-held/atomic": (),
    "change_type/atomic-held/unknown-type": ("InvalidArgumentError", "InvalidArgument", "unknown task type 'Bogus'"),
    "change_type/atomic-held/replicable-competition": ("-task Tat type=Atomic requires a=3 inprocess=true", "+task Tat type=Replicable sharing=competition requires a=3 inprocess=true"),
    "change_type/atomic-held/composable": ("-task Tat type=Atomic requires a=3 inprocess=true", "+task Tat type=Composable requires a=3 inprocess=true"),
    "change_type/open/atomic": ("AtomicityViolationError", "AtomicityViolation", "cannot make 'Topen' atomic: duties from 2 members"),
    "change_type/open/unknown-type": ("InvalidArgumentError", "InvalidArgument", "unknown task type 'Bogus'"),
    "change_type/open/replicable-competition": ("-task Topen type=Replicable requires a=12 inprocess=true", "+task Topen type=Replicable sharing=competition requires a=12 inprocess=true"),
    "change_type/open/composable": ("-task Topen type=Replicable requires a=12 inprocess=true", "+task Topen type=Composable requires a=12 inprocess=true"),
}


def test_each_duty_and_type_request_gets_its_pinned_outcome():
    assert {key: _grid_outcome(request) for key, request in _grid_requests().items()} == GRID_EXPECTED


def test_can_run_counts_the_duties_of_current_members_only():
    m, _ = _grid_model()
    assert {task: can_run(m, task) for task in ("Tb", "Tat", "Topen")} == {"Tb": True, "Tat": True, "Topen": False}
    _move_member(m, "O", admit=False)  # O's duties stay, as no action leaves them
    assert {task: can_run(m, task) for task in ("Tb", "Tat", "Topen")} == {"Tb": True, "Tat": False, "Topen": False}


@pytest.mark.parametrize(
    "name, args, message",
    [
        pytest.param("assign_duty", ("M", "Topen", "a"), "assign_duty needs 4 argument(s), open ones as None, got 3", id="too-few"),
        pytest.param("add_member", ("C", "M"), "add_member needs 1 argument(s), open ones as None, got 2", id="too-many"),
        pytest.param("assign_duty", ("M", "Topen", "a", True), "assign_duty takes a int or None last, got True", id="bool-amount"),
        pytest.param("assign_duty", ("M", "Topen", "a", "3"), "assign_duty takes a int or None last, got '3'", id="str-amount"),
        pytest.param("assign_duty", ("M", "Topen", "a", int("1" * 641)), "assign_duty amount must have at most 640 digits", id="641-digit-amount"),
        pytest.param("add_member", (5,), "add_member takes names as str, got 5", id="int-name"),
        pytest.param("assign_duty", ("M", None, "a", 1), "assign_duty takes names as str, got None", id="none-task"),
        pytest.param("change_type", ("Topen", None, None), "change_type takes names as str, got None", id="none-type"),
        pytest.param("change_type", ("Topen", "Replicable", 7), "change_type takes a str or None last, got 7", id="int-sharing"),
    ],
)
def test_a_malformed_action_is_refused_where_it_is_built(name, args, message):
    with pytest.raises(InvalidArgumentError) as caught:
        DomainAction(name, args)
    assert (caught.value.code, caught.value.message) == ("InvalidArgument", message)


# a well-formed request has names in every position; up to two positions
# take a value of a type the checks tell apart, at the edges of the digit limit
_ODD_ARGS = [None, True, False, 0, -3, "M", 10**640 - 1, 10**640, -(10**640)]


@st.composite
def _requests(draw) -> tuple[str, tuple]:
    name = draw(st.sampled_from(sorted(VOCABULARY.actions)))
    hi = VOCABULARY.actions[name][1]
    size = draw(st.sampled_from([hi, hi, hi, hi - 1, hi + 1]))
    args = draw(st.lists(st.sampled_from(["M", "Topen", "", "3"]), min_size=size, max_size=size))
    for _ in range(draw(st.integers(0, 2)) if args else 0):
        args[draw(st.integers(0, len(args) - 1))] = draw(st.sampled_from(_ODD_ARGS))
    return name, tuple(args)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_requests())
@example(("assign_duty", ("M", "Topen", "a", 10**640 - 1)))
@example(("assign_duty", ("M", "Topen", "a", -(10**640))))
def test_a_request_built_inside_the_domain_is_checked_as_the_constructor_checks_it(request):
    # the domain's own builder skips the checks only where they pass
    name, args = request
    try:
        want = DomainAction(name, args)
    except InvalidArgumentError as err:
        with pytest.raises(InvalidArgumentError) as caught:
            _request(name, args)
        assert caught.value.message == err.message
    else:
        got = _request(name, args)
        assert got == want and got.args is args


def test_an_unknown_action_name_takes_any_arguments(visitus):
    odd = DomainAction("frobnicate", (1, None, True))
    assert odd.writes == {}
    with pytest.raises(UnknownActionError) as caught:
        apply_action(ctx_for(visitus), odd)
    assert caught.value.message == "unknown action 'frobnicate'"


# the capacity reads over member (unknown, candidate, member without the
# capability, member whose units are all reserved) x amount, on the grid
# model: O declares a=5 and reserves all 5 for its duties
CAPACITY_MEMBERS = {"unknown": "ghost", "candidate": "C", "no-capability": "N", "exhausted": "O"}
CAPACITY_AMOUNTS = {"negative": -1, "zero": 0, "one": 1, "all-of-C": 8, "over-C": 9}


def _capacity_outcome(read) -> object:
    """What ``read`` returns on the grid model, or the (class, code,
    message) of its error, which leaves the model as it was."""
    m, ctx = _grid_model()
    before = canonical_dump(m)
    try:
        return read(m, ctx)
    except VopolError as err:
        assert canonical_dump(m) == before
        return type(err).__name__, err.code, err.message


def _capacity_outcomes() -> dict[str, object]:
    out = {}
    for (who, member), (size, amount) in product(CAPACITY_MEMBERS.items(), CAPACITY_AMOUNTS.items()):
        args = (Ident(member), Ident("a"), Number(amount))
        out[f"has_capacity/{who}/{size}"] = _capacity_outcome(lambda m, ctx: eval_predicate(ctx, "has_capacity", args))
        out[f"adjust/{who}/{size}"] = _capacity_outcome(
            lambda m, ctx: adjust_reserved_capacity(m, member, "a", amount) or m.reserved.get((member, "a"), 0)
        )
    for who, member in CAPACITY_MEMBERS.items():
        out[f"has_capability/{who}"] = _capacity_outcome(
            lambda m, ctx: eval_predicate(ctx, "has_capability", (Ident(member), Ident("a")))
        )
    return out


# read before the capacity predicates and adjust_reserved_capacity were
# rewritten to read each member record once
CAPACITY_EXPECTED = {
    "has_capacity/unknown/negative": ("UnresolvedIdentifierError", "UnresolvedIdentifier", "unknown member 'ghost'"),
    "adjust/unknown/negative": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "has_capacity/unknown/zero": ("UnresolvedIdentifierError", "UnresolvedIdentifier", "unknown member 'ghost'"),
    "adjust/unknown/zero": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "has_capacity/unknown/one": ("UnresolvedIdentifierError", "UnresolvedIdentifier", "unknown member 'ghost'"),
    "adjust/unknown/one": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "has_capacity/unknown/all-of-C": ("UnresolvedIdentifierError", "UnresolvedIdentifier", "unknown member 'ghost'"),
    "adjust/unknown/all-of-C": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "has_capacity/unknown/over-C": ("UnresolvedIdentifierError", "UnresolvedIdentifier", "unknown member 'ghost'"),
    "adjust/unknown/over-C": ("UnknownMemberError", "UnknownMember", "unknown member 'ghost'"),
    "has_capacity/candidate/negative": True,
    "adjust/candidate/negative": ("UnderflowError", "Underflow", "releasing 1 of (C, a) would leave -1 reserved"),
    "has_capacity/candidate/zero": True,
    "adjust/candidate/zero": 0,
    "has_capacity/candidate/one": True,
    "adjust/candidate/one": 1,
    "has_capacity/candidate/all-of-C": True,
    "adjust/candidate/all-of-C": 8,
    "has_capacity/candidate/over-C": False,
    "adjust/candidate/over-C": ("CapacityExceededError", "CapacityExceeded", "reserving 9 of (C, a) would exceed declared 8"),
    "has_capacity/no-capability/negative": False,
    "adjust/no-capability/negative": ("CapabilityMissingError", "CapabilityMissing", "'N' declares no capability 'a'"),
    "has_capacity/no-capability/zero": False,
    "adjust/no-capability/zero": ("CapabilityMissingError", "CapabilityMissing", "'N' declares no capability 'a'"),
    "has_capacity/no-capability/one": False,
    "adjust/no-capability/one": ("CapabilityMissingError", "CapabilityMissing", "'N' declares no capability 'a'"),
    "has_capacity/no-capability/all-of-C": False,
    "adjust/no-capability/all-of-C": ("CapabilityMissingError", "CapabilityMissing", "'N' declares no capability 'a'"),
    "has_capacity/no-capability/over-C": False,
    "adjust/no-capability/over-C": ("CapabilityMissingError", "CapabilityMissing", "'N' declares no capability 'a'"),
    "has_capacity/exhausted/negative": True,
    "adjust/exhausted/negative": ("UnderflowError", "Underflow", "releasing 1 of (O, a) would free units that duties or holds claim: 0 of 5 reserved are unclaimed"),
    "has_capacity/exhausted/zero": True,
    "adjust/exhausted/zero": 5,
    "has_capacity/exhausted/one": False,
    "adjust/exhausted/one": ("CapacityExceededError", "CapacityExceeded", "reserving 1 of (O, a) would exceed declared 5"),
    "has_capacity/exhausted/all-of-C": False,
    "adjust/exhausted/all-of-C": ("CapacityExceededError", "CapacityExceeded", "reserving 8 of (O, a) would exceed declared 5"),
    "has_capacity/exhausted/over-C": False,
    "adjust/exhausted/over-C": ("CapacityExceededError", "CapacityExceeded", "reserving 9 of (O, a) would exceed declared 5"),
    "has_capability/unknown": ("UnresolvedIdentifierError", "UnresolvedIdentifier", "unknown member 'ghost'"),
    "has_capability/candidate": True,
    "has_capability/no-capability": False,
    "has_capability/exhausted": True,
}


def test_each_capacity_read_gets_its_pinned_outcome():
    assert _capacity_outcomes() == CAPACITY_EXPECTED
