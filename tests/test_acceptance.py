"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

from __future__ import annotations

import hashlib
import random
import time

import pytest

from vopol.policy.ast import TriggerSpec
from vopol.policy.evaluate import evaluate_rule_group
from vopol.policy.parser import parse_policy_document
from vopol.policy.render import render_policy_document
from vopol.cli import parse_scenario
from vopol.domain import (
    DomainAction,
    EvalContext,
    apply_action,
    can_run,
)
from vopol.engine import BOOTSTRAP_POLICY, run_scenario
from vopol.errors import ModelError
from vopol.model import (
    TaskType,
    canonical_dump,
    insert_task_node,
    load_model,
    remove_task_node,
    validate_model,
)
from vopol.state import InstanceState, Status
from vopol.trace import format_trace

from astgen import gen_document
from conftest import FIXTURES, MOREBEDS, VISITUS


def report(number: int, label: str):
    print(f"\nCRITERION {number:02d} PASS: {label}")


def run_fixture(scenario_name: str):
    model = load_model((FIXTURES / "visitus.vo").read_text())
    policies = parse_policy_document((FIXTURES / "morebeds.pol").read_text())
    events = parse_scenario((FIXTURES / scenario_name).read_text())
    before = canonical_dump(model)
    result = run_scenario(model, policies, events, base_dir=FIXTURES)
    # the run makes its own model versions; the caller's model is untouched
    assert canonical_dump(model) == before
    return result


def user_policy_records(records):
    """Records attributable to user policies (the bootstrap default-task
    policy is not a reconfiguration)."""
    out = []
    for rec in records:
        if rec.kind in ("POLICY-FIRED", "CONFLICT"):
            out.append(rec)
        elif rec.kind in ("ACTION-APPLIED", "ACTION-FAILED") and rec.get("policy") != BOOTSTRAP_POLICY:
            out.append(rec)
    return out


def model_hash(m) -> str:
    return hashlib.sha256(canonical_dump(m).encode()).hexdigest()


# --- criterion 1: golden scenario ------------------------------------------------


def test_criterion_01_morebeds_golden_scenario():
    started = time.perf_counter()
    final, instance, records = run_fixture("golden.scenario")
    elapsed = time.perf_counter() - started

    assert final.tasks["HotelProv"].ttype is TaskType.REPLICABLE
    assert final.tasks["HotelProv"].sharing == "competition"
    assert "newHotel" in final.members
    assert ("newHotel", "HotelProv", "beds") in final.duties
    assert can_run(final, "HotelProv")

    fired = [r for r in records if r.kind == "POLICY-FIRED" and r.get("policy") == "MoreBeds"]
    assert len(fired) == 1
    applied = [r.get("action") for r in records if r.kind == "ACTION-APPLIED"]
    assert applied == ["change_type", "add_member", "assign_duty"]

    golden = (FIXTURES / "morebeds.records").read_text()
    assert format_trace(records) == golden
    assert elapsed < 1.0
    report(1, "golden scenario reaches the reconfigured state with the pinned trace")


# --- criterion 2: negative control ------------------------------------------------


def test_criterion_02_negative_control_below_threshold():
    final, instance, records = run_fixture("negative.scenario")
    assert final.tasks["HotelProv"].ttype is TaskType.ATOMIC
    assert "newHotel" not in final.members
    assert user_policy_records(records) == []
    assert instance.status["HotelProv"] is Status.ACTIVE
    report(2, "five consumed beds leave enough capacity; no reconfiguration records")


# --- criterion 3: parser/renderer round trip ----------------------------------------


def test_criterion_03_round_trip_corpus():
    documents = [parse_policy_document(MOREBEDS)]
    rng = random.Random(0xC0FFEE)
    documents += [gen_document(rng) for _ in range(500)]
    for doc in documents:
        assert parse_policy_document(render_policy_document(doc)) == doc
    report(3, f"parse/render/parse stable on {len(documents)} documents")


# --- criterion 4: control-flow repair oracle ------------------------------------------


def _closure(nodes, edges):
    reach = {n: {b for a, b in edges if a == n} for n in nodes}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            extra = set()
            for mid in reach[n]:
                extra |= reach[mid]
            if not extra <= reach[n]:
                reach[n] |= extra
                changed = True
    return reach


def _oracle_remove(nodes, edges, t):
    preds = {p for p, s in edges if s == t}
    succs = {s for p, s in edges if p == t}
    base = {(p, s) for p, s in edges if t not in (p, s)}
    reach = _closure([n for n in nodes if n != t], base)
    bridges = {(p, s) for p in preds for s in succs if s not in reach[p]}
    return base | bridges


def _random_dag(rng: random.Random):
    count = rng.randint(2, 10)
    nodes = [f"T{i}" for i in range(count)]
    edges = set()
    for i in range(count):
        for j in range(i + 1, count):
            if rng.random() < 0.3:
                edges.add((nodes[i], nodes[j]))
    rows = ["vo Rand"]
    rows += [f"task {n} type=Atomic" for n in nodes]
    rows.append("task Fresh type=Atomic inprocess=false")
    rows += [f"edge {a} {b}" for a, b in sorted(edges)]
    return load_model("\n".join(rows)), nodes, edges


def test_criterion_04_repair_matches_bridging_oracle():
    rng = random.Random(40)
    for _ in range(200):
        model, nodes, edges = _random_dag(rng)
        # each primitive writes the model it is given: every case starts
        # from its own clone of the generated graph
        victim = rng.choice(nodes)
        removed = model.clone()
        remove_task_node(removed, victim)
        assert removed.control_edges == _oracle_remove(nodes, edges, victim)
        assert validate_model(removed) == []

        anchor = rng.choice(nodes)
        for relation in ("after", "parallel"):
            restored = model.clone()
            insert_task_node(restored, "Fresh", anchor, relation)
            assert validate_model(restored) == []
            remove_task_node(restored, "Fresh")
            assert restored.control_edges == edges, (relation, anchor, sorted(edges))
    report(4, "200 random graphs: removal equals the bridging oracle, insert+remove restores")


# --- criterion 5: member removal and ledger invariants ----------------------------------


def _random_sequence_model():
    return load_model(
        "vo Soup\n"
        "member P kind=Partner cap a=9 cap b=6\n"
        "member Q kind=Associate cap a=4\n"
        "member R kind=Partner cap b=7\n"
        "candidate S kind=Partner cap a=5 cap b=5\n"
        "candidate U kind=ExtEntity cap a=3\n"
        "task T1 type=Replicable requires a=6\n"
        "task T2 type=Composable requires a=2 requires b=8\n"
        "task T3 type=Atomic requires b=3\n"
        "edge T1 T2\nedge T2 T3\n"
    )


def _ledger_ok(m):
    return all(
        0 <= reserved <= (m.declared(mid, cap) or 0)
        for (mid, cap), reserved in m.reserved.items()
    )


def test_criterion_05_member_removal_and_ledger_invariants():
    rng = random.Random(5150)
    members = "PQRSU"
    tasks = ("T1", "T2", "T3")
    caps = "ab"
    for _ in range(1000):
        model = _random_sequence_model()
        instance = InstanceState(
            status={t: rng.choice([Status.PENDING, Status.ACTIVE]) for t in tasks}
        )
        for _ in range(rng.randint(3, 12)):
            roll = rng.random()
            who = rng.choice(members)
            task = rng.choice(tasks)
            cap = rng.choice(caps)
            if roll < 0.35:
                action = DomainAction("assign_duty", (who, task, cap, rng.randint(0, 6)))
            elif roll < 0.5:
                action = DomainAction("unassign_duty", (who, task, cap))
            elif roll < 0.65:
                action = DomainAction("add_member", (who,))
            elif roll < 0.85:
                action = DomainAction("remove_member", (who,))
            else:
                action = DomainAction(
                    "change_type", (task, rng.choice(["Atomic", "Replicable", "Composable"]), None)
                )
            ctx = EvalContext(model, instance, task)
            try:
                apply_action(ctx, action)
            except ModelError:
                continue
            assert _ledger_ok(model)
            if action.name == "remove_member":
                assert not [d for d in model.iter_duties() if d.member == who]
    report(5, "1000 random sequences: removals strip duties, ledger never over-reserves")


# --- criterion 6: failed operations leave the model bit-identical ---------------------------


def test_criterion_06_failed_operations_are_atomic():
    model = load_model(VISITUS)
    instance = InstanceState(status={"BookFlight": Status.ACTIVE, "HotelProv": Status.PENDING})
    before = model_hash(model)

    with pytest.raises(ModelError):
        apply_action(EvalContext(model, instance, None), DomainAction("delete_task", ("BookFlight",)))
    assert model_hash(model) == before

    with pytest.raises(ModelError):
        apply_action(
            EvalContext(model, instance, None),
            DomainAction("assign_duty", ("Hotel", "HotelProv", "beds", 11)),
        )
    assert model_hash(model) == before
    report(6, "active-task deletion and over-capacity assignment leave the model bit-identical")


# --- criterion 7: choice operators never double-fire -----------------------------------


def test_criterion_07_choice_exclusivity():
    rng = random.Random(7777)
    entry = TriggerSpec("task_entry")
    for _ in range(400):
        op = rng.choice(["gchoice", "uchoice"])
        left_ok = rng.random() < 0.5
        right_ok = rng.random() < 0.5
        left = "" if left_ok else "if no() "
        right = "" if right_ok else "if no() "
        doc = parse_policy_document(f"policy P {left}do a() {op} {right}do b()")
        fired: list[str] = []
        applied = evaluate_rule_group(
            doc.policies[0].body,
            entry,
            "T",
            lambda p: False,
            lambda call: fired.append(call.name) or True,
        )
        assert not ("a" in fired and "b" in fired)
        assert len(applied) <= 1
        if op == "gchoice":
            assert ("b" in fired) == (not left_ok and right_ok)
        if left_ok:
            assert fired == ["a"]
    report(7, "400 random choice groups: at most one branch applies, guard semantics hold")


# --- criterion 8: bootstrap outcomes ------------------------------------------------------


BOOT_OK = (
    "vo Boot\nmember M kind=Partner cap beds=2\ncandidate C kind=Partner cap beds=8\n"
    "task T type=Replicable requires beds=3\n"
)
BOOT_FAIL = (
    "vo Boot\nmember M kind=Partner cap beds=2\ncandidate C kind=Partner cap beds=2\n"
    "task T type=Replicable requires beds=5\n"
)
INERT = "policy Inert appliesTo Nowhere do add_member(nobody)\n"


def test_criterion_08_bootstrap_covers_or_fails():
    model = load_model(BOOT_OK)
    final, instance, records = run_scenario(
        model, parse_policy_document(INERT), parse_scenario("activate T\n")
    )
    assert instance.status["T"] is Status.ACTIVE
    assert can_run(final, "T")
    assert "C" in final.members

    model = load_model(BOOT_FAIL)
    before = canonical_dump(model)
    final, instance, records = run_scenario(
        model, parse_policy_document(INERT), parse_scenario("activate T\n")
    )
    assert instance.status["T"] is Status.FAILED
    failure_triggers = [
        r for r in records if r.kind == "TRIGGER" and r.get("trigger") == "task_failure"
    ]
    assert len(failure_triggers) == 1
    assert canonical_dump(final) == before  # partial assignments rolled back
    report(8, "bootstrap admits candidates to cover shortfalls, otherwise fails the task cleanly")


# --- criterion 9: conflicting requests in one dispatch --------------------------------------


CONFLICT_MODEL = "vo C\ncandidate X kind=Partner cap c=1\ntask T type=Atomic\n"
CONFLICT_POLICIES = (
    "policy Adder appliesTo T when task_entry() do add_member(X)\n"
    "policy Dropper appliesTo T when task_entry() do remove_member(X)\n"
)


def test_criterion_09_conflict_detected_and_first_wins():
    final, instance, records = run_scenario(
        load_model(CONFLICT_MODEL),
        parse_policy_document(CONFLICT_POLICIES),
        parse_scenario("activate T\n"),
    )
    conflicts = [r for r in records if r.kind == "CONFLICT"]
    assert len(conflicts) == 1
    assert conflicts[0].get("class") == "member-add-remove"
    actions = [(r.kind, r.get("policy")) for r in records if r.kind.startswith("ACTION")]
    assert actions == [("ACTION-APPLIED", "Adder")]
    assert "X" in final.members
    report(9, "add/remove of one member in a dispatch: one conflict record, first action wins")


# --- criterion 10: determinism -----------------------------------------------------------


def test_criterion_10_repeated_runs_are_byte_identical():
    cases = [
        (FIXTURES / "visitus.vo", FIXTURES / "morebeds.pol", FIXTURES / "golden.scenario"),
        (FIXTURES / "visitus.vo", FIXTURES / "morebeds.pol", FIXTURES / "negative.scenario"),
    ]
    for model_path, policy_path, scenario_path in cases:
        outputs = []
        for _ in range(2):
            model = load_model(model_path.read_text())
            policies = parse_policy_document(policy_path.read_text())
            events = parse_scenario(scenario_path.read_text())
            outputs.append(format_trace(run_scenario(model, policies, events)[2]))
        assert outputs[0] == outputs[1]

    inline_cases = [
        (BOOT_OK, INERT, "activate T\n"),
        (BOOT_FAIL, INERT, "activate T\n"),
        (CONFLICT_MODEL, CONFLICT_POLICIES, "activate T\n"),
    ]
    for model_text, policy_text, scenario_text in inline_cases:
        outputs = []
        for _ in range(2):
            outputs.append(
                format_trace(
                    run_scenario(
                        load_model(model_text),
                        parse_policy_document(policy_text),
                        parse_scenario(scenario_text),
                    )[2]
                )
            )
        assert outputs[0] == outputs[1]
    report(10, "every acceptance run repeated twice produces byte-identical record traces")
