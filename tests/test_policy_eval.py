from __future__ import annotations

import gc
import itertools
import random
from dataclasses import replace

import pytest

from vopol.domain import DomainTrigger
from vopol.engine import Engine
from vopol.model import load_model
from vopol.policy.ast import ActionCall, Ident, Policy, PolicyDocument, Pred, RuleLeaf, TriggerSpec, iter_rules
from vopol.policy.evaluate import evaluate_rule_group, linearize_actions, match_trigger
from vopol.policy.parser import parse_policy_document

from astgen import gen_args, gen_document, gen_rule
from conftest import MOREBEDS, VISITUS
from reference import naive


def body_of(text: str):
    return parse_policy_document(text).policies[0].body


def rule_of(text: str):
    return body_of(text).rule


ENTRY = TriggerSpec("task_entry")
EXIT = TriggerSpec("task_exit")


# --- match_trigger ----------------------------------------------------------


def test_match_located_rule_on_its_location():
    rule = rule_of("policy P appliesTo HotelProv when task_entry() do a()")
    assert match_trigger(rule, ENTRY, "HotelProv")
    assert not match_trigger(rule, ENTRY, "BookFlight")


def test_match_requires_trigger_name():
    rule = rule_of("policy P when task_exit() do a()")
    assert not match_trigger(rule, ENTRY, "T")
    assert match_trigger(rule, EXIT, "T")


def test_wildcard_rule_matches_anything():
    rule = rule_of("policy P do a()")
    assert match_trigger(rule, ENTRY, "T")
    assert match_trigger(rule, TriggerSpec("task_failure"), "Elsewhere")


def test_trigger_args_ignored_by_matching():
    rule = rule_of("policy P when task_entry(Other) do a()")
    assert match_trigger(rule, TriggerSpec("task_entry", (Ident("T"),)), "T")


def test_trigger_monotonicity():
    # dropping a trigger never turns a non-match into a match, except via
    # the documented empty-list wildcard
    rng = random.Random(7)
    for _ in range(300):
        rule = gen_rule(rng)
        if len(rule.triggers) < 2:
            continue
        event = TriggerSpec(rng.choice([t.name for t in rule.triggers] + ["other_evt"]))
        location = rule.location or "L"
        before = match_trigger(rule, event, location)
        for drop in range(len(rule.triggers)):
            triggers = rule.triggers[:drop] + rule.triggers[drop + 1 :]
            smaller = type(rule)(rule.location, triggers, rule.condition, rule.action)
            if not before:
                assert not match_trigger(smaller, event, location)


def test_match_trigger_agrees_with_the_walk_and_the_engine_index():
    # the matching rule is written three times: match_trigger, the walk's
    # inline loop and the keys of the engine's trigger index; on every
    # location and set of trigger names (a duplicate and a name no event
    # raises included), a rule of astgen's shapes without a condition
    # matches iff its one-rule policy fires iff the engine lists it
    rng = random.Random(41)
    names = ("task_entry", "task_exit", "task_failure")
    sets = [c for k in range(5) for c in itertools.combinations(names + ("other",), k)]
    sets.append(("task_exit", "task_exit"))
    model = load_model(VISITUS)
    tally = {True: 0, False: 0}
    for location, chosen in itertools.product((None, "BookFlight", "HotelProv", "Nowhere"), sets):
        triggers = tuple(TriggerSpec(name, gen_args(rng)) for name in chosen)
        rule = replace(gen_rule(rng), location=location, triggers=triggers, condition=None)
        policy = Policy("P", RuleLeaf(rule))
        engine = Engine(model, PolicyDocument((policy,)))
        for name, task in itertools.product(names, ("BookFlight", "HotelProv", "Nowhere")):
            event = TriggerSpec(name, (Ident(task),))
            matched = match_trigger(rule, event, task)
            fired = evaluate_rule_group(policy.body, event, task, lambda pred: True, lambda call: True) == [0]
            listed = engine._candidates(DomainTrigger(name, task)) == [policy]
            assert fired is matched and listed is matched, (rule, name, task)
            tally[matched] += 1
    # the grid alone decides these, whatever shapes astgen draws
    assert tally == {True: 168, False: 444}


# --- linearize_actions ------------------------------------------------------


class Executor:
    def __init__(self, failing=()):
        self.failing = set(failing)
        self.calls: list[str] = []

    def __call__(self, call: ActionCall) -> bool:
        self.calls.append(call.name)
        return call.name not in self.failing


def action_of(text: str):
    return rule_of(f"policy P do {text}").action


def test_andthen_short_circuits_on_failure():
    execu = Executor(failing={"a"})
    assert not linearize_actions(action_of("a() andthen b()"), execu)
    assert execu.calls == ["a"]
    assert [c for c in execu.calls if c in execu.failing] == ["a"]


def test_and_attempts_both_but_fails():
    execu = Executor(failing={"a"})
    assert not linearize_actions(action_of("a() and b()"), execu)
    assert execu.calls == ["a", "b"]


def test_or_runs_exactly_the_left():
    execu = Executor()
    assert linearize_actions(action_of("a() or b()"), execu)
    assert execu.calls == ["a"]


def test_or_does_not_fall_back():
    execu = Executor(failing={"a"})
    assert not linearize_actions(action_of("a() or b()"), execu)
    assert execu.calls == ["a"]


def test_orelse_falls_back_on_failure():
    execu = Executor(failing={"a"})
    assert linearize_actions(action_of("a() orelse b()"), execu)
    assert execu.calls == ["a", "b"]


def test_orelse_skips_fallback_on_success():
    execu = Executor()
    assert linearize_actions(action_of("a() orelse b()"), execu)
    assert execu.calls == ["a"]


def test_morebeds_execution_order():
    doc = parse_policy_document(MOREBEDS)
    execu = Executor()
    linearize_actions(doc.policies[0].body.rule.action, execu)
    assert execu.calls == ["change_type", "add_member", "assign_duty"]


def test_each_leaf_visited_at_most_once():
    rng = random.Random(11)
    for _ in range(200):
        rule = gen_rule(rng)
        seen: list[int] = []
        ids: set[int] = set()

        def attempt(call):
            assert id(call) not in ids or seen.count(id(call)) == 0
            seen.append(id(call))
            ids.add(id(call))
            return rng.random() < 0.5

        linearize_actions(rule.action, attempt)
        assert len(seen) == len(set(seen))


# --- evaluate_rule_group ----------------------------------------------------


def run_group(body, event=ENTRY, location="T", preds=None, sink=None):
    preds = preds or {}
    fired: list[str] = []

    def predicate(p: Pred) -> bool:
        return preds.get(p.name, False)

    def attempt(call: ActionCall) -> bool:
        fired.append(call.name)
        return True

    applied = evaluate_rule_group(body, event, location, predicate, sink or attempt)
    return applied, fired


def test_leaf_fires_when_matched_and_condition_true():
    body = body_of("policy P when task_entry() if ok() do a()")
    applied, fired = run_group(body, preds={"ok": True})
    assert applied == [0] and fired == ["a"]
    applied, fired = run_group(body, preds={"ok": False})
    assert applied == [] and fired == []


def test_gchoice_left_applicable_blocks_right():
    body = body_of("policy P do a() gchoice do b()")
    applied, fired = run_group(body)
    assert applied == [0] and fired == ["a"]


def test_gchoice_right_runs_when_left_inapplicable():
    body = body_of("policy P if no() do a() gchoice do b()")
    applied, fired = run_group(body)
    assert applied == [1] and fired == ["b"]


def test_uchoice_first_applicable_only():
    body = body_of("policy P do a() uchoice do b()")
    applied, fired = run_group(body)
    assert applied == [0] and fired == ["a"]
    body = body_of("policy P if no() do a() uchoice do b()")
    applied, fired = run_group(body)
    assert applied == [1] and fired == ["b"]


def test_seq_applies_both_in_order():
    body = body_of("policy P do a() seq do b()")
    applied, fired = run_group(body)
    assert applied == [0, 1] and fired == ["a", "b"]


def test_par_serializes_left_before_right():
    body = body_of("policy P do a() par do b()")
    applied, fired = run_group(body)
    assert applied == [0, 1] and fired == ["a", "b"]


def test_seq_right_sees_post_left_state():
    # the left rule's action flips the very flag the right condition reads
    body = body_of("policy P do set_flag() seq if flag() do b()")
    state = {"flag": False}

    def predicate(p: Pred) -> bool:
        return state[p.name]

    def attempt(call: ActionCall) -> bool:
        if call.name == "set_flag":
            state["flag"] = True
        return True

    applied = evaluate_rule_group(body, ENTRY, "T", predicate, attempt)
    assert applied == [0, 1]


def test_rule_indices_stable_when_branches_skipped():
    body = body_of("policy P (do a() gchoice do b()) seq do c()")
    applied, fired = run_group(body)
    assert applied == [0, 2] and fired == ["a", "c"]


def test_evaluation_leaves_no_cyclic_garbage():
    # the recursion keeps its state in arguments, so evaluating a policy
    # leaves nothing for the cyclic collector
    body = body_of(
        "policy P (if no() do a() gchoice do b() andthen c())"
        " seq (do d() orelse e() uchoice do f()) seq do g() andthen h()"
    )
    fired: list[str] = []

    def attempt(call: ActionCall) -> bool:
        fired.append(call.name)
        return call.name != "d"

    gc.collect()
    gc.disable()
    try:
        applied = evaluate_rule_group(body, ENTRY, "T", lambda p: False, attempt)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert applied == [1, 2, 4]
    assert fired == ["b", "c", "d", "e", "g", "h"]


def test_predicate_errors_propagate():
    body = body_of("policy P if boom() do a()")

    def predicate(p: Pred):
        raise KeyError(p.name)

    with pytest.raises(KeyError):
        evaluate_rule_group(body, ENTRY, "T", predicate, lambda c: True)


def test_guard_and_choice_exclusivity_property():
    rng = random.Random(13)
    for _ in range(300):
        op = rng.choice(["gchoice", "uchoice"])
        left_ok = rng.random() < 0.5
        right_ok = rng.random() < 0.5
        lcond = "" if left_ok else "if no() "
        rcond = "" if right_ok else "if no() "
        body = body_of(f"policy P {lcond}do a() {op} {rcond}do b()")
        applied, fired = run_group(body)
        assert not ("a" in fired and "b" in fired)
        if op == "gchoice":
            # right applies iff left did not
            assert ("b" in fired) == (not left_ok and right_ok)


def test_walk_matches_the_naive_walk():
    # predicates and attempts succeed at random, from one seed per pair of
    # walks; a false condition leaves no trace record, so only the calls
    # show a skipped or repeated evaluation
    rng = random.Random(31)
    tally = {"applied": 0, "calls": 0}
    for _ in range(600):
        doc = gen_document(rng)
        rules = [rule for policy in doc.policies for _, rule in iter_rules(policy.body)]
        event = TriggerSpec(rng.choice([t.name for rule in rules for t in rule.triggers] + ["other"]))
        location = rng.choice([rule.location for rule in rules if rule.location] + ["L"])
        for policy in doc.policies:
            seed = rng.random()
            runs = []
            for walk in (evaluate_rule_group, naive.evaluate_rule_group):
                coin, calls = random.Random(seed), []

                def predicate(p: Pred) -> bool:
                    calls.append(("predicate", id(p)))
                    return coin.random() < 0.6

                def attempt(call: ActionCall) -> bool:
                    calls.append(("attempt", id(call)))
                    return coin.random() < 0.6

                runs.append((walk(policy.body, event, location, predicate, attempt), calls))
            assert runs[0] == runs[1], policy
            tally["applied"] += len(runs[0][0])
            tally["calls"] += len(runs[0][1])
    assert tally["applied"] >= 300 and tally["calls"] >= 1000, tally
