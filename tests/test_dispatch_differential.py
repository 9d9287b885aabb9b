"""The engine's dispatch against two frozen references.

The one-pass dispatch runs the same seeded models, policy documents and
event streams as the two-pass reference. They must agree byte for byte
up to the first dispatch in which the two-pass reference traces a
CONFLICT or a policy ERROR: only there does it let a suppressed request,
or a policy that raised, leave effects that later conditions observe.
When no such dispatch happens, the whole trace, the final model and the
final instance state must agree.

The trigger index runs against the full-walk reference, which evaluates
every active policy on every trigger. Their streams also load generated
policy documents, reload active names and retract policies; the whole
trace, the final model and the final instance state must agree on every
run, conflicts and policy errors included.

The references are ``Engine`` subclasses and share its STATE rendering,
so the rendering is checked on its own: after every event of both tests,
each engine's last STATE record lists the tasks as a fresh sorted join
of its status map would, whatever joined or left the process.
"""

from __future__ import annotations

import random

from astgen import gen_action, gen_condition, gen_group
from reference.full_walk import FullWalkEngine
from reference.two_pass import TwoPassEngine
from test_engine import _soup_model, ev

import vopol.engine
from vopol.domain import TRIGGER_NAMES
from vopol.engine import Engine
from vopol.model import canonical_dump, load_model, validate_model
from vopol.policy.ast import (
    ActionCall,
    ActionOp,
    GroupNode,
    Ident,
    NotCond,
    Number,
    Policy,
    PolicyDocument,
    PolicyRule,
    Pred,
    RuleLeaf,
    TriggerSpec,
)
from vopol.policy.render import render_policy_document
from vopol.state import Status
from vopol.trace import format_trace

# two members and two candidates on top of the soup model's member P
PEOPLE = ["P", "Q", "C0", "C1"]
PEOPLE_ROWS = (
    "member Q kind=Partner cap a=6\n"
    "candidate C0 kind=Partner cap a=8\n"
    "candidate C1 kind=Associate cap a=4\n"
)
ACTIONS = [
    "add_member",
    "remove_member",
    "assign_duty",
    "unassign_duty",
    "change_type",
    "add_task",
    "delete_task",
    "provide_input",
    "remove_input",
]


def _reshape_group(node, rule):
    if isinstance(node, RuleLeaf):
        return RuleLeaf(rule())
    return GroupNode(node.op, _reshape_group(node.left, rule), _reshape_group(node.right, rule))


def _reshape_condition(node, pred):
    if isinstance(node, Pred):
        return pred()
    if isinstance(node, NotCond):
        return NotCond(_reshape_condition(node.child, pred))
    return type(node)(_reshape_condition(node.left, pred), _reshape_condition(node.right, pred))


def _reshape_action(node, call):
    if isinstance(node, ActionCall):
        return call()
    return ActionOp(node.op, _reshape_action(node.left, call), _reshape_action(node.right, call))


def _policies(
    rng: random.Random, tasks: list[str], spare: list[str], items: list[str], names: list[str] | None = None
) -> PolicyDocument:
    """Operator shapes from ``astgen``, with vocabulary-valid leaves that
    often touch the same member, duty, task or input. The rules are
    located or not, and have no, one or two triggers. The policies are
    named ``names``, by default R0, R1, ... (one to four of them)."""
    every = tasks + spare

    def task():
        return Ident(rng.choice(every + ["this"]))

    def person():
        return Ident(rng.choice(PEOPLE))

    def pred():
        roll = rng.random()
        if roll < 0.3:
            return Pred("can_run", (task(),))
        if roll < 0.45:
            return Pred("active", (task(),))
        if roll < 0.65:
            return Pred("has_capacity", (person(), Ident("a"), Number(rng.randint(1, 8))))
        if roll < 0.8:
            return Pred("task_type", (task(), Ident("Atomic")))
        if roll < 0.98:
            return Pred("has_capability", (person(), Ident("a")))
        return Pred("has_capacity", (Ident("ghost"), Ident("a"), Number(1)))  # raises

    def call():
        name = rng.choice(ACTIONS)
        if name in ("add_member", "remove_member"):
            args = (person(),)
        elif name == "assign_duty":
            amount = (Number(rng.randint(0, 3)),) if rng.random() < 0.5 else ()
            args = (person(), task(), Ident("a"), *amount)
        elif name == "unassign_duty":
            args = (person(), task(), Ident("a"))
        elif name == "change_type":
            args = (task(), Ident(rng.choice(["Atomic", "Replicable"])))
        elif name == "add_task":
            args = (Ident(rng.choice(spare)), task(), Ident(rng.choice(["after", "parallel"])))
        elif name == "delete_task":
            args = (task(),)
        else:
            args = (Ident(rng.choice(items)), task())
        return ActionCall(name, args)

    def rule():
        location = rng.choice(every) if rng.random() < 0.4 else None
        triggers = tuple(TriggerSpec(rng.choice(TRIGGER_NAMES)) for _ in range(rng.randint(0, 2)))
        condition = _reshape_condition(gen_condition(rng), pred) if rng.random() < 0.5 else None
        return PolicyRule(location, triggers, condition, _reshape_action(gen_action(rng), call))

    if names is None:
        names = [f"R{k}" for k in range(rng.randint(1, 4))]
    return PolicyDocument(tuple(Policy(name, _reshape_group(gen_group(rng), rule)) for name in names))


def _state_is_fresh(engine: Engine) -> bool:
    """The last STATE record's ``tasks`` is the sorted join of the status
    map; every event that changes a status ends with a STATE record."""
    state = next(r for r in reversed(engine.records) if r.kind == "STATE")
    status = engine.instance.status
    return state.get("tasks") == ",".join(f"{t}:{status[t].value}" for t in sorted(status))


def _divergence_point(records) -> int | None:
    """Index of the TRIGGER record opening the first dispatch that traces a
    CONFLICT or a policy ERROR, or None when there is no such dispatch."""
    trigger = None
    for i, rec in enumerate(records):
        if rec.kind == "TRIGGER":
            trigger = i
        elif rec.kind == "CONFLICT" or (
            rec.kind == "ERROR" and (rec.get("detail") or "").startswith("policy ")
        ):
            return trigger
    return None


def test_one_pass_matches_two_pass_until_the_first_conflict_or_policy_error():
    rng = random.Random(2024)
    conflicted = clean = reshaped = 0
    for _ in range(200):
        model_text, tasks, spare, items = _soup_model(rng)
        model = load_model(model_text + PEOPLE_ROWS)
        policies = _policies(rng, tasks, spare, items)
        ref, new = TwoPassEngine(model, policies), Engine(model, policies)
        for _ in range(rng.randint(8, 24)):
            # the events follow the reference's state
            status = ref.instance.status
            ready = [t for t, s in status.items() if s is Status.READY]
            active = [t for t, s in status.items() if s is Status.ACTIVE]
            roll = rng.random()
            if roll < 0.1:
                event = ev(rng.choice(["consume", "release"]), rng.choice(["P", "Q"]), "a", rng.randint(1, 3))
            elif active and roll < 0.55:
                event = ev("complete" if rng.random() < 0.8 else "fail", rng.choice(active))
            elif ready:
                event = ev("activate", rng.choice(ready))
            else:
                event = ev(rng.choice(["activate", "complete"]), rng.choice(tasks + spare))
            ref.handle_event(event)
            new.handle_event(event)
            assert validate_model(new.model) == []
            assert _state_is_fresh(ref) and _state_is_fresh(new)
        reshaped += set(new.instance.status) != set(model.in_process_tasks())
        cut = _divergence_point(ref.records)
        if cut is None:
            assert format_trace(new.records) == format_trace(ref.records)
            assert canonical_dump(new.model) == canonical_dump(ref.model)
            assert new.instance == ref.instance
            clean += 1
        else:
            assert format_trace(new.records[:cut]) == format_trace(ref.records[:cut])
            conflicted += any(r.kind == "CONFLICT" for r in ref.records[cut:])
    assert conflicted >= 20 and clean >= 50 and reshaped >= 60, (conflicted, clean, reshaped)


def test_indexed_dispatch_matches_the_full_walk(tmp_path, monkeypatch):
    evaluate = vopol.engine.evaluate_rule_group
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return evaluate(*args)

    monkeypatch.setattr(vopol.engine, "evaluate_rule_group", counted)
    rng = random.Random(2025)
    skipped = loads = reloads = retracts = unknown = conflicted = files = 0
    for _ in range(200):
        model_text, tasks, spare, items = _soup_model(rng)
        model = load_model(model_text + PEOPLE_ROWS)
        # up to a dozen policies: with a few, even a merge left in set order
        # would come out sorted
        policies = _policies(rng, tasks, spare, items, [f"R{k}" for k in range(rng.randint(1, 12))])
        ref, new = FullWalkEngine(model, policies, tmp_path), Engine(model, policies, tmp_path)
        skips = 0
        for _ in range(rng.randint(8, 24)):
            # the events follow the reference's state
            status = ref.instance.status
            ready = [t for t, s in status.items() if s is Status.READY]
            active = [t for t, s in status.items() if s is Status.ACTIVE]
            active_names = [p.name for p in ref.policies]
            roll = rng.random()
            if roll < 0.08:
                event = ev(rng.choice(["consume", "release"]), rng.choice(["P", "Q"]), "a", rng.randint(1, 3))
            elif roll < 0.18:
                # the first policy takes a new name or an active one, with new rules
                files += 1
                names = [rng.choice(active_names + [f"L{files}"])]
                if rng.random() < 0.3:
                    names.append(f"M{files}")
                path = tmp_path / f"p{files}.pol"
                path.write_text(render_policy_document(_policies(rng, tasks, spare, items, names)), encoding="utf-8")
                event = ev("load-policy", path.name)
                loads += 1
                reloads += names[0] in active_names
            elif roll < 0.24:
                name = rng.choice(active_names) if active_names and rng.random() < 0.7 else "ghost"
                event = ev("retract-policy", name)
                retracts += name in active_names
                unknown += name not in active_names
            elif active and roll < 0.6:
                event = ev("complete" if rng.random() < 0.8 else "fail", rng.choice(active))
            elif ready:
                event = ev("activate", rng.choice(ready))
            else:
                event = ev(rng.choice(["activate", "complete"]), rng.choice(tasks + spare))
            start = calls
            ref.handle_event(event)
            middle = calls
            new.handle_event(event)
            skips += (middle - start) - (calls - middle)
            assert _state_is_fresh(ref) and _state_is_fresh(new)
        assert format_trace(new.records) == format_trace(ref.records)
        assert canonical_dump(new.model) == canonical_dump(ref.model)
        assert new.instance == ref.instance
        assert new.policies == ref.policies
        assert not any(r.get("error") == "InvalidPolicy" for r in new.records)
        skipped += skips > 0
        conflicted += any(r.kind == "CONFLICT" for r in new.records)
    counts = (skipped, loads, reloads, retracts, unknown, conflicted)
    assert skipped >= 160 and conflicted >= 80, counts
    assert loads >= 300 and reloads >= 250 and retracts >= 120 and unknown >= 60, counts
