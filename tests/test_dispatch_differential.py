"""The engine against the naive engine of ``reference/naive.py``.

Both run the same seeded models, policy documents and event streams. The
streams activate, complete and fail tasks, consume and release units,
load generated policy documents (new names and reloads of active ones)
and retract active and unknown policies. After every event the two
engines must agree on the event's records, the model, the instance and
the active policies, conflicts, policy errors and bootstrap failures
included. So the trigger index, ``can_run`` and the duty writer, the
readiness refresh of touched tasks, the kept STATE fragments, the
conflicts derived from what requests write, the bootstrap through
ordinary actions over a shared ranking, the writes in place and the
rollback through the model's journal each match their naive form, which
writes a clone and swaps it in instead. The bootstrap's frontier must
equal its rebuild from the model after every event and after every
rollback of a policy that raised.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import pytest

from astgen import gen_action, gen_condition, gen_group
from reference import naive
from test_engine import ev
from test_frontier import rebuilt_frontier

import vopol.engine
from vopol.domain import TRIGGER_NAMES, VOCABULARY
from vopol.engine import BOOTSTRAP_POLICY, Engine
from vopol.model import canonical_dump, load_model, validate_model
from vopol.policy.ast import (
    ActionCall,
    Ident,
    Number,
    Policy,
    PolicyDocument,
    PolicyRule,
    Pred,
    TriggerSpec,
)
from vopol.policy.render import render_policy_document
from vopol.state import Status
from vopol.trace import format_trace

PEOPLE = ["P", "Q", "C0", "C1"]


def _soup_model(rng: random.Random) -> tuple[str, list[str], list[str], list[str]]:
    """A random DAG with catalogue tasks, customer- and task-sourced data
    flows and input clauses that no flow feeds. Two members and two
    candidates share capability ``a``; requirements often exceed what the
    members have free, so the bootstrap admits candidates and fails."""
    n = rng.randint(4, 8)
    tasks = [f"T{i}" for i in range(n)]
    spare = [f"C{i}" for i in range(rng.randint(2, 3))]
    items = ["brief", "plan", "memo", "ghost"]
    clauses = {t: set() for t in tasks + spare}
    rows = [
        "vo Diff",
        f"member P kind=Partner cap a={rng.randint(1, 8)}",
        "member Q kind=Partner cap a=6",
        "candidate C0 kind=Partner cap a=8",
        "candidate C1 kind=Associate cap a=4",
    ]
    edges = {(tasks[i], tasks[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
    flows = [("brief", "customer", tasks[0])]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(n - 1)
        flows.append((rng.choice(items[1:3]), tasks[i], rng.choice(tasks[i + 1:])))
    for t in tasks + spare:
        if rng.random() < 0.3:
            clauses[t].add(rng.choice(items))  # often no flow behind it
    for t in tasks + spare:
        need = f" requires a={rng.randint(1, 16)}" if rng.random() < 0.5 else ""
        inputs = "".join(f" input {item}" for item in sorted(clauses[t]))
        where = " inprocess=false" if t in spare else ""
        rows.append(f"task {t} type=Replicable{need}{inputs}{where}")
    rows += [f"edge {p} {s}" for p, s in sorted(edges)]
    rows += [f"dataflow {item} from={src} to={dst}" for item, src, dst in flows]
    return "\n".join(rows) + "\n", tasks, spare, items


def _policies(rng: random.Random, tasks: list[str], spare: list[str], items: list[str], names: list[str]):
    """Policies named ``names``, with operator shapes from ``astgen`` and
    vocabulary-valid leaves that often touch the same member, duty, task
    or input. The rules are located or not, and have no, one or two
    triggers."""
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
        name = rng.choice(sorted(VOCABULARY.actions))
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
        condition = gen_condition(rng, leaf=pred) if rng.random() < 0.5 else None
        return PolicyRule(location, triggers, condition, gen_action(rng, leaf=call))

    return PolicyDocument(tuple(Policy(name, gen_group(rng, leaf=rule)) for name in names))


def _same(new: Engine, ref: naive.NaiveEngine):
    assert canonical_dump(new.model) == canonical_dump(ref.model)
    assert new.instance == ref.instance
    assert new.policies == ref.policies
    assert validate_model(new.model) == []
    assert new.model._live == rebuilt_frontier(new.model)


def run_naive_differential(tmp_path: Path) -> tuple[Counter[str], Counter[str]]:
    """Run both engines over 200 seeded runs and assert that they agree
    after every event. Return what the runs covered: a tally of streams
    and outcomes, and the policy actions applied by name. The tests below
    and ``test_engine.py`` share one run through the ``naive_differential``
    fixture and each asserts its own floors."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _run(tmp_path, monkeypatch)


def _run(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> tuple[Counter[str], Counter[str]]:
    # policy evaluations per engine module
    evaluations: Counter[object] = Counter()
    for module in (vopol.engine, naive):
        def counted(*args, _module=module, _evaluate=module.evaluate_rule_group):
            evaluations[_module] += 1
            return _evaluate(*args)

        monkeypatch.setattr(module, "evaluate_rule_group", counted)
    tally: Counter[str] = Counter()

    def checked_undo(model, mark, _undo=vopol.engine.undo):
        # the engine undoes only a policy that raised
        _undo(model, mark)
        assert model._live == rebuilt_frontier(model)
        tally["frontier rollbacks"] += bool(model._live)

    monkeypatch.setattr(vopol.engine, "undo", checked_undo)
    rng = random.Random(2025)
    applied: Counter[str] = Counter()
    for _ in range(200):
        model_text, tasks, spare, items = _soup_model(rng)
        model = load_model(model_text)
        loaded = canonical_dump(model)
        # up to a dozen policies: with a few, even a merge of index buckets
        # left in set order would come out sorted
        policies = _policies(rng, tasks, spare, items, [f"R{k}" for k in range(rng.randint(1, 12))])
        ref, new = naive.NaiveEngine(model, policies, tmp_path), Engine(model, policies, tmp_path)
        assert format_trace(new.records) == format_trace(ref.records)
        _same(new, ref)
        evaluations.clear()
        for _ in range(rng.randint(8, 24)):
            # the events follow the naive engine's state
            status = ref.instance.status
            ready = [t for t, s in status.items() if s is Status.READY]
            active = [t for t, s in status.items() if s is Status.ACTIVE]
            active_names = [p.name for p in ref.policies]
            roll = rng.random()
            if roll < 0.08:
                event = ev(rng.choice(["consume", "release"]), rng.choice(["P", "Q"]), "a", rng.randint(1, 3))
            elif roll < 0.18:
                # the first policy takes a new name or an active one, with new rules
                tally["loads"] += 1
                names = [rng.choice(active_names + [f"L{tally['loads']}"])]
                if rng.random() < 0.3:
                    names.append(f"M{tally['loads']}")
                path = tmp_path / f"p{tally['loads']}.pol"
                path.write_text(render_policy_document(_policies(rng, tasks, spare, items, names)), encoding="utf-8")
                event = ev("load-policy", path.name)
                tally["reloads"] += names[0] in active_names
            elif roll < 0.25:
                name = rng.choice(active_names) if active_names and rng.random() < 0.7 else "ghost"
                event = ev("retract-policy", name)
                tally["retracts" if name in active_names else "unknown retracts"] += 1
            elif active and roll < 0.6:
                event = ev("complete" if rng.random() < 0.8 else "fail", rng.choice(active))
            elif ready:
                event = ev("activate", rng.choice(ready))
            else:
                event = ev(rng.choice(["activate", "complete"]), rng.choice(tasks + spare))
            expected = format_trace(ref.handle_event(event))
            assert format_trace(new.handle_event(event)) == expected, event
            _same(new, ref)
        # each engine writes a working copy; the model they were given is untouched
        assert canonical_dump(model) == loaded
        records = new.records
        assert not any(r.get("error") == "InvalidPolicy" for r in records)
        tally["skipped"] += evaluations[vopol.engine] < evaluations[naive]
        conflicted = any(r.kind == "CONFLICT" for r in records)
        rolled_back = any(_rollback(r) for r in records)
        tally["conflicted"] += conflicted
        tally["clean"] += not conflicted and not rolled_back
        tally["reshaped"] += set(new.instance.status) != set(model.in_process_tasks())
        tally["frontiers"] += bool(new.model._live)
        for r in records:
            bootstrap = r.get("policy") == BOOTSTRAP_POLICY
            tally["rollbacks"] += _rollback(r)
            tally["admissions"] += bootstrap and r.get("action") == "add_member"
            tally["bootstrap failures"] += bootstrap and r.kind == "ACTION-FAILED"
            if r.kind == "ACTION-APPLIED" and not bootstrap:
                applied[r.get("action")] += 1
    return tally, applied


def _rollback(r) -> bool:
    return r.kind == "ERROR" and r.get("detail").startswith("policy ")


def test_indexed_dispatch_matches_the_full_walk(naive_differential):
    # the naive engine evaluates every active policy on every trigger; the
    # index skips some in most runs, and loads, reloads and retracts
    # re-index the active policies
    tally, _ = naive_differential
    assert tally["skipped"] >= 160 and tally["conflicted"] >= 80, tally
    assert tally["loads"] >= 300 and tally["reloads"] >= 250, tally
    assert tally["retracts"] >= 120 and tally["unknown retracts"] >= 60, tally


def test_one_pass_matches_two_pass_until_the_first_conflict_or_policy_error(naive_differential):
    # the naive dispatch evaluates and applies one candidate at a time and
    # checks every pair of requests with the hand-written rules; the
    # engine agrees with it on whole runs, so up to the first conflict or
    # policy error and past it
    tally, _ = naive_differential
    assert tally["conflicted"] >= 80 and tally["clean"] >= 50 and tally["reshaped"] >= 60, tally
    assert tally["rollbacks"] >= 40, tally


def test_engine_matches_the_naive_engine_after_every_event(naive_differential):
    # the bootstrap admits candidates and fails, and every action applies
    tally, applied = naive_differential
    assert tally["admissions"] >= 80 and tally["bootstrap failures"] >= 25, tally
    assert len(applied) == 9, applied


def test_frontier_matches_its_rebuild_after_every_event_and_rollback(naive_differential):
    # most runs build a frontier, and some roll back a policy after it
    tally, _ = naive_differential
    assert tally["frontiers"] >= 120 and tally["frontier rollbacks"] >= 25, tally
