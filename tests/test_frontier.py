"""The bootstrap frontier (``VoModel._live``) against a rebuild from the model.

A walk builds a frontier key from the model the first time it needs it,
and from then on ``_reserve`` and ``_move_member`` keep every built key
true, through the journal. So after any write, undo or clone, each built
key must equal :func:`rebuilt_frontier`, which recomputes it from the
pools and the reserved units alone. Here that is checked after every
event of the benchmark's workloads at a quarter of their size, after the
walk's own undo of a candidate whose duty breaks atomicity, and on a
clone taken mid-run and the model it was taken from once the clone is
written. The dispatch and bootstrap differentials check it too.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from test_domain import ctx_for

from vopol import domain
from vopol.cli import parse_scenario
from vopol.domain import DomainAction, apply_action, run_bootstrap
from vopol.engine import Engine
from vopol.errors import TaskFailure
from vopol.model import (
    _frontier,
    adjust_reserved_capacity,
    canonical_dump,
    free_capacity,
    load_model,
    validate_model,
)
from vopol.policy.parser import parse_policy_document

ROOT = Path(__file__).resolve().parents[1]


def rebuilt_frontier(m) -> dict[tuple[str, bool, int], tuple[int, ...]]:
    """Every frontier key ``m`` has built, recomputed from the model: the
    positions, in the ranking's order for the key's side, of the people
    in that side's pool with free units of the key's capability."""
    out = {}
    for key in m._live:
        capability, competition, side = key
        order = m._ranking.orders(capability, competition)[side]
        pool = m.registry if side else m.members
        out[key] = tuple(
            i for i, (who, _) in enumerate(order) if who in pool and free_capacity(m, who, capability) > 0
        )
    return out


def _workload(name: str, scale: float = 0.25, seed: int = 1):
    """A benchmark workload, from the generator in ``perfbench/gen.py``."""
    gen = sys.modules.get("perfbench_gen")
    if gen is None:
        spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
        gen = sys.modules["perfbench_gen"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
    return getattr(gen, name.replace("-", "_"))(seed, scale)


def _engine(workload) -> tuple[Engine, list]:
    engine = Engine(load_model(workload.model), parse_policy_document(workload.policies))
    return engine, parse_scenario(workload.scenario)


@pytest.mark.parametrize("name, built", [("policy-storm", False), ("rewire", True), ("chain", True)])
def test_frontier_matches_a_rebuild_after_every_workload_event(name, built):
    engine, events = _engine(_workload(name))
    keys = set()
    for event in events:
        engine.handle_event(event)
        assert engine.model._live == rebuilt_frontier(engine.model), event
        keys |= engine.model._live.keys()
    # rewire and chain bootstrap from a population; policy-storm's members
    # always cover its tasks, so its walks never start
    assert bool(keys) is built, keys


def test_walk_undo_of_a_candidate_restores_the_frontier(monkeypatch):
    # U's bootstrap builds both frontier keys of a and admits C0; T is
    # atomic and P holds part of it, so the walk skips member C0, admits
    # C1, finds its duty breaks atomicity and undoes the admission, and T
    # fails. Both orders rank everyone: C0, C1, P, Q by id and C0, P, Q, C1
    # by kind, so C0 is member entry 0 and C1 candidate entry 3
    m = load_model(
        "vo F\n"
        "member P kind=Partner cap a=2\n"
        "member Q kind=Partner cap a=1\n"
        "candidate C0 kind=Partner cap a=4\n"
        "candidate C1 kind=Associate cap a=4\n"
        "task U type=Replicable requires a=2\n"
        "task T type=Atomic requires a=4\n"
    )
    apply_action(ctx_for(m), DomainAction("assign_duty", ("P", "T", "a", 2)))
    assert [a.args[0] for a in run_bootstrap(ctx_for(m), "U")] == ["Q", "C0", "C0"]
    built = dict(m._live)
    assert built == {("a", False, 0): (0,), ("a", False, 1): (3,)}
    undone = []

    def checked_undo(model, mark):
        undo(model, mark)
        assert model._live == rebuilt_frontier(model)
        undone.append(mark)

    undo = domain.undo
    monkeypatch.setattr(domain, "undo", checked_undo)
    with pytest.raises(TaskFailure):
        run_bootstrap(ctx_for(m, "T"), "T")
    # the walk's undo after C0 (nothing to undo) and after C1, then the
    # failed bootstrap's
    assert len(undone) == 3
    assert m._live == built == rebuilt_frontier(m)
    assert validate_model(m) == []


def test_a_clone_taken_mid_run_owns_its_frontier():
    engine, events = _engine(_workload("rewire"))
    half = len(events) // 2
    for event in events[:half]:
        engine.handle_event(event)
    original = engine.model
    before = dict(original._live)
    twin = original.clone()
    assert twin._live == before and twin._live is not original._live
    # exhaust everyone on a built key of the clone
    key = next(k for k, live in before.items() if live)
    capability, competition, side = key
    order = twin._ranking.orders(capability, competition)[side]
    for position in before[key]:
        who = order[position][0]
        adjust_reserved_capacity(twin, who, capability, free_capacity(twin, who, capability))
    assert twin._live[key] == () == rebuilt_frontier(twin)[key]
    assert twin._live == rebuilt_frontier(twin)
    assert original._live == before == rebuilt_frontier(original)
    # the original runs on, unaffected, to the end of its workload
    for event in events[half:]:
        engine.handle_event(event)
        assert original._live == rebuilt_frontier(original)


def test_a_missing_key_is_built_from_the_model_and_journaled():
    text = "vo F\nmember P kind=Partner cap a=1\ncandidate C kind=Partner cap a=3\ntask T type=Replicable requires a=2\n"
    m = load_model(text)
    m._ranking = domain._Ranking(m)
    order = m._ranking.orders("a", False)[1]
    mark = domain.journal_mark(m)
    assert _frontier(m, ("a", False, 1), order) == (order.index(("C", 3)),)
    assert m._live == rebuilt_frontier(m)
    # derived state: equality and the dump leave it out
    fresh = load_model(text)
    assert m == fresh and canonical_dump(m) == canonical_dump(fresh)
    domain.undo(m, mark)
    assert m._live == {}
