"""The bootstrap allocator against the hand-written one of the naive
engine (``reference/naive.py``).

Both run on the same seeded models: members and candidates of every kind,
with and without bids, competition and plain tasks of every type needing
one to three capabilities, existing duties (an atomic task's sole holder
among them), pre-reserved units and, sometimes, an instance in which the
task is already active. For every model they must agree on the model
they leave and the actions performed, or fail with the same message and
the model as it was.

The allocator ranks the population once and shares the ranking between
a model and its clones, so they are also run on successive clones of one
model: each bootstrap writes the model the next one clones, with
memberships moved by actions in between and, once, a write straight
into the registry, which the read-only registry refuses. In between,
entries the walks exhausted also regain units, by a release of reserved
units, an ``unassign_duty`` and a ``remove_member`` followed by the
member's re-admission, so they re-enter the walk's frontier, which must
equal its rebuild from the model after every step.
"""

from __future__ import annotations

import random
from contextlib import suppress

import pytest

from reference import naive
from test_domain import ctx_for
from test_frontier import rebuilt_frontier

from vopol import domain
from vopol.domain import DomainAction, apply_action, run_bootstrap
from vopol.errors import AtomicityViolationError, ModelError, TaskFailure
from vopol.model import (
    Member,
    MemberKind,
    adjust_reserved_capacity,
    canonical_dump,
    free_capacity,
    journal_mark,
    load_model,
    undo,
    validate_model,
)

KINDS = ["Partner", "Associate", "ExtEntity"]
CAPS = ["a", "b", "c"]


def _person(rng: random.Random, row: str, pid: str) -> str:
    text = f"{row} {pid} kind={rng.choice(KINDS)}"
    for cap in rng.sample(CAPS, rng.randint(1, 3)):
        text += f" cap {cap}={rng.randint(0, 7)}"
        if rng.random() < 0.6:  # the others bid nothing
            text += f" cost={rng.randint(1, 5)}"
    return text + "\n"


def _task(rng: random.Random, tid: str) -> str:
    text = f"task {tid} type={rng.choice(['Atomic', 'Replicable', 'Composable'])}"
    if rng.random() < 0.5:
        text += " sharing=competition"
    for cap in sorted(rng.sample(CAPS, rng.randint(1, 3))):
        text += f" requires {cap}={rng.randint(1, 7)}"
    return text + "\n"


def _model(rng: random.Random):
    members = [f"M{i}" for i in range(rng.randint(0, 4))]
    candidates = [f"C{i}" for i in range(rng.randint(0, 4))]
    text = "vo D\n" + "".join(_person(rng, "member", p) for p in members)
    text += "".join(_person(rng, "candidate", p) for p in candidates)
    m = load_model(text + _task(rng, "T") + _task(rng, "U"))
    # existing duties on T (an atomic T keeps only the first holder) and on U
    for mid in members:
        if rng.random() < 0.5:
            task = rng.choice("TTU")
            cap = rng.choice(sorted(m.tasks[task].required))
            with suppress(ModelError):
                apply_action(ctx_for(m), DomainAction("assign_duty", (mid, task, cap, rng.randint(0, 3))))
    # units reserved outside any duty, for members and candidates alike
    for pid in members + candidates:
        if rng.random() < 0.3:
            with suppress(ModelError):
                adjust_reserved_capacity(m, pid, rng.choice(CAPS), rng.randint(1, 4))
    assert validate_model(m) == []
    return m


def _naive_bootstrap(ctx, task):
    """The hand-written allocator, swapping the scratch clone it returns in."""
    ctx.model, performed = naive.run_bootstrap(ctx, task)
    return performed


def _outcome(run, m, active):
    """Bootstrap T on ``m``: how it ended, the model it left and the holds."""
    ctx = ctx_for(m, "T", active)
    try:
        result = ("ok", run(ctx, "T"))
    except TaskFailure as err:
        result = ("failed", err.message)
    assert validate_model(ctx.model) == []
    return result, canonical_dump(ctx.model), dict(ctx.model.holds)


def test_bootstrap_matches_the_hand_written_allocator(monkeypatch):
    atomic_skips = []

    def counting_apply(ctx, action):
        try:
            apply_action(ctx, action)
        except AtomicityViolationError:
            atomic_skips.append(action)
            raise

    monkeypatch.setattr(domain, "apply_action", counting_apply)
    rng = random.Random(7)
    admissions = failures = sole_holders = 0
    for _ in range(400):
        m = _model(rng)
        active = ("T",) if rng.random() < 0.25 else ()
        # each run writes its own clone; a failure leaves it as it was
        expected = _outcome(_naive_bootstrap, m.clone(), active)
        got = _outcome(run_bootstrap, m.clone(), active)
        assert got == expected
        assert got[2] == {}  # the bootstrap only ever raises duties
        if got[0][0] == "failed":
            assert got[1] == canonical_dump(m)
        failures += got[0][0] == "failed"
        admissions += got[0][0] == "ok" and any(a.name == "add_member" for a in got[0][1])
        sole_holders += m.tasks["T"].ttype.value == "Atomic" and bool(m.duties_on("T"))
    assert admissions >= 60 and failures >= 60 and sole_holders >= 20, (admissions, failures, sole_holders)
    assert len(atomic_skips) >= 40, len(atomic_skips)


def test_bootstrap_in_place_matches_the_new_version():
    # under a journal the caller holds open, as the engine does, the walk
    # ends as it does without one and leaves the journal open: a failure
    # has undone its writes already, and undoing to the caller's mark
    # restores the model after a success
    rng = random.Random(7)
    failures = 0
    for _ in range(400):
        m = _model(rng)
        active = ("T",) if rng.random() < 0.25 else ()
        alone = m.clone()
        expected = _outcome(run_bootstrap, alone, active)
        assert alone._journal is None
        working = m.clone()
        mark = journal_mark(working)
        assert _outcome(run_bootstrap, working, active) == expected
        assert working._journal is not None
        undo(working, mark)
        assert working == m and canonical_dump(working) == canonical_dump(m)
        assert working._live == m._live == {}  # the keys the walk built are undone too
        failures += expected[0][0] == "failed"
    assert failures >= 60, failures


def _regain(rng: random.Random, m, people: list[str]) -> str | None:
    """Give an entry units back, or take them: release reserved units no
    duty claims, unassign a duty, remove a member and re-admit it, or
    reserve someone's free units. Returns which, or None for no step."""
    roll = rng.random()
    if roll < 0.25 and m.duties:
        key = rng.choice(sorted(m.duties))
        apply_action(ctx_for(m), DomainAction("unassign_duty", key))
        return "unassign"
    if roll < 0.5:
        holders = sorted({key[0] for key in m.duties})
        if holders:
            who = rng.choice(holders)
            apply_action(ctx_for(m), DomainAction("remove_member", (who,)))
            apply_action(ctx_for(m), DomainAction("add_member", (who,)))
            return "readmit"
        return None
    if roll < 0.75:
        unclaimed = dict(m.reserved)
        for (who, _, cap), amount in m.duties.items():
            unclaimed[who, cap] -= amount
        releasable = sorted(key for key, units in unclaimed.items() if units > 0)
        if not releasable:
            return None
        who, cap = key = rng.choice(releasable)
        adjust_reserved_capacity(m, who, cap, -rng.randint(1, unclaimed[key]))
        return "release"
    who, cap = rng.choice(people), rng.choice(CAPS)
    free = free_capacity(m, who, cap)
    if not free or free <= 0:
        return None
    adjust_reserved_capacity(m, who, cap, free)
    return "exhaust"


def test_successive_versions_share_one_ranking_until_the_registry_is_written():
    rng = random.Random(11)
    regain_rng = random.Random(13)  # apart, so the versions above stay as they were
    shared = admitted = 0
    reentries: dict[str, int] = dict.fromkeys(["unassign", "readmit", "release"], 0)
    # the cheapest Partner there is, which a ranking that missed it would skip
    cheapest = "candidate B0 kind=Partner" + "".join(f" cap {cap}=9 cost=0" for cap in CAPS) + "\n"
    for _ in range(80):
        people = [f"M{i}" for i in range(rng.randint(1, 4))] + [f"C{i}" for i in range(rng.randint(2, 5))]
        text = "vo D\n" + "".join(_person(rng, "member" if p[0] == "M" else "candidate", p) for p in people)
        tasks = [f"W{i}" for i in range(6)]
        m = load_model(text + cheapest + "".join(_task(rng, t) for t in tasks))
        write_at = rng.randrange(1, len(tasks))
        for step, task in enumerate(tasks):
            m = m.clone()  # a clone shares the ranking of the model it copies
            # memberships move between bootstraps through ordinary actions
            for _ in range(rng.randint(0, 2)):
                who = rng.choice(people)
                move = DomainAction("add_member" if who in m.registry else "remove_member", (who,))
                with suppress(ModelError):
                    apply_action(ctx_for(m), move)
            for _ in range(regain_rng.randint(0, 3)):
                live = dict(m._live)
                step_kind = _regain(regain_rng, m, people)
                assert m._live == rebuilt_frontier(m) and validate_model(m) == []
                if step_kind in reentries:
                    reentries[step_kind] += any(set(entries) - set(live.get(key, ())) for key, entries in m._live.items())
            before = m._ranking
            if step == write_at:
                with pytest.raises(TypeError):
                    m.registry["B1"] = Member("B1", MemberKind.PARTNER, dict.fromkeys(CAPS, 9), dict.fromkeys(CAPS, 0))
            try:
                expected = naive.run_bootstrap(ctx_for(m), task)
            except TaskFailure as err:
                with pytest.raises(TaskFailure) as caught:
                    run_bootstrap(ctx_for(m), task)
                assert caught.value.message == err.message
            else:
                performed = run_bootstrap(ctx_for(m), task)
                assert (canonical_dump(m), performed) == (canonical_dump(expected[0]), expected[1])
                assert validate_model(m) == []
                admitted += DomainAction("add_member", ("B0",)) in performed
            assert m._live == rebuilt_frontier(m)
            if before is not None:
                assert m._ranking is before
                shared += 1
    assert shared >= 350 and admitted >= 60, (shared, admitted)
    assert min(reentries.values()) >= 20, reentries
