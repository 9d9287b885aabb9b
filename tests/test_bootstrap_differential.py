"""The bootstrap allocator against its frozen hand-written reference.

Both run on the same seeded models: members and candidates of every kind,
with and without bids, competition and plain tasks of every type needing
one to three capabilities, existing duties (an atomic task's sole holder
among them), pre-reserved units and, sometimes, an instance in which the
task is already active. For every model they must agree on the resulting
model and the actions performed, or fail with the same message, and leave
the input untouched.
"""

from __future__ import annotations

import random

from reference import bootstrap as reference
from test_domain import ctx_for

from vopol import domain
from vopol.domain import DomainAction, apply_action, run_bootstrap
from vopol.errors import AtomicityViolationError, ModelError, TaskFailure
from vopol.model import adjust_reserved_capacity, canonical_dump, load_model, validate_model

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


def _try(m, make):
    try:
        return make(m)
    except ModelError:
        return m


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
            duty = DomainAction("assign_duty", (mid, task, cap, rng.randint(0, 3)))
            m = _try(m, lambda m: apply_action(ctx_for(m), duty))
    # units reserved outside any duty, for members and candidates alike
    for pid in members + candidates:
        if rng.random() < 0.3:
            m = _try(m, lambda m: adjust_reserved_capacity(m, pid, rng.choice(CAPS), rng.randint(1, 4)))
    assert validate_model(m) == []
    return m


def _outcome(run, m, active):
    ctx = ctx_for(m, "T", active)
    try:
        out, performed = run(ctx, "T")
    except TaskFailure as err:
        result = ("failed", err.message)
    else:
        assert validate_model(out) == []
        result = ("ok", canonical_dump(out), performed)
    return result, ctx.hold_sink


def test_bootstrap_matches_the_hand_written_allocator(monkeypatch):
    atomic_skips = []

    def counting_apply(ctx, action):
        try:
            return apply_action(ctx, action)
        except AtomicityViolationError:
            atomic_skips.append(action)
            raise

    monkeypatch.setattr(domain, "apply_action", counting_apply)
    rng = random.Random(7)
    admissions = failures = sole_holders = 0
    for _ in range(400):
        m = _model(rng)
        active = ("T",) if rng.random() < 0.25 else ()
        before = canonical_dump(m)
        expected = _outcome(reference.run_bootstrap, m, active)
        got = _outcome(run_bootstrap, m, active)
        assert got == expected
        assert got[1] == []  # the bootstrap only ever raises duties
        assert canonical_dump(m) == before
        failures += got[0][0] == "failed"
        admissions += got[0][0] == "ok" and any(a.name == "add_member" for a in got[0][2])
        sole_holders += m.tasks["T"].ttype.value == "Atomic" and bool(m.duties_on("T"))
    assert admissions >= 60 and failures >= 60 and sole_holders >= 20, (admissions, failures, sole_holders)
    assert len(atomic_skips) >= 40, len(atomic_skips)
