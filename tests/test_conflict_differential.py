"""Conflicts derived from what each request writes, against the
hand-written pair rules of the naive engine (``reference/naive.py``).

The universe holds every action of the vocabulary over two names, which
serve as members, tasks, capabilities and items alike (so keys of
different classes collide wherever they can), both task types, an open
or a ``competition`` sharing, an open amount or 1 or 2, and a few
unknown action names. Every ordered pair of it, and seeded request lists
checked with ``start``, must give the same conflicts as the reference.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

from reference import naive

from vopol.conflict import detect_conflicts
from vopol.domain import DomainAction

NAMES = ("x", "y")
UNKNOWN = [
    DomainAction("grant", ()),
    DomainAction("grant", ("x",)),
    DomainAction("delete", ("x",)),
    DomainAction("", ("x", "y", "x")),
]


def _universe() -> list[DomainAction]:
    actions = []
    for name in ("add_member", "remove_member", "delete_task"):
        actions += [DomainAction(name, (n,)) for n in NAMES]
    for member, task, capability in itertools.product(NAMES, repeat=3):
        actions.append(DomainAction("unassign_duty", (member, task, capability)))
        for amount in (None, 1, 2):
            actions.append(DomainAction("assign_duty", (member, task, capability, amount)))
    for first, second in itertools.product(NAMES, repeat=2):
        for relation in ("after", "parallel"):
            actions.append(DomainAction("add_task", (first, second, relation)))
        actions.append(DomainAction("provide_input", (first, second)))
        actions.append(DomainAction("remove_input", (first, second)))
    for task, ttype, sharing in itertools.product(
        NAMES, ("Atomic", "Replicable"), (None, "competition")
    ):
        actions.append(DomainAction("change_type", (task, ttype, sharing)))
    return actions + UNKNOWN


def _found(detect, actions, start=0):
    return [(c.first_index, c.second_index, c.reason) for c in detect(actions, start)]


def test_every_ordered_pair_matches_the_hand_written_rules():
    universe = _universe()
    assert len({a.name for a in universe} - {u.name for u in UNKNOWN}) == 9
    reasons: Counter[str | None] = Counter()
    for a, b in itertools.product(universe, repeat=2):
        listed = [("P", a), ("Q", b)]
        found = _found(detect_conflicts, listed)
        assert found == _found(naive.detect_conflicts, listed), (a, b)
        if a in UNKNOWN or b in UNKNOWN:
            assert found == []
        reasons.update([found[0][2] if found else None])
    # every class occurs, and most pairs are compatible
    assert reasons["member-add-remove"] == 4
    assert reasons["duty-assign-unassign"] == 2 * 8 * 3
    assert reasons["input-add-remove"] == 8
    assert reasons["task-type-divergence"] == 2 * 4 * 2
    assert reasons["task-delete-target"] > 100
    assert reasons[None] > len(universe) ** 2 // 2


def test_random_request_lists_match_the_hand_written_rules_from_any_start():
    rng = random.Random(8)
    universe = _universe()
    checked = 0
    for _ in range(400):
        actions = [(f"P{i}", rng.choice(universe)) for i in range(rng.randint(0, 12))]
        for start in (0, rng.randint(0, len(actions) + 1)):
            found = detect_conflicts(actions, start)
            assert found == naive.detect_conflicts(actions, start)
            checked += len(found)
    assert checked > 500


def test_writes_are_computed_once_per_request():
    action = DomainAction("add_task", ("x", "y", "after"))
    assert action.writes is action.writes
    assert action.writes == {("task-delete-target", "x"): False, ("task-delete-target", "y"): False}
    assert DomainAction("grant", ("x",)).writes == {}
