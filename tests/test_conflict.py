from __future__ import annotations

import itertools

from vopol.conflict import detect_conflicts
from vopol.domain import DomainAction


def act(name, *args):
    return DomainAction(name, args)


def pairs(*actions):
    return [(f"P{i}", a) for i, a in enumerate(actions)]


def test_member_add_remove_is_the_defining_case():
    found = detect_conflicts(pairs(act("add_member", "X"), act("remove_member", "X")))
    assert len(found) == 1
    assert found[0].reason == "member-add-remove"
    assert found[0].first_index == 0 and found[0].second_index == 1


def test_distinct_members_do_not_clash():
    assert detect_conflicts(pairs(act("add_member", "X"), act("add_member", "Y"))) == []
    assert detect_conflicts(pairs(act("add_member", "X"), act("remove_member", "Y"))) == []


def test_delete_vs_other_task_actions():
    found = detect_conflicts(
        pairs(
            act("change_type", "T", "Replicable", None),
            act("delete_task", "T"),
            act("assign_duty", "P", "T", "c", 1),
        )
    )
    assert len(found) == 2
    assert {(c.first_index, c.second_index) for c in found} == {(0, 1), (1, 2)}
    assert all(c.reason == "task-delete-target" for c in found)


def test_delete_conflicts_with_insertion_next_to_it():
    found = detect_conflicts(pairs(act("delete_task", "T"), act("add_task", "X", "T", "after")))
    assert [c.reason for c in found] == ["task-delete-target"]


def test_duty_assign_unassign_same_triple():
    found = detect_conflicts(
        pairs(act("assign_duty", "P", "T", "c", 3), act("unassign_duty", "P", "T", "c"))
    )
    assert [c.reason for c in found] == ["duty-assign-unassign"]
    # different capability: no clash
    assert (
        detect_conflicts(
            pairs(act("assign_duty", "P", "T", "c", 3), act("unassign_duty", "P", "T", "d"))
        )
        == []
    )


def test_change_type_divergence():
    found = detect_conflicts(
        pairs(act("change_type", "T", "Replicable", None), act("change_type", "T", "Composable", None))
    )
    assert [c.reason for c in found] == ["task-type-divergence"]
    assert (
        detect_conflicts(
            pairs(
                act("change_type", "T", "Replicable", None),
                act("change_type", "U", "Composable", None),
            )
        )
        == []
    )


def test_input_add_remove():
    found = detect_conflicts(pairs(act("provide_input", "i", "T"), act("remove_input", "i", "T")))
    assert [c.reason for c in found] == ["input-add-remove"]


def test_symmetry_of_detection():
    cases = [
        (act("add_member", "X"), act("remove_member", "X")),
        (act("assign_duty", "P", "T", "c", 1), act("unassign_duty", "P", "T", "c")),
        (act("provide_input", "i", "T"), act("remove_input", "i", "T")),
        (act("delete_task", "T"), act("change_type", "T", "Atomic", None)),
    ]
    for a, b in cases:
        assert len(detect_conflicts(pairs(a, b))) == 1
        assert len(detect_conflicts(pairs(b, a))) == 1


def test_duplicates_are_not_conflicts():
    assert detect_conflicts(pairs(act("add_member", "X"), act("add_member", "X"))) == []
    assert detect_conflicts(pairs(act("delete_task", "T"), act("delete_task", "T"))) == []


def test_disjoint_entities_never_clash():
    actions = [
        act("add_member", "M1"),
        act("remove_member", "M2"),
        act("delete_task", "T1"),
        act("change_type", "T2", "Atomic", None),
        act("provide_input", "i1", "T3"),
        act("remove_input", "i2", "T4"),
        act("assign_duty", "M3", "T5", "c1", 1),
        act("unassign_duty", "M4", "T6", "c2"),
    ]
    for ordering in itertools.islice(itertools.permutations(actions), 50):
        assert detect_conflicts(pairs(*ordering)) == []


def test_results_are_order_stable():
    listed = pairs(
        act("add_member", "X"),
        act("provide_input", "i", "T"),
        act("remove_member", "X"),
        act("remove_input", "i", "T"),
    )
    found = detect_conflicts(listed)
    assert [(c.first_index, c.second_index) for c in found] == [(0, 2), (1, 3)]
    assert detect_conflicts(listed) == found


def test_pairwise_oracle_on_mixed_list():
    actions = [
        act("change_type", "T", "Replicable", None),
        act("delete_task", "T"),
        act("assign_duty", "P", "T", "c", 1),
        act("add_member", "P"),
        act("remove_member", "P"),
        act("provide_input", "i", "U"),
        act("remove_input", "i", "U"),
        act("delete_task", "U"),
    ]
    found = detect_conflicts(pairs(*actions))
    assert [(c.first_index, c.second_index, c.reason) for c in found] == [
        (0, 1, "task-delete-target"),
        (1, 2, "task-delete-target"),
        (3, 4, "member-add-remove"),
        (5, 6, "input-add-remove"),
        (5, 7, "task-delete-target"),
        (6, 7, "task-delete-target"),
    ]
    # with ``start``, exactly the pairs whose later index is >= start, in
    # the same order as the full report
    for start in range(len(actions) + 2):
        tail = detect_conflicts(pairs(*actions), start)
        assert tail == [c for c in found if c.second_index >= start]
    assert detect_conflicts(pairs(*actions), 0) == found
