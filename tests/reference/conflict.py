"""The hand-written conflict rules, frozen as the differential oracle for
``vopol.conflict.detect_conflicts``, which derives every conflict from
what each request writes (``DomainAction.writes``).

``_classify`` names each clashing pair of actions and knows their
argument layouts itself; a duplicate request is never a conflict.
"""

from __future__ import annotations

from vopol.conflict import Conflict
from vopol.domain import DomainAction


def _duty_key(action: DomainAction) -> tuple:
    # (member, task, capability); amounts never matter for clashing
    return tuple(action.args[:3])


def _target_tasks(action: DomainAction) -> set[str]:
    name, args = action.name, action.args
    if name in ("delete_task", "change_type"):
        return {str(args[0])}
    if name == "add_task":
        return {str(args[0]), str(args[1])}
    if name in ("provide_input", "remove_input"):
        return {str(args[1])}
    if name in ("assign_duty", "unassign_duty"):
        return {str(args[1])}
    return set()


def _classify(a: DomainAction, b: DomainAction) -> str | None:
    if a.name == b.name and a.args == b.args:
        return None  # duplicate request, the later one simply fails to apply
    pair = {a.name, b.name}
    if pair == {"add_member", "remove_member"} and a.args[0] == b.args[0]:
        return "member-add-remove"
    if pair == {"assign_duty", "unassign_duty"} and _duty_key(a) == _duty_key(b):
        return "duty-assign-unassign"
    if pair == {"provide_input", "remove_input"} and a.args == b.args:
        return "input-add-remove"
    if a.name == b.name == "change_type" and a.args[0] == b.args[0] and a.args[1] != b.args[1]:
        return "task-type-divergence"
    if "delete_task" in pair:
        doomed = a.args[0] if a.name == "delete_task" else b.args[0]
        other = b if a.name == "delete_task" else a
        if str(doomed) in _target_tasks(other):
            return "task-delete-target"
    return None


def detect_conflicts(actions: list[tuple[str, DomainAction]], start: int = 0) -> list[Conflict]:
    out: list[Conflict] = []
    for i in range(len(actions)):
        for j in range(max(i + 1, start), len(actions)):
            reason = _classify(actions[i][1], actions[j][1])
            if reason is not None:
                out.append(Conflict(i, j, actions[i], actions[j], reason))
    return out
