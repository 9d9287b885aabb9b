"""The hand-written bootstrap allocator, frozen as the differential oracle
for ``vopol.domain.run_bootstrap``, which states the same allocation as
ordinary ``add_member``/``assign_duty`` actions.

``run_bootstrap`` clones the model once and writes duties, the ledger and
the registry on that scratch copy itself; ``allowed`` repeats the
atomic-holder check of ``assign_duty``.
"""

from __future__ import annotations

from vopol.domain import COMPETITION, DomainAction, EvalContext, can_run, remaining_shortfall
from vopol.errors import TaskFailure, UnknownTaskError
from vopol.model import TaskType, VoModel, _put_duty, free_capacity

_KIND_RANK = {"Partner": 0, "Associate": 1, "ExtEntity": 2}
_NO_BID = 10**9


def _member_order(m: VoModel, ids: list[str], capability: str, competition: bool) -> list[str]:
    if not competition:
        return sorted(ids)
    return sorted(ids, key=lambda mid: (m.anyone(mid).cost.get(capability, _NO_BID), mid))


def _candidate_order(m: VoModel, capability: str, competition: bool) -> list[str]:
    def key(mid: str):
        who = m.registry[mid]
        rank = _KIND_RANK[who.kind.value]
        if competition:
            return (rank, who.cost.get(capability, _NO_BID), mid)
        return (rank, mid)

    return sorted(m.registry, key=key)


def run_bootstrap(ctx: EvalContext, task: str) -> tuple[VoModel, list[DomainAction]]:
    m = ctx.model
    if task not in m.tasks:
        raise UnknownTaskError(f"unknown task {task!r}", task)
    if can_run(m, task):
        return m, []
    task_def = m.tasks[task]
    competition = task_def.sharing == COMPETITION
    scratch = m.clone()
    performed: list[DomainAction] = []

    def allowed(mid: str) -> bool:
        if scratch.tasks[task].ttype is not TaskType.ATOMIC:
            return True
        holders = {d.member for d in scratch.duties_on(task)}
        return not holders or holders == {mid}

    def take_from(mid: str, capability: str, shortfall: int) -> int:
        free = free_capacity(scratch, mid, capability)
        if not free or free <= 0:
            return 0
        take = min(free, shortfall)
        new_amount = scratch.duties.get((mid, task, capability), 0) + take
        _put_duty(scratch, (mid, task, capability), new_amount)
        scratch.ledger.add(mid, capability, take)
        performed.append(DomainAction("assign_duty", (mid, task, capability, new_amount)))
        return take

    for capability in sorted(task_def.required):
        shortfall = remaining_shortfall(scratch, task, capability)
        for mid in _member_order(scratch, list(scratch.members), capability, competition):
            if shortfall == 0:
                break
            if allowed(mid):
                shortfall -= take_from(mid, capability, shortfall)
        candidates = _candidate_order(scratch, capability, competition) if shortfall else []
        for mid in candidates:
            if shortfall == 0:
                break
            if not allowed(mid):
                continue
            free = free_capacity(scratch, mid, capability)
            if not free or free <= 0:
                continue
            scratch.members[mid] = scratch.registry.pop(mid)
            performed.append(DomainAction("add_member", (mid,)))
            shortfall -= take_from(mid, capability, shortfall)
        if shortfall > 0:
            raise TaskFailure(
                f"task {task!r} needs {shortfall} more of {capability!r} and no suitable member can cover it",
                task,
            )
    return scratch, performed
