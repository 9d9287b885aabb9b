"""The full-walk trigger dispatch, kept as the differential oracle for the
trigger index in ``vopol.engine``.

``FullWalkEngine`` evaluates every active policy, in order, on every
trigger. The engine evaluates only the policies its (trigger name,
location) index lists for the trigger; a policy it skips has no rule
whose trigger matches, so it could neither fire, nor attempt an action,
nor raise. The two engines must give the same trace, model and instance.
"""

from __future__ import annotations

from vopol.domain import DomainTrigger
from vopol.engine import Engine
from vopol.policy.ast import Policy


class FullWalkEngine(Engine):
    """An ``Engine`` that dispatches every trigger to every active policy."""

    def _candidates(self, trig: DomainTrigger) -> list[Policy]:
        return list(self.policies)
