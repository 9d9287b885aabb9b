"""Per-run lifecycle state of one workflow instance."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple


class Status(str, Enum):
    PENDING = "Pending"
    READY = "Ready"
    ACTIVE = "Active"
    COMPLETED = "Completed"
    FAILED = "Failed"


class Hold(NamedTuple):
    """Capacity that stays reserved for an active task even though its
    duty (or duty holder) is gone; released when the task finishes."""

    task: str
    member: str
    capability: str
    amount: int


@dataclass
class InstanceState:
    """Lifecycle status per in-process task plus the set of data items
    that have arrived."""

    status: dict[str, Status] = field(default_factory=dict)
    available_data: set[str] = field(default_factory=set)
    holds: list[Hold] = field(default_factory=list)

    def is_active(self, task: str) -> bool:
        return self.status.get(task) is Status.ACTIVE

    def release_holds(self, task: str) -> list[Hold]:
        """Drop and return the holds attached to ``task``."""
        released = [h for h in self.holds if h.task == task]
        self.holds = [h for h in self.holds if h.task != task]
        return released
