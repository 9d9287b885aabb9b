"""Per-run lifecycle state of one workflow instance."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Status(str, Enum):
    PENDING = "Pending"
    READY = "Ready"
    ACTIVE = "Active"
    COMPLETED = "Completed"
    FAILED = "Failed"


@dataclass
class InstanceState:
    """Lifecycle status per in-process task plus the set of data items
    that have arrived."""

    status: dict[str, Status] = field(default_factory=dict)
    available_data: set[str] = field(default_factory=set)

    def is_active(self, task: str) -> bool:
        return self.status.get(task) is Status.ACTIVE
