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
    """Lifecycle status per in-process task plus the data items that have
    arrived, a ``frozenset`` that an arrival replaces and never changes."""

    status: dict[str, Status] = field(default_factory=dict)
    available_data: frozenset[str] = frozenset()

    def is_active(self, task: str) -> bool:
        return self.status.get(task) is Status.ACTIVE
