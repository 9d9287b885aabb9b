"""Per-run lifecycle state of one workflow instance."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple


class Status(str, Enum):
    PENDING = "Pending"
    READY = "Ready"
    ACTIVE = "Active"
    COMPLETED = "Completed"
    FAILED = "Failed"


# the STATE text of each status
_STATUS_TEXT = {status: status.value for status in Status}


class StatusMap(dict):
    """A task -> :class:`Status` map that also keeps each task's
    ``name:Status`` fragment of the STATE record, in task order.

    Readers see a plain ``dict``. Every mutating dict method keeps the
    fragments right: a write rewrites or inserts the one fragment of its
    task, found by bisection over the sorted task names, and a removal
    drops it.
    """

    __slots__ = ("_tasks", "_fragments")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tasks = sorted(self)
        self._fragments = [f"{task}:{_STATUS_TEXT[self[task]]}" for task in self._tasks]

    def text(self) -> str:
        """The fragments of every task, by task name, joined by commas."""
        return ",".join(self._fragments)

    def __setitem__(self, task: str, status: Status):
        fragment = f"{task}:{_STATUS_TEXT[status]}"
        i = bisect_left(self._tasks, task)
        if task in self:
            self._fragments[i] = fragment
        else:
            self._tasks.insert(i, task)
            self._fragments.insert(i, fragment)
        super().__setitem__(task, status)

    def _drop(self, task: str):
        i = bisect_left(self._tasks, task)
        del self._tasks[i], self._fragments[i]

    def __delitem__(self, task: str):
        super().__delitem__(task)
        self._drop(task)

    def pop(self, task: str, *default):
        if task in self:
            self._drop(task)
        return super().pop(task, *default)

    def popitem(self):
        task, status = super().popitem()
        self._drop(task)
        return task, status

    def setdefault(self, task: str, default: Status):
        if task not in self:
            self[task] = default
        return self[task]

    def update(self, *args, **kwargs):
        for task, status in dict(*args, **kwargs).items():
            self[task] = status

    def __ior__(self, other):
        self.update(other)
        return self

    def clear(self):
        super().clear()
        self._tasks, self._fragments = [], []

    def __reduce__(self):
        return StatusMap, (dict(self),)


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
