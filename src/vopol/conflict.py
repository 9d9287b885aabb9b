"""Detection of incompatible actions requested within one trigger dispatch.

Detection only: which requests clash and why; picking a winner is the
engine's job. Two requests clash when they write the same key with
different values (:attr:`vopol.domain.DomainAction.writes`); the key's
conflict class is the reason.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domain import DomainAction


@dataclass(frozen=True)
class Conflict:
    """One incompatible ordered pair; ``first`` precedes ``second`` in the
    linearized action list."""

    first_index: int
    second_index: int
    first: tuple[str, DomainAction]
    second: tuple[str, DomainAction]
    reason: str


def detect_conflicts(actions: list[tuple[str, DomainAction]], start: int = 0) -> list[Conflict]:
    """Flag every ordered pair of requests that falls into a conflict
    class. Pure and order-stable: results are sorted by position of the
    earlier, then the later request.

    ``start`` limits the report to the pairs whose later request sits at
    index ``start`` or after; a caller that checks each request as it
    arrives passes the new request's index and gets only the pairs that
    request closes (``Engine.dispatch_trigger`` does, for each request
    that writes a key an earlier one wrote with another value). The
    default reports every pair."""
    out: list[Conflict] = []
    for j in range(max(start, 1), len(actions)):
        writes = actions[j][1].writes.items()
        for i in range(j):
            earlier = actions[i][1].writes
            for key, value in writes:
                if key in earlier and earlier[key] != value:
                    out.append(Conflict(i, j, actions[i], actions[j], key[0]))
                    break
    return sorted(out, key=lambda c: (c.first_index, c.second_index))
