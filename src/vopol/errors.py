"""Error types and diagnostics shared across the package, and the one
integer rule of every text input (:func:`parse_int`).

Every error carries a stable ``code`` string; the engine uses it verbatim
in trace records, so codes are part of the output contract.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# the most digits an integer in any input may have: the least int-string
# limit Python lets a process set, so every accepted integer converts to an
# int and back on any interpreter
MAX_NUMBER_DIGITS = 640
_INTEGER = re.compile(f"-?[0-9]{{1,{MAX_NUMBER_DIGITS}}}")
_TOO_LONG = 10**MAX_NUMBER_DIGITS  # the least positive int of more digits


def parse_int(text: str) -> int | None:
    """The integer that ``text`` spells, or None unless ``text`` is an
    optional ``-`` and then 1 to :data:`MAX_NUMBER_DIGITS` ASCII digits."""
    return int(text) if _INTEGER.fullmatch(text) else None


def too_long(value: int) -> bool:
    """Whether the int ``value`` has more than :data:`MAX_NUMBER_DIGITS`
    digits, the bound :func:`parse_int` puts on text; an int given in code
    obeys it too."""
    return not -_TOO_LONG < value < _TOO_LONG


def quoted(token: object) -> str:
    """``repr(token)``, or for a string of more than 40 characters the repr
    of its first 40 and its length, so that an overlong token refused by an
    input rule makes no overlong message; an int of more than
    :data:`MAX_NUMBER_DIGITS` digits is described, not spelled."""
    if isinstance(token, str) and len(token) > 40:
        return f"{token[:40]!r}... ({len(token)} characters)"
    if isinstance(token, int) and too_long(token):
        return f"an integer of more than {MAX_NUMBER_DIGITS} digits"
    return repr(token)


class VopolError(Exception):
    """Base class for all errors raised by this package."""

    code = "Error"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class ParseError(VopolError):
    """Malformed input text. Carries source position and, for token-level
    failures, the set of token descriptions that would have been accepted."""

    code = "ParseError"

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        loc = f"{line}:{col}: {message}"
        if expected:
            loc += " (expected " + " | ".join(expected) + ")"
        super().__init__(loc)
        self.bare_message = message
        self.line = line
        self.col = col
        self.expected = expected


class DocumentError(ParseError):
    """Structurally valid text that violates a document-level rule,
    e.g. a duplicate policy name."""

    code = "DocumentError"


class DanglingRefError(ParseError):
    """An input row references an id that is never defined."""

    code = "ReferenceError"


class ModelError(VopolError):
    """Base class for errors from model primitives and domain actions."""

    def __init__(self, message: str, subject: str | None = None):
        super().__init__(message)
        self.subject = subject


class UnknownTaskError(ModelError):
    code = "UnknownTask"


class UnknownMemberError(ModelError):
    code = "UnknownMember"


class UnknownDutyError(ModelError):
    code = "UnknownDuty"


class AlreadyInProcessError(ModelError):
    code = "AlreadyInProcess"


class AlreadyMemberError(ModelError):
    code = "AlreadyMember"


class NotAMemberError(ModelError):
    code = "NotAMember"


class CapabilityMissingError(ModelError):
    code = "CapabilityMissing"


class CapacityExceededError(ModelError):
    code = "CapacityExceeded"


class UnderflowError(ModelError):
    code = "Underflow"


class AtomicityViolationError(ModelError):
    code = "AtomicityViolation"


class ActiveTaskError(ModelError):
    code = "ActiveTaskError"


class UnknownActionError(ModelError):
    code = "UnknownAction"


class UnknownPredicateError(ModelError):
    code = "UnknownPredicate"


class UnresolvedIdentifierError(ModelError):
    code = "UnresolvedIdentifier"


class InvalidArgumentError(ModelError):
    code = "InvalidArgument"


class TaskFailure(ModelError):
    """Raised by the bootstrap allocator when a task's requirements cannot
    be covered; the engine consumes it as a task_failure event."""

    code = "TaskFailure"


class IllegalTransitionError(ModelError):
    code = "IllegalTransition"


class InvalidModelError(ModelError):
    code = "InvalidModel"


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding. ``line``/``col`` are set when the finding
    maps to a source location, ``subject`` names the offending entity."""

    code: str
    message: str
    line: int | None = None
    col: int | None = None
    subject: str | None = None
    severity: str = "error"

    def render(self, path: str = "-") -> str:
        line = self.line if self.line is not None else 0
        col = self.col if self.col is not None else 0
        level = "" if self.severity == "error" else f"{self.severity}: "
        return f"{path}:{line}:{col}: {level}[{self.code}] {self.message}"
