"""Machine-readable run log records.

One record per line: ``seq=<n> kind=<KIND> k1=v1 k2=v2 ...``. Keys follow
a fixed, documented order per kind, values are quoted only when they
contain characters outside the safe set, and identical runs produce
byte-identical streams, which is what golden tests pin. Inside quotes a
backslash and a double quote are escaped with a backslash, and each C0
control character (U+0000 to U+001F) and each other line break character
(U+0085, U+2028 and U+2029, the rest of those ``str.splitlines`` splits
at) is written as ``\\uXXXX``, so a stream is plain text of one record
per line.

Key order by kind:

- EVENT: ``event`` then the event's own fields (``task`` | ``member``,
  ``capability``, ``amount`` | ``path`` | ``policy``)
- TRIGGER: ``trigger task``
- POLICY-FIRED: ``policy rule``
- ACTION-APPLIED: ``policy action args``
- ACTION-FAILED: ``policy action args error detail``
- CONFLICT: ``class first_policy first_action second_policy second_action``
- STATE: ``tasks data members``
- ERROR: ``error detail``
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, parse_int

KINDS = (
    "EVENT",
    "TRIGGER",
    "POLICY-FIRED",
    "ACTION-APPLIED",
    "ACTION-FAILED",
    "CONFLICT",
    "STATE",
    "ERROR",
)

_SAFE_VALUE = re.compile(r"[A-Za-z0-9_.:,;@()\[\]{}|/+*'<>!?~^$%&-]+\Z")
_ESCAPED = str.maketrans({c: f"\\u{ord(c):04x}" for c in [*map(chr, range(0x20)), "\x85", "\u2028", "\u2029"]})
_HEX4 = re.compile(r"[0-9a-f]{4}")


@dataclass(frozen=True)
class TraceRecord:
    seq: int
    kind: str
    payload: tuple[tuple[str, str], ...]

    def get(self, key: str) -> str | None:
        for k, v in self.payload:
            if k == key:
                return v
        return None


def _quote(value: str) -> str:
    if _SAFE_VALUE.match(value):
        return value
    escaped = value.replace("\\", "\\\\").replace('"', '\\"').translate(_ESCAPED)
    return f'"{escaped}"'


def format_record(rec: TraceRecord) -> str:
    parts = [f"seq={rec.seq}", f"kind={rec.kind}"]
    parts.extend(f"{key}={_quote(value)}" for key, value in rec.payload)
    return " ".join(parts)


def format_trace(records: list[TraceRecord]) -> str:
    return "".join(format_record(r) + "\n" for r in records)


def _split_fields(line: str, line_no: int) -> list[str]:
    fields: list[str] = []
    i, n = 0, len(line)
    while i < n:
        if line[i] == " ":
            i += 1
            continue
        key_end = line.find("=", i)
        if key_end < 0:
            raise ParseError("record field without '='", line_no, i + 1)
        if key_end == i or " " in line[i:key_end]:
            raise ParseError("record field key is empty or contains a space", line_no, i + 1)
        j = key_end + 1
        if j < n and line[j] == '"':
            j += 1
            chars = []
            while j < n and line[j] != '"':
                if line[j] == "\\":
                    if j + 1 >= n:
                        raise ParseError("bad escape in record value", line_no, j + 1)
                    if line[j + 1] == "u" and _HEX4.match(line, j + 2):
                        chars.append(chr(int(line[j + 2 : j + 6], 16)))
                        j += 6
                    else:
                        chars.append(line[j + 1])
                        j += 2
                else:
                    chars.append(line[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated record value", line_no, key_end + 2)
            fields.append(line[i:key_end] + "=" + "".join(chars))
            i = j + 1
        else:
            end = line.find(" ", j)
            end = n if end < 0 else end
            fields.append(line[i:end])
            i = end
    return fields


def parse_record(line: str, line_no: int = 1) -> TraceRecord:
    """Inverse of :func:`format_record`."""
    fields = _split_fields(line.rstrip("\n"), line_no)
    if len(fields) < 2 or not fields[0].startswith("seq=") or not fields[1].startswith("kind="):
        raise ParseError("record must start with seq= and kind=", line_no, 1)
    seq = parse_int(fields[0][4:])
    if seq is None:
        raise ParseError("seq must be an integer", line_no, 1)
    kind = fields[1][5:]
    if kind not in KINDS:
        raise ParseError(f"unknown record kind {kind!r}", line_no, 1)
    payload = tuple(tuple(field.split("=", 1)) for field in fields[2:])
    return TraceRecord(seq, kind, payload)  # type: ignore[arg-type]


def parse_trace(text: str) -> list[TraceRecord]:
    return [
        parse_record(line, line_no)
        for line_no, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]


def format_text(records: list[TraceRecord]) -> str:
    """Human-oriented rendering of the same stream."""
    lines = []
    for rec in records:
        body = " ".join(f"{k}={_quote(v)}" for k, v in rec.payload)
        lines.append(f"[{rec.seq:>4}] {rec.kind:<14} {body}".rstrip())
    return "".join(line + "\n" for line in lines)
