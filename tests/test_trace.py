from __future__ import annotations

import pytest

from vopol.errors import ParseError
from vopol.trace import (
    TraceRecord,
    format_record,
    format_text,
    format_trace,
    parse_record,
    parse_trace,
)


def rec(seq, kind, *pairs):
    return TraceRecord(seq, kind, tuple(pairs))


def test_plain_values_stay_unquoted():
    line = format_record(rec(3, "TRIGGER", ("trigger", "task_entry"), ("task", "HotelProv")))
    assert line == "seq=3 kind=TRIGGER trigger=task_entry task=HotelProv"


def test_values_with_spaces_get_quoted():
    line = format_record(rec(1, "ERROR", ("error", "X"), ("detail", "went wrong badly")))
    assert 'detail="went wrong badly"' in line


def test_empty_value_is_quoted_empty():
    line = format_record(rec(1, "STATE", ("tasks", ""), ("data", ""), ("members", "")))
    assert line == 'seq=1 kind=STATE tasks="" data="" members=""'


@pytest.mark.parametrize(
    "value",
    ["", "plain", "a b c", 'quo"te', "back\\slash", "a=b", "mixed \"x\\y\" z", "комната"],
)
def test_round_trip_of_tricky_values(value):
    original = rec(7, "ERROR", ("error", "E"), ("detail", value))
    assert parse_record(format_record(original)) == original


def test_trace_round_trip():
    records = [
        rec(1, "STATE", ("tasks", "A:Ready"), ("data", ""), ("members", "M")),
        rec(2, "EVENT", ("event", "activate"), ("task", "A")),
        rec(3, "ACTION-FAILED", ("policy", "P"), ("action", "a"), ("args", ""), ("error", "E"), ("detail", "x y")),
    ]
    assert parse_trace(format_trace(records)) == records


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_record("not a record")
    with pytest.raises(ParseError):
        parse_record("seq=1 kind=NOPE x=y")
    with pytest.raises(ParseError):
        parse_record("seq=one kind=EVENT")
    with pytest.raises(ParseError):
        parse_record("seq=1 kind=STATE tasks data=x")
    with pytest.raises(ParseError):
        parse_record("seq=1 kind=STATE =x")


def test_text_format_readable():
    text = format_text([rec(12, "TRIGGER", ("trigger", "task_entry"), ("task", "T"))])
    assert "TRIGGER" in text and "task=T" in text and "[  12]" in text
