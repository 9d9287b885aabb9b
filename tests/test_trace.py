from __future__ import annotations

import pytest

from conftest import NOT_INTEGERS, VISITUS

from vopol.engine import Engine, ScenarioEvent
from vopol.errors import ParseError
from vopol.model import load_model
from vopol.policy.parser import parse_policy_document
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
    [
        "", "plain", "a b c", 'quo"te', "back\\slash", "a=b", "mixed \"x\\y\" z", "комната",
        # every line break str.splitlines knows, and text that looks like its escape
        "a\nb", "a\rb", "a\r\nb", "a\vb", "a\fb", "a\x1cb\x1dc\x1ed", "a\x85b", "a\u2028b",
        "a\u2029b", "\n", "a\\u000ab", "\\u2028",
    ],
)
def test_round_trip_of_tricky_values(value):
    original = rec(7, "ERROR", ("error", "E"), ("detail", value))
    assert parse_record(format_record(original)) == original
    assert parse_trace(format_trace([original, original])) == [original, original]


def test_every_c0_control_character_is_escaped_and_round_trips():
    values = [f"a{chr(code)}b" for code in range(0x20)] + ["a\x1b[31mb\x00c", "".join(map(chr, range(0x20)))]
    for value in values:
        original = rec(7, "ERROR", ("error", "E"), ("detail", value))
        text = format_trace([original])
        assert not any(c < " " for c in text[:-1]) and text[-1] == "\n", value
        assert parse_trace(text) == [original], value
    assert format_record(rec(1, "ERROR", ("detail", "a\x1b[31mb\x00c"))) == 'seq=1 kind=ERROR detail="a\\u001b[31mb\\u0000c"'


def test_engine_trace_with_line_breaks_round_trips():
    policies = parse_policy_document(
        'policy P\n  appliesTo HotelProv\n  when task_entry()\n  do add_member("a\u2028b")\n'
    )
    engine = Engine(load_model(VISITUS), policies)
    events = [("activate", "a\nb"), ("activate", "BookFlight"), ("complete", "BookFlight"), ("activate", "HotelProv")]
    for kind, task in events:
        engine.handle_event(ScenarioEvent(kind, (task,)))
    assert [r.kind for r in engine.records].count("ERROR") == 1
    assert any(r.get("args") == "a\u2028b" for r in engine.records)
    assert parse_trace(format_trace(engine.records)) == engine.records


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


@pytest.mark.parametrize("seq", NOT_INTEGERS)
def test_record_seq_follows_the_one_integer_rule(seq):
    with pytest.raises(ParseError) as err:
        parse_record(f"seq={seq} kind=STATE", 4)
    assert (err.value.bare_message, err.value.line) == ("seq must be an integer", 4)


def test_record_seq_takes_a_sign():
    assert parse_record("seq=-3 kind=STATE").seq == -3
