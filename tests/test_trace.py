from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NOT_INTEGERS, VISITUS
from reference import naive

from vopol.engine import Engine, ScenarioEvent
from vopol.errors import ParseError
from vopol.model import load_model
from vopol.policy.parser import parse_policy_document
from vopol.trace import (
    KINDS,
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


# values mix safe characters with every kind the quoting escapes or quotes
# for: a space, a quote, a backslash, "=", each C0 control character and
# the other line breaks; values over 64 characters share their first 64
_UNSAFE = [" ", '"', "\\", "=", *map(chr, range(0x20)), "\x85", "\u2028", "\u2029"]
_CHARS = st.sampled_from([*"aZ09_.:,;@()[]{}|/+*'<>!?~^$%&-", "é", *_UNSAFE])
_VALUES = st.one_of(
    st.text(_CHARS, max_size=8),
    st.text(_CHARS, min_size=1, max_size=8).map(lambda tail: "p" * 64 + tail),
    st.sampled_from(["", "p" * 64, 'q"uo=te ' * 9]),
)


@st.composite
def _records(draw) -> list[TraceRecord]:
    # most values come from a small pool, so a trace repeats them as a run does
    pool = draw(st.lists(_VALUES, min_size=1, max_size=5))
    values = st.one_of(st.sampled_from(pool), st.sampled_from(pool), _VALUES)
    keys = st.sampled_from(["task", "policy", "args", "detail", "k_2"])
    records = []
    for seq in range(draw(st.integers(-2, 3)), draw(st.integers(0, 12))):
        payload = draw(st.lists(st.tuples(keys, values), max_size=5))
        records.append(TraceRecord(seq, draw(st.sampled_from(KINDS)), tuple(payload)))
    return records


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_records())
def test_rendering_equals_the_record_by_record_definition(records):
    text = format_trace(records)
    assert text == "".join(format_record(r) + "\n" for r in records)
    assert format_text(records) == naive.format_text(records)
    assert parse_trace(text) == records

