"""The input readers against their first form in ``reference/naive.py``.

The policy scanner, the policy parser and the model loader are tuned for
the set-up path; each must read every text, valid or malformed, exactly as
its naive form does: the same tokens (kind, value, line, column), the same
document with the same positions, the same model (``canonical_dump``), or
the same error (class, message, line, column and expected set).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vopol import canonical_dump, load_model, parse_policy_document
from vopol.errors import ParseError
from vopol.policy.parser import tokenize
from vopol.policy.render import render_policy_document

from astgen import gen_document
from reference import naive


def _outcome(read, text: str):
    """What ``read`` makes of ``text``: its result, or its error's class,
    message, line, column and expected set."""
    try:
        return read(text)
    except ParseError as err:
        return type(err), err.bare_message, err.line, err.col, err.expected


def _tokens(text: str):
    return [(t.kind, t.value, t.line, t.col) for t in tokenize(text)]


def _naive_tokens(text: str):
    return [(t.kind, t.value, t.line, t.col) for t in naive.tokenize(text)]


def _document(text: str) -> str:
    # a node's repr shows its position, which equality leaves out
    return repr(parse_policy_document(text))


def _naive_document(text: str) -> str:
    return repr(naive.parse_policy_document(text))


def _dump(text: str) -> str:
    return canonical_dump(load_model(text))


def _naive_dump(text: str) -> str:
    return canonical_dump(naive.load_model(text))


# pieces of policy text: every token class, blanks and line ends of each
# kind, comments, stray and non-ASCII characters, strings that are well
# formed, unterminated or badly escaped, and numbers on both sides of the
# 640-digit limit
POLICY_PIECES = [
    "policy", "P", "Q", "_x9", "appliesTo", "when", "if", "do", "not", "and", "andthen", "or", "orelse",
    "seq", "par", "gchoice", "uchoice", "(", ")", ",", " ", "  ", "\t", "\r", "\n", "\r\n", "\n\n",
    "#", "# note\n", "#)(\"", "0", "42", "007", "9" * 640, "1" * 641, '"', '""', '"a b"', '"#"', '"a\\"b"',
    '"\\\\"', '"\\n"', '"x\n"', "\\", "é", " ", "\x00", "$", "=", "-1", "a()", "b(x, 2, \"s\")",
    "policy P do a()", "policy Q when t(this) if not p(1) and q() do x() andthen y(z)",
]
policy_texts = st.lists(
    st.one_of(st.sampled_from(POLICY_PIECES), st.characters(max_codepoint=0x2FFF)), max_size=40
).map("".join)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(policy_texts)
def test_the_scanner_reads_every_text_as_the_naive_scanner(text):
    assert _outcome(_tokens, text) == _outcome(_naive_tokens, text)


# an edit of a rendered document: where (a fraction of its length), how
# many characters to cut there and what to put in their place
edits = st.lists(
    st.tuples(st.floats(min_value=0, max_value=1), st.integers(min_value=0, max_value=3), st.sampled_from(POLICY_PIECES)),
    max_size=3,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), edits)
def test_the_parser_reads_every_document_as_the_naive_parser(seed, changes):
    text = render_policy_document(gen_document(random.Random(seed)))
    for where, cut, piece in changes:
        at = int(where * len(text))
        text = text[:at] + piece + text[at + cut:]
    assert _outcome(_document, text) == _outcome(_naive_document, text)


# whole model rows, valid on their own, and the clauses that rows are made
# of: every attribute, kinds and types known and unknown, integers the one
# integer rule takes and refuses, clauses cut short and tokens with no
# key=value shape
MODEL_ROWS = [
    "param n 3", "param n 1", "member M1 kind=Partner cap c0=5 cost=1 cap c1=2",
    "candidate R1 kind=Associate cap c1=2", "member M2 kind=ExtEntity", "task T1 type=Atomic",
    "task T2 type=Replicable sharing=s requires c0=1 input i1", "task T3 type=Composable inprocess=false",
    "edge T1 T2", "edge T2 T3", "edge T2 T1", "dataflow i1 from=customer to=T1", "dataflow i2 from=T1 to=T2",
    "resource r1",
]
NUMBERS = ["3", "0", "-1", "+7", "1_0", "٣", "9" * 640, "9" * 641, "x", ""]
BAD_CLAUSES = ["x=1", "=", "noequals", "é", "#c"]
MEMBER_CLAUSES = [
    "kind=Partner", "kind=Associate", "kind=ExtEntity", "kind=Boss", "kind=", "cap", "cap c0", "cost=2",
    *[f"cap c{i % 2}={n}" for i, n in enumerate(NUMBERS)], *[f"cost={n}" for n in NUMBERS], *BAD_CLAUSES,
]
TASK_CLAUSES = [
    "type=Atomic", "type=Replicable", "type=Composable", "type=atomic", "sharing=s", "sharing=",
    "inprocess=true", "inprocess=false", "inprocess=yes", "requires", "requires c0", "input", "input i1",
    *[f"requires c{i % 2}={n}" for i, n in enumerate(NUMBERS)], *BAD_CLAUSES,
]
OTHER_CLAUSES = ["T1", "T2", "T9", "n", "i1", "from=customer", "from=T1", "to=T1", "to=T2", *NUMBERS[:5], *BAD_CLAUSES]
SEPARATORS = [" ", "  ", "\t", " \t "]
LINE_ENDS = ["\n", "\r\n", "\r", "\n\n", " # note\n", " "]


def _soup(kinds: list[str], clauses: list[str]):
    """Rows of one of ``kinds``, with or without a fresh id, of ``clauses``."""
    return st.tuples(
        st.sampled_from(kinds),
        st.sampled_from(["", " T9", " M9"]),
        st.lists(st.tuples(st.sampled_from(SEPARATORS), st.sampled_from(clauses)), max_size=5),
    ).map(lambda row: row[0] + row[1] + "".join(sep + clause for sep, clause in row[2]))


soup_rows = st.one_of(
    _soup(["member", "candidate"], MEMBER_CLAUSES),
    _soup(["task"], TASK_CLAUSES),
    _soup(["param", "edge", "dataflow", "resource", "vo", "duty", "#", ""], OTHER_CLAUSES),
)
# a good vo row (the cases below take bad ones), then more whole rows than soup
rows = st.one_of(st.sampled_from(MODEL_ROWS), st.sampled_from(MODEL_ROWS), soup_rows)
model_texts = st.lists(st.tuples(rows, st.sampled_from(LINE_ENDS)), max_size=8).map(
    lambda rows: "vo X\n" + "".join(row + end for row, end in rows)
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(model_texts)
def test_the_loader_reads_every_model_as_the_naive_loader(text):
    assert _outcome(_dump, text) == _outcome(_naive_dump, text)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(soup_rows, st.sampled_from(LINE_ENDS))
def test_the_loader_reads_every_row_as_the_naive_loader(row, end):
    # one row after a model it may refer to, so that every row is read
    text = "vo X\ntask T1 type=Atomic\ntask T2 type=Atomic\n" + row + end
    assert _outcome(_dump, text) == _outcome(_naive_dump, text)


# one text of each kind the generated ones may miss, each read with an error
# or a result that the naive readers give too
@pytest.mark.parametrize(
    "text",
    [
        "policy P do a($)",
        "policy P do a(é)",
        'policy P do a("open)',
        'policy P\ndo a("x", "open\n)',
        'policy P do a("bad \\q escape")',
        "policy\tP\r\ndo a() # trailing",
        "policy P do a() #",
        "# only a comment",
        "policy P do a(" + "1" * 641 + ")",
        "policy P do a(" + "1" * 640 + ")",
        "policy P do a(x,)",
        "policy P when t() or do a()",
        "policy P do a() policy P do b()",
        "",
    ],
)
def test_each_kind_of_policy_text_reads_as_the_naive_readers_read_it(text):
    assert _outcome(_tokens, text) == _outcome(_naive_tokens, text)
    assert _outcome(_document, text) == _outcome(_naive_document, text)


@pytest.mark.parametrize(
    "text",
    [
        "vo X\nmember M kind=Partner kind=Partner",
        "vo X\nmember M kind=Boss",
        "vo X\nmember M cap c0=1 cap c0=2 kind=Partner",
        "vo X\nmember M kind=Partner cap",
        "vo X\nmember M kind=Partner cap c0",
        "vo X\nmember M kind=Partner cap c0=" + "1" * 641,
        "vo X\nmember M",
        "vo X\nmember M kind=Partner cost=2",
        "vo X\ntask T type=Atomic type=Atomic",
        "vo X\ntask T type=Boss",
        "vo X\ntask T sharing=a sharing=b type=Atomic",
        "vo X\ntask T inprocess=true inprocess=true type=Atomic",
        "vo X\ntask T inprocess=no type=Atomic",
        "vo X\ntask T requires c=1 requires c=2 type=Atomic",
        "vo X\ntask T type=Atomic requires",
        "vo X\ntask T type=Atomic input",
        "vo X\ntask T",
        "vo X\ntask T type=Atomic colour=red",
        "vo X\nparam n 1\nparam n 2",
        "vo X\nparam n +1",
        "vo X\nedge A B",
        "vo X\ndataflow d from=customer",
        "vo X\ndataflow d from=a to=b\n",
        "vo X\r\ntask T\ttype=Atomic # note\r\nvo Y",
        "task T type=Atomic",
        "vo\ntask T type=Atomic",
        "# c\n\nvo X Y\n",
        "   # nothing\n\n",
    ],
)
def test_each_kind_of_model_text_reads_as_the_naive_loader_reads_it(text):
    assert _outcome(_dump, text) == _outcome(_naive_dump, text)
