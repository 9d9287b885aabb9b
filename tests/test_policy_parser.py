from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vopol.policy.ast import (
    ActionCall,
    ActionOp,
    AndCond,
    GroupNode,
    Ident,
    NotCond,
    Number,
    OrCond,
    Pred,
    RuleLeaf,
    Text,
    TriggerSpec,
)
from vopol.policy import parser
from vopol.policy.parser import MAX_NUMBER_DIGITS, parse_policy_document, tokenize
from vopol.policy.render import render_arg
from vopol.errors import DocumentError, ParseError

from astgen import gen_document
from conftest import MOREBEDS


def test_morebeds_full_ast():
    doc = parse_policy_document(MOREBEDS)
    assert len(doc.policies) == 1
    policy = doc.policies[0]
    assert policy.name == "MoreBeds"
    assert isinstance(policy.body, RuleLeaf)
    rule = policy.body.rule
    assert rule.location == "HotelProv"
    assert rule.triggers == (TriggerSpec("task_entry"),)
    assert rule.condition == NotCond(
        Pred("has_capacity", (Ident("Hotel"), Ident("beds"), Ident("n")))
    )
    assert rule.action == ActionOp(
        "andthen",
        ActionOp(
            "andthen",
            ActionCall("change_type", (Ident("HotelProv"), Ident("Replicable"), Ident("competition"))),
            ActionCall("add_member", (Ident("newHotel"),)),
        ),
        ActionCall("assign_duty", (Ident("newHotel"), Ident("beds"))),
    )


def test_minimal_policy():
    doc = parse_policy_document("policy P do noop()")
    rule = doc.policies[0].body.rule
    assert rule.location is None
    assert rule.triggers == ()
    assert rule.condition is None
    assert rule.action == ActionCall("noop")


def test_trigger_or_and_action_and():
    doc = parse_policy_document("policy P when task_entry() or task_exit() do a() and b()")
    rule = doc.policies[0].body.rule
    assert [t.name for t in rule.triggers] == ["task_entry", "task_exit"]
    assert rule.action == ActionOp("and", ActionCall("a"), ActionCall("b"))


def test_action_operators_left_associative():
    doc = parse_policy_document("policy P do a() and b() andthen c()")
    action = doc.policies[0].body.rule.action
    assert action == ActionOp("andthen", ActionOp("and", ActionCall("a"), ActionCall("b")), ActionCall("c"))


def test_action_parentheses_override():
    doc = parse_policy_document("policy P do a() and (b() andthen c())")
    action = doc.policies[0].body.rule.action
    assert action == ActionOp("and", ActionCall("a"), ActionOp("andthen", ActionCall("b"), ActionCall("c")))


def test_condition_tree():
    doc = parse_policy_document("policy P if not p() and (q() or not r()) do a()")
    cond = doc.policies[0].body.rule.condition
    assert isinstance(cond, AndCond)
    assert cond.left == NotCond(Pred("p"))
    assert cond.right.left == Pred("q")
    assert cond.right.right == NotCond(Pred("r"))


def test_group_operators_and_parens():
    doc = parse_policy_document("policy P do a() seq (do b() gchoice do c())")
    body = doc.policies[0].body
    assert isinstance(body, GroupNode) and body.op == "seq"
    assert isinstance(body.left, RuleLeaf)
    assert isinstance(body.right, GroupNode) and body.right.op == "gchoice"


def test_group_left_associative():
    doc = parse_policy_document("policy P do a() seq do b() par do c()")
    body = doc.policies[0].body
    assert body.op == "par"
    assert body.left.op == "seq"


def test_argument_kinds():
    doc = parse_policy_document('policy P do act(name, 42, "hi there", "esc\\"aped")')
    args = doc.policies[0].body.rule.action.args
    assert args == (Ident("name"), Number(42), Text("hi there"), Text('esc"aped'))


def test_comments_ignored():
    text = "# leading comment\npolicy P # trailing\n  do a() # another\n"
    doc = parse_policy_document(text)
    assert doc.policies[0].body.rule.action == ActionCall("a")


def test_multiple_policies_order_preserved():
    doc = parse_policy_document("policy A do a()\npolicy B do b()\npolicy C do c()")
    assert [p.name for p in doc.policies] == ["A", "B", "C"]


def test_duplicate_policy_name_is_document_error():
    with pytest.raises(DocumentError):
        parse_policy_document("policy P do a()\npolicy P do b()")


def test_empty_document_rejected():
    with pytest.raises(ParseError):
        parse_policy_document("   # only a comment\n")


def test_missing_do_reports_position_and_expected():
    with pytest.raises(ParseError) as err:
        parse_policy_document("policy P when task_entry()\npolicy Q do a()")
    assert err.value.line == 2
    assert "do" in err.value.expected


def test_keyword_cannot_be_identifier():
    with pytest.raises(ParseError):
        parse_policy_document("policy policy do a()")


def test_unterminated_string():
    with pytest.raises(ParseError) as err:
        parse_policy_document('policy P do a("oops)')
    assert err.value.line == 1


def test_unexpected_character_position():
    with pytest.raises(ParseError) as err:
        parse_policy_document("policy P do a(%)")
    assert (err.value.line, err.value.col) == (1, 15)


def test_trigger_args_accepted():
    doc = parse_policy_document("policy P when task_entry(this, 3) do a()")
    assert doc.policies[0].body.rule.triggers[0].args == (Ident("this"), Number(3))


def test_tokenize_positions():
    tokens = tokenize("policy P\n  do a()")
    assert (tokens[0].line, tokens[0].col) == (1, 1)
    assert (tokens[2].line, tokens[2].col) == (2, 3)


# --- error positions ------------------------------------------------------------

# (text, error type, message, line, col, expected set); a column counts
# characters (a tab or a \r is one) and a comment does not advance it, so
# the end of input after a trailing comment sits at the comment's column
MALFORMED = [
    ("policy P do a(%)", ParseError, "unexpected character '%'", 1, 15, ()),
    ("policy P do é()", ParseError, "unexpected character 'é'", 1, 13, ()),
    ('policy P\n  do a("oops)', ParseError, "unterminated string", 2, 8, ()),
    ('policy P do a("ab\ncd")', ParseError, "unterminated string", 1, 15, ()),
    ('policy P do a("x\\n")', ParseError, "bad escape in string", 1, 17, ()),
    ('policy P do a("ok\\"" , "x\\q")', ParseError, "bad escape in string", 1, 26, ()),
    ('policy P do a("\\', ParseError, "bad escape in string", 1, 16, ()),
    ("policy P\r\n\tdo a() $", ParseError, "unexpected character '$'", 2, 9, ()),
    ("policy P\r\n\tif p(\r\n\t\t1 2) do a()", ParseError, "unexpected '2'", 3, 5, (")",)),
    ("", ParseError, "unexpected 'end of input'", 1, 1, ("policy",)),
    ("  \t\r\n  ", ParseError, "unexpected 'end of input'", 2, 3, ("policy",)),
    ("   # only a comment\n", ParseError, "unexpected 'end of input'", 2, 1, ("policy",)),
    (
        "policy P do a()\npolicy P do b()",
        DocumentError, "duplicate policy name 'P' (first defined at 1:1)", 2, 1, (),
    ),
    (
        "policy A do a()\r\n\r\n  policy A do b()",
        DocumentError, "duplicate policy name 'A' (first defined at 1:1)", 3, 3, (),
    ),
    ("policy P when task_entry()\npolicy Q do a()", ParseError, "unexpected 'policy'", 2, 1, ("do",)),
    ("policy P appliesTo T if p() a()", ParseError, "unexpected 'a'", 1, 29, ("do",)),
    ("policy policy do a()", ParseError, "unexpected 'policy'", 1, 8, ("IDENT",)),
    ("policy P do a(x,)", ParseError, "unexpected ')'", 1, 17, ("IDENT", "NUMBER", "STRING")),
    ("policy P do a() )", ParseError, "unexpected ')'", 1, 17, ("policy",)),
    # end of input after a trailing comment
    ("policy P do a(  # open call", ParseError, "unexpected 'end of input'", 1, 17, ("IDENT", "NUMBER", "STRING")),
    ("policy P do a() and  # trailing\n   # more", ParseError, "unexpected 'end of input'", 2, 4, ("IDENT", "(")),
    (
        "policy P do a() seq\t# x",
        ParseError, "unexpected 'end of input'", 1, 21, ("appliesTo", "when", "if", "do", "("),
    ),
]


@pytest.mark.parametrize("text, kind, message, line, col, expected", MALFORMED)
def test_malformed_document_error(text, kind, message, line, col, expected):
    with pytest.raises(ParseError) as err:
        parse_policy_document(text)
    assert type(err.value) is kind
    assert (err.value.bare_message, err.value.line, err.value.col) == (message, line, col)
    assert err.value.expected == expected


def test_tokenize_kinds_values_and_positions():
    text = 'policy P\r\n\t(do a(x, 12, "s\\"q")) # c'
    assert [(t.kind, t.value, t.line, t.col) for t in tokenize(text)] == [
        ("policy", "policy", 1, 1),
        ("IDENT", "P", 1, 8),
        ("(", "(", 2, 2),
        ("do", "do", 2, 3),
        ("IDENT", "a", 2, 6),
        ("(", "(", 2, 7),
        ("IDENT", "x", 2, 8),
        (",", ",", 2, 9),
        ("NUMBER", "12", 2, 11),
        (",", ",", 2, 13),
        ("STRING", 's"q', 2, 15),
        (")", ")", 2, 21),
        (")", ")", 2, 22),
        ("EOF", "", 2, 24),
    ]


# --- node positions ---------------------------------------------------------------


def _tokens(doc) -> list[tuple[str, object]]:
    """The tokens of ``doc``'s canonical rendering in text order, each with
    the node whose ``pos`` it gives, or None; parenthesized as the renderer
    does."""
    out: list[tuple[str, object]] = []

    def call(node):
        out.append((node.name, node))
        out.append(("(", None))
        for i, arg in enumerate(node.args):
            if i:
                out.append((",", None))
            out.append((render_arg(arg), None))
        out.append((")", None))

    def binary(left, op, right, walk, nested):
        walk(left)
        out.append((op, None))
        if isinstance(right, nested):
            out.append(("(", None))
            walk(right)
            out.append((")", None))
        else:
            walk(right)

    def condition(node):
        if isinstance(node, Pred):
            call(node)
        elif isinstance(node, NotCond):
            out.append(("not", None))
            wrap = not isinstance(node.child, Pred)
            if wrap:
                out.append(("(", None))
            condition(node.child)
            if wrap:
                out.append((")", None))
        else:
            op = "and" if isinstance(node, AndCond) else "or"
            binary(node.left, op, node.right, condition, (AndCond, OrCond))

    def action(node):
        if isinstance(node, ActionCall):
            call(node)
        else:
            binary(node.left, node.op, node.right, action, ActionOp)

    def rule(node):
        start = len(out)
        if node.location is not None:
            out.extend([("appliesTo", None), (node.location, None)])
        for i, trigger in enumerate(node.triggers):
            out.append(("or" if i else "when", None))
            call(trigger)
        if node.condition is not None:
            out.append(("if", None))
            condition(node.condition)
        out.append(("do", None))
        action(node.action)
        out[start] = (out[start][0], node)

    def group(node):
        if isinstance(node, RuleLeaf):
            rule(node.rule)
        else:
            binary(node.left, node.op, node.right, group, GroupNode)

    for policy in doc.policies:
        out.extend([("policy", policy), (policy.name, None)])
        group(policy.body)
    return out


_PADDING = [" ", "  ", "\t", "\n", "\r\n", " \t\r\n", "# c (\"#) é\n", "\t#\r\n"]


def _padded(doc, rng: random.Random) -> tuple[str, list[tuple[int, int]]]:
    """``doc`` rendered with random blanks, tabs, comments and \\r\\n line
    ends between its tokens, and the line:col of each node-starting token."""
    parts: list[str] = []
    line, col = 1, 1
    starts: list[tuple[int, int]] = []

    def put(piece: str):
        nonlocal line, col
        parts.append(piece)
        newlines = piece.count("\n")
        if newlines:
            line += newlines
            col = len(piece) - piece.rindex("\n")
        else:
            col += len(piece)

    previous = None
    for text, node in _tokens(doc):
        glue = previous is None or previous in "()," or text in "(),"
        count = rng.randint(0 if glue else 1, 3)
        for piece in rng.choices(_PADDING, k=count):
            put(piece)
        if node is not None:
            starts.append((line, col))
        put(text)
        previous = text
    put("".join(rng.choices(_PADDING, k=rng.randint(0, 2))))
    if rng.random() < 0.5:
        put("# trailing comment")
    return "".join(parts), starts


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_node_positions_are_their_first_token(seed):
    rng = random.Random(seed)
    doc = gen_document(rng)
    text, starts = _padded(doc, rng)
    parsed = parse_policy_document(text)
    assert parsed == doc
    assert [node.pos for _, node in _tokens(parsed) if node is not None] == starts


# --- number literals ------------------------------------------------------------


def test_number_literal_digit_limit():
    widest = "9" * MAX_NUMBER_DIGITS
    doc = parse_policy_document(f"policy P do a({widest})")
    assert doc.policies[0].body.rule.action.args == (Number(int(widest)),)
    # digits count, not value: leading zeros are digits too
    for digits in ("1" * 5000, "0" * (MAX_NUMBER_DIGITS + 1)):
        with pytest.raises(ParseError) as err:
            parse_policy_document(f"policy P\n  when t({digits}) do a()")
        assert (err.value.line, err.value.col) == (2, 10)
        assert err.value.bare_message == f"number literal has more than {MAX_NUMBER_DIGITS} digits"
    assert tokenize("1" * 5000)[0].value == "1" * 5000


def test_parse_builds_no_token(monkeypatch):
    def token(*args):
        raise AssertionError("a Token was built")

    monkeypatch.setattr(parser, "Token", token)
    assert parse_policy_document(MOREBEDS).policies[0].name == "MoreBeds"
