"""Parser for policy documents.

Grammar (UTF-8 text, ``#`` starts a comment running to end of line)::

    document   := policy+
    policy     := "policy" IDENT group
    group      := term (("seq"|"par"|"gchoice"|"uchoice") term)*
    term       := rule | "(" group ")"
    rule       := ["appliesTo" IDENT] ["when" trig ("or" trig)*] ["if" cond] "do" act
    trig       := IDENT "(" [arglist] ")"
    cond       := cterm (("and"|"or") cterm)*
    cterm      := ["not"] (IDENT "(" [arglist] ")" | "(" cond ")")
    act        := aterm (("and"|"andthen"|"or"|"orelse") aterm)*
    aterm      := IDENT "(" [arglist] ")" | "(" act ")"
    arglist    := arg ("," arg)* ;  arg := IDENT | NUMBER | STRING

All binary operators sit at a single precedence level and associate to
the left; parentheses override. Keywords are reserved and cannot be used
as identifiers. A NUMBER has at most :data:`MAX_NUMBER_DIGITS` digits.

One compiled regular expression scans the text, one token (after any
blanks) per match, into four flat lists: the kind, value, line and column
of each token. Each token class is a numbered group, the most common
first; a name or punctuation token is looked up once in the table of the
tokens that are their own kind (the keywords and punctuation), and any
other name is an IDENT. A stray character or a malformed string goes to
a slow path that names the error. The parser walks the lists by index
and reads a call's arguments in place. An error points at its token's
line and column; a column counts characters from 1 and a comment does
not advance it, so the end of input after a trailing comment sits at
the comment's column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import MAX_NUMBER_DIGITS, DocumentError, ParseError
from .ast import (
    ACTION_OPS,
    GROUP_OPS,
    Action,
    ActionCall,
    ActionOp,
    AndCond,
    Arg,
    Condition,
    GroupNode,
    Ident,
    NotCond,
    Number,
    OrCond,
    Policy,
    PolicyDocument,
    PolicyRule,
    Pred,
    RuleGroup,
    RuleLeaf,
    Text,
    TriggerSpec,
)

KEYWORDS = frozenset(
    ["policy", "appliesTo", "when", "if", "do", "not"]
    + list(ACTION_OPS)
    + list(GROUP_OPS)
)

# One group per token class, tried in this order at each offset after any
# blanks. The first five begin with distinct characters, so their order
# does not change what matches, and the most common come first. A string
# matches only when it is well formed; the last group takes any other
# character, and _scan_error says what is wrong there.
_SCAN = re.compile(
    r"""[ \t\r]*
    (?:
        ([A-Za-z_][A-Za-z0-9_]*|[(),])    # 1: a name or punctuation
      | (\n)                              # 2: a line break
      | ([0-9]+)                          # 3: NUMBER
      | ("(?:[^"\\\n]|\\["\\])*")         # 4: STRING
      | (\#[^\n]*)                        # 5: a comment, to the end of its line
      | ([^ \t\r])                        # 6: any other character
    )""",
    re.VERBOSE,
)
_NAME, _NEWLINE, _NUMBER, _STRING, _COMMENT = 1, 2, 3, 4, 5
_ESCAPE = re.compile(r"\\(.)")
# a keyword or punctuation token is its own kind; any other name is an IDENT
_OWN_KIND = {word: word for word in (*KEYWORDS, "(", ")", ",")}


@dataclass(frozen=True)
class Token:
    kind: str  # keyword itself, or one of IDENT NUMBER STRING ( ) , EOF
    value: str
    line: int
    col: int


def _scan_error(text: str, i: int, line: int, col: int) -> ParseError:
    """The error for offset ``i`` of ``text``, at ``line``:``col``, where no
    token matches: a stray character or a malformed string."""
    if text[i] != '"':
        return ParseError(f"unexpected character {text[i]!r}", line, col)
    j, n = i + 1, len(text)
    while j < n and text[j] not in '"\n':
        if text[j] == "\\":
            if j + 1 >= n or text[j + 1] not in '"\\':
                return ParseError("bad escape in string", line, col + j - i)
            j += 1
        j += 1
    return ParseError("unterminated string", line, col)


def _scan(text: str) -> tuple[list[str], list[str], list[int], list[int]]:
    """The kind, value, line and column of every token of ``text``, as four
    lists ending with the EOF token. A column counts characters from 1 and
    a comment does not advance it: the EOF after a trailing comment sits at
    the comment's column."""
    kinds: list[str] = []
    values: list[str] = []
    lines: list[int] = []
    cols: list[int] = []
    kind_of, value_of, line_of, col_of = kinds.append, values.append, lines.append, cols.append
    line, line_start = 1, 0
    end = len(text)
    for m in _SCAN.finditer(text):
        group = m.lastindex
        value = m[group]
        if group == _NAME:
            kind_of(_OWN_KIND.get(value, "IDENT"))
        elif group == _NEWLINE:
            line += 1
            line_start = m.end()
            continue
        elif group == _NUMBER:
            kind_of("NUMBER")
        elif group == _STRING:
            kind_of("STRING")
            value = value[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(r"\1", value)
        elif group == _COMMENT:
            end = m.start(group)  # a comment runs to the end of its line
            continue
        else:
            raise _scan_error(text, m.start(group), line, m.start(group) - line_start + 1)
        value_of(value)
        line_of(line)
        col_of(m.start(group) - line_start + 1)
    if end < line_start:  # the last comment sits on an earlier line
        end = len(text)
    kinds.append("EOF")
    values.append("")
    lines.append(line)
    cols.append(end - line_start + 1)
    return kinds, values, lines, cols


def tokenize(text: str) -> list[Token]:
    return [Token(*t) for t in zip(*_scan(text))]


def _condition_node(op: str, left: Condition, right: Condition) -> Condition:
    return (AndCond if op == "and" else OrCond)(left, right)


class _Parser:
    """Recursive descent over the token lists of :func:`_scan`; ``k`` is the
    index of the current token."""

    def __init__(self, text: str):
        self.kinds, self.values, self.lines, self.cols = _scan(text)
        self.k = 0

    def pos(self, k: int) -> tuple[int, int]:
        return self.lines[k], self.cols[k]

    def expect(self, kind: str) -> int:
        """Step past the current token, which must be of ``kind``; returns
        its index."""
        k = self.k
        if self.kinds[k] != kind:
            self.fail(kind)
        self.k = k + 1
        return k

    def fail(self, *expected: str):
        k = self.k
        got = self.values[k] if self.kinds[k] != "EOF" else "end of input"
        raise ParseError(f"unexpected {got!r}", self.lines[k], self.cols[k], expected)

    # document / policy ------------------------------------------------

    def document(self) -> PolicyDocument:
        policies = []
        seen: dict[str, tuple[int, int]] = {}
        while self.kinds[self.k] != "EOF":
            policies.append(self.policy(seen))
        if not policies:
            self.fail("policy")
        return PolicyDocument(tuple(policies))

    def policy(self, seen: dict[str, tuple[int, int]]) -> Policy:
        head = self.pos(self.expect("policy"))
        name = self.values[self.expect("IDENT")]
        if name in seen:
            raise DocumentError(
                f"duplicate policy name {name!r} (first defined at "
                f"{seen[name][0]}:{seen[name][1]})",
                *head,
            )
        seen[name] = head
        return Policy(name, self.group(), pos=head)

    # operator trees -------------------------------------------------------

    def chain(self, ops, term, build):
        """``term (op term)*`` for the operators ``ops``, associating to the
        left: ``build(op, left, right)`` makes each node."""
        node = term()
        while self.kinds[self.k] in ops:
            op = self.kinds[self.k]
            self.k += 1
            node = build(op, node, term())
        return node

    def nested(self, inner):
        """``"(" inner ")"``; the current token is the ``(``."""
        self.k += 1
        node = inner()
        self.expect(")")
        return node

    def call(self, node_type, *expected):
        """``IDENT "(" [arglist] ")"`` as a ``node_type``; a current token
        that is no IDENT fails with the ``expected`` set. An argument is an
        IDENT, a NUMBER of at most MAX_NUMBER_DIGITS digits or a STRING."""
        kinds, values = self.kinds, self.values
        name = self.k
        if kinds[name] != "IDENT":
            self.fail(*expected)
        self.k = k = name + 1
        if kinds[k] != "(":
            self.fail("(")
        args: list[Arg] = []
        k += 1
        if kinds[k] != ")":
            while True:
                kind, value = kinds[k], values[k]
                if kind == "IDENT":
                    args.append(Ident(value))
                elif kind == "NUMBER":
                    if len(value) > MAX_NUMBER_DIGITS:
                        raise ParseError(f"number literal has more than {MAX_NUMBER_DIGITS} digits", *self.pos(k))
                    args.append(Number(int(value)))
                elif kind == "STRING":
                    args.append(Text(value))
                else:
                    self.k = k
                    self.fail("IDENT", "NUMBER", "STRING")
                k += 1
                if kinds[k] != ",":
                    break
                k += 1
            if kinds[k] != ")":
                self.k = k
                self.fail(")")
        self.k = k + 1
        return node_type(values[name], tuple(args), pos=self.pos(name))

    # rule groups --------------------------------------------------------

    def group(self) -> RuleGroup:
        return self.chain(GROUP_OPS, self.term, GroupNode)

    def term(self) -> RuleGroup:
        if self.kinds[self.k] == "(":
            return self.nested(self.group)
        return RuleLeaf(self.rule())

    def rule(self) -> PolicyRule:
        start = self.k
        if self.kinds[start] not in ("appliesTo", "when", "if", "do"):
            self.fail("appliesTo", "when", "if", "do", "(")
        location = None
        if self.kinds[self.k] == "appliesTo":
            self.k += 1
            location = self.values[self.expect("IDENT")]
        triggers: list[TriggerSpec] = []
        if self.kinds[self.k] == "when":
            self.k += 1
            triggers.append(self.call(TriggerSpec, "IDENT"))
            while self.kinds[self.k] == "or":
                self.k += 1
                triggers.append(self.call(TriggerSpec, "IDENT"))
        condition = None
        if self.kinds[self.k] == "if":
            self.k += 1
            condition = self.condition()
        self.expect("do")
        action = self.action()
        return PolicyRule(location, tuple(triggers), condition, action, pos=self.pos(start))

    # conditions ---------------------------------------------------------

    def condition(self) -> Condition:
        return self.chain(("and", "or"), self.cterm, _condition_node)

    def cterm(self) -> Condition:
        negated = self.kinds[self.k] == "not"
        self.k += negated
        if self.kinds[self.k] == "(":
            node = self.nested(self.condition)
        else:
            node = self.call(Pred, "IDENT", "(", "not")
        return NotCond(node) if negated else node

    # actions --------------------------------------------------------------

    def action(self) -> Action:
        return self.chain(ACTION_OPS, self.aterm, ActionOp)

    def aterm(self) -> Action:
        if self.kinds[self.k] == "(":
            return self.nested(self.action)
        return self.call(ActionCall, "IDENT", "(")


def parse_policy_document(text: str) -> PolicyDocument:
    """Parse policy text into a document AST.

    Raises :class:`ParseError` on malformed input (with line/column and
    the expected-token set) and :class:`DocumentError` when two policies
    share a name.
    """
    return _Parser(text).document()
