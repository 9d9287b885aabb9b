from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from vopol.policy.ast import (
    ActionCall,
    GroupNode,
    Policy,
    PolicyDocument,
    PolicyRule,
    RuleLeaf,
)
from vopol.policy.parser import parse_policy_document
from vopol.policy.render import render_policy_document

from astgen import gen_document
from conftest import MOREBEDS


def leaf(name: str) -> RuleLeaf:
    return RuleLeaf(PolicyRule(None, (), None, ActionCall(name)))


def test_morebeds_round_trip():
    doc = parse_policy_document(MOREBEDS)
    assert parse_policy_document(render_policy_document(doc)) == doc


def test_single_leaf_renders_without_parens():
    doc = PolicyDocument((Policy("P", leaf("a")),))
    assert render_policy_document(doc) == "policy P do a()\n"


def test_nested_choice_gets_parens_only_where_needed():
    body = GroupNode("uchoice", leaf("a"), GroupNode("gchoice", leaf("b"), leaf("c")))
    doc = PolicyDocument((Policy("P", body),))
    text = render_policy_document(doc)
    assert text == "policy P do a() uchoice (do b() gchoice do c())\n"
    assert parse_policy_document(text) == doc

    left_nested = GroupNode("gchoice", GroupNode("uchoice", leaf("a"), leaf("b")), leaf("c"))
    doc2 = PolicyDocument((Policy("P", left_nested),))
    text2 = render_policy_document(doc2)
    assert "(" not in text2.replace("()", "")  # left-associativity needs no parens
    assert parse_policy_document(text2) == doc2


def test_seeded_corpus_round_trip():
    rng = random.Random(20260810)
    for _ in range(500):
        doc = gen_document(rng)
        assert parse_policy_document(render_policy_document(doc)) == doc


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_round_trip_property(seed):
    doc = gen_document(random.Random(seed))
    rendered = render_policy_document(doc)
    assert parse_policy_document(rendered) == doc
    # rendering is canonical: a second round trip is byte-stable
    assert render_policy_document(parse_policy_document(rendered)) == rendered
