"""Seeded random generator for policy-document ASTs.

Used by the renderer round-trip tests and the acceptance corpus; a fixed
seed makes the corpus reproducible.
"""

from __future__ import annotations

import random
import string

from vopol.policy.ast import (
    ACTION_OPS,
    GROUP_OPS,
    ActionCall,
    ActionOp,
    AndCond,
    GroupNode,
    Ident,
    NotCond,
    Number,
    OrCond,
    Policy,
    PolicyDocument,
    PolicyRule,
    Pred,
    RuleLeaf,
    Text,
    TriggerSpec,
)
from vopol.policy.parser import KEYWORDS

_TEXT_ALPHABET = string.ascii_letters + string.digits + " \\\"'#(),=:-_"


def gen_ident(rng: random.Random) -> str:
    while True:
        head = rng.choice(string.ascii_letters + "_")
        tail = "".join(rng.choices(string.ascii_letters + string.digits + "_", k=rng.randint(0, 7)))
        word = head + tail
        if word not in KEYWORDS:
            return word


def gen_arg(rng: random.Random):
    roll = rng.random()
    if roll < 0.5:
        return Ident(gen_ident(rng))
    if roll < 0.8:
        return Number(rng.randint(0, 999))
    return Text("".join(rng.choices(_TEXT_ALPHABET, k=rng.randint(0, 10))))


def gen_args(rng: random.Random) -> tuple:
    return tuple(gen_arg(rng) for _ in range(rng.randint(0, 3)))


# a ``leaf`` factory, where given, makes each leaf in place of a random one
def gen_condition(rng: random.Random, depth: int = 0, leaf=None):
    if depth >= 3 or rng.random() < 0.45:
        return leaf() if leaf else Pred(gen_ident(rng), gen_args(rng))
    roll = rng.random()
    if roll < 0.3:
        return NotCond(gen_condition(rng, depth + 1, leaf))
    node = AndCond if roll < 0.65 else OrCond
    return node(gen_condition(rng, depth + 1, leaf), gen_condition(rng, depth + 1, leaf))


def gen_action(rng: random.Random, depth: int = 0, leaf=None):
    if depth >= 3 or rng.random() < 0.45:
        return leaf() if leaf else ActionCall(gen_ident(rng), gen_args(rng))
    return ActionOp(rng.choice(ACTION_OPS), gen_action(rng, depth + 1, leaf), gen_action(rng, depth + 1, leaf))


def gen_rule(rng: random.Random) -> PolicyRule:
    location = gen_ident(rng) if rng.random() < 0.5 else None
    triggers = tuple(
        TriggerSpec(gen_ident(rng), gen_args(rng)) for _ in range(rng.randint(0, 3))
    )
    condition = gen_condition(rng) if rng.random() < 0.6 else None
    return PolicyRule(location, triggers, condition, gen_action(rng))


def gen_group(rng: random.Random, depth: int = 0, leaf=None):
    if depth >= 2 or rng.random() < 0.5:
        return RuleLeaf(leaf() if leaf else gen_rule(rng))
    return GroupNode(rng.choice(GROUP_OPS), gen_group(rng, depth + 1, leaf), gen_group(rng, depth + 1, leaf))


def gen_document(rng: random.Random) -> PolicyDocument:
    names: set[str] = set()
    policies = []
    for _ in range(rng.randint(1, 3)):
        name = gen_ident(rng)
        while name in names:
            name = gen_ident(rng)
        names.add(name)
        policies.append(Policy(name, gen_group(rng)))
    return PolicyDocument(tuple(policies))
