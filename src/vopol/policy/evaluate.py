"""Core evaluation semantics for rule groups and composite actions.

Evaluation is domain-agnostic: condition predicates are decided by a
caller-supplied boolean function and action leaves are executed through a
caller-supplied attempt function that reports success or failure. The
engine wires both to the live organisation state; unit tests wire them to
recording stubs.

Choice operators are deterministic (textual-left-first); there is no
randomized mode, so identical inputs always evaluate identically. A node
with an unknown operator, or a condition that is no condition node,
raises :class:`vopol.errors.InvalidArgumentError` when the walk reaches it.
"""

from __future__ import annotations

from typing import Callable

from ..errors import InvalidArgumentError
from .ast import (
    Action,
    ActionCall,
    AndCond,
    Condition,
    NotCond,
    OrCond,
    PolicyRule,
    Pred,
    RuleGroup,
    RuleLeaf,
    TriggerSpec,
)

PredicateEval = Callable[[Pred], bool]
ActionAttempt = Callable[[ActionCall], bool]


def match_trigger(rule: PolicyRule, event: TriggerSpec, location: str) -> bool:
    """True when ``rule`` is a candidate for ``event`` raised at ``location``.

    A rule without a location applies everywhere; a rule without triggers
    is the wildcard and matches any event. Trigger arguments never take
    part in matching, only names do.
    """
    if rule.location is not None and rule.location != location:
        return False
    if not rule.triggers:
        return True
    return any(t.name == event.name for t in rule.triggers)


def eval_condition(cond: Condition, predicate_eval: PredicateEval) -> bool:
    if isinstance(cond, Pred):
        return bool(predicate_eval(cond))
    if isinstance(cond, NotCond):
        return not eval_condition(cond.child, predicate_eval)
    if isinstance(cond, AndCond):
        return eval_condition(cond.left, predicate_eval) and eval_condition(
            cond.right, predicate_eval
        )
    if isinstance(cond, OrCond):
        return eval_condition(cond.left, predicate_eval) or eval_condition(
            cond.right, predicate_eval
        )
    raise InvalidArgumentError(f"not a condition node: {type(cond).__name__}")


def linearize_actions(tree: Action, attempt: ActionAttempt) -> bool:
    """Execute a composite action through ``attempt``; true iff it
    succeeded. Each leaf is attempted at most once.

    Operator semantics (left operand always goes first):

    - ``andthen``: right runs only if left succeeded; fails on either failure.
    - ``and``: both run regardless; succeeds only if both did.
    - ``or``: exactly one alternative runs, deterministically the left.
    - ``orelse``: right runs only if left failed; succeeds if either did.
    """
    if isinstance(tree, ActionCall):
        return bool(attempt(tree))
    op = getattr(tree, "op", None)
    if op == "andthen":
        return linearize_actions(tree.left, attempt) and linearize_actions(tree.right, attempt)
    if op == "and":
        left_ok = linearize_actions(tree.left, attempt)
        right_ok = linearize_actions(tree.right, attempt)
        return left_ok and right_ok
    if op == "or":
        return linearize_actions(tree.left, attempt)
    if op == "orelse":
        return linearize_actions(tree.left, attempt) or linearize_actions(tree.right, attempt)
    raise InvalidArgumentError(f"unknown action operator: {op!r}")


def evaluate_rule_group(
    group: RuleGroup,
    event: TriggerSpec,
    location: str,
    predicate_eval: PredicateEval,
    action_sink: ActionAttempt,
) -> list[int]:
    """Evaluate a policy body against one trigger event.

    Returns the identifiers (textual in-order leaf indices) of the rules
    that applied. A rule applies when its trigger matches
    (:func:`match_trigger`) and its condition holds
    (:func:`eval_condition`); its action tree is then executed through
    ``action_sink`` via :func:`linearize_actions`. Group operators:

    - ``seq``: left then right; the right side observes whatever state
      changes the sink made for the left side.
    - ``par``: both sides, left's actions emitted before right's
      (serialized; this engine never interleaves).
    - ``gchoice``: right is evaluated only if left did not apply.
    - ``uchoice``: the first side (textual order) that applies is the
      only one applied.

    Predicate evaluation errors propagate to the caller.
    """
    applied: list[int] = []
    _walk(group, 0, event.name, location, predicate_eval, action_sink, applied)
    return applied


def _walk(
    node: RuleGroup, index: int, name: str, location: str,
    predicate_eval: PredicateEval, attempt: ActionAttempt, applied: list[int],
) -> int:
    """Evaluate the leaves of ``node``, numbered from ``index``, against the
    trigger ``name`` raised at ``location``; return the next free number.
    A subtree applied iff it appended to ``applied``. The state lives in
    the arguments, so a walk leaves no cyclic garbage."""
    if isinstance(node, RuleLeaf):
        rule = node.rule
        if rule.location is not None and rule.location != location:
            return index + 1
        if rule.triggers:  # none is the wildcard
            for trigger in rule.triggers:
                if trigger.name == name:
                    break
            else:
                return index + 1
        cond = rule.condition
        if cond is not None:
            if not (predicate_eval(cond) if isinstance(cond, Pred) else eval_condition(cond, predicate_eval)):
                return index + 1
        applied.append(index)
        action = rule.action
        if isinstance(action, ActionCall):
            attempt(action)
        else:
            linearize_actions(action, attempt)
        return index + 1
    op = node.op
    if op == "seq" or op == "par":
        index = _walk(node.left, index, name, location, predicate_eval, attempt, applied)
        return _walk(node.right, index, name, location, predicate_eval, attempt, applied)
    if op == "gchoice" or op == "uchoice":
        before = len(applied)
        index = _walk(node.left, index, name, location, predicate_eval, attempt, applied)
        if len(applied) > before:
            # keep leaf numbering stable across the unevaluated branch
            return index + _leaf_count(node.right)
        return _walk(node.right, index, name, location, predicate_eval, attempt, applied)
    raise InvalidArgumentError(f"unknown group operator: {op!r}")


def _leaf_count(node: RuleGroup) -> int:
    if isinstance(node, RuleLeaf):
        return 1
    return _leaf_count(node.left) + _leaf_count(node.right)
