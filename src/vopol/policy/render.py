"""Canonical text rendering for policy documents.

The renderer emits one line per policy and inserts parentheses only where
left-associativity would otherwise reassociate the tree, so rendering
followed by parsing reproduces the input AST exactly.
"""

from __future__ import annotations

from .ast import (
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
)


def render_arg(arg: Arg) -> str:
    if isinstance(arg, Ident):
        return arg.value
    if isinstance(arg, Number):
        return str(arg.value)
    escaped = arg.value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def render_call(name: str, args: tuple[Arg, ...]) -> str:
    return f"{name}({', '.join(render_arg(a) for a in args)})"


def _infix(node, op: str, render, composite) -> str:
    """``left op right`` for the binary ``node``; a right operand that is
    itself a ``composite`` goes in parentheses, as the operators associate
    to the left."""
    right = render(node.right)
    if isinstance(node.right, composite):
        right = f"({right})"
    return f"{render(node.left)} {op} {right}"


def render_condition(cond: Condition) -> str:
    if isinstance(cond, Pred):
        return render_call(cond.name, cond.args)
    if isinstance(cond, NotCond):
        child = cond.child
        if isinstance(child, Pred):
            return f"not {render_condition(child)}"
        return f"not ({render_condition(child)})"
    return _infix(cond, "and" if isinstance(cond, AndCond) else "or", render_condition, (AndCond, OrCond))


def render_action(action: Action) -> str:
    if isinstance(action, ActionCall):
        return render_call(action.name, action.args)
    return _infix(action, action.op, render_action, ActionOp)


def render_rule(rule: PolicyRule) -> str:
    parts: list[str] = []
    if rule.location is not None:
        parts.append(f"appliesTo {rule.location}")
    if rule.triggers:
        trigs = " or ".join(render_call(t.name, t.args) for t in rule.triggers)
        parts.append(f"when {trigs}")
    if rule.condition is not None:
        parts.append(f"if {render_condition(rule.condition)}")
    parts.append(f"do {render_action(rule.action)}")
    return " ".join(parts)


def render_group(group: RuleGroup) -> str:
    if isinstance(group, RuleLeaf):
        return render_rule(group.rule)
    return _infix(group, group.op, render_group, GroupNode)


def render_policy(policy: Policy) -> str:
    return f"policy {policy.name} {render_group(policy.body)}"


def render_policy_document(doc: PolicyDocument) -> str:
    """Render a document to canonical text; parsing it back yields an AST
    structurally equal to ``doc``."""
    return "\n".join(render_policy(p) for p in doc.policies) + "\n"


__all__ = ["render_policy_document", "render_policy", "render_call", "render_arg"]
