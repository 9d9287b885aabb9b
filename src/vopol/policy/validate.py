"""Static validation of policy documents against a domain vocabulary."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import Diagnostic
from .ast import Action, ActionCall, Ident, Policy, PolicyDocument
from .ast import iter_action_calls, iter_predicates, iter_rules

# Identifier bound to the triggering task inside conditions and actions.
THIS = "this"


@dataclass(frozen=True)
class Vocabulary:
    """Known trigger/predicate/action names, each mapped to an inclusive
    (min, max) argument-count range."""

    triggers: dict[str, tuple[int, int]] = field(default_factory=dict)
    predicates: dict[str, tuple[int, int]] = field(default_factory=dict)
    actions: dict[str, tuple[int, int]] = field(default_factory=dict)


def _check_arity(
    kind: str,
    name: str,
    nargs: int,
    table: dict[str, tuple[int, int]],
    pos: tuple[int, int] | None,
    out: list[Diagnostic],
):
    line, col = pos if pos else (None, None)
    if name not in table:
        out.append(
            Diagnostic(
                code=f"Unknown{kind.capitalize()}",
                message=f"unknown {kind} {name!r}",
                line=line,
                col=col,
                subject=name,
            )
        )
        return
    lo, hi = table[name]
    if not lo <= nargs <= hi:
        want = str(lo) if lo == hi else f"{lo}..{hi}"
        out.append(
            Diagnostic(
                code="ArityError",
                message=f"{kind} {name!r} takes {want} argument(s), got {nargs}",
                line=line,
                col=col,
                subject=name,
            )
        )


def _check_or(action: Action, out: list[Diagnostic]):
    """Warn once per ``or``: it always runs its left operand, so the right
    one never runs. The warning sits at the right operand's first call."""
    if isinstance(action, ActionCall):
        return
    _check_or(action.left, out)  # in textual order
    if action.op == "or":
        first = next(iter_action_calls(action.right))
        line, col = first.pos if first.pos else (None, None)
        message = f"{first.name} never runs: 'or' always takes its left operand"
        out.append(Diagnostic("UnreachableAlternative", message, line, col, first.name, "warning"))
    _check_or(action.right, out)


def _check_symbols(policy: Policy, symbols: set[str], out: list[Diagnostic]):
    for _, rule in iter_rules(policy.body):
        calls = list(iter_action_calls(rule.action))
        if rule.condition is not None:
            calls.extend(iter_predicates(rule.condition))
        for call in calls:
            for arg in call.args:
                if isinstance(arg, Ident) and arg.value not in symbols and arg.value != THIS:
                    line, col = call.pos if call.pos else (None, None)
                    out.append(
                        Diagnostic(
                            code="UnresolvedIdentifier",
                            message=(
                                f"identifier {arg.value!r} in {call.name} is neither "
                                "a model entity nor a declared parameter"
                            ),
                            line=line,
                            col=col,
                            subject=arg.value,
                        )
                    )


def validate_policies(
    doc: PolicyDocument,
    vocabulary: Vocabulary,
    symbols: set[str] | None = None,
) -> list[Diagnostic]:
    """Flag unknown names, wrong arities and, when the caller supplies a
    symbol table, identifier arguments that resolve to nothing; warn about
    the right operand of every ``or``, which never runs."""
    out: list[Diagnostic] = []
    for policy in doc.policies:
        for _, rule in iter_rules(policy.body):
            for trig in rule.triggers:
                _check_arity("trigger", trig.name, len(trig.args), vocabulary.triggers, trig.pos, out)
            if rule.condition is not None:
                for pred in iter_predicates(rule.condition):
                    _check_arity("predicate", pred.name, len(pred.args), vocabulary.predicates, pred.pos, out)
            for call in iter_action_calls(rule.action):
                _check_arity("action", call.name, len(call.args), vocabulary.actions, call.pos, out)
            _check_or(rule.action, out)
        if symbols is not None:
            _check_symbols(policy, symbols, out)
    return out
