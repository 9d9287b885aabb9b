"""Static validation of policy documents against a domain vocabulary.

One walk over each rule collects its predicates and its action calls in
textual order; the arity checks, the ``or`` warnings and the symbol checks
all read those lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import Diagnostic
from .ast import Action, ActionCall, Condition, Ident, NotCond, PolicyDocument, Pred
from .ast import iter_rules

# Identifier bound to the triggering task inside conditions and actions.
THIS = "this"


@dataclass(frozen=True)
class Vocabulary:
    """Known trigger/predicate/action names, each mapped to an inclusive
    (min, max) argument-count range."""

    triggers: dict[str, tuple[int, int]] = field(default_factory=dict)
    predicates: dict[str, tuple[int, int]] = field(default_factory=dict)
    actions: dict[str, tuple[int, int]] = field(default_factory=dict)


def _arity_problem(kind: str, call, arity: tuple[int, int] | None) -> Diagnostic:
    """The diagnostic for a ``call`` whose name has no entry (``arity`` None)
    or whose argument count is outside ``arity``."""
    line, col = call.pos if call.pos else (None, None)
    if arity is None:
        return Diagnostic(
            code=f"Unknown{kind.capitalize()}",
            message=f"unknown {kind} {call.name!r}",
            line=line,
            col=col,
            subject=call.name,
        )
    lo, hi = arity
    want = str(lo) if lo == hi else f"{lo}..{hi}"
    return Diagnostic(
        code="ArityError",
        message=f"{kind} {call.name!r} takes {want} argument(s), got {len(call.args)}",
        line=line,
        col=col,
        subject=call.name,
    )


def _collect_predicates(cond: Condition, out: list[Pred]):
    """Append every predicate leaf of ``cond`` to ``out`` in textual order."""
    if isinstance(cond, Pred):
        out.append(cond)
    elif isinstance(cond, NotCond):
        _collect_predicates(cond.child, out)
    else:
        _collect_predicates(cond.left, out)
        _collect_predicates(cond.right, out)


def _collect_calls(action: Action, out: list[ActionCall], ors: list[int]):
    """Append every action leaf of ``action`` to ``out`` in textual order,
    and to ``ors``, for each ``or`` in textual order, the index in ``out``
    of its right operand's first call."""
    if isinstance(action, ActionCall):
        out.append(action)
        return
    _collect_calls(action.left, out, ors)
    if action.op == "or":
        ors.append(len(out))
    _collect_calls(action.right, out, ors)


def validate_policies(
    doc: PolicyDocument,
    vocabulary: Vocabulary,
    symbols: set[str] | None = None,
) -> list[Diagnostic]:
    """Flag unknown names, wrong arities and, when the caller supplies a
    symbol table, identifier arguments that resolve to nothing; warn about
    the right operand of every ``or``, which never runs (the warning sits at
    that operand's first call). A policy's unresolved identifiers follow
    the rest of its diagnostics."""
    out: list[Diagnostic] = []
    for policy in doc.policies:
        unresolved: list[Diagnostic] = []
        for _, rule in iter_rules(policy.body):
            preds: list[Pred] = []
            if rule.condition is not None:
                _collect_predicates(rule.condition, preds)
            calls: list[ActionCall] = []
            ors: list[int] = []
            _collect_calls(rule.action, calls, ors)
            for kind, table, items in (
                ("trigger", vocabulary.triggers, rule.triggers),
                ("predicate", vocabulary.predicates, preds),
                ("action", vocabulary.actions, calls),
            ):
                for item in items:
                    arity = table.get(item.name)
                    if arity is None or not arity[0] <= len(item.args) <= arity[1]:
                        out.append(_arity_problem(kind, item, arity))
            for i in ors:
                first = calls[i]
                line, col = first.pos if first.pos else (None, None)
                message = f"{first.name} never runs: 'or' always takes its left operand"
                out.append(Diagnostic("UnreachableAlternative", message, line, col, first.name, "warning"))
            if symbols is None:
                continue
            for call in calls + preds:
                for arg in call.args:
                    if isinstance(arg, Ident) and arg.value not in symbols and arg.value != THIS:
                        line, col = call.pos if call.pos else (None, None)
                        unresolved.append(
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
        out += unresolved
    return out
