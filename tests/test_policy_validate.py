from __future__ import annotations

from vopol.policy.parser import parse_policy_document
from vopol.policy.validate import validate_policies
from vopol.cli import model_symbols
from vopol.domain import VOCABULARY
from vopol.model import load_model

from conftest import MOREBEDS, VISITUS


def validate(text: str, symbols=None):
    return validate_policies(parse_policy_document(text), VOCABULARY, symbols)


def test_morebeds_is_clean():
    assert validate(MOREBEDS) == []


def test_morebeds_clean_with_model_symbols():
    symbols = model_symbols(load_model(VISITUS))
    assert validate(MOREBEDS, symbols) == []


def test_or_warns_at_its_never_run_right_operand():
    diags = validate(
        "policy P do add_member(a) or (add_member(b) andthen add_member(c))\n"
        "policy Q do add_member(a) orelse add_member(b) or add_member(c) or add_member(d)\n"
    )
    assert [(d.code, d.severity, d.line, d.col, d.subject) for d in diags] == [
        ("UnreachableAlternative", "warning", 1, 31, "add_member"),
        ("UnreachableAlternative", "warning", 2, 51, "add_member"),
        ("UnreachableAlternative", "warning", 2, 68, "add_member"),
    ]


def test_wrong_arity_flagged():
    diags = validate("policy P do add_member(a, b)")
    assert len(diags) == 1
    assert diags[0].code == "ArityError"
    assert "1" in diags[0].message


def test_unknown_trigger_flagged():
    diags = validate("policy P when task_begin() do add_member(a)")
    assert [d.code for d in diags] == ["UnknownTrigger"]
    assert diags[0].subject == "task_begin"


def test_unknown_action_and_predicate_flagged():
    diags = validate("policy P if is_cheap(x) do teleport(x)")
    assert {d.code for d in diags} == {"UnknownPredicate", "UnknownAction"}


def test_variable_arity_actions():
    assert validate("policy P do assign_duty(p, c)") == []
    assert validate("policy P do assign_duty(p, t, c)") == []
    assert validate("policy P do assign_duty(p, t, c, 4)") == []
    assert [d.code for d in validate("policy P do assign_duty(p)")] == ["ArityError"]
    assert [d.code for d in validate("policy P do assign_duty(p, t, c, 4, 5)")] == ["ArityError"]
    assert validate("policy P do change_type(t, Atomic)") == []


def test_unresolved_identifier_needs_symbol_table():
    text = "policy P do add_member(ghost)"
    assert validate(text) == []  # without symbols only names/arity are checked
    diags = validate(text, symbols={"Hotel"})
    assert [d.code for d in diags] == ["UnresolvedIdentifier"]
    assert diags[0].subject == "ghost"


def test_this_is_always_resolvable():
    diags = validate("policy P if active(this) do delete_task(this)", symbols=set())
    assert diags == []


def test_numbers_and_strings_need_no_resolution():
    diags = validate('policy P do assign_duty("поставщик", t, c, 3)', symbols={"t", "c"})
    assert diags == []


def test_diagnostics_carry_positions():
    diags = validate("policy P\n  do teleport(x)")
    assert diags[0].line == 2
