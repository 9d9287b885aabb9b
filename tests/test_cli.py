from __future__ import annotations

import subprocess
import sys

import pytest

from vopol.cli import cmd_validate, main, model_symbols, parse_scenario
from vopol.engine import ScenarioEvent
from vopol.errors import ParseError, quoted
from vopol.model import load_model
from vopol.trace import parse_trace

from conftest import FIXTURES, MOREBEDS, NOT_INTEGERS, VISITUS, WIDEST


# --- parse_scenario -----------------------------------------------------------


def test_parse_activate():
    assert parse_scenario("activate HotelProv") == [ScenarioEvent("activate", ("HotelProv",))]


def test_parse_consume():
    assert parse_scenario("consume Hotel beds 8") == [
        ScenarioEvent("consume", ("Hotel", "beds", 8))
    ]


def test_parse_unknown_command():
    with pytest.raises(ParseError) as err:
        parse_scenario("teleport X")
    assert err.value.line == 1
    assert err.value.message == "1:1: unknown scenario command 'teleport'"


def test_parse_full_scenario_in_order():
    text = "start\nactivate A\ncomplete A\nfail B\nrelease M c 2\nload-policy p.pol\nretract-policy P\n"
    kinds = [e.kind for e in parse_scenario(text)]
    assert kinds == ["start", "activate", "complete", "fail", "release", "load-policy", "retract-policy"]


def test_parse_arity_and_integer_errors():
    for text, message in [
        ("start now", "1:1: start takes 0 argument(s), got 1"),
        ("activate", "1:1: activate takes 1 argument(s), got 0"),
        ("release Hotel beds", "1:1: release takes 3 argument(s), got 2"),
        ("consume Hotel beds lots", "1:1: amount must be an integer, got 'lots'"),
        ("release Hotel beds -3", "1:1: amount must not be negative, got '-3'"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        assert err.value.message == message


@pytest.mark.parametrize("token", NOT_INTEGERS)
def test_scenario_amounts_follow_the_one_integer_rule(token):
    with pytest.raises(ParseError) as err:
        parse_scenario(f"start\nconsume Hotel beds {token}")
    assert (err.value.bare_message, err.value.line) == (f"amount must be an integer, got {quoted(token)}", 2)


def test_scenario_amount_of_640_digits_parses():
    assert parse_scenario(f"release Hotel beds {WIDEST}") == [ScenarioEvent("release", ("Hotel", "beds", int(WIDEST)))]


def test_parse_comments_and_blanks():
    assert parse_scenario("# nothing\n\nstart # go\n") == [ScenarioEvent("start")]


# --- validate command ------------------------------------------------------------


def test_validate_fixture_passes():
    assert cmd_validate(FIXTURES / "visitus.vo", FIXTURES / "morebeds.pol") == 0


def test_validate_unknown_action(tmp_path, capsys):
    model = tmp_path / "m.vo"
    model.write_text(VISITUS)
    pol = tmp_path / "p.pol"
    pol.write_text("policy P do frobnicate(Hotel)\n")
    assert cmd_validate(model, pol) == 1
    err = capsys.readouterr().err
    assert "frobnicate" in err and str(pol) in err


def test_validate_cyclic_model(tmp_path, capsys):
    model = tmp_path / "m.vo"
    model.write_text("vo X\ntask A type=Atomic\ntask B type=Atomic\nedge A B\nedge B A\n")
    pol = tmp_path / "p.pol"
    pol.write_text(MOREBEDS)
    assert cmd_validate(model, pol) == 1
    assert "cycle" in capsys.readouterr().err.lower()


def test_validate_negative_declared_capacity_exits_1(tmp_path, capsys):
    model = tmp_path / "m.vo"
    model.write_text("vo X\nmember P kind=Partner cap a=-1\n")
    pol = tmp_path / "p.pol"
    pol.write_text("policy P do add_member(P)\n")
    assert cmd_validate(model, pol) == 1
    assert "[NegativeCapacity] P: declared capacity a=-1 is negative" in capsys.readouterr().err


def test_validate_missing_file(tmp_path):
    pol = tmp_path / "p.pol"
    pol.write_text(MOREBEDS)
    assert cmd_validate(tmp_path / "nope.vo", pol) == 2


@pytest.mark.parametrize("broken", ["model", "policies"])
def test_validate_undecodable_input_exits_2(tmp_path, capsys, broken):
    paths = {"model": tmp_path / "m.vo", "policies": tmp_path / "p.pol"}
    paths["model"].write_text(VISITUS)
    paths["policies"].write_text(MOREBEDS)
    paths[broken].write_bytes(b"\xff\xfe")
    assert cmd_validate(paths["model"], paths["policies"]) == 2
    assert f"{paths[broken]}: not valid UTF-8" in capsys.readouterr().err


def test_run_undecodable_scenario_exits_2(tmp_path):
    scenario = tmp_path / "bad.scenario"
    scenario.write_bytes(b"\xff\xfe")
    result = run_cli(
        "run",
        "--model", str(FIXTURES / "visitus.vo"),
        "--policies", str(FIXTURES / "morebeds.pol"),
        "--scenario", str(scenario),
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "not valid UTF-8" in result.stderr and "Traceback" not in result.stderr


def test_validate_prints_warnings_but_counts_only_errors(tmp_path, capsys):
    model = tmp_path / "m.vo"
    model.write_text(VISITUS)
    pol = tmp_path / "p.pol"
    pol.write_text("policy P\n  do add_member(newHotel) or add_member(Hotel)\n")
    assert cmd_validate(model, pol) == 0
    assert f"{pol}:2:30: warning: [UnreachableAlternative]" in capsys.readouterr().err


def test_validate_diagnostics_have_positions(tmp_path, capsys):
    model = tmp_path / "m.vo"
    model.write_text(VISITUS)
    pol = tmp_path / "p.pol"
    pol.write_text("policy P\n  do frobnicate(Hotel)\n")
    cmd_validate(model, pol)
    assert f"{pol}:2:" in capsys.readouterr().err


# --- run command --------------------------------------------------------------------


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "vopol.cli", *args], capture_output=True, text=True
    )


def test_run_golden_matches_frozen_trace():
    result = run_cli(
        "run",
        "--model", str(FIXTURES / "visitus.vo"),
        "--policies", str(FIXTURES / "morebeds.pol"),
        "--scenario", str(FIXTURES / "golden.scenario"),
    )
    assert result.returncode == 0
    golden = (FIXTURES / "morebeds.records").read_text()
    assert result.stdout == golden


def test_run_empty_scenario(tmp_path):
    scenario = tmp_path / "empty.scenario"
    scenario.write_text("# nothing happens\n")
    result = run_cli(
        "run",
        "--model", str(FIXTURES / "visitus.vo"),
        "--policies", str(FIXTURES / "morebeds.pol"),
        "--scenario", str(scenario),
    )
    assert result.returncode == 0
    records = parse_trace(result.stdout)
    assert [r.kind for r in records] == ["STATE"]


def test_run_goes_on_past_a_policy_path_with_a_nul_byte(tmp_path):
    scenario = tmp_path / "nul.scenario"
    scenario.write_bytes(b"load-policy a\x00b\nstart\n")
    result = run_cli(
        "run",
        "--model", str(FIXTURES / "visitus.vo"),
        "--policies", str(FIXTURES / "morebeds.pol"),
        "--scenario", str(scenario),
    )
    assert result.returncode == 0
    assert "Traceback" not in result.stderr
    # the NUL is escaped: no control character but the line ends is written raw
    assert 'path="a\\u0000b"' in result.stdout
    assert not any(c < " " for c in result.stdout.replace("\n", ""))
    records = parse_trace(result.stdout)
    assert [(r.kind, r.get("event") or r.get("error")) for r in records[1:]] == [
        ("EVENT", "load-policy"),
        ("ERROR", "IOError"),
        ("EVENT", "start"),
    ]


def test_run_missing_scenario_exits_2():
    result = run_cli(
        "run",
        "--model", str(FIXTURES / "visitus.vo"),
        "--policies", str(FIXTURES / "morebeds.pol"),
        "--scenario", str(FIXTURES / "nope.scenario"),
    )
    assert result.returncode == 2
    assert result.stdout == ""


def test_run_invalid_policy_exits_2_before_any_event(tmp_path):
    pol = tmp_path / "bad.pol"
    pol.write_text("policy P do frobnicate(Hotel)\n")
    result = run_cli(
        "run",
        "--model", str(FIXTURES / "visitus.vo"),
        "--policies", str(pol),
        "--scenario", str(FIXTURES / "golden.scenario"),
    )
    assert result.returncode == 2
    assert result.stdout == ""


def test_overlong_number_literal_is_a_diagnostic(tmp_path):
    pol = tmp_path / "long.pol"
    pol.write_text("policy P do a(" + "1" * 5000 + ")\n")
    common = ["--model", str(FIXTURES / "visitus.vo"), "--policies", str(pol)]
    validate = run_cli("validate", *common)
    run = run_cli("run", *common, "--scenario", str(FIXTURES / "golden.scenario"))
    assert (validate.returncode, run.returncode) == (1, 2)
    for result in (validate, run):
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert f"{pol}:1:15: [ParseError] number literal has more than" in result.stderr


def test_run_text_format(tmp_path):
    out = tmp_path / "trace.txt"
    code = main(
        [
            "run",
            "--model", str(FIXTURES / "visitus.vo"),
            "--policies", str(FIXTURES / "morebeds.pol"),
            "--scenario", str(FIXTURES / "golden.scenario"),
            "--format", "text",
            "--out", str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert "POLICY-FIRED" in text and "policy=MoreBeds" in text


def test_run_out_records_is_parseable(tmp_path):
    out = tmp_path / "trace.records"
    code = main(
        [
            "run",
            "--model", str(FIXTURES / "visitus.vo"),
            "--policies", str(FIXTURES / "morebeds.pol"),
            "--scenario", str(FIXTURES / "golden.scenario"),
            "--out", str(out),
        ]
    )
    assert code == 0
    records = parse_trace(out.read_text())
    assert records[-1].kind == "STATE"


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_run_unwritable_out_exits_2(tmp_path, capsys, where):
    out = tmp_path / "missing" / "x.records" if where == "missing-dir" else tmp_path
    code = main(
        [
            "run",
            "--model", str(FIXTURES / "visitus.vo"),
            "--policies", str(FIXTURES / "morebeds.pol"),
            "--scenario", str(FIXTURES / "golden.scenario"),
            "--out", str(out),
        ]
    )
    reason = "No such file or directory" if where == "missing-dir" else "Is a directory"
    assert (code, capsys.readouterr().err) == (2, f"{out}: {reason}\n")


# --- symbol table -----------------------------------------------------------------


def test_model_symbols_cover_fixture_names():
    symbols = model_symbols(load_model(VISITUS))
    for name in ("Hotel", "newHotel", "HotelProv", "BookFlight", "beds", "n",
                 "Replicable", "competition", "after", "this"):
        assert name in symbols
