"""Command-line front end.

``vopol validate --model M --policies P`` checks all inputs and reports
diagnostics; ``vopol run --model M --policies P --scenario S`` executes a
scenario and writes the trace. Exit codes are a stable contract:
0 = ran / valid, 1 = validation failure, 2 = input or IO failure, such as
an unreadable input or an unwritable ``--out``, reported as ``path: reason``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .policy.ast import PolicyDocument
from .policy.parser import parse_policy_document
from .policy.validate import THIS, validate_policies
from .domain import COMPETITION, VOCABULARY
from .engine import EVENT_ARITY, ScenarioEvent, read_text, run_scenario
from .errors import Diagnostic, ParseError, VopolError, parse_int, quoted
from .model import CUSTOMER, RELATIONS, MemberKind, TaskType, VoModel, load_model, validate_model
from .trace import format_text, format_trace


def parse_scenario(text: str) -> list[ScenarioEvent]:
    """Parse a scenario file into events, strictly in file order."""
    events: list[ScenarioEvent] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        wanted = EVENT_ARITY.get(kind)
        if wanted is None:
            raise ParseError(f"unknown scenario command {kind!r}", line_no, 1)
        if len(args) != wanted:
            raise ParseError(
                f"{kind} takes {wanted} argument(s), got {len(args)}", line_no, 1
            )
        if kind in ("consume", "release"):
            amount = parse_int(args[2])
            if amount is None:
                raise ParseError(f"amount must be an integer, got {quoted(args[2])}", line_no, 1)
            if amount < 0:
                raise ParseError(f"amount must not be negative, got {quoted(args[2])}", line_no, 1)
            events.append(ScenarioEvent(kind, (args[0], args[1], amount)))
        else:
            events.append(ScenarioEvent(kind, tuple(args)))
    return events


def model_symbols(m: VoModel) -> set[str]:
    """Names a policy identifier argument may legitimately refer to."""
    symbols: set[str] = {THIS, CUSTOMER}
    symbols.update(m.members)
    symbols.update(m.registry)
    symbols.update(m.tasks)
    symbols.update(m.params)
    symbols.update(m.vbe_resources)
    symbols.update(t.value for t in TaskType)
    symbols.update(k.value for k in MemberKind)
    symbols.update(RELATIONS)
    symbols.add(COMPETITION)
    for who in list(m.members.values()) + list(m.registry.values()):
        symbols.update(who.capabilities)
    for task in m.tasks.values():
        symbols.update(task.required)
        symbols.update(task.inputs)
        if task.sharing:
            symbols.add(task.sharing)
    for flow in m.dataflows:
        symbols.add(flow.item)
    return symbols


def _print_diagnostics(diagnostics: list[Diagnostic], path: Path):
    for diag in diagnostics:
        print(diag.render(str(path)), file=sys.stderr)


def _parse_error_diag(err: ParseError) -> Diagnostic:
    return Diagnostic(code=err.code, message=err.bare_message, line=err.line, col=err.col)


def _load_inputs(
    model_path: Path, policy_path: Path
) -> tuple[VoModel | None, PolicyDocument | None, int]:
    """Load and validate both inputs, printing diagnostics. Returns the
    parsed values and the number of errors; warnings are only printed."""
    findings = 0
    model = policies = None
    try:
        model = load_model(read_text(model_path))
    except ParseError as err:
        _print_diagnostics([_parse_error_diag(err)], model_path)
        findings += 1
    if model is not None:
        problems = validate_model(model)
        _print_diagnostics(problems, model_path)
        findings += len(problems)
    try:
        policies = parse_policy_document(read_text(policy_path))
    except ParseError as err:
        _print_diagnostics([_parse_error_diag(err)], policy_path)
        findings += 1
    if policies is not None:
        symbols = model_symbols(model) if model is not None else None
        diagnostics = validate_policies(policies, VOCABULARY, symbols)
        _print_diagnostics(diagnostics, policy_path)
        findings += sum(d.severity == "error" for d in diagnostics)
    return model, policies, findings


def _missing(*paths: Path) -> bool:
    """Report the first path that is not a file; True if there is one."""
    for path in paths:
        if not path.is_file():
            print(f"{path}: no such file", file=sys.stderr)
            return True
    return False


def _io_failure(err: OSError) -> int:
    """Report ``err`` as ``path: reason``; returns the exit code 2."""
    print(f"{err.filename}: {err.strerror}" if err.filename else str(err), file=sys.stderr)
    return 2


def cmd_validate(model_path: Path, policy_path: Path) -> int:
    if _missing(model_path, policy_path):
        return 2
    try:
        _, _, findings = _load_inputs(model_path, policy_path)
    except OSError as err:
        return _io_failure(err)
    return 0 if findings == 0 else 1


def cmd_run(
    model_path: Path,
    policy_path: Path,
    scenario_path: Path,
    trace_out: Path | None = None,
    fmt: str = "records",
) -> int:
    """Run the scenario and write its trace to ``trace_out`` (stdout when
    None) in the ``records`` or ``text`` format."""
    if _missing(model_path, policy_path, scenario_path):
        return 2
    try:
        model, policies, findings = _load_inputs(model_path, policy_path)
        if findings or model is None or policies is None:
            return 2
        try:
            events = parse_scenario(read_text(scenario_path))
        except ParseError as err:
            _print_diagnostics([_parse_error_diag(err)], scenario_path)
            return 2
        _, _, records = run_scenario(model, policies, events, base_dir=scenario_path.parent)
        rendered = format_trace(records) if fmt == "records" else format_text(records)
        if trace_out is None:
            sys.stdout.write(rendered)
        else:
            trace_out.write_text(rendered, encoding="utf-8")
    except OSError as err:
        return _io_failure(err)
    except VopolError as err:
        print(err.message, file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vopol",
        description="Validate and run policy-driven virtual-organisation scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="check a model and a policy file")
    validate.add_argument("--model", required=True, type=Path)
    validate.add_argument("--policies", required=True, type=Path)

    run = sub.add_parser("run", help="execute a scenario and emit the trace")
    run.add_argument("--model", required=True, type=Path)
    run.add_argument("--policies", required=True, type=Path)
    run.add_argument("--scenario", required=True, type=Path)
    run.add_argument("--format", choices=("records", "text"), default="records")
    run.add_argument("--out", type=Path, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args.model, args.policies)
    return cmd_run(args.model, args.policies, args.scenario, args.out, args.format)


if __name__ == "__main__":
    sys.exit(main())
