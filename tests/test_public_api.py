"""The names ``vopol`` exports are a frozen surface."""

from __future__ import annotations

import vopol

EXPORTED = [
    "CapacityLedger",
    "Conflict",
    "DataFlow",
    "Diagnostic",
    "DomainAction",
    "DomainTrigger",
    "Duty",
    "Engine",
    "EvalContext",
    "InstanceState",
    "Member",
    "ParseError",
    "PolicyDocument",
    "ScenarioEvent",
    "Status",
    "TaskDef",
    "TraceRecord",
    "VOCABULARY",
    "VoModel",
    "Vocabulary",
    "VopolError",
    "adjust_reserved_capacity",
    "apply_action",
    "can_run",
    "canonical_dump",
    "detect_conflicts",
    "eval_predicate",
    "format_record",
    "format_trace",
    "free_capacity",
    "init_instance",
    "insert_task_node",
    "load_model",
    "parse_policy_document",
    "parse_record",
    "parse_trace",
    "ready_set",
    "remove_task_node",
    "render_policy_document",
    "run_bootstrap",
    "run_scenario",
    "set_dataflow_edge",
    "validate_model",
    "validate_policies",
]


def test_exported_names_are_pinned_and_resolve():
    assert sorted(vopol.__all__) == EXPORTED
    assert len(set(vopol.__all__)) == len(vopol.__all__)
    assert all(hasattr(vopol, name) for name in EXPORTED)
