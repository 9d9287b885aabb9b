"""Policy-driven structural reconfiguration engine for virtual organisations.

A policy document (trigger/condition/action rules over a small
organisation vocabulary) is evaluated against task-lifecycle events while
a workflow instance runs; fired rules reconfigure the organisation's
membership, duties, task types and control/data flow on the fly.
"""

from .policy import (
    PolicyDocument,
    Vocabulary,
    parse_policy_document,
    render_policy_document,
    validate_policies,
)
from .conflict import Conflict, detect_conflicts
from .domain import (
    VOCABULARY,
    DomainAction,
    DomainTrigger,
    EvalContext,
    apply_action,
    can_run,
    eval_predicate,
    run_bootstrap,
)
from .engine import Engine, ScenarioEvent, init_instance, ready_set, run_scenario
from .errors import Diagnostic, ParseError, VopolError
from .model import (
    DataFlow,
    Duty,
    Member,
    TaskDef,
    VoModel,
    adjust_reserved_capacity,
    canonical_dump,
    free_capacity,
    insert_task_node,
    load_model,
    remove_task_node,
    set_dataflow_edge,
    validate_model,
)
from .state import InstanceState, Status
from .trace import TraceRecord, format_record, format_trace, parse_record, parse_trace

__version__ = "0.1.0"

__all__ = [
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
