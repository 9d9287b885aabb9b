"""The names ``vopol`` exports are a frozen surface, and its six write
primitives write the one model they are given."""

from __future__ import annotations

import inspect

import pytest

import vopol
from vopol import DomainAction, EvalContext, VopolError, canonical_dump, load_model, validate_model

from conftest import VISITUS

EXPORTED = [
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



MODEL = VISITUS + "task Insurance type=Atomic inprocess=false\ntask Gala type=Replicable requires beds=99\n"

# a call that writes and a call that raises, by primitive; the failing
# bootstrap admits newHotel and assigns beds before Gala proves uncoverable
CALLS = {
    "insert_task_node": (("Insurance", "HotelProv", "after"), ("Insurance", "HotelProv", "beside")),
    "remove_task_node": (("BookFlight",), ("Insurance",)),
    "set_dataflow_edge": (("itinerary", "HotelProv", "add"), ("itinerary", "HotelProv", "toggle")),
    "adjust_reserved_capacity": (("Hotel", "beds", 2), ("Hotel", "beds", 11)),
    "apply_action": ((DomainAction("add_member", ("newHotel",)),), (DomainAction("add_member", ("Hotel",)),)),
    "run_bootstrap": (("HotelProv",), ("Gala",)),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_each_primitive_writes_the_model_it_is_given(name):
    primitive = getattr(vopol, name)
    parameters = inspect.signature(primitive).parameters
    assert "in_place" not in parameters
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters.values())

    def call(m, args):
        # the domain primitives take an evaluation context for the model
        return primitive(EvalContext(m) if name in ("apply_action", "run_bootstrap") else m, *args)

    writes, raises = CALLS[name]
    m = load_model(MODEL)
    snapshot = m.clone()
    call(m, writes)
    assert canonical_dump(m) != canonical_dump(snapshot)
    assert validate_model(m) == [] and m._journal is None
    assert canonical_dump(snapshot) == canonical_dump(load_model(MODEL))  # a clone is its own

    before = m.clone()
    with pytest.raises(VopolError):
        call(m, raises)
    assert m == before and canonical_dump(m) == canonical_dump(before)
