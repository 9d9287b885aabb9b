"""The undo journal of a model, against copies of it.

Random sequences of the nine actions, valid and failing, are applied to
one model under nested marks. Each journaled write must leave the model
equal to the same write on a clone without a journal, a failed action
must leave the model as it was, and undoing to a mark must restore the
model a clone taken at that mark holds, indexes, ledger and holds
included.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from vopol.domain import DomainAction, EvalContext, apply_action
from vopol.errors import ModelError
from vopol.model import canonical_dump, journal_mark, load_model, undo, validate_model
from vopol.state import InstanceState, Status

MODEL = """\
vo J
member P kind=Partner cap a=6 cap b=4
member Q kind=Associate cap a=5
candidate C0 kind=Partner cap a=8 cap b=3
candidate C1 kind=ExtEntity cap b=5
task T0 type=Replicable requires a=3
task T1 type=Atomic requires a=2 requires b=1
task T2 type=Composable requires b=2
task T3 type=Replicable requires a=1
task S0 type=Replicable requires a=1 inprocess=false
task S1 type=Atomic inprocess=false
edge T0 T1
edge T0 T2
edge T1 T3
edge T2 T3
dataflow brief from=customer to=T0
dataflow plan from=T1 to=T3
"""

# duties to start from: T1 is atomic, so P holds all of it
DUTIES = [("P", "T0", "a", 2), ("Q", "T0", "a", 1), ("P", "T1", "a", 2), ("P", "T1", "b", 1), ("Q", "T3", "a", 1)]

people = st.sampled_from(["P", "Q", "C0", "C1", "ghost"])
tasks = st.sampled_from(["T0", "T1", "T2", "T3", "S0", "S1", "ghost"])
items = st.sampled_from(["brief", "plan", "memo"])
caps = st.sampled_from(["a", "b", "z"])


def _action(name: str, *args: st.SearchStrategy) -> st.SearchStrategy:
    return st.tuples(*args).map(lambda values: DomainAction(name, values))


actions = st.one_of(
    _action("add_task", tasks, tasks, st.sampled_from(["after", "parallel", "beside"])),
    _action("delete_task", tasks),
    _action("provide_input", items, tasks),
    _action("remove_input", items, tasks),
    _action(
        "change_type",
        tasks,
        st.sampled_from(["Atomic", "Replicable", "Composable", "Bogus"]),
        st.sampled_from([None, "competition", "open"]),
    ),
    _action("add_member", people),
    _action("remove_member", people),
    # duties mostly of members, on tasks that require the capability
    _action("assign_duty", people, tasks, caps, st.none() | st.integers(min_value=-1, max_value=7)),
    _action(
        "assign_duty", st.sampled_from(["P", "Q"]), tasks, st.sampled_from(["a", "b"]), st.none() | st.integers(0, 4)
    ),
    _action("unassign_duty", people, tasks, caps),
    st.sampled_from([DomainAction("unassign_duty", duty[:3]) for duty in DUTIES]),
)
steps = st.lists(st.sampled_from(["mark", "undo"]) | actions, max_size=40)


def _model():
    m = load_model(MODEL)
    for duty in DUTIES:
        apply_action(EvalContext(m), DomainAction("assign_duty", duty))
    return m


def _same(m, snapshot):
    assert m == snapshot
    assert canonical_dump(m) == canonical_dump(snapshot)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(steps)
def test_undo_restores_every_mark_and_in_place_matches_the_new_version(steps):
    m = _model()
    # T1 runs: it cannot be deleted, and duties taken from it leave holds
    instance = InstanceState(status={"T1": Status.ACTIVE})
    marks = [(journal_mark(m), m.clone())]
    for step in steps:
        if step == "mark":
            marks.append((journal_mark(m), m.clone()))
        elif step == "undo":
            mark, snapshot = marks.pop() if len(marks) > 1 else marks[0]
            undo(m, mark)
            _same(m, snapshot)
        else:
            before, expected = m.clone(), m.clone()  # a clone has no journal
            expected_ctx, ctx = EvalContext(expected, instance), EvalContext(m, instance)
            try:
                apply_action(expected_ctx, step)
                error = None
            except ModelError as err:
                error = (err.code, err.message)
            assert expected._journal is None
            try:
                apply_action(ctx, step)
            except ModelError as err:
                assert (err.code, err.message) == error
                _same(m, before)  # every check runs before the first write
                assert m.holds == before.holds
            else:
                assert error is None
                _same(m, expected)
                assert m.holds == expected.holds
                assert validate_model(m) == []
    undo(m, marks[0][0])
    _same(m, marks[0][1])
