"""The two-pass trigger dispatch, frozen as the differential oracle for
the one-pass dispatch in ``vopol.engine``.

``TwoPassEngine.dispatch_trigger`` evaluates every policy against a
speculative model, collecting each attempted action; then detects
conflicts over the collected list and suppresses the later half of each
pair; then applies the survivors again to the authoritative model. The
two dispatches agree on every trigger that has no conflict and no policy
error; where they differ, the one-pass engine is the specified behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from vopol.conflict import detect_conflicts
from vopol.domain import (
    DomainAction,
    DomainTrigger,
    EvalContext,
    apply_action,
    eval_predicate,
    materialize,
    resolve_action,
    run_bootstrap,
)
from vopol.engine import BOOTSTRAP_POLICY, Engine
from vopol.errors import ModelError, TaskFailure
from vopol.policy.ast import ActionCall, Ident, Pred, TriggerSpec
from vopol.policy.evaluate import evaluate_rule_group
from vopol.state import Status
from vopol.trace import TraceRecord


@dataclass
class _Collected:
    """One attempted action from the evaluation phase."""

    policy: str
    call: ActionCall
    action: DomainAction | None
    error: ModelError | None


class TwoPassEngine(Engine):
    """An ``Engine`` whose triggers are dispatched in two passes."""

    def dispatch_trigger(self, trig: DomainTrigger) -> list[TraceRecord]:
        mark = len(self.records)
        self._emit("TRIGGER", ("trigger", trig.name), ("task", trig.task))
        event_spec = TriggerSpec(trig.name, (Ident(trig.task),))

        # phase 1: evaluate policies against a speculative model, collecting
        # every attempted action
        box = [self.model]
        collected: list[_Collected] = []

        def predicate(pred: Pred) -> bool:
            ctx = EvalContext(box[0], self.instance, trig.task)
            return eval_predicate(ctx, pred.name, pred.args)

        def make_attempt(policy_name: str):
            def attempt(call: ActionCall) -> bool:
                ctx = EvalContext(box[0], self.instance, trig.task)
                try:
                    action = resolve_action(ctx, call)
                except ModelError as err:
                    collected.append(_Collected(policy_name, call, None, err.with_traceback(None)))
                    return False
                collected.append(_Collected(policy_name, call, action, None))
                try:
                    box[0] = apply_action(ctx, action)
                except ModelError:
                    return False
                return True

            return attempt

        for policy in list(self.policies):
            collect_mark = len(collected)
            try:
                applied = evaluate_rule_group(
                    policy.body, event_spec, trig.task, predicate, make_attempt(policy.name)
                )
            except ModelError as err:
                del collected[collect_mark:]
                self._emit_error(err, f"policy {policy.name!r}: {err.message}")
                continue
            for rule_idx in applied:
                self._emit("POLICY-FIRED", ("policy", policy.name), ("rule", str(rule_idx)))
        box.clear()

        # phase 2: conflict detection over the collected list
        resolved_idx = [i for i, c in enumerate(collected) if c.action is not None]
        conflicts = detect_conflicts(
            [(collected[i].policy, collected[i].action) for i in resolved_idx]  # type: ignore[misc]
        )
        suppressed = set()
        for conflict in conflicts:
            suppressed.add(resolved_idx[conflict.second_index])
            self._emit(
                "CONFLICT",
                ("class", conflict.reason),
                ("first_policy", conflict.first[0]),
                ("first_action", conflict.first[1].render()),
                ("second_policy", conflict.second[0]),
                ("second_action", conflict.second[1].render()),
            )

        # phase 3: apply survivors in order to the authoritative model
        for i, entry in enumerate(collected):
            if i in suppressed:
                continue
            if entry.error is not None or entry.action is None:
                err = entry.error
                self._emit(
                    "ACTION-FAILED",
                    ("policy", entry.policy),
                    ("action", entry.call.name),
                    ("args", ",".join(str(getattr(a, "value", a)) for a in entry.call.args)),
                    ("error", err.code if err else "UnknownAction"),
                    ("detail", err.message if err else "unresolvable action"),
                )
                continue
            action = materialize(self.model, entry.action)
            ctx = EvalContext(self.model, self.instance, trig.task)
            try:
                new_model = apply_action(ctx, action)
            except ModelError as err:
                self._emit(
                    "ACTION-FAILED",
                    ("policy", entry.policy),
                    ("action", action.name),
                    ("args", ",".join(str(a) for a in action.args if a is not None)),
                    ("error", err.code),
                    ("detail", err.message),
                )
                continue
            self.model = new_model
            self._touch_applied(action, ctx.model)
            self.instance.holds.extend(ctx.hold_sink)
            self._emit(
                "ACTION-APPLIED",
                ("policy", entry.policy),
                ("action", action.name),
                ("args", ",".join(str(a) for a in action.args if a is not None)),
            )

        # phase 4: bootstrap, task_entry only
        bootstrap_failed = False
        if trig.name == "task_entry":
            ctx = EvalContext(self.model, self.instance, trig.task)
            try:
                new_model, performed = run_bootstrap(ctx, trig.task)
            except TaskFailure as err:
                self._emit(
                    "ACTION-FAILED",
                    ("policy", BOOTSTRAP_POLICY),
                    ("action", "bootstrap"),
                    ("args", trig.task),
                    ("error", err.code),
                    ("detail", err.message),
                )
                bootstrap_failed = True
            else:
                self.model = new_model
                for action in performed:
                    self._emit(
                        "ACTION-APPLIED",
                        ("policy", BOOTSTRAP_POLICY),
                        ("action", action.name),
                        ("args", ",".join(str(a) for a in action.args if a is not None)),
                    )

        if bootstrap_failed and self.instance.status.get(trig.task) is Status.ACTIVE:
            self.instance.status[trig.task] = Status.FAILED
            self._release_holds(trig.task)

        self._refresh_readiness()
        self._emit_state()

        if bootstrap_failed:
            self.dispatch_trigger(DomainTrigger("task_failure", trig.task))
        return self.records[mark:]
