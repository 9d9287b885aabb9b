"""Seeded generators for the benchmark workloads.

Each generator returns the *text* of a model file, a policy document and
a scenario, so a run goes through the same loaders as ``vopol run``. The
seed picks capacities, bids, extra edges, policy operands and event
order; the shape of each workload (task count, edge count, policy count,
event count) is fixed, so per-event cost stays comparable across seeds.

``scale`` shrinks every size for the smoke check; 1.0 is the benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    model: str
    policies: str
    scenario: str
    sizes: dict[str, int] = field(default_factory=dict)


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


def _lines(rows: list[str]) -> str:
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# chain: long Replicable chain, wildcard task_entry policies
# ---------------------------------------------------------------------------


def chain(seed: int, scale: float = 1.0) -> Workload:
    rng = random.Random(f"chain:{seed}")
    n = _scaled(200, scale, 4)
    n_policies = _scaled(10, scale, 2)
    model = ["vo Chain", "param need 3"]
    for i in range(n):
        model.append(f"member M{i:04d} kind=Partner cap work={rng.randint(3, 5)} cost={rng.randint(1, 9)}")
    for i in range(n):
        model.append(f"candidate C{i:04d} kind=Associate cap work={rng.randint(3, 5)} cost={rng.randint(1, 9)}")
    for i in range(n):
        model.append(f"task T{i:04d} type=Replicable requires work=2")
    for i in range(n - 1):
        model.append(f"edge T{i:04d} T{i + 1:04d}")
    model.append("dataflow brief from=customer to=T0000")

    pol = []
    for p in range(n_policies):
        j, k, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        pol.append(
            f"policy Top{p:02d} when task_entry() if not has_capacity(M{j:04d}, work, need) "
            f"do assign_duty(M{k:04d}, work) orelse add_member(C{c:04d})"
        )
    # the one model write of this workload, so every layer is exercised
    pol.append(f"policy Close appliesTo T{n - 1:04d} when task_exit() do provide_input(brief, this)")

    scenario = ["start"]
    for i in range(n):
        scenario += [f"activate T{i:04d}", f"complete T{i:04d}"]
    sizes = {"tasks": n, "edges": n - 1, "members": n, "candidates": n,
             "policies": len(pol), "events": len(scenario)}
    return Workload("chain", seed, _lines(model), _lines(pol), _lines(scenario), sizes)


# ---------------------------------------------------------------------------
# policy-storm: many two-rule policies over a shared duty pool
# ---------------------------------------------------------------------------

_STORM_CAPS = ("c0", "c1", "c2")

# Rules that ride along with a covering rule. ``{m}``/``{c}`` is a member
# and one of its capabilities, ``{x}`` a member that leaves at every exit
# and rejoins at the next entry, ``{r}`` a registry candidate.
_STORM_EXTRAS = (
    "when task_exit() if can_run(this) do unassign_duty({m}, {c}) {op} unassign_duty({m2}, {c2})",
    "when task_entry() if task_type(this, Replicable) do change_type(this, Replicable, competition)",
    "when task_exit() if has_capability({x}, {cx}) do remove_member({x}) {op} add_member({r})",
    "when task_entry() if has_capacity({x}, {cx}, lo) do add_member({x}) orelse assign_duty({x}, {cx})",
    "when task_entry() if task_type(this, Composable) do change_type(this, Composable)",
    "when task_entry() or task_exit() if not has_capacity({m}, {c}, hi) do assign_duty({m}, {c}) orelse add_member({r})",
)


def policy_storm(seed: int, scale: float = 1.0) -> Workload:
    rng = random.Random(f"policy-storm:{seed}")
    n = _scaled(100, scale, 4)
    n_members = _scaled(30, scale, 15)
    n_candidates = _scaled(30, scale, 6)
    n_policies = 18
    model = ["vo Storm", "param lo 2", "param hi 6"]
    holders: dict[str, list[str]] = {c: [] for c in _STORM_CAPS}
    for row, prefix, kind, count in (
        ("member", "S", "Partner", n_members),
        ("candidate", "R", "Associate", n_candidates),
    ):
        for i in range(count):
            mid = f"{prefix}{i:03d}"
            # every member holds two of the three capabilities
            held = [c for c in _STORM_CAPS if c != _STORM_CAPS[i % 3]]
            if row == "member":
                for c in held:
                    holders[c].append(mid)
            caps = " ".join(f"cap {c}=30 cost={rng.randint(1, 9)}" for c in held)
            model.append(f"{row} {mid} kind={kind} {caps}")
    for i in range(n):
        ttype = "Composable" if i % 4 == 3 else "Replicable"
        first, second = _STORM_CAPS[i % 3], _STORM_CAPS[(i + 1) % 3]
        model.append(f"task T{i:03d} type={ttype} requires {first}=2 requires {second}=1")
    for i in range(n - 1):
        model.append(f"edge T{i:03d} T{i + 1:03d}")
    model.append("dataflow brief from=customer to=T000")

    # the seed decides which member plays each role, never the rule shapes
    churn, duel = rng.sample(holders["c1"], 2)
    pool = {c: rng.sample([m for m in ms if m not in (churn, duel)], len(ms) - 2) for c, ms in holders.items()}
    candidates = [f"R{i:03d}" for i in range(n_candidates)]
    group_ops = ("seq", "par", "gchoice", "uchoice")
    action_ops = ("andthen", "and", "orelse")
    pol = []
    for p in range(n_policies):
        c = _STORM_CAPS[p % 3]
        first, backup = pool[c][(p // 3) % 4], pool[c][4 + (p // 3) % 4]
        cover = (
            f"when task_entry() if not can_run(this) "
            f"do assign_duty({first}, {c}) orelse assign_duty({backup}, {c})"
        )
        c2 = _STORM_CAPS[(p + 1) % 3]
        extra = _STORM_EXTRAS[p % len(_STORM_EXTRAS)].format(
            m=pool[c][(p // 3) % 4], c=c, m2=pool[c2][p % 4], c2=c2,
            x=churn, cx="c1", r=rng.choice(candidates), op=action_ops[p % 3],
        )
        # one assign/unassign pair on the same duty meets at every exit of
        # a Composable task: the workload's conflict source
        if p == 2:
            extra = f"when task_exit() if task_type(this, Composable) do assign_duty({duel}, c1)"
        elif p == n_policies - 3:
            extra = f"when task_exit() if task_type(this, Composable) do unassign_duty({duel}, c1)"
        pol.append(f"policy Storm{p:02d} ({cover}) {group_ops[p % 4]} ({extra})")
    pol.append(f"policy Close appliesTo T{n - 1:03d} when task_exit() do provide_input(brief, this)")

    scenario = ["start"]
    for i in range(n):
        scenario += [f"activate T{i:03d}", f"complete T{i:03d}"]
    sizes = {"tasks": n, "edges": n - 1, "members": n_members, "candidates": n_candidates,
             "capabilities": len(_STORM_CAPS), "policies": len(pol), "events": len(scenario)}
    return Workload("policy-storm", seed, _lines(model), _lines(pol), _lines(scenario), sizes)


# ---------------------------------------------------------------------------
# rewire: fan-out/join layers whose graph and dataflows change during the run
# ---------------------------------------------------------------------------


def rewire(seed: int, scale: float = 1.0) -> Workload:
    rng = random.Random(f"rewire:{seed}")
    layers = _scaled(20, scale, 2)
    width = _scaled(8, scale, 3)
    n_members = 4
    n_candidates = _scaled(250, scale, 40)
    comp = "type=Replicable sharing=competition"
    model = ["vo Rewire"]
    for i in range(n_members):
        model.append(f"member W{i:02d} kind=Partner cap cpu=4 cost={rng.randint(3, 9)}")
    kinds = ("Partner", "Associate", "ExtEntity")
    for i in range(n_candidates):
        model.append(
            f"candidate K{i:03d} kind={kinds[i % 3]} cap cpu={rng.randint(3, 5)} cost={rng.randint(1, 9)}"
        )

    def fan(i: int) -> list[str]:
        return [f"L{i:02d}_{k}" for k in range(width)]

    in_process = ["S"]
    model.append(f"task S {comp} requires cpu=1")
    for i in range(layers):
        for t in fan(i):
            model.append(f"task {t} {comp} requires cpu=2")
        model.append(f"task J{i:02d} {comp} requires cpu=1")
        model.append(f"task X{i:02d} {comp} requires cpu=1 inprocess=false")
        in_process += fan(i) + [f"J{i:02d}"]
    prev = "S"
    edges = 0
    for i in range(layers):
        for t in fan(i):
            model += [f"edge {prev} {t}", f"edge {t} J{i:02d}"]
            edges += 2
        prev = f"J{i:02d}"
    model.append("dataflow ack from=customer to=S")
    for t in in_process:
        model.append(f"dataflow doc from=customer to={t}")

    doomed = [rng.choice(fan(i)) for i in range(layers)]
    pol = []
    for i in range(layers):
        pol.append(f"policy Grow{i:02d} appliesTo J{i:02d} when task_entry() do add_task(X{i:02d}, this, after)")
    for i in range(layers):
        where = "S" if i == 0 else f"J{i - 1:02d}"
        pol.append(f"policy Prune{i:02d} appliesTo {where} when task_entry() do delete_task({doomed[i]})")
    pol.append("policy Handoff when task_exit() if not active(this) do remove_input(doc, this) and provide_input(ack, this)")

    scenario = ["start", "activate S", "complete S"]
    for i in range(layers):
        live = [t for t in fan(i) if t != doomed[i]]
        scenario += [f"activate {t}" for t in rng.sample(live, len(live))]
        scenario += [f"complete {t}" for t in rng.sample(live, len(live))]
        scenario += [f"activate J{i:02d}", f"complete J{i:02d}", f"activate X{i:02d}", f"complete X{i:02d}"]
    sizes = {"tasks": len(in_process), "catalogue": layers, "layers": layers, "width": width,
             "edges": edges, "members": n_members, "candidates": n_candidates,
             "policies": len(pol), "events": len(scenario)}
    return Workload("rewire", seed, _lines(model), _lines(pol), _lines(scenario), sizes)


# ---------------------------------------------------------------------------
# bulk-validate: a large model and policy document, few lifecycle events
# ---------------------------------------------------------------------------

_BULK_CAPS = ("c0", "c1", "c2", "c3", "c4")


def bulk_validate(seed: int, scale: float = 1.0) -> Workload:
    rng = random.Random(f"bulk-validate:{seed}")
    n_layers = _scaled(100, scale, 3)
    width = _scaled(20, scale, 3)
    n_extra = _scaled(620, scale, 2)
    n_members = _scaled(500, scale, 6)
    n_candidates = _scaled(500, scale, 6)
    n_policies = _scaled(400, scale, 4)
    n_ledger_pairs = _scaled(100, scale, 4)

    def task(layer: int, k: int) -> str:
        return f"T{layer:03d}_{k:02d}"

    model = ["vo Bulk", "param lo 1", "param hi 4"]
    member_caps: dict[str, tuple[str, ...]] = {}
    for prefix, row, count in (("M", "member", n_members), ("R", "candidate", n_candidates)):
        for i in range(count):
            mid = f"{prefix}{i:03d}"
            held = tuple(sorted(rng.sample(_BULK_CAPS, 2)))
            member_caps[mid] = held
            caps = " ".join(f"cap {c}={rng.randint(20, 40)} cost={rng.randint(1, 9)}" for c in held)
            model.append(f"{row} {mid} kind=Partner {caps}")
    for layer in range(n_layers):
        for k in range(width):
            model.append(f"task {task(layer, k)} type=Replicable requires {rng.choice(_BULK_CAPS)}=1")
    edges = {(task(layer, k), task(layer + 1, k)) for layer in range(n_layers - 1) for k in range(width)}
    extra_target = len(edges) + min(n_extra, (n_layers - 1) * width * (width - 1))
    while len(edges) < extra_target:
        layer = rng.randrange(n_layers - 1)
        edges.add((task(layer, rng.randrange(width)), task(layer + 1, rng.randrange(width))))
    model += [f"edge {p} {s}" for p, s in sorted(edges)]
    model.append(f"dataflow brief from=customer to={task(0, 0)}")

    members = sorted(m for m in member_caps if m.startswith("M"))
    candidates = sorted(m for m in member_caps if m.startswith("R"))
    all_tasks = [task(layer, k) for layer in range(n_layers) for k in range(width)]
    pol = []
    for p in range(n_policies):
        m = rng.choice(members)
        c = rng.choice(member_caps[m])
        # most policies are pinned to one task; every tenth is a wildcard
        where = "" if p % 10 == 0 else f"appliesTo {rng.choice(all_tasks)} "
        pol.append(
            f"policy B{p:04d} {where}when task_entry() or task_exit() "
            f"if has_capacity({m}, {c}, lo) and not can_run(this) "
            f"do assign_duty({m}, {c}) orelse add_member({rng.choice(candidates)}) "
            f"andthen change_type(this, Composable)"
        )
    pol.append(f"policy Close appliesTo {task(0, 0)} when task_exit() do provide_input(brief, this)")

    entry = task(0, 0)
    scenario = ["start", f"activate {entry}", f"complete {entry}"]
    for _ in range(n_ledger_pairs):
        m = rng.choice(members)
        c = rng.choice(member_caps[m])
        scenario += [f"consume {m} {c} 1", f"release {m} {c} 1"]
    sizes = {"tasks": len(all_tasks), "edges": len(edges), "members": n_members,
             "candidates": n_candidates, "policies": len(pol), "events": len(scenario)}
    return Workload("bulk-validate", seed, _lines(model), _lines(pol), _lines(scenario), sizes)


GENERATORS = {
    "chain": chain,
    "policy-storm": policy_storm,
    "rewire": rewire,
    "bulk-validate": bulk_validate,
}
