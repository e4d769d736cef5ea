"""Per-layer metrics of the traced run, one layer per memspin module.

Every value is per op, computed from the op's spans; the run reports the
median over its ops, and a layer an op never enters reads 0.  Self time is a
span's duration minus the time its direct child spans cover; with one thread
and no queues, children never overlap, so that is the sum of their
durations.  ``fock.ns_derive_s`` (a set-up span) and ``fock.permanent_us``
(a timed loop) are added by the worker.
"""

from __future__ import annotations

# metric -> span names whose self time it sums
SELF_TIME = {
    "cli.setup_s": ("cli.load_config", "cli.NetworkSetup"),
    "cli.report_s": ("cli.write_report", "cli.write_transfer_csv"),
    "compiler.compile_s": ("compiler.compile_write", "compiler.compile_read"),
    "compiler.validate_s": ("compiler.validate_plan",),
    "core.margin_s": ("core.margin_report",),
    "pde.heatmap_csv_s": ("pde.write_heatmap_csv",),
    "pde.eq5_s": ("pde.simulate_eq5",),
    "analytic.oracle_s": ("analytic.ode_oracle",),
    "analytic.closed_form_s": ("analytic.closed_form",),
    "fock.apply_unitary_s": ("fock.apply_unitary",),
}

# metric -> span name whose whole duration, nested calls included, it sums
TOTAL_TIME = {
    "pde.reference_echo_s": "pde.reference_echo",
    "pde.probe_s": "pde._basis_probe",
    "fock.feedforward_s": "fock.run_with_feedforward",
}

# simulate_network calls made inside these spans are theirs, not pde.simulate_s's
NESTED_SIMULATIONS = ("pde.reference_echo", "pde._basis_probe")

UNITS = {
    **{name: "s" for name in (*SELF_TIME, *TOTAL_TIME)},
    "pde.simulate_s": "s",
    "pde.cell_steps": "count",
    "pde.us_per_cell_step": "us",
    "pde.probes": "count",
    "pde.heatmap_csv_mb": "MB",
    "pde.eq5_steps_per_s": "1/s",
    "analytic.oracle_steps_per_s": "1/s",
    "fock.ns_derive_s": "s",
    "fock.apply_unitary_calls": "count",
    "fock.fock_terms": "count",
    "fock.permanent_us": "us",
    "fock.useful_branch_ratio": "ratio",
    "cli.artifact_mb": "MB",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_metrics(spans: list[dict], op) -> dict[str, float]:
    """The per-op layer metrics that come from the op's spans."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    mine = [i for i, s in enumerate(spans) if s["op"] == op]

    def named(name):
        return [i for i in mine if spans[i]["name"] == name]

    def total(ids):
        return sum(spans[i]["end"] - spans[i]["start"] for i in ids)

    def own(ids):
        return total(ids) - sum(covered[i] for i in ids)

    def work(ids):
        return float(sum(spans[i]["work"] for i in ids))

    def inside(i, names):
        p = spans[i]["parent"]
        while p is not None and spans[p]["name"] not in names:
            p = spans[p]["parent"]
        return p is not None

    m = {k: sum(own(named(n)) for n in names) for k, names in SELF_TIME.items()}
    m.update({k: total(named(n)) for k, n in TOTAL_TIME.items()})
    chain = [i for i in named("pde.simulate_network") if not inside(i, NESTED_SIMULATIONS)]
    m["pde.simulate_s"] = own(chain)
    m["pde.cell_steps"] = work(chain)
    m["pde.us_per_cell_step"] = 1e6 * _ratio(m["pde.simulate_s"], m["pde.cell_steps"])
    m["pde.probes"] = work(named("pde._basis_probe"))
    m["pde.heatmap_csv_mb"] = work(named("pde.write_heatmap_csv")) / 1e6
    m["pde.eq5_steps_per_s"] = _ratio(work(named("pde.simulate_eq5")), m["pde.eq5_s"])
    m["analytic.oracle_steps_per_s"] = _ratio(work(named("analytic.ode_oracle")),
                                              m["analytic.oracle_s"])
    applies = named("fock.apply_unitary")
    m["fock.apply_unitary_calls"] = float(len(applies))
    # the prepare stage is the first unitary each feed-forward applies: the
    # span that opens right after its parent
    feedforwards = set(named("fock.run_with_feedforward"))
    m["fock.fock_terms"] = work([i for i in applies if spans[i]["parent"] == i - 1
                                 and i - 1 in feedforwards])
    m["fock.useful_branch_ratio"] = _ratio(work(feedforwards),
                                           work(named("fock.measurement_distribution")))
    return m
