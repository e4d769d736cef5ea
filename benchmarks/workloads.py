"""The four benchmark workloads.

Each workload makes its inputs from the seed, runs one op the way a user
does (through the unmodified CLI where the job is a CLI command), and checks
the op's outputs against the acceptance-suite tolerances.  The traced run
makes the very same op call with ``PATCHES`` in place, so its spans time the
code the untraced op runs.  ``collect`` reduces an op's outputs to a
JSON-able form, so the worker can demand that the traced op matches the
untraced one bit for bit.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import sys
import time

import numpy as np

from memspin import analytic, cli, compiler, core, fock, pde
from memspin.core import angular_from_mhz as mhz

# Golden ten-mode run at the seed commit; result_drift is measured from these.
GOLDEN_EFFICIENCY = 0.9092112727234078
GOLDEN_OVERLAP = 0.9999999999999998
GAMMA = mhz(6.0)
# undriven closed-form checks per regime_sweep op (one driven check follows)
N_UNDRIVEN = 3
# seeded dual-rail product states per cz_herald op, after the bundled five
N_RANDOM_INPUTS = 3
# timed 4x4 permanents behind fock.permanent_us
PERMANENT_REPS = 400


def closed_form(case) -> np.ndarray:
    """The closed-form spin trajectory of one oracle case."""
    sol = analytic.AnalyticSpinSolution.from_params(
        case["atoms"], case["coupling"], case["spectrum"], alpha=case["alpha"])
    if case["fields"] is None:
        return analytic.undriven_spin_exact(sol, case["t"])
    return analytic.driven_spin_solution(sol, case["fields"], case["t"])


# (module, attribute, span name, work count) for every call the traced run
# times.  Each is a call memspin (or the op itself) makes through a module
# attribute, so swapping the attribute puts a span around it.
PATCHES = (
    (cli, "load_config", "cli.load_config", None),
    (cli, "NetworkSetup", "cli.NetworkSetup", None),
    (cli, "write_report", "cli.write_report", None),
    (cli, "write_transfer_csv", "cli.write_transfer_csv", None),
    (compiler, "compile_write", "compiler.compile_write", None),
    (compiler, "compile_read", "compiler.compile_read", None),
    (compiler, "validate_plan", "compiler.validate_plan", None),
    (pde, "margin_report", "core.margin_report", None),
    (pde, "reference_echo", "pde.reference_echo", None),
    (pde, "simulate_network", "pde.simulate_network",
     lambda a, r: len(a["cells"]) * a["schedule"].n_windows * a["grid"].nt),
    (pde, "_basis_probe", "pde._basis_probe", lambda a, r: len(r)),
    (pde, "write_heatmap_csv", "pde.write_heatmap_csv",
     lambda a, r: os.path.getsize(a["path"])),
    (pde, "simulate_eq5", "pde.simulate_eq5",
     lambda a, r: len(a["entries"]) * a["grid"].nt),
    (analytic, "ode_oracle", "analytic.ode_oracle", lambda a, r: len(a["t_grid"]) - 1),
    (sys.modules[__name__], "closed_form", "analytic.closed_form", None),
    (fock, "ns_gate", "fock.ns_gate", None),
    (fock, "run_with_feedforward", "fock.run_with_feedforward",
     lambda a, r: sum(o.success for o in r)),
    (fock, "apply_unitary", "fock.apply_unitary", lambda a, r: len(r.amplitudes)),
    (fock, "measurement_distribution", "fock.measurement_distribution",
     lambda a, r: len(r)),
)


class OpFailed(Exception):
    """The CLI reported an error through its exit code."""


def run_cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"memspin {' '.join(argv)} exited with {rc}")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_outputs(out_dir) -> dict:
    """report.json without its wall time, plus a digest of every other artifact."""
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    report.pop("wall_time_s", None)
    files = {name: _sha256(os.path.join(out_dir, name))
             for name in sorted(os.listdir(out_dir)) if name != "report.json"}
    return {"report": report, "files": files}


def haar_unitary(rng, n: int) -> np.ndarray:
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


class Workload:
    """One set of inputs and the op that runs on them."""

    name = ""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir

    def rng(self, k: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, k])

    def setup(self) -> None:
        raise NotImplementedError

    def make_input(self, k: int):
        return None

    def run(self, inp, out_dir):
        """The op; returns what ``collect`` needs besides the artifacts."""
        raise NotImplementedError

    def collect(self, inp, out_dir, raw) -> dict:
        return read_outputs(out_dir)

    def check(self, inp, outputs) -> list[str]:
        raise NotImplementedError

    def drift(self, outputs) -> float | None:
        """Relative drift from pinned seed results, where the workload has them."""
        return None

    def microbench(self) -> dict[str, float]:
        """Per-layer figures timed outside the ops."""
        return {}


class GoldenNetwork(Workload):
    """``memspin run ten_mode_two_ops`` exactly as bundled; the seed is unused."""

    name = "golden_network"
    scenario = "ten_mode_two_ops"

    def setup(self):
        cfg = cli.load_config(self.scenario)
        cli.NetworkSetup(cfg, heatmap=True).margin_report()

    def run(self, inp, out_dir):
        run_cli(["run", self.scenario, "--out", out_dir])

    def check(self, inp, outputs):
        rep = outputs["report"]
        fails = []
        if not 0.882 <= rep["efficiency"] <= 0.942:
            fails.append(f"efficiency {rep['efficiency']} outside 0.912 +- 0.03")
        if not rep["overlap"] >= 0.98:
            fails.append(f"overlap {rep['overlap']} below 0.98")
        return fails

    def drift(self, outputs) -> float:
        rep = outputs["report"]
        return max(abs(rep["efficiency"] - GOLDEN_EFFICIENCY) / GOLDEN_EFFICIENCY,
                   abs(rep["overlap"] - GOLDEN_OVERLAP) / GOLDEN_OVERLAP)


class TransferProbe(Workload):
    """``memspin extract-transfer`` on the random_3mode physics widened to 4 modes,
    with write and read unitaries drawn from the seed for every op."""

    name = "transfer_probe"
    n_modes = 4

    def config(self, k: int) -> tuple[dict, np.ndarray]:
        """Op k's config and the transfer matrix it should realise."""
        rng = self.rng(k)
        u_write = haar_unitary(rng, self.n_modes)
        u_read = haar_unitary(rng, self.n_modes)
        cfg = copy.deepcopy(self.base)
        cfg["unitaries"] = {
            "write": {"kind": "explicit", **cli._complex_matrix_dict(u_write)},
            "read": {"kind": "explicit", **cli._complex_matrix_dict(u_read)}}
        return cfg, u_read.conj().T @ u_write

    def setup(self):
        # what extract-transfer does before probing: load a config, compile it
        base = cli.load_config("random_3mode")
        base["label"] = self.name
        base["cells"]["count"] = self.n_modes
        base["spectrum"]["n_modes"] = self.n_modes
        self.base = base
        cli.NetworkSetup(self.config(0)[0])

    def make_input(self, k):
        cfg, ideal = self.config(k)
        path = os.path.join(self.work_dir, f"transfer_{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return {"config": path, "ideal": ideal}

    def run(self, inp, out_dir):
        run_cli(["extract-transfer", inp["config"], "--out", out_dir])

    def check(self, inp, outputs):
        t = outputs["report"]["transfer"]
        m = np.asarray(t["re"]) + 1j * np.asarray(t["im"])
        a = inp["ideal"]
        fidelity = abs(np.vdot(a, m)) ** 2 / (np.linalg.norm(a) ** 2
                                              * np.linalg.norm(m) ** 2)
        return [] if fidelity >= 0.98 else [f"mode-space fidelity {fidelity} below 0.98"]


def oracle_cases(rng) -> list[dict]:
    """Criterion-4 closed-form checks with couplings, fields and spin drawn from rng."""
    cases = []
    atoms = core.AtomicParams(Gamma=GAMMA, gamma=0.01, delta=0.005, beta=100.0)
    for _ in range(N_UNDRIVEN):
        offs = np.sort(rng.uniform(-8, 8, size=3))
        while np.min(np.diff(offs)) < 1.0:
            offs = np.sort(rng.uniform(-8, 8, size=3))
        sp = core.ModeSpectrum(mean_detuning=mhz(250.0), detunings=mhz(250.0) + mhz(offs))
        amps = (rng.normal(size=3) + 1j * rng.normal(size=3)) * mhz(2.0)
        # rescale onto the margin >= 100 regime the criterion pins
        m0 = core.check_inequality_7(sp, core.omega_tilde(core.CouplingVector(amps), sp))
        cases.append({"atoms": atoms, "coupling": core.CouplingVector(amps * math.sqrt(m0 / 150.0)),
                      "spectrum": sp, "alpha": 1.0, "fields": None,
                      "t": np.linspace(0, 1.0, 1001)})
    gamma = 0.05
    sp = core.ModeSpectrum(mean_detuning=mhz(250.0),
                           detunings=mhz(250.0) + 100 * math.sqrt(2) * gamma * np.array([-0.5, 0.5]))
    # same coupling norm as criterion 4, so margin9 stays at about 100
    norm = float(np.linalg.norm(np.array([0.3 + 0.1j, 0.2 - 0.25j]) * mhz(0.5)))
    d = rng.normal(size=2) + 1j * rng.normal(size=2)
    cases.append({"atoms": core.AtomicParams(Gamma=GAMMA, gamma=gamma, beta=100.0),
                  "coupling": core.CouplingVector(d / np.linalg.norm(d) * norm),
                  "spectrum": sp, "alpha": complex(rng.normal(), rng.normal()),
                  "fields": rng.normal(size=2) + 1j * rng.normal(size=2),
                  "t": np.linspace(0, 60.0, 12001)})
    return cases


def run_oracle_case(case) -> float:
    """Relative error of the closed form against the RK4 oracle."""
    closed = closed_form(case)
    oracle = analytic.ode_oracle(case["atoms"], case["coupling"], case["spectrum"],
                                 case["fields"], case["t"], sigma0=closed[0])
    return float(np.max(np.abs(closed - oracle)) / np.max(np.abs(oracle)))


class RegimeSweep(Workload):
    """The bundled eq5 sweep through the CLI, plus seeded closed-form checks."""

    name = "regime_sweep"
    scenario = "eq5_regime_sweep"

    def setup(self):
        cli.build_eq5_cases(cli.load_config(self.scenario))

    def make_input(self, k):
        return oracle_cases(self.rng(k))

    def run(self, inp, out_dir):
        run_cli(["run", self.scenario, "--out", out_dir])
        return [run_oracle_case(case) for case in inp]

    def collect(self, inp, out_dir, raw):
        out = read_outputs(out_dir)
        out["oracle_errors"] = raw
        return out

    def check(self, inp, outputs):
        fails = []
        by_label = {c["label"]: c for c in outputs["report"]["cases"]}
        hi, lo = by_label["margin_100"], by_label["margin_1"]
        if not (hi["margin9"] >= 100 and hi["relative_deviation"] <= 0.01):
            fails.append(f"margin {hi['margin9']}: deviation {hi['relative_deviation']} > 1%")
        if not (lo["margin9"] <= 1.5 and lo["relative_deviation"] > 0.05):
            fails.append(f"margin {lo['margin9']}: deviation {lo['relative_deviation']} <= 5%")
        fails += [f"oracle error {e} above 1e-3" for e in outputs["oracle_errors"]
                  if not e <= 1e-3]
        return fails


class CzHerald(Workload):
    """Heralded CZ in Fock space: the five bundled inputs plus seeded product states."""

    name = "cz_herald"
    scenario = "klm_cz"

    def setup(self):
        cfg = cli.load_config(self.scenario)
        self.stages, (self.policy, self.cap, fc) = cli.build_fock_network(cfg)
        self.bundled = [cli._parse_qubit_label(label) for label in fc["inputs"]]

    def make_input(self, k):
        rng = self.rng(k)

        def qubit():
            q = rng.normal(size=2) + 1j * rng.normal(size=2)
            return tuple(q / np.linalg.norm(q))

        return self.bundled + [(qubit(), qubit()) for _ in range(N_RANDOM_INPUTS)]

    def run(self, inp, out_dir):
        """Each input through the feed-forward, reduced as ``memspin fock-verify`` does."""
        rows = []
        for q1, q2 in inp:
            state = fock.dual_rail_input(q1, q2, photon_cap=self.cap)
            outcomes = fock.run_with_feedforward(self.stages, state, self.policy)
            succ = [o for o in outcomes if o.success]
            ideal = fock.dual_rail_cz_ideal(q1, q2, photon_cap=self.cap)
            rows.append({
                "successes": len(succ),
                "success_probability": succ[0].probability if succ else None,
                "fidelity": (succ[0].conditioned_state.normalized().fidelity(ideal)
                             if succ else None),
                "probabilities": [o.probability for o in outcomes],
            })
        return rows

    def collect(self, inp, out_dir, raw):
        return {"rows": raw}

    def check(self, inp, outputs):
        fails = []
        for i, row in enumerate(outputs["rows"]):
            if row["successes"] != 1:
                fails.append(f"input {i}: {row['successes']} success branches")
                continue
            if abs(row["success_probability"] - 1 / 16) > 1e-10:
                fails.append(f"input {i}: success probability {row['success_probability']}")
            if not row["fidelity"] >= 1 - 1e-10:
                fails.append(f"input {i}: fidelity {row['fidelity']}")
        return fails

    def microbench(self):
        """Median time of one 4x4 Ryser permanent, the largest block the CZ network hits."""
        sub = self.stages[0].unitary.matrix[np.ix_([0, 1, 2, 4], [0, 1, 2, 4])]
        fock.permanent(sub)
        times = []
        for _ in range(PERMANENT_REPS):
            t0 = time.perf_counter()
            fock.permanent(sub)
            times.append(time.perf_counter() - t0)
        return {"fock.permanent_us": float(np.median(times) * 1e6)}


WORKLOADS = {w.name: w for w in (GoldenNetwork, TransferProbe, RegimeSweep, CzHerald)}
