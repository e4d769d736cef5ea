"""Config-driven scenario runner.

Usage::

    memspin run|validate|fock-verify|extract-transfer <config> [--out DIR]
            [--grid-scale F]

``<config>`` is a JSON file (human units: MHz and us) or the name of a
bundled scenario.  Outputs land in ``--out`` (default: $MEMSPIN_OUT or
./memspin_out): ``report.json`` always, plus ``heatmap_field.csv`` /
``heatmap_spin.csv`` and ``transfer.csv`` when requested.  ``validate``
builds everything ``run`` builds, without the dynamics.  A config key the
schema of its ``type`` does not list is an error.

Exit codes: 0 success, 2 configuration/validation error (``validate`` also
exits 2 when a validity margin fails), 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from importlib import resources

import numpy as np

from . import compiler, core, fock, pde
from .core import MemspinError, ValidationError, angular_from_mhz

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValidationError):
    """Configuration file failed validation; message names the bad path."""


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def scenario_path(name: str):
    """Path of a bundled scenario (with or without the .json suffix)."""
    fname = name if name.endswith(".json") else f"{name}.json"
    return resources.files("memspin") / "scenarios" / fname


def bundled_scenarios() -> list[str]:
    base = resources.files("memspin") / "scenarios"
    return sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".json"))


# Every key a config may hold, per config type: a dict is a section, a list
# holds the schema of each of its entries, None is a value.
_ATOMS = dict.fromkeys(("Gamma_mhz", "gamma_mhz", "delta_mhz", "optical_depth"))
_GRID = dict.fromkeys(("nz", "dt_us", "window_us"))
_PULSE = {"shape": None, "fwhm_us": None, "center_us": None,
          "mode_amplitudes": dict.fromkeys(("re", "im"))}
_OPTIONS = dict.fromkeys(("power_broadening", "compensate_dispersion", "auto_two_photon"))
_UNITARY = dict.fromkeys(("kind", "seed", "re", "im"))
SCHEMAS = {
    "network": {
        "type": None, "label": None, "margin_threshold": None,
        "atoms": _ATOMS, "grid": _GRID, "pulse": _PULSE, "options": _OPTIONS,
        "spectrum": dict.fromkeys(("mean_mhz", "n_modes", "spacing_mhz", "detunings_mhz",
                                   "guard")),
        "cells": dict.fromkeys(("count", "gradient_mhz")),
        "coupling": {"omega_tilde": None},
        "unitaries": {"write": _UNITARY, "read": _UNITARY},
        "outputs": dict.fromkeys(("heatmap", "transfer")),
    },
    "eq5_sweep": {
        "type": None, "label": None, "margin_threshold": None,
        "atoms": _ATOMS, "grid": _GRID, "pulse": _PULSE, "options": _OPTIONS,
        "spectrum": {"mean_mhz": None},
        "cells": {"gradient_mhz": None},
        "coupling": {"omega_tilde": None},
        "cases": [dict.fromkeys(("label", "spacing_mhz", "dt_us"))],
    },
    "fock": {
        "type": None, "label": None,
        "fock": {
            "photon_cap": None, "assembly": None, "herald": None, "ancilla_modes": None,
            "inputs": None,
            "stages": [dict.fromkeys(("label", "role", "window", "re", "im"))],
            "export_plans": dict.fromkeys(("mean_mhz", "spacing_mhz", "guard", "omega_tilde")),
        },
    },
}


def check_keys(node, schema, path: str = "") -> None:
    """Reject any key of ``node`` that ``schema`` does not list, by its dotted path."""
    if isinstance(schema, list) and isinstance(node, list):
        for i, entry in enumerate(node):
            check_keys(entry, schema[0], f"{path}.{i}")
    elif isinstance(schema, dict) and isinstance(node, dict):
        for key, value in node.items():
            where = f"{path}.{key}" if path else key
            if key not in schema:
                raise ConfigError(f"unknown config entry '{where}'")
            check_keys(value, schema[key], where)


def load_config(path_or_name: str) -> dict:
    candidate = scenario_path(path_or_name)
    if os.path.exists(path_or_name):
        text = open(path_or_name, "r", encoding="utf-8").read()
    elif candidate.is_file():
        text = candidate.read_text(encoding="utf-8")
    else:
        raise ConfigError(f"config '{path_or_name}' not found (not a file or bundled name)")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    kind = _get(cfg, "type", str, required=False, default="network")
    if kind not in SCHEMAS:
        raise ConfigError(f"config entry 'type' must be one of {', '.join(sorted(SCHEMAS))}")
    check_keys(cfg, SCHEMAS[kind])
    return cfg


def _get(cfg: dict, path: str, typ, required=True, default=None):
    """The entry at dotted ``path`` (an integer part indexes a list), checked as ``typ``."""
    node = cfg
    parts = path.split(".")
    for i, part in enumerate(parts):
        if isinstance(node, list) and part.isdigit() and int(part) < len(node):
            node = node[int(part)]
            continue
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"missing config entry '{'.'.join(parts[:i + 1])}'")
            return default
        node = node[part]
    types = typ if isinstance(typ, tuple) else (typ,)
    name = "/".join(t.__name__ for t in types)
    # bool subclasses int, so JSON true/false would otherwise pass as a number
    if isinstance(node, bool) and bool not in types:
        raise ConfigError(f"config entry '{path}' must be {name}, not a boolean")
    if float in types and isinstance(node, int):
        node = float(node)
    if not isinstance(node, types):
        raise ConfigError(f"config entry '{path}' must be {name}")
    return node


def _get_list(cfg: dict, path: str, typ, default=None) -> list:
    """The list at ``path``, each entry read through ``_get`` as ``typ``;
    required unless a ``default`` is given."""
    values = _get(cfg, path, list, required=default is None)
    if values is None:
        return list(default)
    return [_get(cfg, f"{path}.{i}", typ) for i in range(len(values))]


def _get_matrix(cfg: dict, path: str, required=True) -> np.ndarray | None:
    """The real matrix at ``path``: a list of equal-length rows of numbers."""
    rows = _get(cfg, path, list, required=required)
    if rows is None:
        return None
    m = [_get_list(cfg, f"{path}.{i}", float) for i in range(len(rows))]
    for i, row in enumerate(m):
        if len(row) != len(m[0]):
            raise ConfigError(f"config entry '{path}.{i}' has {len(row)} entries, "
                              f"row 0 has {len(m[0])}")
    return np.array(m, dtype=float)


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_spectrum(cfg: dict) -> core.ModeSpectrum:
    sc = _get(cfg, "spectrum", dict)
    guard = _get(cfg, "spectrum.guard", float, required=False, default=core.FAR_DETUNED_GUARD)
    if "detunings_mhz" in sc:
        det = np.asarray(_get_list(cfg, "spectrum.detunings_mhz", float))
        mean = _get(cfg, "spectrum.mean_mhz", float, required=False, default=float(det.mean()))
        return core.ModeSpectrum(mean_detuning=angular_from_mhz(mean),
                                 detunings=angular_from_mhz(det), guard=guard)
    mean = _get(cfg, "spectrum.mean_mhz", float)
    n = _get(cfg, "spectrum.n_modes", int)
    if n == 1:
        return core.ModeSpectrum(mean_detuning=angular_from_mhz(mean),
                                 detunings=angular_from_mhz(np.array([mean])), guard=guard)
    spacing = _get(cfg, "spectrum.spacing_mhz", float)
    return core.ModeSpectrum.equally_spaced(mean, spacing, n, guard=guard)


def build_atoms(cfg: dict) -> core.AtomicParams:
    return core.AtomicParams(
        Gamma=angular_from_mhz(_get(cfg, "atoms.Gamma_mhz", float)),
        gamma=angular_from_mhz(_get(cfg, "atoms.gamma_mhz", float, required=False,
                                    default=0.0)),
        delta=angular_from_mhz(_get(cfg, "atoms.delta_mhz", float, required=False,
                                    default=0.0)),
        beta=_get(cfg, "atoms.optical_depth", float),
    )


def build_unitary(cfg: dict, n: int, label: str) -> compiler.UnitarySpec:
    """The unitary of section ``unitaries.<label>``."""
    path = f"unitaries.{label}"
    _get(cfg, path, dict)
    kind = _get(cfg, f"{path}.kind", str, required=False, default="explicit")
    if kind == "identity":
        return compiler.UnitarySpec(np.eye(n), label=label)
    if kind == "dft":
        return compiler.dft_unitary(n, label=label)
    if kind == "hadamard2":
        if n != 2:
            raise ConfigError(f"unitaries.{label}: hadamard2 needs exactly 2 modes")
        return compiler.UnitarySpec(np.array([[1, 1], [1, -1]]) / math.sqrt(2), label=label)
    if kind == "haar":
        return compiler.haar_random_unitary(n, seed=_get(cfg, f"{path}.seed", int), label=label)
    if kind == "explicit":
        return compiler.UnitarySpec(_complex_matrix(cfg, path, im_required=True),
                                    label=label)
    raise ConfigError(f"unitaries.{label}: unknown kind '{kind}'")


def _complex_matrix(cfg: dict, path: str, im_required: bool) -> np.ndarray:
    """The complex matrix ``<path>.re + i <path>.im``; a missing optional ``im`` is zero."""
    re = _get_matrix(cfg, f"{path}.re")
    im = _get_matrix(cfg, f"{path}.im", required=im_required)
    if im is None:
        return re.astype(complex)
    if im.shape != re.shape:
        raise ConfigError(f"config entries '{path}.re' and '{path}.im' differ in shape "
                          f"({re.shape} against {im.shape})")
    return re + 1j * im


def build_grid(cfg: dict, grid_scale: float = 1.0, dt: float | None = None) -> pde.Grid:
    """The grid of section ``grid``, with its step replaced by ``dt`` if given."""
    nz = _get(cfg, "grid.nz", int)
    dt = _get(cfg, "grid.dt_us", float) if dt is None else dt
    window = _get(cfg, "grid.window_us", float)
    if grid_scale != 1.0:
        nz = int(round(nz * grid_scale))
        dt = dt / grid_scale
    return pde.Grid(nz=nz, dt=dt, window=window)


def build_pulse(cfg: dict, n: int) -> pde.GaussianPulse:
    shape = _get(cfg, "pulse.shape", str, required=False, default="gaussian")
    if shape != "gaussian":
        raise ConfigError(f"pulse.shape '{shape}' unsupported (gaussian only)")
    fwhm = _get(cfg, "pulse.fwhm_us", float)
    center = _get(cfg, "pulse.center_us", float)
    amps_cfg = _get(cfg, "pulse.mode_amplitudes", (str, dict), required=False,
                    default="uniform")
    if amps_cfg == "uniform":
        amps = np.ones(n, dtype=complex) / math.sqrt(n)
    elif isinstance(amps_cfg, dict):
        re = _get_list(cfg, "pulse.mode_amplitudes.re", float)
        im = _get_list(cfg, "pulse.mode_amplitudes.im", float, default=[0.0] * len(re))
        amps = np.asarray(re) + 1j * np.asarray(im)
        if amps.size != n:
            raise ConfigError("pulse.mode_amplitudes length must equal the mode count")
    else:
        raise ConfigError("pulse.mode_amplitudes must be 'uniform' or {re, im}")
    return pde.GaussianPulse(fwhm=fwhm, center=center, mode_amplitudes=amps)


def output_switches(cfg: dict) -> tuple[bool, bool]:
    """The ``outputs.heatmap`` and ``outputs.transfer`` switches."""
    return tuple(_get(cfg, f"outputs.{name}", bool, required=False, default=False)
                 for name in ("heatmap", "transfer"))


def build_options(cfg: dict, heatmap: bool) -> pde.SimOptions:
    def switch(name):
        return _get(cfg, f"options.{name}", bool, required=False, default=True)
    return pde.SimOptions(
        power_broadening=switch("power_broadening"),
        compensate_dispersion=switch("compensate_dispersion"),
        auto_two_photon=switch("auto_two_photon"),
        margin_threshold=_get(cfg, "margin_threshold", float, required=False,
                              default=core.MARGIN_THRESHOLD),
        record_heatmap=heatmap,
    )


class NetworkSetup:
    """Everything needed to run a compiled two-operation scenario."""

    def __init__(self, cfg: dict, grid_scale: float = 1.0, heatmap: bool = False):
        self.spectrum = build_spectrum(cfg)
        n = self.spectrum.n_modes
        self.atoms = build_atoms(cfg)
        n_cells = _get(cfg, "cells.count", int, required=False, default=n)
        if n_cells != n:
            raise ConfigError("cells.count must equal the mode count for compiled plans")
        gradient = angular_from_mhz(_get(cfg, "cells.gradient_mhz", float))
        self.cells = [pde.MemoryCell(atoms=self.atoms, gradient_eta=gradient, id=f"m{j}")
                      for j in range(n)]
        ot = _get(cfg, "coupling.omega_tilde", float)
        self.u_in = build_unitary(cfg, n, "write")
        self.u_out = build_unitary(cfg, n, "read")
        self.write_plan = compiler.compile_write(self.u_in, self.spectrum, ot)
        self.read_plan = compiler.compile_read(self.u_out, self.spectrum, ot)
        self.schedule = pde.store_recall_schedule(self.write_plan, self.read_plan)
        self.grid = build_grid(cfg, grid_scale)
        self.pulse = build_pulse(cfg, n)
        self.options = build_options(cfg, heatmap)

    def check_echo(self) -> None:
        """Fail unless the gradient echo lands inside the scheduled windows,
        where the transfer extraction reads it."""
        pde.echo_center(self.schedule, self.grid, self.pulse.center)

    def margin_report(self) -> core.MarginReport:
        reps = [compiler.validate_plan(plan, self.spectrum, self.atoms,
                                       threshold=self.options.margin_threshold)
                for plan in (self.write_plan, self.read_plan)]
        return core.MarginReport(
            margin7=min(r.margin7 for r in reps),
            margin9=min(r.margin9 for r in reps),
            threshold=self.options.margin_threshold)


def run_network(setup: NetworkSetup):
    """Run a compiled scenario against its ideal output.

    The ideal output is the ideal transfer applied to the pulse, in the
    temporal mode of the single-cell reference echo.  Returns the network
    result and that unit-energy temporal mode.
    """
    psi = pde.default_temporal_mode(setup.cells, setup.schedule, setup.grid,
                                    setup.spectrum, setup.pulse, setup.options)
    ideal_m = compiler.ideal_transfer(setup.u_in, setup.u_out).matrix
    ideal = pde.ideal_output(ideal_m, setup.pulse.mode_amplitudes, psi,
                             setup.pulse.mode_energy())
    result = pde.simulate_network(setup.cells, setup.schedule, {0: setup.pulse},
                                  setup.grid, setup.spectrum, setup.options, ideal=ideal)
    return result, psi


# ---------------------------------------------------------------------------
# Report helpers
# ---------------------------------------------------------------------------

def _margin_dict(rep: core.MarginReport) -> dict:
    def enc(x):
        return None if math.isinf(x) else x
    return {"margin7": enc(rep.margin7), "margin9": enc(rep.margin9),
            "pass7": rep.pass7, "pass9": rep.pass9, "threshold": rep.threshold}


def _complex_matrix_dict(m: np.ndarray) -> dict:
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def write_report(out_dir: str, report: dict) -> str:
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def write_transfer_csv(out_dir: str, matrix: np.ndarray) -> str:
    path = os.path.join(out_dir, "transfer.csv")
    n = matrix.shape[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("out_mode," + ",".join(f"in_{j}" for j in range(n)) + "\n")
        for k in range(n):
            cells = ",".join(f"{matrix[k, j].real:+.12e}{matrix[k, j].imag:+.12e}j"
                             for j in range(n))
            fh.write(f"{k},{cells}\n")
    return path


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_validate(cfg: dict, out_dir: str, args) -> int:
    kind = cfg.get("type", "network")
    if kind == "fock":
        # UnitarySpec construction inside the builder validates every stage.
        stages, _, _, inputs, _ = build_fock_run(cfg)
        print(f"fock scenario '{cfg.get('label', '?')}': {len(stages)} stages, all unitary; "
              f"{len(inputs)} inputs")
        return EXIT_OK
    if kind == "eq5_sweep":
        cases = build_eq5_cases(cfg, args.grid_scale)
        print(f"eq5 sweep '{cfg.get('label', '?')}': {len(cases)} cases validate")
        return EXIT_OK
    heatmap, want_transfer = output_switches(cfg)
    setup = NetworkSetup(cfg, grid_scale=args.grid_scale, heatmap=heatmap)
    if want_transfer:
        setup.check_echo()
    rep = setup.margin_report()
    md = _margin_dict(rep)
    print(json.dumps({"label": cfg.get("label", ""), "margins": md}, indent=1,
                     sort_keys=True))
    passed = rep.pass7 and rep.pass9
    print(f"validity margins: margin7={rep.margin7:.4g} margin9={rep.margin9:.4g} "
          f"threshold={rep.threshold:g} -> {'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_CONFIG


def cmd_run(cfg: dict, out_dir: str, args) -> int:
    kind = cfg.get("type", "network")
    if kind == "eq5_sweep":
        return _run_eq5(cfg, out_dir, args)
    if kind == "fock":
        return cmd_fock_verify(cfg, out_dir, args)
    t0 = time.time()
    heatmap, want_transfer = output_switches(cfg)
    setup = NetworkSetup(cfg, grid_scale=args.grid_scale, heatmap=heatmap)
    if want_transfer:
        setup.check_echo()
    margins = setup.margin_report()
    result, psi = run_network(setup)

    transfer = None
    if want_transfer:
        transfer = pde.extract_transfer_matrix(
            setup.cells, setup.schedule, setup.grid, setup.spectrum, setup.pulse,
            setup.options, temporal_mode=psi)

    os.makedirs(out_dir, exist_ok=True)
    report = {
        "label": cfg.get("label", ""),
        "config_hash": config_hash(cfg),
        "efficiency": result.efficiency,
        "overlap": result.overlap,
        "margins": _margin_dict(margins),
        "window_energies": result.window_energies,
        "output_windows": list(result.output_windows),
        "grid": {"nz": setup.grid.nz, "dt_us": setup.grid.dt,
                 "window_us": setup.grid.window},
        "transfer": _complex_matrix_dict(transfer) if transfer is not None else None,
        "wall_time_s": time.time() - t0,
    }
    path = write_report(out_dir, report)
    if transfer is not None:
        write_transfer_csv(out_dir, transfer)
    if heatmap and result.heatmap_field is not None:
        pde.write_heatmap_csv(os.path.join(out_dir, "heatmap_field.csv"),
                              result.heatmap_field, result.heatmap_times,
                              setup.grid, len(setup.cells))
        pde.write_heatmap_csv(os.path.join(out_dir, "heatmap_spin.csv"),
                              result.heatmap_spin, result.heatmap_times,
                              setup.grid, len(setup.cells))
    print(f"{cfg.get('label', 'scenario')}: efficiency={result.efficiency:.4f} "
          f"overlap={result.overlap:.4f} -> {path}")
    return EXIT_OK


def build_eq5_cases(cfg: dict, grid_scale: float = 1.0) -> list[dict]:
    """Every case of an eq5 sweep, built: two modes at the case's spacing, one
    cell storing and recalling them, and the grid, pulse and options to run it."""
    gradient = angular_from_mhz(_get(cfg, "cells.gradient_mhz", float))
    cell = pde.MemoryCell(atoms=build_atoms(cfg), gradient_eta=gradient, id="eq5")
    ot = _get(cfg, "coupling.omega_tilde", float)
    mean = _get(cfg, "spectrum.mean_mhz", float)
    grid_dt = _get(cfg, "grid.dt_us", float)
    pulse = build_pulse(cfg, 2)
    options = build_options(cfg, heatmap=False)
    cases = []
    for i in range(len(_get_list(cfg, "cases", dict))):
        spacing = _get(cfg, f"cases.{i}.spacing_mhz", float)
        spectrum = core.ModeSpectrum.equally_spaced(mean, spacing, 2)
        cv = core.CouplingVector(ot * spectrum.detunings / math.sqrt(2))
        dt = _get(cfg, f"cases.{i}.dt_us", float, required=False, default=grid_dt)
        cases.append({
            "label": _get(cfg, f"cases.{i}.label", str),
            "spacing_mhz": spacing,
            "cell": cell,
            "spectrum": spectrum,
            "entries": [pde.ScheduleEntry("store", cv, 1), pde.ScheduleEntry("recall", cv, -1)],
            "grid": build_grid(cfg, grid_scale, dt=dt),
            "pulse": pulse,
            "options": options,
        })
    return cases


def _run_eq5(cfg: dict, out_dir: str, args) -> int:
    t0 = time.time()
    results = []
    for case in build_eq5_cases(cfg, args.grid_scale):
        cell, sp, entries = case["cell"], case["spectrum"], case["entries"]
        m9 = core.check_inequality_9(sp, core.effective_rates(entries[0].coupling, sp,
                                                              cell.atoms))
        eff_multi, eff_single, dev = pde.eq5_deviation(cell, entries, case["pulse"],
                                                       case["grid"], sp, case["options"])
        results.append({
            "label": case["label"],
            "spacing_mhz": case["spacing_mhz"],
            "margin9": m9 if not math.isinf(m9) else None,
            "efficiency_multi_transition": eff_multi,
            "efficiency_single_excited": eff_single,
            "relative_deviation": dev,
        })
        print(f"{case['label']}: margin9={m9:.3g} eff_multi={eff_multi:.4f} "
              f"eff_single={eff_single:.4f} rel_dev={dev:.4f}")
    os.makedirs(out_dir, exist_ok=True)
    report = {
        "label": cfg.get("label", ""),
        "config_hash": config_hash(cfg),
        "cases": results,
        "wall_time_s": time.time() - t0,
    }
    write_report(out_dir, report)
    return EXIT_OK


def build_fock_network(cfg: dict):
    fc = _get(cfg, "fock", dict)
    cap = _get(cfg, "fock.photon_cap", int, required=False, default=fock.DEFAULT_PHOTON_CAP)
    assembly = _get(cfg, "fock.assembly", str, required=False, default="cz")
    if assembly != "cz":
        raise ConfigError(f"fock.assembly '{assembly}' unknown (only 'cz' bundled)")
    stages = fock.cz_network()
    if "stages" in fc:
        roles = _get_list(cfg, "fock.stages", dict)
        if len(roles) != len(stages):
            raise ConfigError("fock.stages must list one entry per assembly stage")
        rebuilt = []
        for i, (entry, stage) in enumerate(zip(roles, stages)):
            where = f"fock.stages.{i}"
            role = _get(cfg, f"{where}.role", str, required=False)
            if role != stage.role:
                raise ConfigError(
                    f"{where}.role '{role}' does not match assembly role '{stage.role}'")
            if "re" in entry or "im" in entry:
                # explicit override of one stage's unitary (validated here)
                m = _complex_matrix(cfg, where, im_required=False)
                stage = fock.GateStage(
                    unitary=compiler.UnitarySpec(m, label=stage.label.lower()),
                    modes=stage.modes, label=stage.label, role=stage.role)
            rebuilt.append(stage)
        stages = rebuilt
    herald = _get_list(cfg, "fock.herald", int, default=fock.CZ_HERALD_PATTERN)
    ancilla = _get_list(cfg, "fock.ancilla_modes", int, default=fock.CZ_ANCILLA_MODES)
    try:
        policy = fock.cz_policy(stages, herald=herald, ancilla_modes=ancilla)
    except ValidationError as exc:
        # the mode check tests the herald's length first, then the modes themselves
        where = "fock.herald" if len(herald) != len(ancilla) else "fock.ancilla_modes"
        raise ConfigError(f"config entry '{where}': {exc}") from exc
    return stages, (policy, cap, fc)


def _parse_qubit_label(label: str):
    table = {
        "0": (1.0, 0.0), "1": (0.0, 1.0),
        "+": (1.0 / math.sqrt(2), 1.0 / math.sqrt(2)),
        "-": (1.0 / math.sqrt(2), -1.0 / math.sqrt(2)),
    }
    if len(label) != 2 or label[0] not in table or label[1] not in table:
        raise ConfigError(f"fock input label '{label}' not recognised")
    return table[label[0]], table[label[1]]


def build_fock_run(cfg: dict):
    """The CZ network of a fock config with its parsed inputs and exported plans.

    Returns (stages, policy, photon cap, [(label, (q1, q2))], stage plans or None).
    """
    stages, (policy, cap, fc) = build_fock_network(cfg)
    labels = _get_list(cfg, "fock.inputs", str, default=["00", "01", "10", "11", "++"])
    inputs = [(label, _parse_qubit_label(label)) for label in labels]
    plans = None
    if "export_plans" in fc:
        def plan(key, **kw):
            return _get(cfg, f"fock.export_plans.{key}", float, **kw)
        sp = core.ModeSpectrum.equally_spaced(
            plan("mean_mhz"), plan("spacing_mhz"), fock.CZ_MODES,
            guard=plan("guard", required=False, default=core.FAR_DETUNED_GUARD))
        plans = fock.stage_plans(stages, sp, plan("omega_tilde"))
    return stages, policy, cap, inputs, plans


def cmd_fock_verify(cfg: dict, out_dir: str, args) -> int:
    t0 = time.time()
    stages, policy, cap, inputs, plans = build_fock_run(cfg)
    rows = []
    for label, (q1, q2) in inputs:
        state = fock.dual_rail_input(q1, q2, photon_cap=cap)
        outcomes = fock.run_with_feedforward(stages, state, policy)
        succ = [o for o in outcomes if o.success]
        if len(succ) != 1:
            raise fock.ConditioningError(f"input {label}: expected one success branch")
        ideal = fock.dual_rail_cz_ideal(q1, q2, photon_cap=cap)
        fidelity = succ[0].conditioned_state.normalized().fidelity(ideal)
        fail_p = sum(o.probability for o in outcomes if not o.success)
        rows.append({
            "input": label,
            "success_probability": succ[0].probability,
            "fidelity": fidelity,
            "failure_probability": fail_p,
        })
        print(f"|{label}>: P_success={succ[0].probability:.6f} fidelity={fidelity:.12f}")
    os.makedirs(out_dir, exist_ok=True)
    report = {
        "label": cfg.get("label", ""),
        "config_hash": config_hash(cfg),
        "gates": rows,
        "stage_labels": [s.label for s in stages],
        "wall_time_s": time.time() - t0,
    }
    if plans is not None:
        report["stage_plans"] = plans
    write_report(out_dir, report)
    return EXIT_OK


def cmd_extract_transfer(cfg: dict, out_dir: str, args) -> int:
    t0 = time.time()
    setup = NetworkSetup(cfg, grid_scale=args.grid_scale)
    matrix = pde.extract_transfer_matrix(
        setup.cells, setup.schedule, setup.grid, setup.spectrum, setup.pulse,
        setup.options)
    os.makedirs(out_dir, exist_ok=True)
    report = {
        "label": cfg.get("label", ""),
        "config_hash": config_hash(cfg),
        "transfer": _complex_matrix_dict(matrix),
        "wall_time_s": time.time() - t0,
    }
    write_report(out_dir, report)
    path = write_transfer_csv(out_dir, matrix)
    print(f"transfer matrix ({matrix.shape[0]} modes) -> {path}")
    return EXIT_OK


COMMANDS = {
    "run": cmd_run,
    "validate": cmd_validate,
    "fock-verify": cmd_fock_verify,
    "extract-transfer": cmd_extract_transfer,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="memspin",
        description="Compile and simulate memory-based linear optical networks.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("config", help="config JSON path or bundled scenario name")
    parser.add_argument("--out", default=None, help="output directory "
                        "(default: $MEMSPIN_OUT or ./memspin_out)")
    parser.add_argument("--grid-scale", type=float, default=1.0, dest="grid_scale",
                        help="refine (>1) or coarsen (<1) the grid")
    args = parser.parse_args(argv)
    out_dir = args.out or os.environ.get("MEMSPIN_OUT", "memspin_out")
    try:
        cfg = load_config(args.config)
        return COMMANDS[args.command](cfg, out_dir, args)
    except (core.StepSizeError, pde.DivergenceError, pde.UndefinedOverlapError,
            fock.ConditioningError, fock.DerivationError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemspinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
