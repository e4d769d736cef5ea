"""Config-driven scenario runner.

Usage::

    memspin run|validate|fock-verify|extract-transfer <config> [--out DIR]
            [--grid-scale F]

``<config>`` is a JSON file (human units: MHz and us) or the name of a
bundled scenario.  ``OPS`` maps each (command, config type) pair to its op:
``run`` and ``validate`` take every type (``network``, ``eq5_sweep``,
``fock``), ``fock-verify`` only ``fock`` and ``extract-transfer`` only
``network``; another pair exits 2.  Every op but ``validate`` writes into
``--out`` (default: $MEMSPIN_OUT or ./memspin_out), which must not name, or
lie below, a file: ``report.json`` through ``write_report``, its
``wall_time_s`` from the op's start to just before the write, plus
``heatmap_field.csv`` / ``heatmap_spin.csv`` and ``transfer.csv`` when
requested.  ``validate`` builds everything ``run`` builds, window operators
and step-size guards included, without the dynamics.  Every entry is
checked when the config is loaded, against the schema of its ``type``: a
key the schema does not list, or a value not of the type the schema gives
it, is an error.

Exit codes: 0 success; 2 on a :class:`~memspin.core.ValidationError` (and from
``validate`` when a validity margin fails); 3 on a
:class:`~memspin.core.NumericalError` (a step too coarse, a divergence, a
zero-energy ideal, a herald without one success branch, or a bad NS gate).
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
from pathlib import Path

import numpy as np

from . import compiler, core, fock, pde
from .core import MemspinError, NumericalError, ValidationError, angular_from_mhz

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


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


# Every entry a config may hold, per config type: a dict is a section, a list
# holds the schema of each of its entries (a list of lists is a matrix of equal
# rows), a tuple is a choice of literals and sections, and a type is a value.
_MATRIX = [[float]]
_ATOMS = dict.fromkeys(("Gamma_mhz", "gamma_mhz", "delta_mhz", "optical_depth"), float)
_GRID = {"nz": int, "dt_us": float, "window_us": float}
_PULSE = {"shape": str, "fwhm_us": float, "center_us": float,
          "mode_amplitudes": ("uniform", {"re": [float], "im": [float]})}
_OPTIONS = dict.fromkeys(("power_broadening", "compensate_dispersion", "auto_two_photon"), bool)
_UNITARY = {"kind": str, "seed": int, "re": _MATRIX, "im": _MATRIX}
SCHEMAS = {
    "network": {
        "type": str, "label": str, "margin_threshold": float,
        "atoms": _ATOMS, "grid": _GRID, "pulse": _PULSE, "options": _OPTIONS,
        "spectrum": {"mean_mhz": float, "n_modes": int, "spacing_mhz": float,
                     "detunings_mhz": [float], "guard": float},
        "cells": {"count": int, "gradient_mhz": float},
        "coupling": {"omega_tilde": float},
        "unitaries": {"write": _UNITARY, "read": _UNITARY},
        "outputs": dict.fromkeys(("heatmap", "transfer"), bool),
    },
    "eq5_sweep": {
        "type": str, "label": str, "margin_threshold": float,
        "atoms": _ATOMS, "grid": _GRID, "pulse": _PULSE, "options": _OPTIONS,
        "spectrum": {"mean_mhz": float},
        "cells": {"gradient_mhz": float},
        "coupling": {"omega_tilde": float},
        "cases": [{"label": str, "spacing_mhz": float, "dt_us": float}],
    },
    "fock": {
        "type": str, "label": str,
        "fock": {
            "photon_cap": int, "assembly": str, "herald": [int], "ancilla_modes": [int],
            "inputs": [str],
            "stages": [{"label": str, "role": str, "window": int, "re": _MATRIX, "im": _MATRIX}],
            "export_plans": dict.fromkeys(("mean_mhz", "spacing_mhz", "guard", "omega_tilde"),
                                          float),
        },
    },
}


def _check(node, schema, path: str) -> None:
    """Raise ValidationError at the first entry of ``node`` that ``schema``
    does not allow, naming it by its dotted path (list entries by index)."""
    if isinstance(schema, tuple):
        if node in schema:
            return
        sections = [form for form in schema if isinstance(form, dict)]
        if not (sections and isinstance(node, dict)):
            forms = " or ".join(repr(form) if isinstance(form, str) else "dict" for form in schema)
            raise ValidationError(f"config entry '{path}' must be {forms}")
        schema = sections[0]
    if isinstance(schema, dict):
        if not isinstance(node, dict):
            raise ValidationError(f"config entry '{path}' must be dict")
        for key, value in node.items():
            where = f"{path}.{key}" if path else key
            if key not in schema:
                raise ValidationError(f"unknown config entry '{where}'")
            _check(value, schema[key], where)
    elif isinstance(schema, list):
        if not isinstance(node, list):
            raise ValidationError(f"config entry '{path}' must be list")
        for i, entry in enumerate(node):
            _check(entry, schema[0], f"{path}.{i}")
            if isinstance(entry, list) and len(entry) != len(node[0]):
                raise ValidationError(f"config entry '{path}.{i}' has {len(entry)} entries, "
                                      f"row 0 has {len(node[0])}")
    # bool subclasses int, so JSON true/false would otherwise pass as a number
    elif isinstance(node, bool) and schema is not bool:
        raise ValidationError(f"config entry '{path}' must be {schema.__name__}, not a boolean")
    elif not isinstance(node, (int, float) if schema is float else schema):
        raise ValidationError(f"config entry '{path}' must be {schema.__name__}")
    # json reads NaN, Infinity and -Infinity as floats
    elif isinstance(node, float) and not math.isfinite(node):
        raise ValidationError(f"config entry '{path}' must be finite")


def load_config(path_or_name: str) -> dict:
    """The config at a path or of a bundled name, as parsed, once every entry
    has been checked against the schema of its ``type``."""
    source = Path(path_or_name)
    if not source.is_file():
        source = scenario_path(path_or_name)
    if not source.is_file():
        raise ValidationError(f"config '{path_or_name}' not found (not a file or bundled name)")
    try:
        text = source.read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise ValidationError(f"config '{path_or_name}' cannot be read: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config root must be an object")
    kind = cfg.get("type", "network")
    if not (isinstance(kind, str) and kind in SCHEMAS):
        raise ValidationError(f"config entry 'type' must be one of {', '.join(sorted(SCHEMAS))}")
    _check(cfg, SCHEMAS[kind], "")
    return cfg


def _require(cfg: dict, path: str):
    """The entry at dotted ``path`` (an integer part indexes a list), which the
    config must hold."""
    node = cfg
    parts = path.split(".")
    for i, part in enumerate(parts):
        if isinstance(node, list):
            node = node[int(part)]
        elif part in node:
            node = node[part]
        else:
            raise ValidationError(f"missing config entry '{'.'.join(parts[:i + 1])}'")
    return node


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_spectrum(cfg: dict) -> core.ModeSpectrum:
    sc = _require(cfg, "spectrum")
    guard = sc.get("guard", core.FAR_DETUNED_GUARD)
    if "detunings_mhz" in sc:
        for key in ("n_modes", "spacing_mhz"):
            if key in sc:
                raise ValidationError(f"config entry 'spectrum.{key}' is ignored where "
                                      f"'spectrum.detunings_mhz' is given")
        det = np.asarray(sc["detunings_mhz"], dtype=float)
        if not det.size:
            raise ValidationError("config entry 'spectrum.detunings_mhz' must not be empty")
        mean = sc["mean_mhz"] if "mean_mhz" in sc else float(det.mean())
        return core.ModeSpectrum(mean_detuning=angular_from_mhz(mean),
                                 detunings=angular_from_mhz(det), guard=guard)
    mean = _require(cfg, "spectrum.mean_mhz")
    n = _require(cfg, "spectrum.n_modes")
    if n == 1:
        if "spacing_mhz" in sc:
            raise ValidationError("config entry 'spectrum.spacing_mhz' is ignored where "
                                  "'spectrum.n_modes' is 1")
        return core.ModeSpectrum(mean_detuning=angular_from_mhz(mean),
                                 detunings=angular_from_mhz(np.array([mean])), guard=guard)
    spacing = _require(cfg, "spectrum.spacing_mhz")
    return core.ModeSpectrum.equally_spaced(mean, spacing, n, guard=guard)


def build_atoms(cfg: dict) -> core.AtomicParams:
    atoms = cfg.get("atoms", {})
    return core.AtomicParams(
        Gamma=angular_from_mhz(_require(cfg, "atoms.Gamma_mhz")),
        gamma=angular_from_mhz(atoms.get("gamma_mhz", 0.0)),
        delta=angular_from_mhz(atoms.get("delta_mhz", 0.0)),
        beta=_require(cfg, "atoms.optical_depth"),
    )


def build_unitary(cfg: dict, n: int, label: str) -> compiler.UnitarySpec:
    """The unitary of section ``unitaries.<label>``."""
    path = f"unitaries.{label}"
    section = _require(cfg, path)
    kind = section.get("kind", "explicit")
    for key, reader in (("seed", "haar"), ("re", "explicit"), ("im", "explicit")):
        if key in section and kind != reader:
            raise ValidationError(f"config entry '{path}.{key}' is ignored unless kind is "
                                  f"'{reader}'")
    if kind == "identity":
        return compiler.UnitarySpec(np.eye(n), label=label)
    if kind == "dft":
        return compiler.dft_unitary(n, label=label)
    if kind == "hadamard2":
        if n != 2:
            raise ValidationError(f"unitaries.{label}: hadamard2 needs exactly 2 modes")
        return compiler.UnitarySpec(np.array([[1, 1], [1, -1]]) / math.sqrt(2), label=label)
    if kind == "haar":
        seed = _require(cfg, f"{path}.seed")
        if seed < 0:
            raise ValidationError(f"config entry '{path}.seed' must be non-negative; got {seed}")
        return compiler.haar_random_unitary(n, seed=seed, label=label)
    if kind == "explicit":
        return compiler.UnitarySpec(_complex_matrix(cfg, path, im_required=True),
                                    label=label)
    raise ValidationError(f"unitaries.{label}: unknown kind '{kind}'")


def _complex_matrix(cfg: dict, path: str, im_required: bool) -> np.ndarray:
    """The complex array ``<path>.re + i <path>.im``; a missing optional ``im`` is zero."""
    re = np.array(_require(cfg, f"{path}.re"), dtype=float)
    if not (im_required or "im" in _require(cfg, path)):
        return re.astype(complex)
    im = np.array(_require(cfg, f"{path}.im"), dtype=float)
    if im.shape != re.shape:
        raise ValidationError(f"config entries '{path}.re' and '{path}.im' differ in shape "
                              f"({re.shape} against {im.shape})")
    return re + 1j * im


def build_grid(cfg: dict, grid_scale: float = 1.0, dt: float | None = None) -> pde.Grid:
    """The grid of section ``grid``, with its step replaced by ``dt`` if given,
    refined by ``grid_scale``; the unscaled grid must be valid itself."""
    nz = _require(cfg, "grid.nz")
    dt = _require(cfg, "grid.dt_us") if dt is None else dt
    window = float(_require(cfg, "grid.window_us"))
    return pde.Grid(nz=nz, dt=dt, window=window).refined(grid_scale)


def build_pulse(cfg: dict, n: int) -> pde.GaussianPulse:
    pulse = cfg.get("pulse", {})
    shape = pulse.get("shape", "gaussian")
    if shape != "gaussian":
        raise ValidationError(f"pulse.shape '{shape}' unsupported (gaussian only)")
    fwhm = _require(cfg, "pulse.fwhm_us")
    center = _require(cfg, "pulse.center_us")
    amps_cfg = pulse.get("mode_amplitudes", "uniform")
    if amps_cfg == "uniform":
        amps = np.ones(n, dtype=complex) / math.sqrt(n)
    else:
        amps = _complex_matrix(cfg, "pulse.mode_amplitudes", im_required=False)
        if amps.size != n:
            raise ValidationError("pulse.mode_amplitudes length must equal the mode count")
    return pde.GaussianPulse(fwhm=fwhm, center=center, mode_amplitudes=amps)


def output_switches(cfg: dict) -> tuple[bool, bool]:
    """The ``outputs.heatmap`` and ``outputs.transfer`` switches."""
    outputs = cfg.get("outputs", {})
    return outputs.get("heatmap", False), outputs.get("transfer", False)


def build_options(cfg: dict) -> pde.SimOptions:
    """SimOptions from section ``options``, whose schema admits only its booleans."""
    return pde.SimOptions(**cfg.get("options", {}), margin_threshold=float(
        cfg.get("margin_threshold", core.MARGIN_THRESHOLD)))


class NetworkSetup:
    """Everything needed to run a compiled two-operation scenario (heatmaps if ``heatmap``)."""

    def __init__(self, cfg: dict, grid_scale: float = 1.0, heatmap: bool = False):
        self.heatmap = heatmap
        self.spectrum = build_spectrum(cfg)
        n = self.spectrum.n_modes
        self.atoms = build_atoms(cfg)
        n_cells = cfg.get("cells", {}).get("count", n)
        if n_cells != n:
            raise ValidationError("cells.count must equal the mode count for compiled plans")
        gradient = angular_from_mhz(_require(cfg, "cells.gradient_mhz"))
        self.cells = [pde.MemoryCell(atoms=self.atoms, gradient_eta=gradient, id=f"m{j}")
                      for j in range(n)]
        ot = _require(cfg, "coupling.omega_tilde")
        self.u_in = build_unitary(cfg, n, "write")
        self.u_out = build_unitary(cfg, n, "read")
        self.write_plan = compiler.compile_write(self.u_in, self.spectrum, ot)
        self.read_plan = compiler.compile_read(self.u_out, self.spectrum, ot)
        self.schedule = pde.store_recall_schedule(self.write_plan, self.read_plan)
        self.grid = build_grid(cfg, grid_scale)
        self.pulse = build_pulse(cfg, n)
        self.options = build_options(cfg)

    def chains(self, transfer: bool) -> list[pde.Chain]:
        """What ``run`` integrates as one batch: the network, the basis probes
        if ``transfer``, and the reference echo last."""
        probes = (pde._basis_probe(self.cells, self.schedule, self.grid, self.spectrum,
                                   self.options, self.pulse) if transfer else [])
        return [pde.Chain(self.cells, self.schedule, self.spectrum, {0: self.pulse},
                          self.options), *probes,
                pde.reference_echo(self.cells, self.schedule, self.spectrum, self.pulse,
                                   self.options)]

    def margin_report(self) -> core.MarginReport:
        reps = [compiler.validate_plan(plan, self.spectrum, self.atoms,
                                       threshold=self.options.margin_threshold)
                for plan in (self.write_plan, self.read_plan)]
        return core.MarginReport(
            margin7=min(r.margin7 for r in reps),
            margin9=min(r.margin9 for r in reps),
            threshold=self.options.margin_threshold)


def run_network(setup: NetworkSetup, transfer: bool = False):
    """Run a compiled scenario against its ideal output, in one integration
    with its reference echo and, if ``transfer``, the basis probes.

    The ideal output is the ideal transfer applied to the pulse, in the
    temporal mode of the single-cell reference echo.  Returns the network
    result, that unit-energy temporal mode and the transfer matrix (None
    unless ``transfer``).
    """
    result, *probes, echo = pde._simulate_batch(setup.chains(transfer), setup.grid,
                                                0 if setup.heatmap else None)
    psi = pde.echo_mode(echo)
    ideal = pde.ideal_output(compiler.ideal_transfer(setup.u_in, setup.u_out),
                             setup.pulse.mode_amplitudes, psi)
    result.overlap = pde.overlap(result, ideal)
    matrix = (pde.transfer_from_probes(probes, psi, setup.schedule, setup.grid, setup.pulse)
              if transfer else None)
    return result, psi, matrix


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


def write_report(cfg: dict, args, fields: dict) -> str:
    """The one writer of an op's ``report.json``, made with its output directory:
    the config's ``label`` and ``config_hash``, the op's ``fields`` and
    ``wall_time_s``, the time since the op started (``args.start``)."""
    os.makedirs(args.out, exist_ok=True)
    report = {"label": cfg.get("label", ""), "config_hash": config_hash(cfg), **fields,
              "wall_time_s": time.perf_counter() - args.start}
    path = os.path.join(args.out, "report.json")
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
# Ops, one per (command, config type)
# ---------------------------------------------------------------------------

def cmd_validate_network(cfg: dict, args) -> int:
    _, want_transfer = output_switches(cfg)
    setup = NetworkSetup(cfg, grid_scale=args.grid_scale)
    pde.window_operators(setup.chains(want_transfer), setup.grid)
    rep = setup.margin_report()
    print(json.dumps({"label": cfg.get("label", ""), "margins": _margin_dict(rep)}, indent=1,
                     sort_keys=True))
    passed = rep.pass7 and rep.pass9
    print(f"validity margins: margin7={rep.margin7:.4g} margin9={rep.margin9:.4g} "
          f"threshold={rep.threshold:g} -> {'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_CONFIG


def cmd_run_network(cfg: dict, args) -> int:
    heatmap, want_transfer = output_switches(cfg)
    setup = NetworkSetup(cfg, grid_scale=args.grid_scale, heatmap=heatmap)
    result, _, transfer = run_network(setup, want_transfer)
    path = write_report(cfg, args, {
        "efficiency": result.efficiency,
        "overlap": result.overlap,
        "margins": _margin_dict(setup.margin_report()),
        "window_energies": result.window_energies,
        "output_windows": list(result.output_windows),
        "grid": {"nz": setup.grid.nz, "dt_us": setup.grid.dt,
                 "window_us": setup.grid.window},
        "transfer": _complex_matrix_dict(transfer) if transfer is not None else None,
    })
    if transfer is not None:
        write_transfer_csv(args.out, transfer)
    if heatmap:
        for name, values in (("field", result.heatmap_field), ("spin", result.heatmap_spin)):
            pde.write_heatmap_csv(os.path.join(args.out, f"heatmap_{name}.csv"), values,
                                  result.heatmap_times, setup.grid, len(setup.cells))
    print(f"{cfg.get('label', 'scenario')}: efficiency={result.efficiency:.4f} "
          f"overlap={result.overlap:.4f} -> {path}")
    return EXIT_OK


def build_eq5_cases(cfg: dict, grid_scale: float = 1.0):
    """The cell, pulse and options an eq5 sweep's cases share, and its cases
    (two modes at the case's spacing, stored and recalled by that cell) grouped
    by grid in order of first use: the cases on one grid run as one batch."""
    gradient = angular_from_mhz(_require(cfg, "cells.gradient_mhz"))
    cell = pde.MemoryCell(atoms=build_atoms(cfg), gradient_eta=gradient, id="eq5")
    ot = _require(cfg, "coupling.omega_tilde")
    mean = _require(cfg, "spectrum.mean_mhz")
    grid_dt = _require(cfg, "grid.dt_us")
    pulse = build_pulse(cfg, 2)
    options = build_options(cfg)
    if not _require(cfg, "cases"):
        raise ValidationError("config entry 'cases' must not be empty")
    groups = {}
    for i, entry in enumerate(cfg["cases"]):
        spacing = float(_require(cfg, f"cases.{i}.spacing_mhz"))
        spectrum = core.ModeSpectrum.equally_spaced(mean, spacing, 2)
        cv = core.CouplingVector(ot * spectrum.detunings / math.sqrt(2))
        grid = build_grid(cfg, grid_scale, dt=entry.get("dt_us", grid_dt))
        groups.setdefault(grid, []).append({
            "label": _require(cfg, f"cases.{i}.label"),
            "spacing_mhz": spacing,
            "spectrum": spectrum,
            "entries": [pde.ScheduleEntry("store", cv, 1), pde.ScheduleEntry("recall", cv, -1)],
        })
    labels = [entry["label"] for entry in cfg["cases"]]
    if len(set(labels)) < len(labels):
        raise ValidationError(f"config entry 'cases': labels must be distinct; got {labels}")
    return cell, pulse, options, groups


def cmd_validate_eq5(cfg: dict, args) -> int:
    cell, pulse, options, groups = build_eq5_cases(cfg, args.grid_scale)
    for grid, cases in groups.items():
        pde.window_operators(pde.eq5_chains(cell, [c["entries"] for c in cases], pulse,
                                            [c["spectrum"] for c in cases], options), grid)
    print(f"eq5 sweep '{cfg.get('label', '?')}': {len(cfg['cases'])} cases validate")
    return EXIT_OK


def cmd_run_eq5(cfg: dict, args) -> int:
    cell, pulse, options, groups = build_eq5_cases(cfg, args.grid_scale)
    results = {}
    for grid, cases in groups.items():
        deviations = pde.eq5_deviation(cell, [c["entries"] for c in cases], pulse, grid,
                                       [c["spectrum"] for c in cases], options)
        for case, (eff_multi, eff_single, dev) in zip(cases, deviations):
            m9 = core.margin_report(case["spectrum"], case["entries"][0].coupling,
                                    cell.atoms).margin9
            results[case["label"]] = {
                "label": case["label"],
                "spacing_mhz": case["spacing_mhz"],
                "margin9": m9 if not math.isinf(m9) else None,
                "efficiency_multi_transition": eff_multi,
                "efficiency_single_excited": eff_single,
                "relative_deviation": dev,
            }
            print(f"{case['label']}: margin9={m9:.3g} eff_multi={eff_multi:.4f} "
                  f"eff_single={eff_single:.4f} rel_dev={dev:.4f}")
    write_report(cfg, args, {"cases": [results[entry["label"]] for entry in cfg["cases"]]})
    return EXIT_OK


def build_fock_network(cfg: dict):
    fc = _require(cfg, "fock")
    cap = fc.get("photon_cap", fock.DEFAULT_PHOTON_CAP)
    assembly = fc.get("assembly", "cz")
    if assembly != "cz":
        raise ValidationError(f"fock.assembly '{assembly}' unknown (only 'cz' bundled)")
    # one mode may end up holding every photon the assembly's inputs carry
    (occ,) = fock.dual_rail_input((1, 0), (1, 0)).amplitudes
    photons = sum(occ)
    if not cap >= photons:
        raise ValidationError(f"config entry 'fock.photon_cap' must be at least {photons}, "
                              f"the photons of the '{assembly}' assembly; got {cap}")
    stages = fock.cz_network()
    if "stages" in fc:
        if len(fc["stages"]) != len(stages):
            raise ValidationError("fock.stages must list one entry per assembly stage")
        rebuilt = []
        for i, (entry, stage) in enumerate(zip(fc["stages"], stages)):
            where = f"fock.stages.{i}"
            for key, want in (("role", stage.role), ("label", stage.label), ("window", i)):
                if entry.get(key) != want:
                    raise ValidationError(f"{where}.{key} {entry.get(key)!r} does not match "
                                          f"assembly {key} {want!r}")
            if "re" in entry or "im" in entry:
                # explicit override of one stage's unitary (validated here)
                m = _complex_matrix(cfg, where, im_required=False)
                stage = fock.GateStage(
                    unitary=compiler.UnitarySpec(m, label=stage.label.lower()),
                    modes=stage.modes, label=stage.label, role=stage.role)
            rebuilt.append(stage)
        stages = rebuilt
    herald = fc.get("herald", fock.CZ_HERALD_PATTERN)
    ancilla = fc.get("ancilla_modes", fock.CZ_ANCILLA_MODES)
    if not (all(0 <= count <= cap for count in herald) and sum(herald) <= photons):
        raise ValidationError(f"config entry 'fock.herald': photon counts must lie in "
                              f"0 ... {cap}, the photon cap, and total at most {photons}, "
                              f"the photons of the '{assembly}' assembly; got {list(herald)}")
    try:
        policy = fock.cz_policy(stages, herald=herald, ancilla_modes=ancilla)
    except ValidationError as exc:
        # the mode check tests the herald's length first, then the modes themselves
        where = "fock.herald" if len(herald) != len(ancilla) else "fock.ancilla_modes"
        raise ValidationError(f"config entry '{where}': {exc}") from exc
    return stages, (policy, cap, fc)


def _parse_qubit_label(label: str):
    table = {
        "0": (1.0, 0.0), "1": (0.0, 1.0),
        "+": (1.0 / math.sqrt(2), 1.0 / math.sqrt(2)),
        "-": (1.0 / math.sqrt(2), -1.0 / math.sqrt(2)),
    }
    if len(label) != 2 or label[0] not in table or label[1] not in table:
        raise ValidationError(f"fock input label '{label}' not recognised")
    return table[label[0]], table[label[1]]


def build_fock_run(cfg: dict):
    """The CZ network of a fock config with its parsed inputs and exported plans.

    Returns (stages, policy, photon cap, [(label, (q1, q2))], stage plans or None).
    """
    stages, (policy, cap, fc) = build_fock_network(cfg)
    labels = fc.get("inputs", ["00", "01", "10", "11", "++"])
    if not labels:
        raise ValidationError("config entry 'fock.inputs' must not be empty")
    inputs = [(label, _parse_qubit_label(label)) for label in labels]
    plans = None
    if "export_plans" in fc:
        def plan(key):
            return _require(cfg, f"fock.export_plans.{key}")
        sp = core.ModeSpectrum.equally_spaced(
            plan("mean_mhz"), plan("spacing_mhz"), fock.CZ_MODES,
            guard=fc["export_plans"].get("guard", core.FAR_DETUNED_GUARD))
        plans = fock.stage_plans(stages, sp, plan("omega_tilde"))
    return stages, policy, cap, inputs, plans


def cmd_validate_fock(cfg: dict, args) -> int:
    # UnitarySpec construction inside the builder validates every stage.
    stages, _, _, inputs, _ = build_fock_run(cfg)
    print(f"fock scenario '{cfg.get('label', '?')}': {len(stages)} stages, all unitary; "
          f"{len(inputs)} inputs")
    return EXIT_OK


def cmd_fock_verify(cfg: dict, args) -> int:
    stages, policy, cap, inputs, plans = build_fock_run(cfg)
    rows = []
    for label, (q1, q2) in inputs:
        state = fock.dual_rail_input(q1, q2, photon_cap=cap)
        outcomes = fock.run_with_feedforward(stages, state, policy)
        succ = [o for o in outcomes if o.success]
        if len(succ) != 1:
            raise NumericalError(f"input {label}: expected one success branch")
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
    fields = {"gates": rows, "stage_labels": [s.label for s in stages]}
    if plans is not None:
        fields["stage_plans"] = plans
    write_report(cfg, args, fields)
    return EXIT_OK


def cmd_extract_transfer(cfg: dict, args) -> int:
    setup = NetworkSetup(cfg, grid_scale=args.grid_scale)
    matrix = pde.extract_transfer_matrix(
        setup.cells, setup.schedule, setup.grid, setup.spectrum, setup.pulse,
        setup.options)
    write_report(cfg, args, {"transfer": _complex_matrix_dict(matrix)})
    path = write_transfer_csv(args.out, matrix)
    print(f"transfer matrix ({matrix.shape[0]} modes) -> {path}")
    return EXIT_OK


# The op of each (command, config type) pair: run and validate take every type,
# fock-verify only fock and extract-transfer only network configs.
OPS = {
    ("run", "network"): cmd_run_network,
    ("run", "eq5_sweep"): cmd_run_eq5,
    ("run", "fock"): cmd_fock_verify,
    ("validate", "network"): cmd_validate_network,
    ("validate", "eq5_sweep"): cmd_validate_eq5,
    ("validate", "fock"): cmd_validate_fock,
    ("fock-verify", "fock"): cmd_fock_verify,
    ("extract-transfer", "network"): cmd_extract_transfer,
}


def _check_out(out: str) -> None:
    """Refuse an ``--out`` that is, or lies below, an existing file: the op
    could not make its output directory there."""
    path = out
    while path and not os.path.exists(path):  # "" is the working directory
        path = os.path.dirname(path)
    if path and not os.path.isdir(path):
        where = "names a file" if path == out else f"lies below '{path}', a file"
        raise ValidationError(f"--out '{out}' {where}, not a directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="memspin",
        description="Compile and simulate memory-based linear optical networks.")
    parser.add_argument("command", choices=sorted({command for command, _ in OPS}))
    parser.add_argument("config", help="config JSON path or bundled scenario name")
    parser.add_argument("--out", default=None, help="output directory "
                        "(default: $MEMSPIN_OUT or ./memspin_out)")
    parser.add_argument("--grid-scale", type=float, default=1.0, dest="grid_scale",
                        help="refine (>1) or coarsen (<1) the grid")
    args = parser.parse_args(argv)
    args.out = args.out or os.environ.get("MEMSPIN_OUT", "memspin_out")
    try:
        pde.check_grid_scale(args.grid_scale)
        cfg = load_config(args.config)
        op = OPS.get((args.command, cfg.get("type", "network")))
        if op is None:
            needed = next(kind for command, kind in OPS if command == args.command)
            raise ValidationError(f"{args.command} needs a config of type '{needed}'")
        if args.command != "validate":
            _check_out(args.out)
        args.start = time.perf_counter()  # write_report's wall_time_s runs from here
        return op(cfg, args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemspinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
