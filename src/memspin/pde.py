"""Coupled light-spin propagation through chains of gradient-echo memories.

The integrator advances, in a frame moving with the light, the collective
spin coherence s(z) of each cell together with the slowly varying mode
envelopes E_k(z, t):

    dE_k/dz = i * N * (W_k / D_k) * s(z)
    ds/dt   = -(gamma' + i * dtot(z, t)) * s + i * g * sum_k conj(W_k / D_k) * E_k

with g = 1, N = beta * Gamma (L = 1) and

    gamma'     = gamma + Gamma * sum_k |W_k / D_k|^2      (power broadening)
    dtot(z, t) = delta' + sign * eta * (z - 1/2)          (two-photon detuning)

where delta' = delta + sum_k |W_k|^2 / D_k carries the coupling-field light
shift; both rates come from :func:`memspin.core.effective_rates`.

Storage and recall use the gradient-echo mechanism: a linear detuning
gradient eta * (z - 1/2) is applied while the light is coupled in, and its
sign is flipped to trigger re-emission.  Cells are chained in series; in the
moving frame the outflow of one cell is the inflow of the next within the
same time step.

Numerical scheme: method of lines, classical RK4 in t on the spin grids
(the stepper :func:`memspin.core.rk4`), with the envelopes slaved to the
spin along z.  A coupled cell absorbs light only through its bright mode
r = W / D, so inside it

    E_k(z) = e_k + i * N * r_k * S(z),   S(z) = integral_0^z s(z') dz'

with e the cell's inflow and S the cumulative trapezoid of its spin.  One
(n_cells, nz) cumulative sum per evaluation therefore serves every cell,
and the chain enters only through small matrices built once per window:
the inflow projected onto each cell's bright mode (B), the strictly lower
cell-to-cell coupling through the end values S(1) (G), and the maps from
inflow and S(1) to the outflow (C, H), with the uncompensated dispersion
phases folded into all four.  The scheme is linear in the state, so
superposition holds to rounding error.

The state may carry leading batch axes, (P, n_cells, nz) for P runs that
share cells, schedule and grid: the operator acts on the last two axes,
and each RHS evaluation takes the inflows of all runs, (P, n_modes), from
one pulse call.  The N basis probes of a transfer extraction run this way
as one integration; :func:`simulate_network` is the same window loop with
no batch axis.  Its RHS reads the time of each RK4 stage from
:func:`memspin.core.stage_times` and calls the pulse there.

The single-excited-state model (:func:`simulate_eq5`) runs on the same
stepper, but its coefficients beat in time: W(t), the composite probe E(t)
and the Stark, drive, absorption and emission terms built from them.  All
are known functions of time, so they are tabulated on the RK4 stage times
one block of stages at a time (:func:`memspin.core.stage_table`), and its
RHS holds only arithmetic on the spin grid.

Energy bookkeeping (documented normalisation): with g = 1 the spin-wave
energy that balances the field energy integral(|E|^2 dt) is

    E_spin = beta * Gamma * integral(|s(z)|^2 dz)

per cell, which the tests verify to 1e-3 in the lossless limit.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    AtomicParams,
    CouplingVector,
    MemspinError,
    ModeSpectrum,
    StepSizeError,
    ValidationError,
    MARGIN_THRESHOLD,
    beat_sum,
    check_beat_resolution,
    dispersion_phase,
    effective_rates,
    margin_report,
    rk4,
    stage_table,
    stage_times,
)


class DivergenceError(MemspinError):
    """The integration produced non-finite values."""


class ScheduleError(MemspinError):
    """The storage/recall schedule is inconsistent."""


class UndefinedOverlapError(MemspinError):
    """Overlap requested against an ideal output with zero energy."""


EVENTS = ("store", "recall", "hold")


@dataclass(frozen=True)
class Grid:
    """Discretisation of one temporal window over the normalised cell.

    ``nz`` spatial points span z in [0, 1]; ``nt`` time steps of size ``dt``
    cover one window, nt * dt = window.
    """

    nz: int = 256
    dt: float = 0.02
    window: float = 40.0

    def __post_init__(self):
        if self.nz < 64:
            raise ValidationError("nz must be at least 64")
        if self.dt <= 0 or self.window <= 0:
            raise ValidationError("dt and window must be positive")
        nt = self.window / self.dt
        if abs(nt - round(nt)) > 1e-9:
            raise ValidationError("window must be an integer multiple of dt")

    @property
    def nt(self) -> int:
        return int(round(self.window / self.dt))

    @property
    def times(self) -> np.ndarray:
        """Window-local sample times, nt + 1 points including both edges."""
        return np.arange(self.nt + 1) * self.dt

    @property
    def z(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nz)

    def refined(self, factor: float = 2.0) -> "Grid":
        """Refine space and time together (for convergence studies)."""
        return Grid(nz=int(round(self.nz * factor)), dt=self.dt / factor, window=self.window)


@dataclass(frozen=True)
class MemoryCell:
    """One atomic ensemble with a switchable detuning gradient."""

    atoms: AtomicParams
    gradient_eta: float
    id: str = ""


@dataclass(frozen=True)
class ScheduleEntry:
    """What one cell does during one window."""

    event: str
    coupling: CouplingVector | None = None
    gradient_sign: int = 1

    def __post_init__(self):
        if self.event not in EVENTS:
            raise ScheduleError(f"unknown event '{self.event}'")
        if self.event in ("store", "recall"):
            if self.coupling is None or not np.any(self.coupling.amplitudes):
                raise ScheduleError(f"{self.event} window requires a nonzero coupling")
        if self.gradient_sign not in (1, -1):
            raise ScheduleError("gradient_sign must be +1 or -1")


@dataclass(frozen=True)
class Schedule:
    """Grid of (cell x window) entries."""

    entries: tuple[tuple[ScheduleEntry, ...], ...]

    def __post_init__(self):
        if not self.entries:
            raise ScheduleError("schedule must contain at least one cell row")
        n_windows = len(self.entries[0])
        for row in self.entries:
            if len(row) != n_windows:
                raise ScheduleError("all cells must cover the same windows")

    def check_causality(self, preloaded=frozenset()):
        """A cell may only recall after it stored (or was seeded with spin)."""
        for c, row in enumerate(self.entries):
            stored = c in preloaded
            for w, entry in enumerate(row):
                if entry.event == "store":
                    stored = True
                elif entry.event == "recall" and not stored:
                    raise ScheduleError(f"cell {c} recalls in window {w} before storing")

    @property
    def n_cells(self) -> int:
        return len(self.entries)

    @property
    def n_windows(self) -> int:
        return len(self.entries[0])

    def output_windows(self) -> tuple[int, ...]:
        """Windows in which at least one cell recalls."""
        return tuple(
            w for w in range(self.n_windows)
            if any(row[w].event == "recall" for row in self.entries)
        )


def store_recall_schedule(write_plan, read_plan) -> Schedule:
    """Two-window schedule: every cell stores, then every cell recalls."""
    if write_plan.n_memories != read_plan.n_memories:
        raise ScheduleError("write and read plans must address the same cells")
    rows = tuple(
        (
            ScheduleEntry(event="store", coupling=wv, gradient_sign=1),
            ScheduleEntry(event="recall", coupling=rv, gradient_sign=-1),
        )
        for wv, rv in zip(write_plan.memories, read_plan.memories)
    )
    return Schedule(entries=rows)


@dataclass(frozen=True)
class GaussianPulse:
    """Gaussian input pulse shared by all modes, |envelope|^2 FWHM = fwhm.

    ``center`` is window-local time in us; ``mode_amplitudes`` are the
    complex per-mode weights, (n_modes,), or (P, n_modes) for a batch of P
    pulses that share the envelope (the basis probes).
    """

    fwhm: float
    center: float
    mode_amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.atleast_1d(np.asarray(self.mode_amplitudes, dtype=complex))
        object.__setattr__(self, "mode_amplitudes", amps)
        if self.fwhm <= 0:
            raise ValidationError("pulse fwhm must be positive")

    @property
    def n_modes(self) -> int:
        return int(self.mode_amplitudes.shape[-1])

    def envelope(self, t) -> np.ndarray:
        return np.exp(-2.0 * math.log(2.0) * ((np.asarray(t) - self.center) / self.fwhm) ** 2)

    def __call__(self, t: float) -> np.ndarray:
        return self.mode_amplitudes * math.exp(
            -2.0 * math.log(2.0) * ((t - self.center) / self.fwhm) ** 2
        )

    def mode_energy(self) -> float:
        """Closed-form integral of |env(t)|^2 dt: the energy of unit weight on one mode."""
        return self.fwhm * math.sqrt(math.pi / (4.0 * math.log(2.0)))

    def energy(self) -> float:
        """sum_k |amp_k|^2 times :meth:`mode_energy` (summed over a batch)."""
        return float(np.sum(np.abs(self.mode_amplitudes) ** 2)) * self.mode_energy()


@dataclass
class FieldState:
    """Mode envelopes sampled on a time grid at a fixed z plane."""

    envelopes: np.ndarray  # (n_modes, n_samples)
    times: np.ndarray

    def energy(self) -> float:
        return float(np.trapezoid(np.sum(np.abs(self.envelopes) ** 2, axis=0), self.times))


@dataclass
class SpinState:
    """Spin-coherence profile of one cell."""

    sigma: np.ndarray  # (nz,)
    z: np.ndarray
    cell_id: str = ""

    def energy_norm(self, atoms: AtomicParams) -> float:
        """Field-equivalent energy beta * Gamma * integral(|s|^2 dz)."""
        return float(atoms.coupling_density * np.trapezoid(np.abs(self.sigma) ** 2, self.z))


@dataclass(frozen=True)
class SimOptions:
    """Switches for the integrator.

    power_broadening:
        Include the coupling-induced decay Gamma * sum|W/D|^2; disable for
        lossless energy-bookkeeping checks.
    compensate_dispersion:
        Model ideal compensation of the per-mode dispersion phase at cell
        boundaries; when off, each mode picks up exp(-i beta Gamma / D_k)
        per cell traversed.
    auto_two_photon:
        Retune the bare two-photon detuning per (cell, window) to cancel the
        coupling light shift, centring the gradient on the carrier.
    """

    power_broadening: bool = True
    compensate_dispersion: bool = True
    auto_two_photon: bool = True
    check_margins: bool = True
    margin_threshold: float = MARGIN_THRESHOLD
    record_heatmap: bool = False


@dataclass
class NetworkResult:
    """Everything observable from one schedule execution."""

    outputs: list[FieldState]
    residual_spins: list[SpinState]
    efficiency: float
    overlap: float | None
    input_energy: float
    window_energies: list[dict]
    output_windows: tuple[int, ...]
    heatmap_field: np.ndarray | None = None
    heatmap_spin: np.ndarray | None = None
    heatmap_times: np.ndarray | None = None
    heatmap_z: np.ndarray | None = None


def _cumtrapz(s: np.ndarray, half_dz: float) -> np.ndarray:
    """Cumulative trapezoid of ``s`` along its last axis, zero at z = 0."""
    acc = np.empty_like(s)
    acc[..., 0] = 0.0
    (half_dz * (s[..., 1:] + s[..., :-1])).cumsum(axis=-1, out=acc[..., 1:])
    return acc


class _ChainOperator:
    """The cell chain during one window, in bright-mode form.

    With e the chain inflow and S(1) the end values of every cell's
    cumulative spin trapezoid S (see the module docstring):

        dsig/dt = -(gamma' + i delta(z)) sig + i (B e + G S(1)) - N |r|^2 S
        outflow = C e + H S(1)

    An uncoupled cell has r = 0, so it only decays and passes its inflow
    on.  Checks the step size against the fastest rate on construction.
    """

    def __init__(self, cells, schedule: Schedule, window: int, spectrum: ModeSpectrum,
                 grid: Grid, options: SimOptions):
        n_cells, n_modes = len(cells), spectrum.n_modes
        z = grid.z
        self.half_dz = 0.5 / (grid.nz - 1)
        ratios = np.zeros((n_cells, n_modes), dtype=complex)
        ncal = np.array([cell.atoms.coupling_density for cell in cells])
        gamma_eff = np.array([cell.atoms.gamma for cell in cells])
        delta_z = np.empty((n_cells, z.size))
        # inflow of cell c (row n_cells: the chain outflow) = phase[c] * e + upstream[c] @ S(1)
        phase = np.ones((n_cells + 1, n_modes), dtype=complex)
        upstream = np.zeros((n_cells + 1, n_modes, n_cells), dtype=complex)
        for c, (cell, row) in enumerate(zip(cells, schedule.entries)):
            entry = row[window]
            if entry.event in ("store", "recall") and cell.gradient_eta == 0.0:
                raise ScheduleError(f"cell '{cell.id}' needs a nonzero gradient to {entry.event}")
            grad = entry.gradient_sign * cell.gradient_eta * (z - 0.5)
            delta_z[c] = cell.atoms.delta + grad
            if entry.coupling is not None and np.any(entry.coupling.amplitudes):
                ratios[c] = entry.coupling.amplitudes / spectrum.detunings
                rates = effective_rates(entry.coupling, spectrum, cell.atoms)
                if options.power_broadening:
                    gamma_eff[c] = rates.gamma_eff
                if not options.auto_two_photon:
                    delta_z[c] = rates.delta_eff + grad
            phase[c + 1] = phase[c]
            upstream[c + 1] = upstream[c]
            upstream[c + 1, :, c] = 1j * ncal[c] * ratios[c]
            if not options.compensate_dispersion:
                disp = np.exp(1j * dispersion_phase(cell.atoms, spectrum, 1.0))
                phase[c + 1] *= disp
                upstream[c + 1] *= disp[:, None]
        absorb = ncal * np.sum(np.abs(ratios) ** 2, axis=1)
        rate = float(np.max(gamma_eff + np.abs([cell.gradient_eta for cell in cells]) / 2.0
                            + absorb))
        if grid.dt * rate > 0.5:
            raise StepSizeError(
                f"dt = {grid.dt} too large for dynamics rate {rate:.3g} rad/us "
                f"(dt * rate = {grid.dt * rate:.2f} > 0.5)"
            )
        self.absorb = absorb[:, None]
        self.decay = -(gamma_eff[:, None] + 1j * delta_z)
        self.emit = 1j * ncal[:, None] * ratios
        self.phase, self.upstream = phase[:-1], upstream[:-1]
        self.B = np.conj(ratios) * self.phase
        self.G = np.einsum("ck,ckd->cd", np.conj(ratios), self.upstream)
        self.C, self.H = phase[-1], upstream[-1]

    def derivative(self, sig: np.ndarray, e: np.ndarray):
        """(dsig/dt, S) for spin grids ``sig`` (..., n_cells, nz) and chain
        inflow ``e`` (..., n_modes); the leading axes are a batch of runs."""
        acc = _cumtrapz(sig, self.half_dz)
        drive = 1j * (e @ self.B.T + acc[..., -1] @ self.G.T)
        dsig = self.decay * sig
        dsig += drive[..., None]
        dsig -= self.absorb * acc
        return dsig, acc

    def outflow(self, e: np.ndarray, acc: np.ndarray) -> np.ndarray:
        return self.C * e + acc[..., -1] @ self.H.T

    def field_norms(self, e: np.ndarray, acc: np.ndarray) -> np.ndarray:
        """sqrt(sum_k |E_k(z)|^2) in every cell, concatenated along z."""
        # upstream (n_cells, n_modes, n_cells) times each run's S(1) column
        inflow = self.phase * e[..., None, :] + (self.upstream @ acc[..., None, :, -1:])[..., 0]
        field = inflow[..., None] + self.emit[..., None] * acc[..., None, :]
        return np.sqrt(np.sum(np.abs(field) ** 2, axis=-2)).reshape(*acc.shape[:-2], -1)


def simulate_network(cells, schedule: Schedule, inputs, grid: Grid,
                     spectrum: ModeSpectrum, options: SimOptions = SimOptions(),
                     ideal: list[FieldState] | None = None,
                     initial_spins: np.ndarray | None = None) -> NetworkResult:
    """Run a schedule over a chain of cells.

    Parameters
    ----------
    cells:
        Ordered list of :class:`MemoryCell`, upstream first.
    inputs:
        Mapping window index -> pulse callable.  A pulse is evaluated at
        window-local times and returns the (n_modes,) inflow amplitudes.
    ideal:
        Optional per-output-window ideal envelopes; when given, the overlap
        is computed and stored on the result.
    initial_spins:
        Optional (n_cells, nz) starting spin grids (default all zero).
    """
    if initial_spins is None:
        sig = np.zeros((schedule.n_cells, grid.nz), dtype=complex)
    else:
        sig = np.array(initial_spins, dtype=complex)
        if sig.shape != (schedule.n_cells, grid.nz):
            raise ValidationError("initial_spins must have shape (n_cells, nz)")
    return _simulate_batch(cells, schedule, inputs, grid, spectrum, options, sig, ideal)[0]


def _simulate_batch(cells, schedule: Schedule, inputs, grid: Grid, spectrum: ModeSpectrum,
                    options: SimOptions, sig: np.ndarray,
                    ideal: list[FieldState] | None = None) -> list[NetworkResult]:
    """Run a schedule for a batch of runs in one integration.

    ``sig`` holds the starting spin grids, (P, n_cells, nz) for P runs or
    (n_cells, nz) for a single run, which then carries no batch axis.  A
    pulse in ``inputs`` returns the inflows of all runs, (P, n_modes) or
    (n_modes,), from one call per RHS evaluation.  Returns one
    :class:`NetworkResult` per run.
    """
    if len(cells) != schedule.n_cells:
        raise ScheduleError(
            f"{len(cells)} cells supplied for a schedule with {schedule.n_cells} rows"
        )
    batch, n_modes = sig.shape[:-2], spectrum.n_modes
    if options.check_margins:
        _warn_on_margins(cells, schedule, spectrum, options)
    schedule.check_causality(preloaded={
        c for c in range(schedule.n_cells) if np.any(sig[..., c, :])})
    times = grid.times
    stages = stage_times(times)
    zero = np.zeros(n_modes, dtype=complex)

    outputs: list[np.ndarray] = []  # (*batch, n_modes, nt + 1) per window
    energy_in, energy_out = [], []  # (*batch,) per window
    heat_field, heat_spin, heat_t = [], [], []
    stride = max(1, grid.nt // 200)

    for w in range(schedule.n_windows):
        op = _ChainOperator(cells, schedule, w, spectrum, grid, options)
        pulse = inputs.get(w)

        def rhs(y, k, pulse=pulse, op=op):
            e = np.asarray(pulse(stages.item(k)), dtype=complex) if pulse is not None else zero
            dy, acc = op.derivative(y, e)
            return dy, (e, acc)

        out_series = np.empty(batch + (n_modes, grid.nt + 1), dtype=complex)
        in_power = np.empty(batch + (grid.nt + 1,))
        for n, (sig, (e, acc)) in enumerate(rk4(rhs, sig, times)):
            out_series[..., n] = op.outflow(e, acc)
            in_power[..., n] = (np.abs(e) ** 2).sum(axis=-1)
            if options.record_heatmap and n < grid.nt and n % stride == 0:
                heat_field.append(op.field_norms(e, acc))
                heat_spin.append(np.abs(sig).reshape(*batch, -1))
                heat_t.append(w * grid.window + times[n])
        if not np.all(np.isfinite(sig)):
            raise DivergenceError(f"non-finite spin state after window {w}")
        outputs.append(out_series)
        energy_in.append(np.trapezoid(in_power, times, axis=-1))
        energy_out.append(np.trapezoid(np.sum(np.abs(out_series) ** 2, axis=-2), times,
                                       axis=-1))

    # one leading run axis, of length 1 for an unbatched run
    n_runs = math.prod(batch)
    outputs = [out.reshape(n_runs, n_modes, -1) for out in outputs]
    energy_in = [energy.reshape(n_runs) for energy in energy_in]
    energy_out = [energy.reshape(n_runs) for energy in energy_out]
    sig = sig.reshape(n_runs, schedule.n_cells, grid.nz)
    if options.record_heatmap and heat_t:
        heat_field = np.asarray(heat_field).reshape(len(heat_t), n_runs, -1)
        heat_spin = np.asarray(heat_spin).reshape(len(heat_t), n_runs, -1)
    out_windows = schedule.output_windows()
    results = []
    for p in range(n_runs):
        window_energies = [
            {"window": w, "input": float(energy_in[w][p]), "output": float(energy_out[w][p])}
            for w in range(schedule.n_windows)
        ]
        input_energy = sum(we["input"] for we in window_energies)
        output_energy = sum(window_energies[w]["output"] for w in out_windows)
        efficiency = output_energy / input_energy if input_energy > 0 else 0.0
        if efficiency > 1.0 + 1e-3:
            raise DivergenceError(f"efficiency {efficiency:.4f} exceeds unity beyond tolerance")
        run_outputs = [FieldState(envelopes=out[p], times=times.copy()) for out in outputs]

        overlap = None
        if ideal is not None:
            efficiency, overlap = _efficiency_overlap(
                [run_outputs[w] for w in out_windows], ideal, input_energy)

        result = NetworkResult(
            outputs=run_outputs,
            residual_spins=[
                SpinState(sigma=sig[p, c].copy(), z=grid.z, cell_id=cells[c].id)
                for c in range(schedule.n_cells)
            ],
            efficiency=float(efficiency),
            overlap=overlap,
            input_energy=float(input_energy),
            window_energies=window_energies,
            output_windows=out_windows,
        )
        if options.record_heatmap and heat_t:
            result.heatmap_field = heat_field[:, p].T
            result.heatmap_spin = heat_spin[:, p].T
            result.heatmap_times = np.asarray(heat_t)
            result.heatmap_z = np.concatenate([grid.z + i for i in range(schedule.n_cells)])
        results.append(result)
    return results


def _warn_on_margins(cells, schedule, spectrum, options):
    if spectrum.n_modes < 2:
        return
    for cell, row in zip(cells, schedule.entries):
        for entry in row:
            if entry.coupling is None or not np.any(entry.coupling.amplitudes):
                continue
            report = margin_report(spectrum, entry.coupling, cell.atoms,
                                   threshold=options.margin_threshold)
            if not (report.pass7 and report.pass9):
                # attributed to the first frame outside this module, whatever the entry point
                frame, level = sys._getframe(), 1
                while frame.f_globals.get("__name__") == __name__:
                    frame, level = frame.f_back, level + 1
                warnings.warn(
                    f"cell '{cell.id}': validity margins below threshold "
                    f"(margin7 = {report.margin7:.3g}, margin9 = {report.margin9:.3g})",
                    RuntimeWarning,
                    stacklevel=level,
                )
                return


def simulate_cell(cell: MemoryCell, entry: ScheduleEntry, pulse, grid: Grid,
                  spectrum: ModeSpectrum, options: SimOptions = SimOptions(),
                  initial_spin: np.ndarray | None = None):
    """Single cell, single window; returns (output FieldState, SpinState).

    ``pulse`` may be None for a window without inflow (for example recall).
    Seed ``initial_spin`` (shape (nz,)) to chain windows manually.
    """
    schedule = Schedule(entries=((entry,),))
    inputs = {0: pulse} if pulse is not None else {}
    seed = None
    if initial_spin is not None:
        seed = np.asarray(initial_spin, dtype=complex)[None, :]
    result = simulate_network([cell], schedule, inputs, grid, spectrum, options,
                              initial_spins=seed)
    return result.outputs[0], result.residual_spins[0]


def echo_center(schedule: Schedule, grid: Grid, pulse_center: float,
                store_window: int = 0) -> tuple[int, float]:
    """Predict (window, window-local time) of the gradient-echo re-emission.

    Tracks the signed dephasing accumulated from the pulse centre onwards
    and finds where it returns to zero.  Requires uniform gradient signs
    across cells within each window.
    """
    signs = []
    for w in range(schedule.n_windows):
        col = {row[w].gradient_sign for row in schedule.entries}
        if len(col) != 1:
            raise ScheduleError("echo prediction requires uniform gradient signs per window")
        signs.append(col.pop())
    acc = signs[store_window] * (grid.window - pulse_center)
    for w in range(store_window + 1, schedule.n_windows):
        s = signs[w]
        if s != 0 and 0.0 <= -acc / s <= grid.window:
            return w, -acc / s
        acc += s * grid.window
    raise ScheduleError("no rephasing point inside the scheduled windows")


def _efficiency_overlap(outputs: list[FieldState], ideal: list[FieldState],
                        input_energy: float):
    if len(outputs) != len(ideal):
        raise ValidationError("outputs and ideal must cover the same windows")
    e_out = sum(o.energy() for o in outputs)
    e_ideal = sum(i.energy() for i in ideal)
    if e_ideal <= 0:
        raise UndefinedOverlapError("ideal output has zero energy")
    inner = 0.0 + 0.0j
    for o, i in zip(outputs, ideal):
        if o.envelopes.shape != i.envelopes.shape:
            raise ValidationError("output/ideal grids do not match")
        inner += np.trapezoid(
            np.sum(o.envelopes * np.conj(i.envelopes), axis=0), o.times)
    efficiency = e_out / input_energy if input_energy > 0 else 0.0
    overlap = abs(inner) ** 2 / (e_out * e_ideal) if e_out > 0 else 0.0
    return float(efficiency), float(overlap)


def efficiency_and_overlap(result: NetworkResult, ideal: list[FieldState]):
    """Energy ratio and global-phase-insensitive overlap against an ideal."""
    outputs = [result.outputs[w] for w in result.output_windows]
    return _efficiency_overlap(outputs, ideal, result.input_energy)


def reference_echo(cell: MemoryCell, omega_tilde_value: float, pulse: GaussianPulse,
                   grid: Grid, mean_detuning: float,
                   options: SimOptions = SimOptions()) -> FieldState:
    """Recall-window echo of one identity-coupled cell, unit energy.

    Serves as the ideal temporal mode for overlap and transfer extraction:
    every memory in a compiled chain emits this same shape (its pattern is
    dark for all downstream cells), so deviations from it measure
    mode-space infidelity rather than the common re-emission shape.
    """
    sp1 = ModeSpectrum(mean_detuning=mean_detuning,
                       detunings=np.array([mean_detuning]))
    cv = CouplingVector(np.array([omega_tilde_value * mean_detuning]))
    sched = Schedule(entries=((
        ScheduleEntry(event="store", coupling=cv, gradient_sign=1),
        ScheduleEntry(event="recall", coupling=cv, gradient_sign=-1),
    ),))
    probe = GaussianPulse(fwhm=pulse.fwhm, center=pulse.center,
                          mode_amplitudes=np.array([1.0]))
    opts = replace(options, record_heatmap=False, check_margins=False)
    res = simulate_network([cell], sched, {0: probe}, grid, sp1, opts)
    out = res.outputs[1]
    scale = 1.0 / math.sqrt(out.energy())
    return FieldState(envelopes=out.envelopes * scale, times=out.times.copy())


def ideal_output(transfer_matrix: np.ndarray, input_amplitudes: np.ndarray,
                 temporal_mode: FieldState, single_pulse_energy: float) -> list[FieldState]:
    """Ideal per-mode output envelopes for one output window.

    ``temporal_mode`` must have unit energy; the template is scaled so a
    lossless transfer reproduces the input energy.
    """
    amps = np.asarray(transfer_matrix, dtype=complex) @ np.asarray(input_amplitudes,
                                                                   dtype=complex)
    scale = math.sqrt(single_pulse_energy)
    return [FieldState(
        envelopes=scale * amps[:, None] * temporal_mode.envelopes[0][None, :],
        times=temporal_mode.times.copy(),
    )]


def _basis_probe(cells, schedule: Schedule, grid: Grid, spectrum: ModeSpectrum,
                 options: SimOptions, pulse: GaussianPulse) -> list[NetworkResult]:
    """The N basis probes, probe j fed ``pulse`` with unit weight on mode j only.

    The probes share the schedule and the scheme is linear, so they run as
    one integration whose state carries a leading axis of N probes; the
    inflow of all probes comes from one (N, n_modes) pulse evaluation.
    Returns one :class:`NetworkResult` per probe, in mode order.
    """
    n = spectrum.n_modes
    probes = replace(pulse, mode_amplitudes=np.eye(n))
    sig = np.zeros((n, schedule.n_cells, grid.nz), dtype=complex)
    return _simulate_batch(cells, schedule, {0: probes}, grid, spectrum, options, sig)


def default_temporal_mode(cells, schedule: Schedule, grid: Grid,
                          spectrum: ModeSpectrum, pulse: GaussianPulse,
                          options: SimOptions = SimOptions()) -> FieldState:
    """Unit-energy reference echo matching the schedule's coupling weight."""
    first_store = next(
        (row[w].coupling for row in schedule.entries
         for w in range(schedule.n_windows) if row[w].event == "store"), None)
    if first_store is None:
        raise ScheduleError("schedule contains no store event")
    ot = float(np.linalg.norm(first_store.amplitudes / spectrum.detunings))
    return reference_echo(cells[0], ot, pulse, grid, spectrum.mean_detuning, options)


def extract_transfer_matrix(cells, schedule: Schedule, grid: Grid,
                            spectrum: ModeSpectrum, pulse: GaussianPulse,
                            options: SimOptions = SimOptions(),
                            temporal_mode: FieldState | None = None) -> np.ndarray:
    """Realised mode-transfer matrix from the N basis probes (one integration).

    Entry (k, j) is the complex overlap of output mode k against the ideal
    recalled temporal mode when only input mode j is fed, normalised so
    that |entry|^2 is the mode-to-mode energy efficiency.  The temporal
    mode defaults to the single-cell reference echo.
    """
    n = spectrum.n_modes
    win, _ = echo_center(schedule, grid, pulse.center)
    if temporal_mode is None:
        temporal_mode = default_temporal_mode(cells, schedule, grid, spectrum,
                                              pulse, options)
    psi = temporal_mode.envelopes[0]
    probe_options = replace(options, record_heatmap=False, check_margins=False)

    matrix = np.zeros((n, n), dtype=complex)
    probes = _basis_probe(cells, schedule, grid, spectrum, probe_options, pulse)
    for j, res in enumerate(probes):
        out = res.outputs[win]
        matrix[:, j] = np.trapezoid(out.envelopes * np.conj(psi)[None, :],
                                    out.times, axis=1) / math.sqrt(pulse.mode_energy())
    return matrix


def simulate_eq5(cell: MemoryCell, entries, pulse, grid: Grid,
                 spectrum: ModeSpectrum, options: SimOptions = SimOptions()):
    """Single-excited-state dynamics with the full oscillatory coupling.

    All Raman transitions share one excited state at the mean detuning D.
    The total coupling W(t) = sum_k W_k exp(i (D_k - D) t) and the composite
    probe E(t) = sum_k E_k(t) exp(i (D_k - D) t) beat at the mode spacings,
    so dt must resolve the fastest beat (20 points per period).  The spin
    decays through the instantaneous (Gamma + i D) |W(t)|^2 / D^2 term, so
    power broadening and the light shift oscillate instead of being folded
    into constant effective rates.

    Those time-dependent coefficients are tabulated per block of RK4 stage
    times, looping over the few modes; each RHS evaluation then reads one
    table row and does five array operations on the spin grid besides the
    cumulative trapezoid.

    Returns (list of composite single-row FieldState per window, SpinState).
    """
    check_beat_resolution(spectrum, grid.dt)
    beats = spectrum.detunings - spectrum.mean_detuning
    atoms = cell.atoms
    dmean = spectrum.mean_detuning
    ncal = atoms.coupling_density
    z = grid.z
    half_dz = 0.5 / (grid.nz - 1)
    stages = stage_times(grid.times)
    sig = np.zeros(grid.nz, dtype=complex)
    outputs = []
    stark_rate = (1.0 if options.power_broadening else 0.0) * atoms.Gamma + 1j * dmean

    for w, entry in enumerate(entries):
        t_base = w * grid.window  # beat phases run on absolute time
        grad = entry.gradient_sign * cell.gradient_eta * (z - 0.5)
        pulse_w = pulse if w == 0 else None

        def probe(t, pulse_w=pulse_w, t_base=t_base):
            # the composite probe E(t), zero outside the input window
            if pulse_w is None:
                return np.zeros(t.shape, dtype=complex)
            return beat_sum(pulse_w.mode_amplitudes, beats, t_base + t, pulse_w.envelope(t))

        coupling_on = entry.coupling is not None and bool(np.any(entry.coupling.amplitudes))
        if coupling_on:
            amps = entry.coupling.amplitudes
            static_shift = float(np.sum(np.abs(amps) ** 2)) / dmean
            delta_uniform = atoms.delta + (0.0 if options.auto_two_photon else static_shift)
            offset = -static_shift if options.auto_two_photon else 0.0
            neg_idelta = -(1j * (delta_uniform + offset + grad))

            def coefficients(t, amps=amps, probe=probe, t_base=t_base):
                # the bright-mode form of the chain, with one time-dependent mode
                om = beat_sum(amps, beats, t_base + t)
                ratio = om / dmean
                e = probe(t)
                return np.stack([-(atoms.gamma + stark_rate * (np.abs(om) ** 2 / dmean ** 2)),
                                 1j * np.conj(ratio) * e, ncal * np.abs(ratio) ** 2,
                                 1j * ncal * ratio, e], axis=1)

            row = stage_table(coefficients, stages)

            def rhs(s, k, row=row, neg_idelta=neg_idelta):
                neg_rate, drive, absorb, emit, e = row(k)
                acc = _cumtrapz(s, half_dz)
                return (neg_rate + neg_idelta) * s + drive - absorb * acc, e + emit * acc[-1]
        else:
            row = stage_table(probe, stages)
            neg_decay = -(atoms.gamma + 1j * (atoms.delta + grad))

            def rhs(s, k, row=row, neg_decay=neg_decay):
                return neg_decay * s, row(k)

        out_series = np.empty(grid.nt + 1, dtype=complex)
        for n, (sig, out_now) in enumerate(rk4(rhs, sig, grid.times)):
            out_series[n] = out_now
        if not np.all(np.isfinite(sig)):
            raise DivergenceError(f"non-finite spin state after window {w}")
        outputs.append(FieldState(envelopes=out_series[None, :], times=grid.times))

    spin = SpinState(sigma=sig, z=grid.z, cell_id=cell.id)
    return outputs, spin


def eq5_deviation(cell: MemoryCell, entries, pulse: GaussianPulse, grid: Grid,
                  spectrum: ModeSpectrum, options: SimOptions = SimOptions()):
    """Single-excited-state model against the multi-transition model.

    Runs one cell through ``entries`` (its store and recall windows) in both
    models.  The multi-transition efficiency is the network efficiency; the
    single-excited-state efficiency is the recalled energy over the energy
    of the composite input sum_k E_k(t) exp(i (D_k - D) t), which carries
    the beats.  Returns (eff_multi, eff_single, relative deviation
    |eff_single - eff_multi| / eff_multi).
    """
    schedule = Schedule(entries=(tuple(entries),))
    eff_multi = simulate_network([cell], schedule, {0: pulse}, grid, spectrum,
                                 options).efficiency
    outs, _ = simulate_eq5(cell, entries, pulse, grid, spectrum, options)
    beats = spectrum.detunings - spectrum.mean_detuning
    times = grid.times
    composite_in = beat_sum(pulse.mode_amplitudes, beats, times, pulse.envelope(times))
    e_in = float(np.trapezoid(np.abs(composite_in) ** 2, times))
    eff_single = sum(outs[w].energy() for w in schedule.output_windows()) / e_in
    return eff_multi, eff_single, abs(eff_single - eff_multi) / eff_multi


# The heatmap encoder's tables.  One value is 15 bytes, "d." + 4 digits +
# 4 digits + "e+XX" + separator, filled one field per table lookup.
_LEAD = np.array([b"%d." % d for d in range(10)]).view(np.uint16)
_ASCII = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS = np.stack(np.meshgrid(_ASCII, _ASCII, _ASCII, _ASCII, indexing="ij"),
                   axis=-1).view(np.uint32).ravel()  # "0000".."9999"
_EXPONENT = np.array([b"e%+03d" % e for e in range(-99, 100)]).view(np.uint32)
_SCALE = np.array([10.0 ** (8 - e) for e in range(-100, 101)])  # [10^e, 10^(e+1)) -> [1e8, 1e9)
_VALUE = np.dtype({"names": ["lead", "high", "low", "exponent", "sep"],
                   "formats": [np.uint16, np.uint32, np.uint32, np.uint32, np.uint8],
                   "offsets": [0, 2, 6, 10, 14], "itemsize": 15})
HEATMAP_BLOCK_ROWS = 64


def _encode_rows(block: np.ndarray):
    """``%.8e`` text of a (rows, cols) block as a (rows, cols * 15) uint8 array.

    The 9-digit mantissa is rint(x * 10^(8 - e)) with e = floor(log10 x),
    the decade fixed where the scaled value falls outside [1e8, 1e9) and the
    carry where rounding reaches 1e9.  The scaling errs by a few 1e-7 at
    most, so the rounding is certain unless the scaled fraction lies within
    1e-5 of one half.  Returns the array and the indices of the rows it
    cannot encode: a row holding a near-tie, |e| >= 100, a negative value,
    -0.0, NaN or inf.  Exact +0.0 is encoded.
    """
    x = np.asarray(block, dtype=np.float64).ravel()
    zero = (x == 0.0) & ~np.signbit(x)
    positive = (x > 0.0) & (x < np.inf)
    e = np.floor(np.log10(np.where(positive, x, 1.0))).astype(np.intp)
    ok = positive & (np.abs(e) < 100)
    xs = np.where(ok, x, 1.0)
    e[~ok] = 0
    scaled = xs * _SCALE[e + 100]
    off = np.flatnonzero((scaled < 1e8) | (scaled >= 1e9))
    if off.size:
        e[off] += np.where(scaled[off] >= 1e9, 1, -1)
        scaled[off] = xs[off] * _SCALE[e[off] + 100]
    mantissa = np.rint(scaled)
    tie = np.abs(scaled - mantissa) >= 0.5 - 1e-5
    carry = mantissa >= 1e9
    mantissa[carry] = 1e8
    e[carry] += 1
    exact = zero | (ok & ~tie & (np.abs(e) < 100))

    lead, rest = np.divmod(mantissa.astype(np.int32), 100_000_000)
    high, low = np.divmod(rest, 10_000)
    lead[zero] = 0
    e[~exact] = 0
    out = np.empty(x.size, dtype=_VALUE)
    out["lead"] = _LEAD[lead]
    out["high"] = _DIGITS[high]
    out["low"] = _DIGITS[low]
    out["exponent"] = _EXPONENT[e + 99]
    out["sep"] = ord(",")
    text = out.view(np.uint8).reshape(block.shape[0], -1)
    text[:, -1] = ord("\n")
    return text, np.flatnonzero(~exact.reshape(block.shape).all(axis=1))


def write_heatmap_csv(path, matrix: np.ndarray, times: np.ndarray, grid: Grid,
                      n_cells: int) -> None:
    """Heatmap CSV: rows = z index, columns = t index, one metadata header row.

    Every value is written as ``"%.8e" % value`` writes it, byte for byte.
    Rows are encoded HEATMAP_BLOCK_ROWS at a time from uint8 digit tables
    (:func:`_encode_rows`); a row holding a value whose 9-digit rounding is
    uncertain (scaled fraction within 1e-5 of one half), an exponent with
    |e| >= 100, a negative value, -0.0, NaN or inf goes through the ``%``
    format string instead.
    """
    row_format = ",".join(["%.8e"] * matrix.shape[1]) + "\n"
    with open(path, "wb") as fh:
        fh.write((
            f"nz={grid.nz},n_cells={n_cells},dt={grid.dt},window={grid.window},"
            f"n_times={len(times)},t0={times[0]},t1={times[-1]}\n"
        ).encode())
        for start in range(0, matrix.shape[0], HEATMAP_BLOCK_ROWS):
            block = matrix[start:start + HEATMAP_BLOCK_ROWS]
            text, fallback = _encode_rows(block)
            done = 0
            for r in fallback:
                fh.write(text[done:r])
                fh.write((row_format % tuple(block[r].tolist())).encode())
                done = r + 1
            fh.write(text[done:])
