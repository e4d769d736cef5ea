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

Numerical scheme: method of lines, classical RK4 in t on the spin grids,
with the envelopes slaved to the spin along z.  A coupled cell absorbs
light only through its bright mode r = W / D, so inside it

    E_k(z) = e_k + i * N * r_k * S(z),   S(z) = integral_0^z s(z') dz'

with e the cell's inflow and S = T s the cumulative trapezoid of its spin
(T lower triangular).  Only the bright part of the inflow, alpha = rhat^H e
on the unit bright mode rhat = i r / |r|, meets the spin; the dark rest
e_perp = e - alpha rhat passes the cell unchanged, and an uncoupled cell's
inflow is all dark.  So the field's norm, which the heatmaps record, is

    |E(z)|^2 = |e_perp|^2 + |alpha + N |r| S(z)|^2,

one complex profile per cell (:meth:`_ChainOperator.field_norms`).

The chain enters only through small matrices built once per window: the
inflow projected onto each cell's bright mode (B), the strictly lower
cell-to-cell coupling through the end values S(1) (G), and the maps from
inflow and S(1) to the outflow (C, H), with the uncompensated dispersion
phases folded into all four.  Within a window each cell's spins therefore
obey

    ds/dt = A s + u(t),   A = diag(-(gamma' + i dtot(z))) - N |r|^2 T,

with A fixed and lower triangular, and u, the inflow drive i B e plus
(i G S(1))_c, one scalar per cell, uniform in z.  Its eigenvalues are its
diagonal, distinct when the cell has a gradient, as storing and recalling
require.  Under the linear gradient, V in A = V diag(lam) V^-1 is Toeplitz
away from z = 0, in closed form and applied by FFT (:class:`_CellModes`),
one FFT pair for all the coupled cells of a block, or for all the heatmap
samples of a block of steps.  In the coordinates
a = V^-1 s the same RK4 map is

    a <- a + (P(h lam) - 1) a + sum_s w_s(h lam) u_s,

with P the degree-4 Taylor polynomial of exp and u_s the drive of RK4 stage
s, whose S(1) = T[-1] V a comes from one product of a with four fixed rows
(:class:`_ModalBlock`).  A step of this modal path is a few small products.
The path is chosen per chain in each window.  Real space is kept for a
single-excited chain, whose absorption changes in time, and for a chain
with a cell whose V has a condition number above MODAL_COND_LIMIT, or none
in closed form: the modal step errs by about that many rounding units a
step, the real-space step by one.  In real space the trapezoid makes point
j of a cell depend only on the points before it and on the S(1) of the
cells upstream.  Given their RK4 stage states, the point obeys a scalar
linear ODE whose RK4 steps are affine maps, so the chain is swept point by
point in that order, and each point's steps of a block are composed at
once (:class:`_RealSpaceBlock`, :func:`memspin.core.rk4_linear`).  Both
paths are linear in the state, so superposition holds to rounding error.

Every op is one integration of a batch (:func:`_simulate_batch`) of chains
(:class:`Chain`), each with its own cells, schedule, spectrum, inflow and
outflow.  Every chain starts from zero spin: its memories are empty until a
store window fills them.  Before integrating, the batch warns once for each
distinct coupling that fails the validity margins, the first such coupling
of each chain.  A run carries its reference echo, a transfer extraction its
N basis probes and the echo, and an eq5 sweep both models of every case on
a grid.  In each window every modal chain steps in one block, whatever
its size, its cells laid end to end on one row axis, (rows, nz), with
every product taken per row or per chain; the real-space chains step in
one block per kind and size, stacked on a leading axis, (chains, cells,
nz).  The inflow drive i B e is tabulated on the RK4 stage times a block
of steps at a time, so a step is arithmetic on the spin grids only, and
the heatmap samples of a block of steps are recorded together after it;
each chain's outflow and input power are formed after each window from
the recorded S(1) series.  The single-excited-state model of eq. 5 is a
one-cell chain with one composite mode whose coupling W(t) beats in time;
its rate, which alone carries its light shift, its drive and absorption are
tabulated on the same stage times.

Energy bookkeeping (documented normalisation): with g = 1 the spin-wave
energy that balances the field energy integral(|E|^2 dt) is

    E_spin = beta * Gamma * integral(|s(z)|^2 dz)

per cell, which the tests verify to 1e-3 in the lossless limit.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    AtomicParams,
    CouplingVector,
    ModeSpectrum,
    NumericalError,
    ValidationError,
    MARGIN_THRESHOLD,
    beat_sum,
    check_beat_resolution,
    dispersion_phase,
    effective_rates,
    margin_report,
    rk4_linear,
    rk4_stages,
    RK4_BLOCK,
    stage_times,
)


EVENTS = ("store", "recall", "hold")

#: Largest condition number ||V||_1 ||V^-1||_1 of a cell's eigenvector matrix
#: for which its chain takes the modal step: that step errs by about this
#: many rounding units per step, and the real-space step does not.  A cell
#: with no V in closed form has an infinite one.
MODAL_COND_LIMIT = 1e3

#: Steps of a modal block whose drives are tabulated, and whose heatmap
#: samples are recorded, at a time.  The table is (steps, rows, 4), 64 bytes
#: a step and row, so a block of 1,024 steps of the ten-mode transfer batch
#: (eleven chains of ten cells and the one-cell echo, 111 rows) would hold
#: about 7 MB; 128 steps hold under 1 MB.
MODAL_BLOCK = 128

#: Largest rotation dt * |Im a| of an RK4 step, a the complex rate of the
#: fastest point (dy/dt = a y + b).  On the eq5 sweep, raising the two-photon
#: detuning moves the efficiencies between grid scales 1 and 4 by 4.1e-4 at a
#: rotation of 0.19 and by 1.0e-2 at 0.25.
MAX_STEP_ROTATION = 0.2


def check_grid_scale(factor: float) -> None:
    """Refuse a grid scale that is not finite and positive."""
    if not (math.isfinite(factor) and factor > 0):
        raise ValidationError(f"grid scale must be finite and positive, not {factor}")


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
        check_grid_scale(factor)
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
            raise ValidationError(f"unknown event '{self.event}'")
        if self.event in ("store", "recall"):
            if self.coupling is None or not np.any(self.coupling.amplitudes):
                raise ValidationError(f"{self.event} window requires a nonzero coupling")
        if self.gradient_sign not in (1, -1):
            raise ValidationError("gradient_sign must be +1 or -1")


@dataclass(frozen=True)
class Schedule:
    """Grid of (cell x window) entries."""

    entries: tuple[tuple[ScheduleEntry, ...], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValidationError("schedule must contain at least one cell row")
        n_windows = len(self.entries[0])
        for row in self.entries:
            if len(row) != n_windows:
                raise ValidationError("all cells must cover the same windows")

    def check_causality(self):
        """A cell may only recall after it stored."""
        for c, row in enumerate(self.entries):
            stored = False
            for w, entry in enumerate(row):
                if entry.event == "store":
                    stored = True
                elif entry.event == "recall" and not stored:
                    raise ValidationError(f"cell {c} recalls in window {w} before storing")

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
        raise ValidationError("write and read plans must address the same cells")
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
    complex per-mode weights, (n_modes,).  Called on an array of times, it
    returns the inflows at each, (*times.shape, n_modes).  Its energy is what
    a run feeds in on its grid, :attr:`NetworkResult.input_energy`, which
    the efficiency and the transfer matrix divide by; a pulse cut by its
    window carries less than the closed-form integral.
    """

    fwhm: float
    center: float
    mode_amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.atleast_1d(np.asarray(self.mode_amplitudes, dtype=complex))
        object.__setattr__(self, "mode_amplitudes", amps)
        if self.fwhm <= 0:
            raise ValidationError("pulse fwhm must be positive")

    def envelope(self, t) -> np.ndarray:
        return np.exp(-2.0 * math.log(2.0) * ((np.asarray(t) - self.center) / self.fwhm) ** 2)

    def __call__(self, t) -> np.ndarray:
        return np.multiply.outer(self.envelope(t), self.mode_amplitudes)


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
    margin_threshold: float = MARGIN_THRESHOLD


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


@dataclass(frozen=True)
class Chain:
    """One run of a batch (:func:`_simulate_batch`): ``cells`` run ``schedule``
    under ``spectrum``, fed ``inputs`` (window -> pulse), from zero spin; a
    ``single_excited`` chain is one cell under the model of eq. 5
    (:class:`_Eq5Operator`)."""

    cells: list
    schedule: Schedule
    spectrum: ModeSpectrum
    inputs: dict
    options: SimOptions = SimOptions()
    single_excited: bool = False


def _check_step(dt: float, rate: float, rotation: float) -> None:
    """Reject a step ``dt`` that is too large for the fastest rate or the
    fastest rotation |Im a| of a window, printing the product dt * speed to
    the fewest decimals (two or more) that read above its bound."""
    for what, name, speed, bound in (("dynamics rate", "rate", rate, 0.5),
                                     ("rotation", "rotation", rotation, MAX_STEP_ROTATION)):
        if dt * speed > bound:
            shown = next(s for d in range(2, 18) if float(s := f"{dt * speed:.{d}f}") > bound)
            raise NumericalError(f"dt = {dt} too large for {what} {speed:.3g} rad/us "
                                 f"(dt * {name} = {shown} > {bound})")


def _cumtrapz(s: np.ndarray, half_dz: float) -> np.ndarray:
    """Cumulative trapezoid of ``s`` along its last axis, zero at z = 0."""
    acc = np.empty_like(s)
    acc[..., 0] = 0.0
    rest = np.add(s[..., 1:], s[..., :-1], out=acc[..., 1:])  # no temporary the size of s
    rest *= half_dz
    rest.cumsum(axis=-1, out=rest)
    return acc


class _ChainOperator:
    """The cell chain during one window, in bright-mode form.

    With e the chain inflow and S(1) the end values of every cell's
    cumulative spin trapezoid S (see the module docstring):

        dsig/dt = -(gamma' + i delta(z)) sig + i (B e + G S(1)) - N |r|^2 S
        outflow = C e + H S(1)

    The window loop tabulates the inflow drive i B e (:meth:`coefficients`).
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
                raise ValidationError(f"cell '{cell.id}' needs a nonzero gradient to {entry.event}")
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
        _check_step(grid.dt, float(np.max(
            gamma_eff + np.abs([cell.gradient_eta for cell in cells]) / 2.0 + absorb)),
            float(np.max(np.abs(delta_z))))
        self.absorb = absorb[:, None]
        self.decay = -(gamma_eff[:, None] + 1j * delta_z)
        emit = 1j * ncal[:, None] * ratios
        # |emit| and the unit bright mode rhat = emit / |emit|, zero when uncoupled
        self.gain = np.linalg.norm(emit, axis=1, keepdims=True)
        self.bright = emit / np.where(self.gain > 0.0, self.gain, 1.0)
        self.phase, self.upstream = phase[:-1], upstream[:-1]
        self.iB = 1j * np.conj(ratios) * self.phase
        # i G: cell to cell through S(1), which a one-cell chain does not have
        self.iG = (1j * np.einsum("ck,ckd->cd", np.conj(ratios), self.upstream)
                   if n_cells > 1 else None)
        self.C, self.H, self.window = phase[-1], upstream[-1], window

    def inflow(self, t, pulse) -> np.ndarray:
        """The chain inflows at the times ``t``, (*t.shape, n_modes), zero without ``pulse``."""
        shape = np.shape(t) + self.C.shape
        if pulse is None:
            return np.zeros(shape, dtype=complex)
        e = np.asarray(pulse(t), dtype=complex)
        if e.shape != shape:
            raise ValidationError(f"pulse of window {self.window} gives inflows of shape "
                                  f"{e.shape}, not {shape}")
        return e

    def inflow_drive(self, e: np.ndarray) -> np.ndarray:
        """i B e, (..., n_cells, 1), for chain inflows ``e`` (..., n_modes)."""
        return self.iB @ e[..., None]

    def coefficients(self, t: np.ndarray, pulse) -> np.ndarray:
        """The inflow drive on the stage times ``t``, (t.size, 1, n_cells, 1)."""
        return self.inflow_drive(self.inflow(t, pulse))[:, None]

    def outflow(self, e: np.ndarray, s1: np.ndarray) -> np.ndarray:
        """C e + H S(1) for series of inflows ``e`` (..., n_modes, times) and end
        values ``s1`` (..., n_cells, times).  The product is an einsum, which
        calls no BLAS, so it wakes no BLAS thread to spin after it."""
        out = np.einsum("...kc,...ct->...kt", self.H, s1)
        out += self.C[..., None] * e
        return out

    def field_norms(self, e: np.ndarray, acc: np.ndarray) -> np.ndarray:
        """sqrt(sum_k |E_k(z)|^2) in every cell, concatenated along z, from the
        split of each cell's inflow into its bright part alpha on rhat =
        emit / |emit| and the dark rest e_perp (see the module docstring):
        |E(z)|^2 = |e_perp|^2 + |alpha + |emit| S(z)|^2, so the (cells,
        modes, nz) field is never formed."""
        # upstream (n_cells, n_modes, n_cells) times each run's S(1) column
        inflow = self.phase * e[..., None, :] + (self.upstream @ acc[..., None, :, -1:])[..., 0]
        alpha = np.sum(np.conj(self.bright) * inflow, axis=-1, keepdims=True)
        dark = np.sum(np.abs(inflow - alpha * self.bright) ** 2, axis=-1, keepdims=True)
        # in place: on a block of heatmap samples these are the largest arrays
        near = self.gain * acc
        near += alpha
        norms = np.abs(near)
        norms **= 2
        norms += dark
        return np.sqrt(norms, out=norms).reshape(*acc.shape[:-2], -1)


class _Eq5Operator:
    """One cell under the single-excited-state model of eq. 5, during one window.

    All Raman transitions share one excited state at the mean detuning D, so
    the modes act as one composite mode E(t) = sum_k E_k(t) exp(i (D_k - D) t)
    with coupling W(t) = sum_k W_k exp(i (D_k - D) t); dt must give the
    fastest beat 20 points per period.  Power broadening and the light shift
    oscillate, (Gamma + i D) |W(t)|^2 / D^2, instead of being folded into
    constant rates.  The static decay holds the gradient and the retune
    -sum_k |W_k|^2 / D, if any, which cancels the static part of that shift;
    the rate, the drive i conj(r) E and the absorption N |r|^2 (r = W / D)
    are tabulated, and the outflow is E + i N r S(1).  The step guard takes
    the peak rate and the peak rotation, |Im decay| plus the light shift,
    with |W(t)| at its bound sum_k |W_k|.
    """

    iG = absorb = None

    def __init__(self, cells, schedule: Schedule, window: int, spectrum: ModeSpectrum,
                 grid: Grid, options: SimOptions):
        check_beat_resolution(spectrum, grid.dt)
        (cell,) = cells
        entry = schedule.entries[0][window]
        self.atoms, self.d, self.times = cell.atoms, spectrum.mean_detuning, grid.times
        self.half_dz = 0.5 / (grid.nz - 1)
        self.beats = spectrum.detunings - spectrum.mean_detuning
        self.amps = (entry.coupling.amplitudes if entry.coupling is not None
                     else np.zeros(spectrum.n_modes))
        self.t_base = window * grid.window  # beat phases run on absolute time
        retune = -float(np.sum(np.abs(self.amps) ** 2)) / self.d if options.auto_two_photon else 0.0
        grad = entry.gradient_sign * cell.gradient_eta * (grid.z - 0.5)
        self.decay = -(1j * (cell.atoms.delta + retune + grad))[None, :]
        self.stark = (1.0 if options.power_broadening else 0.0) * cell.atoms.Gamma + 1j * self.d
        peak = float(np.sum(np.abs(self.amps))) ** 2 / self.d ** 2
        _check_step(grid.dt, cell.atoms.gamma + (self.stark.real + cell.atoms.coupling_density)
                    * peak + abs(cell.gradient_eta) / 2.0,
                    float(np.max(np.abs(self.decay.imag))) + abs(self.d) * peak)

    def inflow(self, t, pulse) -> np.ndarray:
        """The composite probe E(t) at the times ``t``, (t.size, 1), zero without ``pulse``."""
        if pulse is None:
            return np.zeros((np.size(t), 1), dtype=complex)
        return beat_sum(pulse.mode_amplitudes, self.beats, self.t_base + t,
                        pulse.envelope(t))[:, None]

    def coefficients(self, t: np.ndarray, pulse) -> np.ndarray:
        """Drive, rate and absorption on the stage times ``t``, (t.size, 3, 1, 1)."""
        om = beat_sum(self.amps, self.beats, self.t_base + t)
        ratio = om / self.d
        rows = [1j * np.conj(ratio) * self.inflow(t, pulse)[:, 0],
                -(self.atoms.gamma + self.stark * (np.abs(om) ** 2 / self.d ** 2)),
                self.atoms.coupling_density * np.abs(ratio) ** 2]
        return np.stack(rows, axis=1)[:, :, None, None]

    def outflow(self, e: np.ndarray, s1: np.ndarray) -> np.ndarray:
        """E + i N r S(1) on the grid times, for the composite inflow ``e`` (1, times)."""
        ratio = beat_sum(self.amps, self.beats, self.t_base + self.times) / self.d
        return e + 1j * self.atoms.coupling_density * ratio * s1


class _CellModes:
    """One cell's window operator A = diag(decay) - absorb T, T the cumulative
    trapezoid matrix, as A = V diag(lam) V^-1, with the rows the modal step
    reads: psi = T[-1] V, the S(1) of each mode, and beta = V^-1 1, the
    uniform drive in modal coordinates.

    A is lower triangular, so lam is its diagonal, lam_i = decay_i - a h
    (lam_0 = decay_0) with a = absorb and h = half_dz, and V and V^-1 are
    unit lower triangular.  Under a linear gradient lam_1 ... lam_{n-1} step
    evenly, so both are Toeplitz apart from column 0.  With G_i = lam_i - lam_0
    and kappa_m = 2 a h / (lam_{1+m} - lam_1), for k >= 1,

        V[k + m, k] = v_m = kappa_m P_m,      P_{m+1} = P_m (1 + kappa_m),
        V^-1[k + m, k] = u_m = -kappa_m R_m,  R_{m+1} = R_m (1 - kappa_m),
        V[i, 0] = a Q_i / G_i,                Q_{i+1} = Q_i (1 + 2 a h / G_i),
        V^-1[i, 0] = -a h R_i / G_i,

    from v_0 = u_0 = P_1 = R_1 = 1 and Q_1 = h.  ``columns`` and ``symbols``
    hold column 0 and the FFT of the Toeplitz part, of V and of V^-1, which
    :func:`_modal_map` applies; neither n x n matrix is formed.
    Where lam does not step evenly, as without a gradient, ``cond``, the
    1-norm condition number ||V||_1 ||V^-1||_1, is infinite, so the cell's
    chain steps in real space.  An uncoupled cell's V is the identity.
    """

    def __init__(self, decay: np.ndarray, absorb: float, half_dz: float):
        n, h, self.absorb = decay.size, half_dz, absorb
        last = np.full(n, 2.0 * h)  # T[-1]
        last[0] = last[-1] = h
        if absorb == 0.0:
            self.lam, self.cond = decay, 1.0
            self.psi, self.beta = last.astype(complex), np.ones(n, dtype=complex)
            return
        self.lam = decay - absorb * h
        self.lam[0] = decay[0]
        with np.errstate(all="ignore"):
            kappa = 2.0 * absorb * h / (self.lam[2:] - self.lam[1])
            p = np.cumprod(np.concatenate(([1.0], 1.0 + kappa[:-1])))
            r = np.cumprod(np.concatenate(([1.0], 1.0 - kappa)))  # R_1 ... R_{n-1}
            gaps = self.lam[1:] - self.lam[0]
            q = h * np.cumprod(np.concatenate(([1.0], 1.0 + 2.0 * absorb * h / gaps[:-1])))
            v = np.concatenate(([1.0], kappa * p))
            u = np.concatenate(([1.0], -kappa * r[:-1]))
            self.columns = (np.concatenate(([1.0], absorb * q / gaps)),
                            np.concatenate(([1.0], -absorb * h * r / gaps)))
            sums = 2.0 * h * np.cumsum(v) - h * v
            self.psi = np.concatenate(([last @ self.columns[0]], sums[::-1]))
            self.beta = np.concatenate(([1.0], self.columns[1][1:] + r))
            self.cond = float(max(np.sum(np.abs(self.columns[0])), np.sum(np.abs(v)))
                              * max(np.sum(np.abs(self.columns[1])), np.sum(np.abs(u))))
        even = np.max(np.abs(np.diff(self.lam[1:], 2))) <= 1e-9 * abs(self.lam[2] - self.lam[1])
        if not (even and math.isfinite(self.cond)):
            self.cond = math.inf
        # a circular convolution of 2 n - 3 points or more keeps n - 1 unwrapped
        size = 1 << (2 * n - 4).bit_length()
        self.symbols = (np.fft.fft(v, size), np.fft.fft(u, size))


def _modal_map(y: np.ndarray, column: np.ndarray, symbol: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """V y for the rows of ``y`` (..., rows, nz): column 0 of V, ``column``
    (nz,), times y_0 plus the convolution of y_1 ... y_{n-1} with the FFT of
    V's Toeplitz part, ``symbol`` (size,), one FFT pair for all the rows,
    taken in one buffer.  Rows with their own V pass one column (rows, nz)
    and symbol (rows, size) each.  Writes to ``out``, which may be ``y``
    itself, if given."""
    conv = np.fft.fft(y[..., 1:], symbol.shape[-1])
    conv *= symbol
    np.fft.ifft(conv, out=conv)
    out = np.multiply(y[..., :1], column, out=out)
    out[..., 1:] += conv[..., :y.shape[-1] - 1]
    return out


def _stage_table(parts, pulses, stages: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The coefficients of the chain operators ``parts`` under ``pulses`` on
    the stage times of steps start ... stop - 1, their cells end to end,
    (kinds, rows, 2 (stop - start) + 1): the inflow drive, and for
    single-excited chains also the rate and the absorption."""
    t = stages[2 * start:2 * stop + 1]
    # C order, times last: the steps' arrays derived from it keep that layout
    return np.ascontiguousarray(np.concatenate(
        [part.coefficients(t, pulse)[..., 0] for part, pulse in zip(parts, pulses)],
        axis=-1).transpose(1, 2, 0))


def _window_modes(chains, parts, half_dz: float) -> list:
    """Per chain, its cells' :class:`_CellModes` if it takes the modal step in
    this window, else None: a single-excited chain, or one with a cell whose
    condition number exceeds MODAL_COND_LIMIT.  Cells with equal operators,
    in any chain of the batch, share one decomposition."""
    cache = {}

    def modes(part, c):
        key = (part.decay[c].tobytes(), part.absorb.item(c))
        if key not in cache:
            cache[key] = _CellModes(part.decay[c], key[1], half_dz)
        return cache[key]

    chosen = []
    for chain, part in zip(chains, parts):
        cells = [] if chain.single_excited else [modes(part, c) for c in range(len(chain.cells))]
        chosen.append(cells if cells and all(m.cond <= MODAL_COND_LIMIT for m in cells)
                      else None)
    return chosen


class _ModalBlock:
    """The modal chains of a window stepped together in their cells'
    eigen-coordinates a = V^-1 y (see the module docstring).

    The chains' cells lie end to end on one row axis, (rows, ...), chain j on
    rows offsets[j]:offsets[j + 1], the chains in order of size as
    :func:`_simulate_batch` passes them.  The stage drives u_s are four per-row
    scalars: the inflow drive d_s plus i G S(1) of stage s.  Stage s's S(1)
    is m_s + sum_{r<s} Q_sr u_r, with m = R a (R's rows psi p_s(h lam)) and Q
    fixed per cell, so over the four stages of a chain's cells u = L d + K m,
    with L = (I - G Q)^-1 and K = L G per chain, kept for each run of
    consecutive multi-cell chains of one size, (chains, 4 cells, 4 cells).
    A one-cell chain has no G: u = d.  The step is then a <- a + (P(h lam) -
    1) a + W u.  Every product is one per row or per chain, so a chain's
    numbers do not depend on the chains beside it.
    """

    def __init__(self, parts, pulses, heat, h: float, stages: np.ndarray, modes):
        self.parts, self.pulses, self.heat, self.stages = parts, pulses, heat, stages
        cells = [m for chain in modes for m in chain]
        self.offsets = np.cumsum([0] + [len(chain) for chain in modes])
        # the coupled rows, with their V and V^-1 columns 0 and symbols
        # stacked so that one FFT pair maps every one of them
        self.coupled = np.array([m.absorb != 0.0 for m in cells])
        rows = [m for m in cells if m.absorb != 0.0]
        self.columns = self.symbols = None
        if rows:
            self.columns = [np.stack([m.columns[k] for m in rows]) for k in (0, 1)]
            self.symbols = [np.stack([m.symbols[k] for m in rows]) for k in (0, 1)]

        def per_row(name):
            return np.stack([getattr(m, name) for m in cells])

        z = h * per_row("lam")
        psi, beta = per_row("psi"), per_row("beta")
        z2 = z * z
        ones = np.ones_like(z)
        p4 = 1.0 + z + z2 / 2.0 + z2 * z / 4.0
        # P(h lam) - 1: a + (P - 1) a rounds the step, not P, so no rounding
        # of P compounds over the steps
        self.P1 = z * (1.0 + z / 2.0 + z2 / 6.0 + z2 * z / 24.0)
        # rows s: S(1) of stage s's part in a, and the weight of u_s in the step
        self.R = psi[:, None, :] * np.stack([ones, 1.0 + z / 2.0, 1.0 + z / 2.0 + z2 / 4.0, p4],
                                            axis=-2)
        self.W = (h / 6.0) * beta[:, None, :] * np.stack(
            [p4, 2.0 + z + z2 / 2.0, 2.0 + z, ones], axis=-2)
        qb, qzb, qzzb = (np.sum(psi * zk * beta, axis=-1) for zk in (ones, z, z2))
        # (first row, past last row, L, K) of each run of multi-cell chains of one size
        self.runs, end = [], 0
        for n, run in itertools.groupby(len(chain) for chain in modes):
            start, end = end, end + len(list(run))
            if n == 1:
                continue
            g, lo, hi = end - start, self.offsets[start], self.offsets[end]
            Q = np.zeros((g, n, 4, 4), dtype=complex)
            b, zb, zzb = (q[lo:hi].reshape(g, n) for q in (qb, qzb, qzzb))
            Q[..., 1, 0], Q[..., 2, 1] = h / 2.0 * b, h / 2.0 * b
            Q[..., 2, 0], Q[..., 3, 1] = h / 4.0 * zb, h / 2.0 * zb
            Q[..., 3, 0], Q[..., 3, 2] = h / 4.0 * zzb, h * b
            G = np.einsum("gcd,sr->gcsdr", np.stack([part.iG for part in parts[start:end]]),
                          np.eye(4)).reshape(g, 4 * n, 4 * n)
            Q = np.einsum("gcsr,cd->gcsdr", Q, np.eye(n)).reshape(g, 4 * n, 4 * n)
            L = np.linalg.inv(np.eye(4 * n) - G @ Q)
            self.runs.append((lo, hi, L, L @ G))

    def map(self, y: np.ndarray, inverse: bool) -> np.ndarray:
        """V y (V^-1 y if ``inverse``) on each row of ``y`` (rows, nz), one FFT
        pair for all the coupled rows; uncoupled rows are copied."""
        out = y.copy()
        if self.symbols is not None:
            out[self.coupled] = _modal_map(y[self.coupled], self.columns[inverse],
                                           self.symbols[inverse])
        return out

    def spins(self, states: np.ndarray) -> np.ndarray:
        """The heat chain's spins y = V a, (samples, cells, nz), from its modal
        states ``states``, mapped in place by one FFT pair for all of them."""
        lo, hi = self.offsets[self.heat], self.offsets[self.heat + 1]
        mine = self.coupled[lo:hi]
        rows = slice(np.sum(self.coupled[:lo]), np.sum(self.coupled[:hi]))
        if mine.all():
            _modal_map(states, self.columns[0][rows], self.symbols[0][rows], out=states)
        elif mine.any():
            states[:, mine] = _modal_map(states[:, mine], self.columns[0][rows],
                                         self.symbols[0][rows])
        return states

    def drives(self, start: int, stop: int) -> np.ndarray:
        """The drives for the RK4 steps start ... stop - 1, (steps, rows, 4):
        the inflow drives at each step's four stages (zero in an undriven
        window), mapped through L on the rows of multi-cell chains."""
        d = rk4_stages(_stage_table(self.parts, self.pulses, self.stages, start, stop)[0])
        d = np.ascontiguousarray(d.transpose(2, 1, 0))
        for lo, hi, L, _ in self.runs:
            d[:, lo:hi] = (L @ d[:, lo:hi].reshape(stop - start, len(L), -1, 1)).reshape(
                stop - start, hi - lo, 4)
        return d

    def run(self, spins: np.ndarray, nt: int, stride: int, record):
        """Step ``spins`` (rows, nz) through ``nt`` steps; returns the S(1)
        series (rows, nt + 1) and the final spins.  If the block holds the
        heat chain, ``record(steps, y)`` gets after each block of steps its
        spins y (samples, cells, nz) before every ``stride``-th step."""
        a = self.map(spins, True)
        if self.symbols is not None:  # V^-1 serves only that entry map
            self.columns[1] = self.symbols[1] = None
        if self.heat is not None:  # the heat chain's states sampled in a block of steps
            heat = slice(self.offsets[self.heat], self.offsets[self.heat + 1])
            taken = np.empty((-(-MODAL_BLOCK // stride), heat.stop - heat.start, a.shape[1]),
                             dtype=complex)
        s1 = np.empty((a.shape[0], nt + 1), dtype=complex)
        for start in range(0, nt, MODAL_BLOCK):
            stop = min(start + MODAL_BLOCK, nt)
            table = self.drives(start, stop)
            steps = np.arange(-start % stride, stop - start, stride) + start
            for i in range(start, stop):
                m = (self.R @ a[..., None])[..., 0]
                s1[:, i] = m[:, 0]
                if i % stride == 0 and self.heat is not None:
                    taken[(i - start) // stride] = a[heat]
                step = self.P1 * a
                u = table[i - start]  # this step's row of the table, read only here
                for lo, hi, _, K in self.runs:
                    u[lo:hi] += (K @ m[lo:hi].reshape(len(K), -1, 1)).reshape(-1, 4)
                step += (u.reshape(-1, 1, 4) @ self.W)[:, 0, :]
                a = a + step
            if self.heat is not None and steps.size:
                record(steps, self.spins(taken[:steps.size]))
        s1[:, nt] = (self.R @ a[..., None])[:, 0, 0]
        return s1, self.map(a, False)


class _RealSpaceBlock:
    """Chains of one size and kind integrated together in real space through one
    window, arrays (chains, cells, ...), by a sweep over their (cell, z) points
    in causal order, RK4_BLOCK steps at a time.

    The cumulative trapezoid makes point j of cell c depend only on the points
    before it and on the S(1) of the cells upstream: with acc_j = P_j + w_j y_j
    (w_0 = 0, else half_dz) and P_{j+1} = acc_j + half_dz y_j,

        dy_j/dt = (decay_j + rate - absorb w_j) y_j + (d_c + (i G S(1))_c - absorb P_j),

    a scalar linear ODE once the stage states of those points are known, which
    :func:`memspin.core.rk4_linear` steps and whose stage states it returns.
    The drives, and a single-excited chain's rate and absorption, are
    tabulated on each block's stage times.  The chains' decay, absorption
    and i G are stacked on a leading axis; a single-excited chain
    (:class:`_Eq5Operator`) has no static absorption and no G."""

    def __init__(self, parts, pulses, heat, h: float, stages: np.ndarray):
        self.parts, self.pulses, self.heat, self.h, self.stages = parts, pulses, heat, h, stages
        self.half_dz, self.decay = parts[0].half_dz, np.stack([part.decay for part in parts])
        self.absorb = None if parts[0].absorb is None else np.stack([part.absorb for part in parts])
        self.iG = None if parts[0].iG is None else np.stack([part.iG for part in parts])

    def coefficients(self, start: int, stop: int):
        """At the stages of steps start ... stop - 1: the drive (4, chains,
        cells, steps); the absorption (4, chains, cells, steps or 1),
        tabulated for single-excited chains and constant for others; and
        what rate and absorption add to a point's decay at each step's start,
        midpoint and end, at z = 0 and beyond it, (3, chains, cells, steps or 1)."""
        table = _stage_table(self.parts, self.pulses, self.stages, start, stop)
        table = table.reshape(len(table), len(self.parts), -1, table.shape[-1])
        if self.absorb is None:
            rate, absorb = rk4_stages(table[1])[[0, 1, 3]], rk4_stages(table[2])
        else:
            rate = np.zeros((3,) + self.absorb.shape)
            absorb = self.absorb[None].repeat(4, axis=0)
        return rk4_stages(table[0]), absorb, rate, rate - self.half_dz * absorb[[0, 1, 3]]

    def run(self, spins: np.ndarray, nt: int, stride: int, record):
        """As :meth:`_ModalBlock.run`, on spins (chains, cells, nz) and S(1)
        series (chains, cells, nt + 1); ``record`` is called after each
        RK4_BLOCK of steps."""
        hd, heat = self.half_dz, self.heat
        g, n, nz = spins.shape
        y = spins.copy()
        s1 = np.empty((g, n, nt + 1), dtype=complex)
        for start in range(0, nt, RK4_BLOCK):
            stop = min(start + RK4_BLOCK, nt)
            drive, absorb, first, rest = self.coefficients(start, stop)
            samples = np.arange(-start % stride, stop - start, stride)
            if heat is not None:
                rows = np.empty((samples.size, n, nz), dtype=complex)
            ends = np.empty((4, g, n, stop - start), dtype=complex)  # S(1) at the stages
            for c in range(n):
                d = drive[:, :, c]
                if self.iG is not None and c > 0:
                    d = d + np.einsum("gu,sgut->sgt", self.iG[:, c, :c], ends[:, :, :c])
                d, ab = np.ascontiguousarray(d), np.ascontiguousarray(absorb[:, :, c])
                decay, rates = self.decay[:, c, :, None], (first[:, :, c], rest[:, :, c])
                for j in range(nz):
                    grid, states = rk4_linear(decay[:, j] + rates[j > 0], d - ab * p if j else d,
                                              self.h, y[:, c, j], stages=True)
                    y[:, c, j] = grid[:, -1]
                    if heat is not None:
                        rows[:, c, j] = grid[heat, samples]
                    if j == 0:
                        p = hd * states
                    elif j < nz - 1:
                        states *= 2.0 * hd
                        p += states
                    else:
                        ends[:, :, c] = p + hd * states
                    del grid, states  # freed before the next point allocates its own
            s1[..., start:stop] = ends[0]
            if heat is not None and samples.size:
                record(start + samples, rows)
        s1[..., nt] = _cumtrapz(y, hd)[..., -1]
        return s1, y


def window_operators(chains, grid: Grid):
    """Check a batch of chains and build its operators, per window each
    chain's own.  The step-size guards (the rate, the eq5 beat) run here, so
    this validates a batch without integrating it."""
    if len({chain.schedule.n_windows for chain in chains}) != 1:
        raise ValidationError("the chains of a batch must cover the same windows")
    for chain in chains:
        if len(chain.cells) != chain.schedule.n_cells:
            raise ValidationError(f"{len(chain.cells)} cells supplied for a schedule with "
                                  f"{chain.schedule.n_cells} rows")
        chain.schedule.check_causality()
    return [[(_Eq5Operator if chain.single_excited else _ChainOperator)(
        chain.cells, chain.schedule, w, chain.spectrum, grid, chain.options)
        for chain in chains] for w in range(chains[0].schedule.n_windows)]


def simulate_network(cells, schedule: Schedule, inputs, grid: Grid, spectrum: ModeSpectrum,
                     options: SimOptions = SimOptions(), heatmap: bool = False) -> NetworkResult:
    """Run a schedule over a chain of cells, from zero spin, with heatmaps if ``heatmap``.

    Parameters
    ----------
    cells:
        Ordered list of :class:`MemoryCell`, upstream first.
    inputs:
        Mapping window index -> pulse callable.  A pulse takes an array of
        window-local times and returns the inflow amplitudes at each,
        (*times.shape, n_modes), as :class:`GaussianPulse` does.
    """
    (result,) = _simulate_batch([Chain(cells, schedule, spectrum, inputs, options)], grid,
                                0 if heatmap else None)
    return result


def _simulate_batch(chains, grid: Grid, heat: int | None = None) -> list[NetworkResult]:
    """Run a batch of :class:`Chain` in one integration; one result per chain.

    Each chain keeps its own spins (cells, nz).  Per window, every chain
    that takes the modal step (:func:`_window_modes`) runs in one
    :class:`_ModalBlock`, and the others in one :class:`_RealSpaceBlock`
    per kind and size; a block records its chains' S(1) per grid time, from
    which each chain's outflow and input power follow.  The chain of batch
    index ``heat``, if given, also records its heatmaps, a block of steps'
    samples at a time.
    """
    if heat is not None and not 0 <= heat < len(chains):
        raise ValidationError(f"heatmap index {heat} outside a batch of {len(chains)} chains")
    windows = window_operators(chains, grid)
    _warn_on_margins(chains)
    sig = [np.zeros((len(chain.cells), grid.nz), complex) for chain in chains]
    times = grid.times
    stages = stage_times(times)
    stride = max(1, grid.nt // 200)
    outputs = [[] for _ in chains]  # (n_modes, nt + 1) per window
    energies = [[] for _ in chains]
    # heatmap rows: every stride-th grid time of every window
    samples = len(range(0, grid.nt, stride))
    heat_t = (np.arange(len(windows))[:, None] * grid.window
              + times[:grid.nt:stride]).reshape(-1)
    if heat is not None:
        heat_field, heat_spin = (np.empty((heat_t.size, len(chains[heat].cells) * grid.nz))
                                 for _ in range(2))

    for w, parts in enumerate(windows):
        pulses = [chain.inputs.get(w) for chain in chains]

        def record(steps, spins):
            rows, part = w * samples + steps // stride, parts[heat]
            heat_field[rows] = part.field_norms(part.inflow(times[steps], pulses[heat]),
                                                _cumtrapz(spins, part.half_dz))
            heat_spin[rows] = np.abs(spins).reshape(len(steps), -1)

        modes = _window_modes(chains, parts, 0.5 / (grid.nz - 1))
        # every modal chain in one block, in order of size (key None); the
        # real-space chains in one block per kind and size
        groups = {}
        for c in sorted(range(len(chains)), key=lambda c: len(chains[c].cells)):
            key = (None if modes[c] is not None
                   else (chains[c].single_excited, len(chains[c].cells)))
            groups.setdefault(key, []).append(c)
        blocks = []
        for key, members in groups.items():
            args = ([parts[c] for c in members], [pulses[c] for c in members],
                    members.index(heat) if heat in members else None, grid.dt, stages)
            blocks.append((members, _ModalBlock(*args, [modes[c] for c in members])
                           if key is None else _RealSpaceBlock(*args)))
        del modes  # the blocks hold their own copies of what they use
        s1 = [None] * len(chains)  # S(1) series, (cells, nt + 1) per chain
        while blocks:
            members, block = blocks.pop(0)  # each block is freed once it has run
            cuts = np.cumsum([len(chains[c].cells) for c in members])
            spins = np.concatenate([sig[c] for c in members])  # (rows, nz)
            if isinstance(block, _RealSpaceBlock):
                spins = spins.reshape(len(members), -1, grid.nz)
            series, final = (x.reshape(cuts[-1], -1)
                             for x in block.run(spins, grid.nt, stride, record))
            for c, chain_s1, y in zip(members, np.split(series, cuts[:-1]),
                                      np.split(final, cuts[:-1])):
                s1[c], sig[c] = chain_s1, y
            del block
        _check_finite(s1, sig, w, times)
        # series run along a contiguous last axis, so the energy sums are pairwise
        for c, (part, pulse) in enumerate(zip(parts, pulses)):
            e = part.inflow(times, pulse)
            out = part.outflow(np.moveaxis(e, 0, -1), s1[c])
            outputs[c].append(out)
            energies[c].append({
                "window": w,
                "input": float(np.trapezoid(np.sum(np.abs(e) ** 2, axis=-1), times)),
                "output": float(np.trapezoid(np.sum(np.abs(out) ** 2, axis=-2), times))})
        del s1  # freed before the next window allocates its own

    results = []
    for c, chain in enumerate(chains):
        out_windows = chain.schedule.output_windows()
        input_energy = sum(we["input"] for we in energies[c])
        output_energy = sum(energies[c][w]["output"] for w in out_windows)
        efficiency = output_energy / input_energy if input_energy > 0 else 0.0
        if efficiency > 1.0 + 1e-3:
            raise NumericalError(f"efficiency {efficiency:.4f} exceeds unity beyond tolerance")
        result = NetworkResult(
            outputs=[FieldState(envelopes=out, times=times.copy()) for out in outputs[c]],
            residual_spins=[SpinState(sigma=spin.copy(), z=grid.z, cell_id=cell.id)
                            for spin, cell in zip(sig[c], chain.cells)],
            efficiency=float(efficiency),
            overlap=None,
            input_energy=float(input_energy),
            window_energies=energies[c],
            output_windows=out_windows,
        )
        if c == heat:
            result.heatmap_field, result.heatmap_spin = heat_field.T, heat_spin.T
            result.heatmap_times = heat_t
        results.append(result)
    return results


def _check_finite(series, sig, window: int, times: np.ndarray):
    """Name the first grid time at which a chain's S(1) ``series`` (cells,
    times), which any non-finite spin reaches, is not finite; then check the
    chains' final spins ``sig``."""
    bad = ~np.isfinite(np.concatenate(series)).all(axis=0)
    if bad.any():
        n = int(np.argmax(bad))
        raise NumericalError(f"non-finite state in window {window} at t = {times[n]:g} us")
    if not np.isfinite(np.concatenate(sig)).all():
        raise NumericalError(f"non-finite spin state after window {window}")


def _margin_failure(chain: Chain) -> str | None:
    """The warning for the first coupling of ``chain`` that fails the validity
    margins, None if every coupling passes (as a single mode always does)."""
    for cell, row in zip(chain.cells, chain.schedule.entries):
        for entry in row:
            if entry.coupling is None or not np.any(entry.coupling.amplitudes):
                continue
            report = margin_report(chain.spectrum, entry.coupling, cell.atoms,
                                   threshold=chain.options.margin_threshold)
            if not (report.pass7 and report.pass9):
                return (f"cell '{cell.id}': validity margins below threshold "
                        f"(margin7 = {report.margin7:.3g}, margin9 = {report.margin9:.3g})")
    return None


def _warn_on_margins(chains) -> None:
    """Warn once for each distinct failing coupling of a batch, the first of
    each chain, so a network and its probes or eq5 twin share one warning.
    Probes share their network's cells, schedule and spectrum: checked once."""
    distinct = {(id(chain.cells), id(chain.schedule), id(chain.spectrum),
                 chain.options.margin_threshold): chain for chain in chains}
    failures = dict.fromkeys(filter(None, map(_margin_failure, distinct.values())))
    # attributed to the first frame outside this module, whatever the entry point
    frame, level = sys._getframe(), 1
    while frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    for message in failures:
        warnings.warn(message, RuntimeWarning, stacklevel=level)


def echo_center(schedule: Schedule, grid: Grid, pulse_center: float) -> tuple[int, float]:
    """Predict (window, window-local time) of the gradient-echo re-emission.

    Tracks the signed dephasing accumulated from the centre of a pulse stored
    in window 0 onwards and finds where it returns to zero.  Requires uniform
    gradient signs across cells within each window.
    """
    signs = []
    for w in range(schedule.n_windows):
        col = {row[w].gradient_sign for row in schedule.entries}
        if len(col) != 1:
            raise ValidationError("echo prediction requires uniform gradient signs per window")
        signs.append(col.pop())
    acc = signs[0] * (grid.window - pulse_center)
    for w in range(1, schedule.n_windows):
        s = signs[w]
        if s != 0 and 0.0 <= -acc / s <= grid.window:
            return w, -acc / s
        acc += s * grid.window
    raise ValidationError("no rephasing point inside the scheduled windows")


def overlap(result: NetworkResult, ideal: list[FieldState]) -> float:
    """Global-phase-insensitive overlap of the output windows against an ideal,
    |<out, ideal>|^2 over both energies, so no scale of either moves it."""
    outputs = [result.outputs[w] for w in result.output_windows]
    if len(outputs) != len(ideal):
        raise ValidationError("outputs and ideal must cover the same windows")
    e_out = sum(o.energy() for o in outputs)
    e_ideal = sum(i.energy() for i in ideal)
    if e_ideal <= 0:
        raise NumericalError("ideal output has zero energy")
    inner = 0.0 + 0.0j
    for o, i in zip(outputs, ideal):
        if o.envelopes.shape != i.envelopes.shape:
            raise ValidationError("output/ideal grids do not match")
        inner += np.trapezoid(
            np.sum(o.envelopes * np.conj(i.envelopes), axis=0), o.times)
    return float(abs(inner) ** 2 / (e_out * e_ideal)) if e_out > 0 else 0.0


def reference_echo(cells, schedule: Schedule, spectrum: ModeSpectrum, pulse: GaussianPulse,
                   options: SimOptions = SimOptions()) -> Chain:
    """The chain of the single-cell reference echo, to ride in any batch: the
    first cell, coupled at the weight of the schedule's first store, stores a
    unit one-mode pulse, recalls it and holds for the remaining windows.

    Every memory in a compiled chain emits this same shape (its pattern is
    dark for all downstream cells), so its recalled field (:func:`echo_mode`)
    is the ideal temporal mode for overlap and transfer extraction.
    """
    first_store = next(
        (row[w].coupling for row in schedule.entries
         for w in range(schedule.n_windows) if row[w].event == "store"), None)
    if first_store is None:
        raise ValidationError("schedule contains no store event")
    d = spectrum.mean_detuning
    cv = CouplingVector(np.array([float(np.linalg.norm(first_store.amplitudes
                                                       / spectrum.detunings)) * d]))
    row = (ScheduleEntry("store", cv, 1), ScheduleEntry("recall", cv, -1),
           *[ScheduleEntry("hold")] * (schedule.n_windows - 2))
    return Chain([cells[0]], Schedule(entries=(row,)),
                 ModeSpectrum(mean_detuning=d, detunings=np.array([d])),
                 {0: GaussianPulse(fwhm=pulse.fwhm, center=pulse.center,
                                   mode_amplitudes=np.array([1.0]))}, options)


def echo_mode(result: NetworkResult) -> FieldState:
    """The recalled field of a :func:`reference_echo` run, scaled to unit energy."""
    out = result.outputs[result.output_windows[0]]
    scale = 1.0 / math.sqrt(out.energy())
    return FieldState(envelopes=out.envelopes * scale, times=out.times.copy())


def ideal_output(transfer_matrix: np.ndarray, input_amplitudes: np.ndarray,
                 temporal_mode: FieldState) -> list[FieldState]:
    """Ideal per-mode output envelopes for one output window: the amplitudes
    T u in ``temporal_mode``.  Given a unit-energy mode they carry energy
    |T u|^2; they need no scale to the input energy, since :func:`overlap`
    divides by the energy of the ideal.
    """
    amps = np.asarray(transfer_matrix, dtype=complex) @ np.asarray(input_amplitudes,
                                                                   dtype=complex)
    return [FieldState(envelopes=amps[:, None] * temporal_mode.envelopes[0][None, :],
                       times=temporal_mode.times.copy())]


def _basis_probe(cells, schedule: Schedule, grid: Grid, spectrum: ModeSpectrum,
                 options: SimOptions, pulse: GaussianPulse) -> list[Chain]:
    """The chains of the N basis probes, probe j fed ``pulse`` with unit
    weight on mode j only, in mode order.  Fails unless the gradient echo
    lands inside the scheduled windows, where the extraction reads it."""
    echo_center(schedule, grid, pulse.center)
    return [Chain(cells, schedule, spectrum, {0: replace(pulse, mode_amplitudes=weights)},
                  options) for weights in np.eye(spectrum.n_modes)]


def transfer_from_probes(probes: list[NetworkResult], temporal_mode: FieldState,
                         schedule: Schedule, grid: Grid, pulse: GaussianPulse) -> np.ndarray:
    """The mode-transfer matrix from the basis probe runs of ``schedule``.

    Entry (k, j) is the complex overlap of output mode k in the echo window
    against the unit-energy ``temporal_mode`` when only input mode j is fed,
    over the root of probe j's ``input_energy``, which its efficiency divides
    by: |entry|^2 is the mode-to-mode energy efficiency.
    """
    window, _ = echo_center(schedule, grid, pulse.center)
    psi = np.conj(temporal_mode.envelopes[0])
    columns = [np.trapezoid(res.outputs[window].envelopes * psi, res.outputs[window].times,
                            axis=1) / math.sqrt(res.input_energy) for res in probes]
    return np.stack(columns, axis=1)


def extract_transfer_matrix(cells, schedule: Schedule, grid: Grid,
                            spectrum: ModeSpectrum, pulse: GaussianPulse,
                            options: SimOptions = SimOptions()) -> np.ndarray:
    """Realised mode-transfer matrix (:func:`transfer_from_probes`) against the
    reference echo; the N basis probes and the echo run as one integration."""
    *probes, echo = _simulate_batch(
        _basis_probe(cells, schedule, grid, spectrum, options, pulse)
        + [reference_echo(cells, schedule, spectrum, pulse, options)], grid)
    return transfer_from_probes(probes, echo_mode(echo), schedule, grid, pulse)


def eq5_chains(cell: MemoryCell, entries, pulse: GaussianPulse, spectra,
               options: SimOptions = SimOptions()) -> list[Chain]:
    """Both models of every eq5 case: the multi-transition chains of the cases,
    then their single-excited chains."""
    if len(spectra) != len(entries):
        raise ValidationError("one spectrum needed for every case")
    return [Chain([cell], Schedule(entries=(tuple(row),)), spectrum, {0: pulse}, options,
                  single_excited=single)
            for single in (False, True) for row, spectrum in zip(entries, spectra)]


def simulate_eq5(cell: MemoryCell, entries, pulse, grid: Grid, spectra,
                 options: SimOptions = SimOptions()):
    """Single-excited-state dynamics with the full oscillatory coupling
    (:class:`_Eq5Operator`), all cases in one integration.  Returns (per case,
    the composite single-row FieldState per window; per case, the final SpinState).
    """
    runs = _simulate_batch(eq5_chains(cell, entries, pulse, spectra, options)[len(entries):],
                           grid)
    return [run.outputs for run in runs], [run.residual_spins[0] for run in runs]


def eq5_deviation(cell: MemoryCell, entries, pulse: GaussianPulse, grid: Grid, spectra,
                  options: SimOptions = SimOptions()):
    """Single-excited-state model against the multi-transition model, per case.

    Each case runs the cell through its ``entries`` (store, recall) under its
    spectrum in both models, all in one integration.  The single-excited
    efficiency is the recalled energy over that of the composite input
    sum_k E_k(t) exp(i (D_k - D) t), which carries the beats.  Returns, per
    case, (eff_multi, eff_single, |eff_single - eff_multi| / eff_multi).
    """
    runs = _simulate_batch(eq5_chains(cell, entries, pulse, spectra, options), grid)
    return [(multi.efficiency, single.efficiency,
             abs(single.efficiency - multi.efficiency) / multi.efficiency)
            for multi, single in zip(runs[:len(entries)], runs[len(entries):])]


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
    zero = x.view(np.uint64) == 0  # +0.0 alone
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(x))
        ok = np.abs(e) < 100  # false for zeros, negatives, NaN and inf
        e = e.astype(np.intp)  # set to 0 below where not ok
    e[~ok] = 0
    xs = np.where(ok, x, 1.0)
    scaled = xs * _SCALE[e + 100]
    mantissa = np.rint(scaled)
    certain = np.abs(scaled - mantissa) < 0.5 - 1e-5
    # a decade one off from log10's rounding, or a mantissa rounded up to 1e9
    fix = np.flatnonzero((scaled < 1e8) | (mantissa >= 1e9))
    if fix.size:
        s = scaled[fix]
        k = e[fix] + (s >= 1e9) - (s < 1e8)
        s = xs[fix] * _SCALE[k + 100]
        m = np.rint(s)
        certain[fix] = np.abs(s - m) < 0.5 - 1e-5
        carry = m >= 1e9
        m[carry] = 1e8
        k += carry
        ok[fix] &= np.abs(k) < 100
        e[fix], mantissa[fix] = k, m
    exact = zero | (ok & certain)
    # the digits "d." + 4 + 4, split by int32 floor division (no divmod)
    digits = mantissa.astype(np.int32)
    top = digits // 10_000
    low = digits - top * 10_000
    lead = top // 10_000
    high = top - lead * 10_000
    lead[zero] = 0
    e[~exact] = 0
    out = np.empty(x.size, dtype=_VALUE)
    out["lead"] = _LEAD[lead.astype(np.intp)]
    out["high"] = _DIGITS[high.astype(np.intp)]
    out["low"] = _DIGITS[low.astype(np.intp)]
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
