"""Unit conventions, mode algebra and validity-regime checks.

All rates and detunings are stored internally as angular frequencies in
rad/us.  Configuration files quote linear frequencies in MHz; the pair of
helpers :func:`angular_from_mhz` / :func:`mhz_from_angular` convert by 2*pi
so that a single convention holds everywhere downstream.

The light-atom coupling constant is fixed to g = 1 and the effective linear
atomic density to N = beta * Gamma / L (with L = 1), so the resonant optical
depth ``beta`` is the single depth parameter of the model.

The time integrators of :mod:`memspin.pde` and :mod:`memspin.analytic` share
the RK4 stepper :func:`rk4`, the error :class:`StepSizeError` and the beat
guard :func:`check_beat_resolution` defined here.  The stepper hands its
right-hand side a stage index, not a time: index k points into
:func:`stage_times`, the grid times interleaved with the step midpoints.  An
integrator whose coefficients are known functions of time tabulates them on
those stage times with :func:`stage_table`, vectorised over one block of
:data:`STAGE_BLOCK` stages at a time, and keeps only state arithmetic in
its right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

#: Default guard for the far-detuned requirement: max_k |D_k - D| <= guard * D.
FAR_DETUNED_GUARD = 0.2

#: Default pass threshold for the two validity-margin checks ("much greater
#: than" is read as a factor of at least this).
MARGIN_THRESHOLD = 10.0

#: Stage times tabulated per call of a :func:`stage_table` coefficient
#: function: small enough that the tables stay a few kB, large enough that
#: the vectorised call costs little per stage.
STAGE_BLOCK = 512


class MemspinError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MemspinError):
    """Invalid input data (bad shapes, non-physical parameters, schemas)."""


class DimensionMismatchError(ValidationError):
    """Vector/matrix sizes do not agree with the mode spectrum."""


class DegenerateCouplingError(MemspinError):
    """Operation undefined because the total coupling weight vanishes."""


class StepSizeError(MemspinError):
    """The requested time step cannot resolve the fastest dynamics."""


def angular_from_mhz(f_mhz):
    """Convert a linear frequency in MHz to an angular rate in rad/us."""
    return TWO_PI * np.asarray(f_mhz, dtype=float) if np.ndim(f_mhz) else TWO_PI * float(f_mhz)


def mhz_from_angular(w):
    """Convert an angular rate in rad/us back to a linear frequency in MHz."""
    return np.asarray(w, dtype=float) / TWO_PI if np.ndim(w) else float(w) / TWO_PI


@dataclass(frozen=True)
class ModeSpectrum:
    """The N signal-mode detunings about their mean.

    Parameters
    ----------
    mean_detuning:
        Mean one-photon detuning (rad/us), positive.
    detunings:
        The N individual detunings D_k (rad/us), all distinct and positive.
    guard:
        Far-detuned guard: construction fails if any |D_k - D| exceeds
        ``guard * mean_detuning``.
    """

    mean_detuning: float
    detunings: np.ndarray
    guard: float = FAR_DETUNED_GUARD

    def __post_init__(self):
        det = np.atleast_1d(np.asarray(self.detunings, dtype=float))
        object.__setattr__(self, "detunings", det)
        if det.size < 1:
            raise ValidationError("spectrum needs at least one mode")
        if np.any(det <= 0):
            raise ValidationError("all mode detunings must be positive")
        if len(np.unique(det)) != det.size:
            raise ValidationError("mode detunings must be distinct")
        if self.mean_detuning <= 0:
            raise ValidationError("mean detuning must be positive")
        spread = np.max(np.abs(det - self.mean_detuning))
        if spread > self.guard * self.mean_detuning:
            raise ValidationError(
                f"mode spread {spread:.3g} exceeds {self.guard:.2f} * mean detuning "
                f"{self.mean_detuning:.3g}; not in the far-detuned regime"
            )

    @property
    def n_modes(self) -> int:
        return int(self.detunings.size)

    @classmethod
    def equally_spaced(cls, mean_mhz: float, spacing_mhz: float, n_modes: int,
                       guard: float = FAR_DETUNED_GUARD) -> "ModeSpectrum":
        """Build N modes centred on ``mean_mhz`` with the given spacing (MHz)."""
        if n_modes < 1:
            raise ValidationError("n_modes must be >= 1")
        offsets = (np.arange(n_modes) - (n_modes - 1) / 2.0) * spacing_mhz
        return cls(
            mean_detuning=angular_from_mhz(mean_mhz),
            detunings=angular_from_mhz(mean_mhz + offsets),
            guard=guard,
        )

    def min_spacing(self) -> float:
        """Smallest pairwise separation |D_j - D_k| (rad/us); inf for N = 1."""
        if self.n_modes < 2:
            return math.inf
        det = np.sort(self.detunings)
        return float(np.min(np.diff(det)))


@dataclass(frozen=True)
class AtomicParams:
    """Atomic ensemble parameters in angular units (rad/us).

    ``beta`` is the resonant optical depth; the coupling density
    N = beta * Gamma / length is derived from it with g = 1.
    """

    Gamma: float
    gamma: float = 0.0
    delta: float = 0.0
    beta: float = 1.0
    length: float = 1.0

    def __post_init__(self):
        if self.Gamma <= 0:
            raise ValidationError("excited-state decay Gamma must be positive")
        if self.gamma < 0:
            raise ValidationError("spin dephasing gamma must be non-negative")
        if self.beta <= 0:
            raise ValidationError("optical depth beta must be positive")
        if self.length <= 0:
            raise ValidationError("length must be positive")

    @property
    def coupling_density(self) -> float:
        """Effective linear atomic density N = beta * Gamma / L (g = 1)."""
        return self.beta * self.Gamma / self.length


@dataclass(frozen=True)
class CouplingVector:
    """Per-mode complex coupling-field amplitudes (rad/us)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.atleast_1d(np.asarray(self.amplitudes, dtype=complex))
        object.__setattr__(self, "amplitudes", amp)
        if not np.all(np.isfinite(amp)):
            raise ValidationError("coupling amplitudes must be finite")

    def __len__(self) -> int:
        return int(self.amplitudes.size)


@dataclass(frozen=True)
class EffectiveRates:
    """Power-broadened dephasing and light-shifted two-photon detuning."""

    gamma_eff: float
    delta_eff: float


@dataclass(frozen=True)
class MarginReport:
    """Validity margins for the two spacing inequalities."""

    margin7: float
    margin9: float
    threshold: float = MARGIN_THRESHOLD
    pass7: bool = field(init=False)
    pass9: bool = field(init=False)

    def __post_init__(self):
        if self.margin7 < 0 or self.margin9 < 0:
            raise ValidationError("margins must be non-negative")
        object.__setattr__(self, "pass7", bool(self.margin7 >= self.threshold))
        object.__setattr__(self, "pass9", bool(self.margin9 >= self.threshold))


def _weights(coupling: CouplingVector, spectrum: ModeSpectrum) -> np.ndarray:
    if len(coupling) != spectrum.n_modes:
        raise DimensionMismatchError(
            f"coupling has {len(coupling)} entries for {spectrum.n_modes} modes"
        )
    return coupling.amplitudes / spectrum.detunings


def omega_tilde(coupling: CouplingVector, spectrum: ModeSpectrum) -> float:
    """Root-sum-square coupling weight sqrt(sum_k |W_k / D_k|^2)."""
    return float(np.linalg.norm(_weights(coupling, spectrum)))


def bright_mode_coefficients(coupling: CouplingVector, spectrum: ModeSpectrum) -> np.ndarray:
    """Unit vector w with w_k = (W_k* / D_k) / omega_tilde.

    The coupled ("bright") superposition of the signal modes is
    sum_k w_k E_k; the orthogonal complement propagates unimpeded.
    """
    ratios = np.conj(_weights(coupling, spectrum))
    norm = np.linalg.norm(ratios)
    if norm == 0.0:
        raise DegenerateCouplingError("all coupling weights vanish; bright mode undefined")
    return ratios / norm


def complete_bright_basis(w: np.ndarray) -> np.ndarray:
    """Complete a unit vector to a unitary matrix whose first row is ``w``.

    Uses a QR factorisation of [w*, e_i, ...] with the most-aligned basis
    column dropped, then fixes the first-row phase exactly.
    """
    w = np.asarray(w, dtype=complex).ravel()
    n = w.size
    norm = np.linalg.norm(w)
    if abs(norm - 1.0) > 1e-8:
        raise ValidationError(f"input must be a unit vector (norm {norm:.3g})")
    w = w / norm
    cols = np.zeros((n, n), dtype=complex)
    cols[:, 0] = np.conj(w)
    skip = int(np.argmax(np.abs(w)))
    j = 1
    for i in range(n):
        if i == skip:
            continue
        cols[i, j] = 1.0
        j += 1
    q, _ = np.linalg.qr(cols)
    u = q.conj().T
    # QR fixes q[:,0] = conj(w) only up to phase; rotate row 0 back onto w.
    phase = np.vdot(u[0], w)
    u[0] = u[0] * (phase / abs(phase))
    return u


def effective_rates(coupling: CouplingVector, spectrum: ModeSpectrum,
                    atoms: AtomicParams) -> EffectiveRates:
    """Power broadening and light shift induced by the coupling fields.

    gamma' = gamma + Gamma * sum_k (|W_k| / D_k)^2
    delta' = delta + sum_k |W_k|^2 / D_k
    """
    ratios = np.abs(_weights(coupling, spectrum))
    gamma_eff = atoms.gamma + atoms.Gamma * float(np.sum(ratios ** 2))
    delta_eff = atoms.delta + float(np.sum(np.abs(coupling.amplitudes) ** 2 / spectrum.detunings))
    return EffectiveRates(gamma_eff=gamma_eff, delta_eff=delta_eff)


def effective_optical_depth(atoms: AtomicParams, omega_tilde_value: float) -> float:
    """Two-photon-line optical depth beta_eff = beta * W~^2 * Gamma / gamma."""
    if atoms.gamma == 0.0:
        if omega_tilde_value == 0.0:
            return 0.0
        return math.inf
    return atoms.beta * omega_tilde_value ** 2 * atoms.Gamma / atoms.gamma


def dispersion_phase(atoms: AtomicParams, spectrum: ModeSpectrum, z: float) -> np.ndarray:
    """Per-mode envelope phase phi_k(z) = -beta * Gamma * z / D_k.

    ``z`` is the normalised position in [0, 1].  The spread
    max phi - min phi at z = 1 quantifies the mode-to-mode phase mismatch
    accumulated over one cell.
    """
    if not 0.0 <= z <= 1.0:
        raise ValidationError("z must lie in [0, 1]")
    return -atoms.beta * atoms.Gamma * z / spectrum.detunings


def dispersion_spread(atoms: AtomicParams, spectrum: ModeSpectrum) -> float:
    """Spread of the per-mode dispersion phases over a full cell (rad)."""
    phases = dispersion_phase(atoms, spectrum, 1.0)
    return float(np.max(phases) - np.min(phases))


def check_inequality_7(spectrum: ModeSpectrum, omega_tilde_value: float) -> float:
    """Margin of the mode-spacing bound against coupling-induced cross terms.

    margin = min_{j!=k} |D_j - D_k| / (D * W~^2 / sqrt(N)).
    Infinite for a single mode or vanishing coupling.
    """
    if spectrum.n_modes < 2 or omega_tilde_value == 0.0:
        return math.inf
    denom = spectrum.mean_detuning * omega_tilde_value ** 2 / math.sqrt(spectrum.n_modes)
    return spectrum.min_spacing() / denom


def check_inequality_9(spectrum: ModeSpectrum, rates: EffectiveRates,
                       n: int | None = None) -> float:
    """Margin of the mode spacing against the broadened memory linewidth.

    margin = min_{j!=k} |D_j - D_k| / (sqrt(N) * max(gamma', |delta'|)).
    Infinite when both effective rates vanish or for a single mode.
    """
    n_modes = spectrum.n_modes if n is None else int(n)
    if spectrum.n_modes < 2:
        return math.inf
    scale = max(rates.gamma_eff, abs(rates.delta_eff))
    if scale == 0.0:
        return math.inf
    return spectrum.min_spacing() / (math.sqrt(n_modes) * scale)


def margin_report(spectrum: ModeSpectrum, coupling: CouplingVector, atoms: AtomicParams,
                  threshold: float = MARGIN_THRESHOLD) -> MarginReport:
    """Evaluate both spacing inequalities for one coupling configuration."""
    ot = omega_tilde(coupling, spectrum)
    rates = effective_rates(coupling, spectrum, atoms)
    return MarginReport(
        margin7=check_inequality_7(spectrum, ot),
        margin9=check_inequality_9(spectrum, rates),
        threshold=threshold,
    )


def check_beat_resolution(spectrum: ModeSpectrum, step: float) -> None:
    """Reject a time step that samples the fastest mode beat too coarsely.

    Single-excited-state dynamics oscillate at the pairwise mode spacings,
    so the step must give the widest spacing at least 20 points per period.
    """
    if spectrum.n_modes < 2:
        return
    fastest = float(np.max(spectrum.detunings) - np.min(spectrum.detunings))
    limit = TWO_PI / (20.0 * fastest)
    if step > limit:
        raise StepSizeError(
            f"time step {step:.4g} does not resolve the fastest beat (need <= {limit:.4g})")


def beat_sum(amplitudes, beats, t, envelope=1.0) -> np.ndarray:
    """sum_k amplitudes_k * envelope * exp(i beats_k t) on the times ``t``.

    ``amplitudes`` is (n_modes,), or (t.size, n_modes) for weights that
    change with time; ``envelope`` is a scalar or one value per time.  The
    sum runs over the few modes, so no (times, modes) array is built.
    """
    total = np.zeros(np.shape(t), dtype=complex)
    for k, beat in enumerate(beats):
        total += (amplitudes[..., k] * envelope) * np.exp(1j * (beat * t))
    return total


def stage_times(times) -> np.ndarray:
    """The RK4 stage times of the grid ``times``: 2n - 1 points for n grid times.

    Entry 2i is grid time i and entry 2i + 1 the midpoint of step i, so the
    stages of step i sit at indices 2i, 2i + 1 (twice) and 2i + 2.  The grid
    may be non-uniform.
    """
    times = np.asarray(times, dtype=float)
    stages = np.empty(2 * times.size - 1)
    stages[0::2] = times
    stages[1::2] = times[:-1] + 0.5 * (times[1:] - times[:-1])
    return stages


def stage_table(fn, stages: np.ndarray):
    """Forward-only lookup of ``fn`` on ``stages``, tabulated a block at a time.

    ``fn(t)`` maps a 1-d array of stage times to an array whose first axis
    runs over them.  The returned ``row(k)`` gives entry k of that table; a
    call past the current block tabulates the next :data:`STAGE_BLOCK`
    stages from k on, so only one block is held at a time.  The index may
    repeat but must not move back before the current block, which is the
    access pattern of :func:`rk4`.
    """
    start, stop, rows = 0, 0, []

    def row(k):
        nonlocal start, stop, rows
        if not start <= k < stop:
            if k < start:
                raise ValueError(f"stage {k} lies before the current block at {start}")
            start, stop = k, min(k + STAGE_BLOCK, stages.size)
            rows = fn(stages[start:stop])
        return rows[k - start]

    return row


def rk4(rhs, y, times):
    """Classical RK4 over the grid ``times``.

    ``rhs(y, k)`` returns ``(dy/dt, observable)`` at stage index ``k``, which
    indexes :func:`stage_times` of the same grid: step i evaluates stages 2i,
    2i + 1 (twice) and 2i + 2, so the k4 stage reads the next grid time.
    Indices never decrease, so a right-hand side may read its coefficients
    from a :func:`stage_table`.  Yields ``(y, observable)`` at every grid
    time, the observable taken from the first-stage evaluation at that time;
    the last grid time costs one extra evaluation.
    """
    times = np.asarray(times, dtype=float)
    for i in range(times.size - 1):
        h = times.item(i + 1) - times.item(i)
        k1, observable = rhs(y, 2 * i)
        yield y, observable
        # later-stage observables are dropped at once, not kept through the next stage
        k2 = rhs(y + 0.5 * h * k1, 2 * i + 1)[0]
        k3 = rhs(y + 0.5 * h * k2, 2 * i + 1)[0]
        k4 = rhs(y + h * k3, 2 * i + 2)[0]
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    yield y, rhs(y, 2 * (times.size - 1))[1]
