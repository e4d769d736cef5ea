"""Unit conventions, mode algebra and validity-regime checks.

All rates and detunings are stored internally as angular frequencies in
rad/us.  Configuration files quote linear frequencies in MHz;
:func:`angular_from_mhz` converts them by 2*pi so that a single convention
holds everywhere downstream.

The light-atom coupling constant is fixed to g = 1 and the cell length to 1,
so the effective linear atomic density is N = beta * Gamma and the resonant
optical depth ``beta`` is the single depth parameter of the model.

The time integrators of :mod:`memspin.pde` and :mod:`memspin.analytic` share
the beat guard :func:`check_beat_resolution`, and a step too coarse raises
:class:`NumericalError`.  Their coefficients are tabulated on
:func:`stage_times`, the grid times interleaved with the step midpoints.
The real-space chains of :mod:`memspin.pde` and the oracle of
:mod:`memspin.analytic` step with :func:`rk4_linear`, the classical RK4 map
of a scalar linear ODE over a block of :data:`RK4_BLOCK` steps, formed for
all the steps at once and composed by running products; :func:`rk4_stages`
arranges tabulated values by stage, for them and for the modal chains of
:mod:`memspin.pde`, which step one at a time.
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

#: Steps per call of :func:`rk4_linear` in the time integrators.  Shorter
#: blocks pay more call overhead per step, and a block's arrays are what a
#: real-space sweep holds, a few hundred kB.  Longer ones risk underflow of the
#: running product of the step maps m: the pde step guard bounds -Re(a) of both
#: real-space kinds by dt * rate <= 0.5, where |m| >= 0.61 for real a (underflow
#: past about 1,400 steps) and >= 0.54 if |h Im(a)| <= 2 (above 1e-276 at 1,024).
#: Im(a) is unguarded and m vanishes near h a = -0.27 +- 2.50i, hence the check.
RK4_BLOCK = 1024


class MemspinError(Exception):
    """Base class of this package's errors; the CLI exits 2 unless NumericalError."""


class ValidationError(MemspinError):
    """The input is wrong (CLI exit 2): a bad config entry, shape or value, an
    inconsistent schedule, degenerate detunings or couplings, a drive on the
    resonance pole, a Fock state over its caps, or an unhandled herald pattern."""


class NumericalError(MemspinError):
    """The numbers cannot be trusted (CLI exit 3): a time step too coarse for
    the fastest rate or beat, a divergent integration, an overlap against a
    zero-energy ideal, a heralded run without exactly one success branch, or
    a derived nonlinear-sign gate that misses its constraints."""


def angular_from_mhz(f_mhz):
    """Convert a linear frequency in MHz to an angular rate in rad/us."""
    return TWO_PI * np.asarray(f_mhz, dtype=float) if np.ndim(f_mhz) else TWO_PI * float(f_mhz)


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
    N = beta * Gamma is derived from it with g = 1 over a unit length.
    """

    Gamma: float
    gamma: float = 0.0
    delta: float = 0.0
    beta: float = 1.0

    def __post_init__(self):
        if self.Gamma <= 0:
            raise ValidationError("excited-state decay Gamma must be positive")
        if self.gamma < 0:
            raise ValidationError("spin dephasing gamma must be non-negative")
        if self.beta <= 0:
            raise ValidationError("optical depth beta must be positive")

    @property
    def coupling_density(self) -> float:
        """Effective linear atomic density N = beta * Gamma (g = 1, L = 1)."""
        return self.beta * self.Gamma


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
        raise ValidationError(
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
        raise ValidationError("all coupling weights vanish; bright mode undefined")
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


def dispersion_phase(atoms: AtomicParams, spectrum: ModeSpectrum, z: float) -> np.ndarray:
    """Per-mode envelope phase phi_k(z) = -beta * Gamma * z / D_k.

    ``z`` is the normalised position in [0, 1].  The spread
    max phi - min phi at z = 1 quantifies the mode-to-mode phase mismatch
    accumulated over one cell.
    """
    if not 0.0 <= z <= 1.0:
        raise ValidationError("z must lie in [0, 1]")
    return -atoms.beta * atoms.Gamma * z / spectrum.detunings


def check_inequality_7(spectrum: ModeSpectrum, omega_tilde_value: float) -> float:
    """Margin of the mode-spacing bound against coupling-induced cross terms.

    margin = min_{j!=k} |D_j - D_k| / (D * W~^2 / sqrt(N)).
    Infinite for a single mode or vanishing coupling.
    """
    if spectrum.n_modes < 2 or omega_tilde_value == 0.0:
        return math.inf
    denom = spectrum.mean_detuning * omega_tilde_value ** 2 / math.sqrt(spectrum.n_modes)
    return spectrum.min_spacing() / denom


def check_inequality_9(spectrum: ModeSpectrum, rates: EffectiveRates) -> float:
    """Margin of the mode spacing against the broadened memory linewidth.

    margin = min_{j!=k} |D_j - D_k| / (sqrt(N) * max(gamma', |delta'|)).
    Infinite when both effective rates vanish or for a single mode.
    """
    if spectrum.n_modes < 2:
        return math.inf
    scale = max(rates.gamma_eff, abs(rates.delta_eff))
    if scale == 0.0:
        return math.inf
    return spectrum.min_spacing() / (math.sqrt(spectrum.n_modes) * scale)


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
        raise NumericalError(
            f"time step {step:.4g} does not resolve the fastest beat (need <= {limit:.4g})")


def beat_sum(amplitudes, beats, t, envelope=1.0) -> np.ndarray:
    """sum_k amplitudes_k * envelope * exp(i beats_k t) on the times ``t``.

    ``amplitudes`` holds one weight per mode; ``envelope`` is a scalar or one
    value per time.  The sum runs over the few modes, so no (times, modes)
    array is built.
    """
    total = np.zeros(np.shape(t), dtype=complex)
    for amplitude, beat in zip(amplitudes, beats):
        total += (amplitude * envelope) * np.exp(1j * (beat * t))
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


def rk4_stages(values) -> np.ndarray:
    """Values on the stage times of a block of steps, (..., 2 steps + 1) in the
    order of :func:`stage_times`, as the four RK4 stages of each step, (4, ...,
    steps): the step's start, its midpoint twice and its end."""
    return np.stack([values[..., :-2:2], values[..., 1::2], values[..., 1::2],
                     values[..., 2::2]])


def _affine_scan(m: np.ndarray, c: np.ndarray, y0) -> np.ndarray:
    """y_0 = ``y0`` (...) and y_{n+1} = m_n y_n + c_n along the last axis of
    ``m`` and ``c`` (..., steps), (..., steps + 1), by the running products P_n
    = m_0 ... m_n, y_{n+1} = P_n (y0 + sum_{k <= n} c_k / P_k), overwriting
    ``m`` and ``c``.  A |P_n| not a finite normal float raises NumericalError."""
    c[..., 0] += m[..., 0] * y0  # y0 enters through the first map: c_0 / P_0 + y0
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        p = np.multiply.accumulate(m, axis=-1, out=m)
    size, tiny = np.abs(p), np.finfo(float).tiny
    # NaN fails the comparison, and a product once not finite stays so to the end
    if not (size.min() >= tiny and np.isfinite(p[..., -1]).all()):
        ok = ((size >= tiny) & np.isfinite(size)).reshape(-1, size.shape[-1])
        raise NumericalError(f"RK4 step {np.argmin(ok.all(axis=0))} of a block: the running "
                             "product of the step maps leaves the normal float range; "
                             "the step is too coarse for the rates")
    y = np.empty(c.shape[:-1] + (c.shape[-1] + 1,), dtype=c.dtype)
    y[..., 0] = y0
    np.add.accumulate(np.divide(c, p, out=c), axis=-1, out=y[..., 1:])
    y[..., 1:] *= p
    return y


def rk4_linear(a, b, h, y0, stages: bool = False):
    """Classical RK4 on the scalar linear ODE dy/dt = a(t) y + b(t), over a
    block of steps from the carried value ``y0`` (...).

    ``a`` (3, ..., steps) holds a at each step's start, midpoint and end; its
    step axis may have size 1 where a is constant.  ``b`` (4, ..., steps)
    holds b at the four stages, whose middle two differ where b depends on
    other states taken at their own stages.  ``h`` is the step, a scalar or
    one per step.  With the stage states Y_s = p_s y_n + q_s, a step is the
    affine map y_{n+1} = m_n y_n + c_n; the maps of all the steps are formed
    at once and composed by :func:`_affine_scan`; a running product m_0 ...
    m_n that underflows, as on steps far too coarse for the decay rate, or is
    not finite raises NumericalError.

    Returns the grid values (..., steps + 1), ``y0`` first, and with
    ``stages`` also the stage states Y_1 = y_n, Y_2, Y_3, Y_4, (4, ..., steps).
    """
    a1, a2, a4 = a
    b1, b2, b3, b4 = b
    half = 0.5 * h
    p2, q2 = 1.0 + half * a1, half * b1
    k2 = a2 * q2 + b2  # the part of stage 2's slope that is not proportional to y_n
    p3, q3 = 1.0 + half * (a2 * p2), half * k2
    k3 = a2 * q3 + b3
    p4, q4 = 1.0 + h * (a2 * p3), h * k3
    c = (h / 6.0) * (b1 + 2.0 * (k2 + k3) + a4 * q4 + b4)
    m = np.empty_like(c)
    np.add(1.0, (h / 6.0) * (a1 + 2.0 * a2 * (p2 + p3) + a4 * p4), out=m)  # broadcast over c
    y = _affine_scan(m, c, y0)
    if not stages:
        return y
    states = np.empty((4,) + c.shape, dtype=c.dtype)
    states[0] = y[..., :-1]
    for s, (p, q) in enumerate(((p2, q2), (p3, q3), (p4, q4)), 1):
        np.multiply(p, states[0], out=states[s])
        states[s] += q
    return y, states
