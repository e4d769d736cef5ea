"""Closed-form spin dynamics for multiple Raman transitions on one excited state.

With every transition detuned about a single excited state at the mean
detuning D, the undriven spin obeys a scalar linear ODE whose coefficient
oscillates at the pairwise mode spacings d_kj = D_k - D_j:

    ds/dt = -(gamma + i delta + (Gamma + i D) |W(t)|^2 / D^2) s,
    W(t)  = sum_k W_k exp(i (D_k - D) t).

This module provides the exact quadrature of that equation as a product
over ordered mode pairs, its first-order expansion in the small parameter
W_k W_j* / (D d_kj), the steady response to constant probe envelopes, and a
brute-force RK4 oracle of the same equation used to validate all of them.

Conventions: the static part of |W(t)|^2 defines the effective rates

    gamma' = gamma + Gamma * sum_k |W_k|^2 / D^2
    delta' = delta + sum_k |W_k|^2 / D

(the rates of :func:`memspin.core.effective_rates` with every D_k set to
the shared excited-state detuning D).  The integration constant ``alpha``
multiplies the oscillatory product as a whole, so s(0) = alpha * P(0) with
P the pair product, not alpha itself.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    AtomicParams,
    CouplingVector,
    EffectiveRates,
    MemspinError,
    ModeSpectrum,
    StepSizeError,  # noqa: F401  (re-exported: the oracle raises it)
    ValidationError,
    beat_sum,
    check_beat_resolution,
    rk4,
    stage_table,
    stage_times,
)


class SingularityError(MemspinError):
    """Degenerate mode detunings make the pair product singular."""


class ResonancePoleError(MemspinError):
    """A driving term sits exactly on the broadened resonance pole."""


@dataclass(frozen=True)
class AnalyticSpinSolution:
    """Parameter bundle for the closed-form spin solutions."""

    alpha: complex
    rates: EffectiveRates
    spectrum: ModeSpectrum
    coupling: CouplingVector
    atoms: AtomicParams

    @classmethod
    def from_params(cls, atoms: AtomicParams, coupling: CouplingVector,
                    spectrum: ModeSpectrum, alpha: complex = 1.0) -> "AnalyticSpinSolution":
        if len(coupling) != spectrum.n_modes:
            raise ValidationError("coupling length must match the spectrum")
        d = spectrum.mean_detuning
        p2 = float(np.sum(np.abs(coupling.amplitudes) ** 2))
        rates = EffectiveRates(
            gamma_eff=atoms.gamma + atoms.Gamma * p2 / d ** 2,
            delta_eff=atoms.delta + p2 / d,
        )
        return cls(alpha=complex(alpha), rates=rates, spectrum=spectrum,
                   coupling=coupling, atoms=atoms)


def _pairs(amps: np.ndarray, det: np.ndarray):
    """Ordered-pair quantities: couplings W_k W_j* and spacings d_kj, k != j."""
    n = det.size
    kk, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    mask = kk != jj
    d_kj = det[kk[mask]] - det[jj[mask]]
    if np.any(d_kj == 0):
        raise SingularityError("degenerate detunings in the pair product")
    w_kj = amps[kk[mask]] * np.conj(amps[jj[mask]])
    return w_kj, d_kj


def undriven_spin_exact(sol: AnalyticSpinSolution, t):
    """Exact quadrature of the undriven spin equation.

    s(t) = alpha * exp(-(gamma' + i delta') t)
           * prod_{k != j} exp( -(D - i Gamma) / (D^2 d_kj) * W_k W_j*
                                * exp(i d_kj t) )

    The pair coefficients are the exact integral of the oscillating part
    of |W(t)|^2; the published product form agrees with this expression for
    real coupling amplitudes in the D >> Gamma limit.
    """
    t_in = np.asarray(t, dtype=float)
    t = np.atleast_1d(t_in)
    d = sol.spectrum.mean_detuning
    gp, dp = sol.rates.gamma_eff, sol.rates.delta_eff
    if sol.spectrum.n_modes < 2:
        out = sol.alpha * np.exp(-(gp + 1j * dp) * t)
        return out[0] if t_in.ndim == 0 else out
    w_kj, d_kj = _pairs(sol.coupling.amplitudes, sol.spectrum.detunings)
    coeff = -(d - 1j * sol.atoms.Gamma) / (d ** 2 * d_kj) * w_kj
    osc = np.exp(coeff[:, None] * np.exp(1j * np.outer(d_kj, t)))
    out = sol.alpha * np.exp(-(gp + 1j * dp) * t) * np.prod(osc, axis=0)
    return out[0] if t_in.ndim == 0 else out


def undriven_spin_firstorder(sol: AnalyticSpinSolution, t):
    """First-order truncation of the pair product.

    s(t) ~ alpha * exp(-(gamma' + i delta') t)
           * (1 - sum_{k != j} W_k W_j* / (D d_kj) * exp(i d_kj t)),

    valid for |d_kj| >> |W_k W_j| / D (a warning is issued otherwise).
    The residual against the exact form is second order in that ratio.
    """
    t_in = np.asarray(t, dtype=float)
    t = np.atleast_1d(t_in)
    gp, dp = sol.rates.gamma_eff, sol.rates.delta_eff
    if sol.spectrum.n_modes < 2:
        out = sol.alpha * np.exp(-(gp + 1j * dp) * t)
        return out[0] if t_in.ndim == 0 else out
    d = sol.spectrum.mean_detuning
    w_kj, d_kj = _pairs(sol.coupling.amplitudes, sol.spectrum.detunings)
    small = np.abs(w_kj) / (d * np.abs(d_kj))
    if np.any(small > 0.1):
        warnings.warn(
            f"first-order expansion outside its regime (max ratio {small.max():.3g})",
            RuntimeWarning, stacklevel=2)
    series = 1.0 - np.sum(
        (w_kj / (d * d_kj))[:, None] * np.exp(1j * np.outer(d_kj, t)), axis=0)
    out = sol.alpha * np.exp(-(gp + 1j * dp) * t) * series
    return out[0] if t_in.ndim == 0 else out


def driven_spin_solution(sol: AnalyticSpinSolution, fields, t):
    """Spin response to constant per-mode probe envelopes.

    With a probe E(t) = sum_k E_k exp(i (D_k - D) t) and the oscillating
    part of |W(t)|^2 dropped:

    s(t) = alpha exp(-(gamma' + i delta') t)
           + (i / (gamma' + i delta')) sum_k (W_k* / D) E_k
           + i sum_{k, j != k} (W_j* / D) E_k exp(i d_kj t)
             / (gamma' + i (delta' + d_kj)).
    """
    t_in = np.asarray(t, dtype=float)
    t = np.atleast_1d(t_in)
    amps = sol.coupling.amplitudes
    det = sol.spectrum.detunings
    d = sol.spectrum.mean_detuning
    gp, dp = sol.rates.gamma_eff, sol.rates.delta_eff
    e_k = np.atleast_1d(np.asarray(fields, dtype=complex))
    if e_k.size != sol.spectrum.n_modes:
        raise ValidationError("one probe envelope per mode required")
    if gp == 0 and dp == 0:
        raise ResonancePoleError("gamma' + i delta' vanishes; steady term undefined")
    out = sol.alpha * np.exp(-(gp + 1j * dp) * t)
    out = out + (1j / (gp + 1j * dp)) * np.sum(np.conj(amps) / d * e_k)
    n = det.size
    for k in range(n):
        for j in range(n):
            if j == k:
                continue
            d_kj = det[k] - det[j]
            pole = gp + 1j * (dp + d_kj)
            if abs(pole) < 1e-12:
                raise ResonancePoleError(
                    f"driving term for pair ({k}, {j}) sits on the resonance pole")
            out = out + 1j * (np.conj(amps[j]) / d) * e_k[k] * np.exp(1j * d_kj * t) / pole
    return out[0] if t_in.ndim == 0 else out


def ode_oracle(atoms: AtomicParams, coupling: CouplingVector, spectrum: ModeSpectrum,
               fields, t_grid, sigma0: complex = 1.0) -> np.ndarray:
    """Brute-force RK4 trajectory of the single-excited-state spin equation.

    Integrates, with the full oscillatory |W(t)|^2 and probe beats,

        ds/dt = -(gamma + i delta + (Gamma + i D) |W(t)|^2 / D^2) s
                + i (W(t)* / D) E(t)

    where E(t) = sum_k E_k(t) exp(i (D_k - D) t).  ``fields`` may be None
    (undriven), a constant per-mode vector, or a callable t -> vector.
    The grid must resolve the fastest beat with at least 20 points per
    period.  Keeps the bare rates: this is the reference the closed forms
    are judged against.

    The equation reads ds/dt = a(t) s + b(t).  Both coefficients are
    tabulated on the RK4 stage times one block at a time, a callable
    ``fields`` being called once per stage time inside the block, so each
    RHS evaluation is scalar arithmetic.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise ValidationError("t_grid must be a 1-d array of at least two times")
    steps = np.diff(t_grid)
    if np.any(steps <= 0):
        raise ValidationError("t_grid must be strictly increasing")
    check_beat_resolution(spectrum, float(steps.max()))
    beats = spectrum.detunings - spectrum.mean_detuning
    amps = coupling.amplitudes
    d = spectrum.mean_detuning
    bare_rate = atoms.gamma + 1j * atoms.delta
    stark_rate = atoms.Gamma + 1j * d
    if fields is not None and not callable(fields):
        fields = np.atleast_1d(np.asarray(fields, dtype=complex))
        if fields.shape != beats.shape:
            raise ValidationError("one probe envelope per mode required")

    def coefficients(t):
        om = beat_sum(amps, beats, t)
        if fields is None:
            e = np.zeros_like(om)
        elif callable(fields):
            values = np.array([np.asarray(fields(tk), dtype=complex) for tk in t.tolist()])
            if values.shape != t.shape + beats.shape:
                raise ValidationError("fields(t) must return one probe envelope per mode")
            e = beat_sum(values, beats, t)
        else:
            e = beat_sum(fields, beats, t)
        decay = bare_rate + stark_rate * np.abs(om) ** 2 / d ** 2
        return np.stack([-decay, 1j * (np.conj(om) / d) * e], axis=1)

    row = stage_table(coefficients, stage_times(t_grid))

    def rhs(s, k):
        a, b = row(k).tolist()
        return a * s + b, None

    return np.fromiter((s for s, _ in rk4(rhs, complex(sigma0), t_grid)), dtype=complex,
                       count=t_grid.size)


def perturbation_magnitude(coupling: CouplingVector, spectrum: ModeSpectrum) -> float:
    """Quadrature sum of the pair cross terms, sqrt(sum |W_k W_j / (D d_kj)|^2).

    This is the quantity the first spacing inequality bounds; it vanishes
    for a single mode and halves when all spacings double.
    """
    if spectrum.n_modes < 2:
        return 0.0
    if len(coupling) != spectrum.n_modes:
        raise ValidationError("coupling length must match the spectrum")
    w_kj, d_kj = _pairs(coupling.amplitudes, spectrum.detunings)
    return float(np.linalg.norm(w_kj / (spectrum.mean_detuning * d_kj)))
