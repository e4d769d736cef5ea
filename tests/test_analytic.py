import math

import numpy as np
import numpy.testing as npt
import pytest

from memspin import analytic, core
from memspin.core import angular_from_mhz as mhz

GAMMA = mhz(6.0)


def solution(det_offsets_mhz, amps, gamma=0.0, delta=0.0, alpha=1.0, mean=250.0):
    det = mhz(mean) + mhz(np.asarray(det_offsets_mhz, dtype=float))
    sp = core.ModeSpectrum(mean_detuning=mhz(mean), detunings=det)
    cv = core.CouplingVector(np.asarray(amps, dtype=complex))
    atoms = core.AtomicParams(Gamma=GAMMA, gamma=gamma, delta=delta, beta=100.0)
    return analytic.AnalyticSpinSolution.from_params(atoms, cv, sp, alpha=alpha), atoms, cv, sp


class TestUndrivenExact:
    def test_single_mode_pure_decay(self):
        sol, *_ = solution([0.0], [mhz(2.0)], gamma=0.02, delta=0.01)
        t = np.linspace(0, 3, 7)
        expected = sol.alpha * np.exp(-(sol.rates.gamma_eff + 1j * sol.rates.delta_eff) * t)
        npt.assert_allclose(analytic.undriven_spin_exact(sol, t), expected, rtol=1e-14)

    def test_t0_is_alpha_times_pair_product(self):
        sol, *_ = solution([-4.0, 3.0], [mhz(2.0), mhz(1.5) * 1j], alpha=0.8 - 0.2j)
        val = analytic.undriven_spin_exact(sol, 0.0)
        # direct evaluation of the implemented product at t = 0
        d = sol.spectrum.mean_detuning
        amps = sol.coupling.amplitudes
        det = sol.spectrum.detunings
        prod = 1.0 + 0.0j
        for k in range(2):
            for j in range(2):
                if k == j:
                    continue
                dkj = det[k] - det[j]
                prod *= np.exp(-(d - 1j * GAMMA) / (d ** 2 * dkj) * amps[k] * np.conj(amps[j]))
        npt.assert_allclose(complex(val), sol.alpha * prod, rtol=1e-13)

    def test_matches_oracle_complex_couplings(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(50):
            offs = np.sort(rng.uniform(-8, 8, size=3))
            while np.min(np.diff(offs)) < 1.0:
                offs = np.sort(rng.uniform(-8, 8, size=3))
            amps = (rng.normal(size=3) + 1j * rng.normal(size=3)) * mhz(2.0)
            sol, atoms, cv, sp = solution(offs, amps, gamma=0.01, delta=0.005)
            t = np.linspace(0, 1.0, 1001)
            exact = analytic.undriven_spin_exact(sol, t)
            oracle = analytic.ode_oracle(atoms, cv, sp, None, t, sigma0=exact[0])
            rel = np.max(np.abs(exact - oracle)) / np.max(np.abs(oracle))
            worst = max(worst, rel)
        assert worst <= 1e-3, f"worst relative error {worst:.2e}"

    def test_degenerate_detunings_rejected(self):
        sol, *_ = solution([-4.0, 3.0], [1.0, 1.0])
        bad = analytic.AnalyticSpinSolution(
            alpha=1.0, rates=sol.rates,
            spectrum=core.ModeSpectrum(mean_detuning=mhz(250.0),
                                       detunings=np.array([mhz(250.0), mhz(254.0)])),
            coupling=sol.coupling, atoms=sol.atoms)
        object.__setattr__(bad.spectrum, "detunings",
                           np.array([mhz(250.0), mhz(250.0)]))
        with pytest.raises(analytic.SingularityError):
            analytic.undriven_spin_exact(bad, 1.0)


class TestUndrivenFirstOrder:
    def test_single_mode(self):
        sol, *_ = solution([0.0], [mhz(1.0)], gamma=0.03)
        t = np.linspace(0, 2, 5)
        expected = sol.alpha * np.exp(-(sol.rates.gamma_eff + 1j * sol.rates.delta_eff) * t)
        npt.assert_allclose(analytic.undriven_spin_firstorder(sol, t), expected, rtol=1e-14)

    def test_error_quadratic_in_amplitudes(self):
        t = np.linspace(0, 1.0, 501)
        errs = []
        for scale in (1.0, 0.5):
            amps = scale * np.array([1.0 + 0.5j, -0.7 + 0.2j]) * mhz(2.0)
            sol, *_ = solution([-4.0, 4.0], amps)
            e = analytic.undriven_spin_exact(sol, t)
            f = analytic.undriven_spin_firstorder(sol, t)
            errs.append(np.max(np.abs(e - f)))
        ratio = errs[0] / errs[1]
        assert abs(ratio - 4.0) < 0.3 * 4.0, f"quadratic scaling violated: {ratio:.2f}"

    def test_error_halves_when_spacings_double(self):
        t = np.linspace(0, 1.0, 501)
        amps = np.array([1.0 + 0.5j, -0.7 + 0.2j]) * mhz(2.0)
        errs = []
        for spread in (4.0, 8.0):
            sol, *_ = solution([-spread, spread], amps)
            e = analytic.undriven_spin_exact(sol, t)
            f = analytic.undriven_spin_firstorder(sol, t)
            errs.append(np.max(np.abs(e - f)))
        ratio = errs[0] / errs[1]
        assert abs(ratio - 2.0) < 0.3 * 2.0, f"halving violated: {ratio:.2f}"

    def test_warns_outside_regime(self):
        sol, *_ = solution([-0.01, 0.01], [mhz(3.0), mhz(3.0)])
        with pytest.warns(RuntimeWarning):
            analytic.undriven_spin_firstorder(sol, 0.1)


class TestDriven:
    def test_no_probe_reduces_to_homogeneous(self):
        sol, *_ = solution([-3.0, 3.0], [mhz(1.0), mhz(1.0)], gamma=0.05, alpha=0.7)
        t = np.linspace(0, 5, 11)
        drv = analytic.driven_spin_solution(sol, np.zeros(2), t)
        hom = sol.alpha * np.exp(-(sol.rates.gamma_eff + 1j * sol.rates.delta_eff) * t)
        npt.assert_allclose(drv, hom, rtol=1e-12)

    def test_single_mode_steady_term(self):
        sol, *_ = solution([0.0], [mhz(1.0)], gamma=0.05, alpha=0.0)
        val = analytic.driven_spin_solution(sol, [0.3 + 0.1j], 2.0)
        gp, dp = sol.rates.gamma_eff, sol.rates.delta_eff
        expected = (1j / (gp + 1j * dp)) * np.conj(sol.coupling.amplitudes[0]) \
            / sol.spectrum.mean_detuning * (0.3 + 0.1j)
        npt.assert_allclose(complex(val), expected, rtol=1e-12)

    def test_matches_oracle_at_margin_100(self):
        gamma = 0.05
        spacing = 100 * math.sqrt(2) * gamma  # rad/us; margin9 ~ 100 via bare gamma
        det = mhz(250.0) + spacing * np.array([-0.5, 0.5])
        sp = core.ModeSpectrum(mean_detuning=mhz(250.0), detunings=det)
        cv = core.CouplingVector(np.array([0.3 + 0.1j, 0.2 - 0.25j]) * mhz(0.5))
        atoms = core.AtomicParams(Gamma=GAMMA, gamma=gamma, beta=100.0)
        rates = core.effective_rates(cv, sp, atoms)
        assert 90 <= core.check_inequality_9(sp, rates) <= 110
        sol = analytic.AnalyticSpinSolution.from_params(atoms, cv, sp, alpha=0.3 - 0.4j)
        fields = np.array([0.8 + 0.1j, -0.5 + 0.3j])
        t = np.linspace(0, 60.0, 12001)
        drv = analytic.driven_spin_solution(sol, fields, t)
        orc = analytic.ode_oracle(atoms, cv, sp, fields, t, sigma0=drv[0])
        rel = np.max(np.abs(drv - orc)) / np.max(np.abs(orc))
        assert rel <= 1e-3, f"driven relative error {rel:.2e}"

    def test_oscillatory_term_bounded_by_margin(self):
        """The beating terms are smaller than the steady one by sqrt(N)/margin."""
        gamma = 0.05
        spacing = 100 * math.sqrt(2) * gamma
        det = mhz(250.0) + spacing * np.array([-0.5, 0.5])
        sp = core.ModeSpectrum(mean_detuning=mhz(250.0), detunings=det)
        cv = core.CouplingVector(np.full(2, mhz(0.5), dtype=complex))
        atoms = core.AtomicParams(Gamma=GAMMA, gamma=gamma, beta=100.0)
        rates = core.effective_rates(cv, sp, atoms)
        m9 = core.check_inequality_9(sp, rates)
        sol = analytic.AnalyticSpinSolution.from_params(atoms, cv, sp, alpha=0.0)
        fields = np.full(2, 1.0, dtype=complex)
        t = np.linspace(0, 10, 201)
        total = analytic.driven_spin_solution(sol, fields, t)
        gp, dp = sol.rates.gamma_eff, sol.rates.delta_eff
        steady = (1j / (gp + 1j * dp)) * np.sum(
            np.conj(cv.amplitudes) / sp.mean_detuning * fields)
        osc = total - steady
        bound = abs(steady) * math.sqrt(2) / m9
        assert np.max(np.abs(osc)) <= 3.0 * bound

    def test_pole_rejected(self):
        det = np.array([mhz(250.0), mhz(250.0) + 0.5])
        sp = core.ModeSpectrum(mean_detuning=mhz(250.0), detunings=det)
        cv = core.CouplingVector(np.array([1.0, 1.0]))
        atoms = core.AtomicParams(Gamma=GAMMA, gamma=0.0, beta=100.0)
        sol0 = analytic.AnalyticSpinSolution.from_params(atoms, cv, sp)
        # force delta' onto the beat resonance: gamma' + i(delta' + d_kj) = 0
        sol = analytic.AnalyticSpinSolution(
            alpha=sol0.alpha,
            rates=core.EffectiveRates(gamma_eff=0.0, delta_eff=0.5),
            spectrum=sp, coupling=cv, atoms=atoms)
        with pytest.raises(analytic.ResonancePoleError):
            analytic.driven_spin_solution(sol, [1.0, 1.0], 0.0)


class TestOracle:
    def test_pure_decay(self):
        sp = core.ModeSpectrum(mean_detuning=mhz(250.0), detunings=np.array([mhz(250.0)]))
        cv = core.CouplingVector(np.zeros(1))
        atoms = core.AtomicParams(Gamma=GAMMA, gamma=0.03, delta=0.02, beta=100.0)
        t = np.linspace(0, 4, 401)
        traj = analytic.ode_oracle(atoms, cv, sp, None, t, sigma0=0.5 + 0.1j)
        expected = (0.5 + 0.1j) * np.exp(-(0.03 + 1j * 0.02) * t)
        npt.assert_allclose(traj, expected, rtol=1e-9)

    def test_self_convergence(self):
        det = mhz(250.0) + np.array([-5.0, 5.0])
        sp = core.ModeSpectrum(mean_detuning=mhz(250.0), detunings=det)
        cv = core.CouplingVector(np.array([2.0 + 1.0j, -1.0 + 0.5j]))
        atoms = core.AtomicParams(Gamma=GAMMA, gamma=0.01, beta=100.0)
        t1 = np.linspace(0, 20, 4001)
        t2 = np.linspace(0, 20, 8001)
        a = analytic.ode_oracle(atoms, cv, sp, [0.4, -0.2j], t1)
        b = analytic.ode_oracle(atoms, cv, sp, [0.4, -0.2j], t2)
        rel = abs(a[-1] - b[-1]) / abs(b[-1])
        assert rel <= 1e-6

    def test_callable_fields_match_constant_fields(self):
        """A callable returning constant envelopes gives the constant-field
        trajectory; tolerance 1e-13 of its largest value."""
        det = mhz(250.0) + np.array([-5.0, 5.0])
        sp = core.ModeSpectrum(mean_detuning=mhz(250.0), detunings=det)
        cv = core.CouplingVector(np.array([2.0 + 1.0j, -1.0 + 0.5j]))
        atoms = core.AtomicParams(Gamma=GAMMA, gamma=0.01, delta=0.02, beta=100.0)
        fields = np.array([0.4, -0.2j])
        t = np.linspace(0, 20, 4001)
        const = analytic.ode_oracle(atoms, cv, sp, fields, t, sigma0=0.3j)
        calls = []

        def field_of(tk):
            calls.append(tk)
            return fields

        called = analytic.ode_oracle(atoms, cv, sp, field_of, t, sigma0=0.3j)
        assert np.max(np.abs(called - const)) <= 1e-13 * np.max(np.abs(const))
        # once per RK4 stage time: the grid times and the step midpoints
        npt.assert_array_equal(calls, core.stage_times(t))

    def test_rejects_under_resolved_grid(self):
        det = mhz(250.0) + np.array([-20.0, 20.0])
        sp = core.ModeSpectrum(mean_detuning=mhz(250.0), detunings=det)
        cv = core.CouplingVector(np.ones(2))
        atoms = core.AtomicParams(Gamma=GAMMA, beta=100.0)
        with pytest.raises(analytic.StepSizeError):
            analytic.ode_oracle(atoms, cv, sp, None, np.linspace(0, 10, 11))


class TestPerturbationMagnitude:
    def test_single_mode_zero(self):
        sp = core.ModeSpectrum(mean_detuning=mhz(250.0), detunings=np.array([mhz(250.0)]))
        assert analytic.perturbation_magnitude(core.CouplingVector([1.0]), sp) == 0.0

    def test_matches_inequality_scale(self):
        sp = core.ModeSpectrum.equally_spaced(250.0, 15.0, 10, guard=0.35)
        ot = 0.02
        cv = core.CouplingVector(ot * sp.detunings / math.sqrt(10))
        pm = analytic.perturbation_magnitude(cv, sp)
        scale = sp.mean_detuning * ot ** 2 / (math.sqrt(10) * sp.min_spacing())
        assert 0.5 <= pm / scale <= 2.0

    def test_halves_when_spacings_double(self):
        amps = np.array([1.0, -0.5 + 0.2j, 0.3j])
        a = analytic.perturbation_magnitude(
            core.CouplingVector(amps),
            core.ModeSpectrum(mean_detuning=mhz(250.0),
                              detunings=mhz(250.0) + np.array([-6.0, 1.0, 7.0])))
        b = analytic.perturbation_magnitude(
            core.CouplingVector(amps),
            core.ModeSpectrum(mean_detuning=mhz(250.0),
                              detunings=mhz(250.0) + 2 * np.array([-6.0, 1.0, 7.0])))
        assert a == pytest.approx(2 * b, rel=1e-12)
