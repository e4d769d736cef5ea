import math

import numpy as np
import numpy.testing as npt
import pytest

from memspin import core
from memspin.core import angular_from_mhz as mhz


def test_unit_round_trip():
    """MHz -> rad/us -> MHz is the identity."""
    vals = np.array([0.001, 1.0, 6.0, 250.0, 475.0])
    npt.assert_allclose(mhz(vals) / core.TWO_PI, vals, rtol=1e-12)
    assert mhz(15.0) / core.TWO_PI == pytest.approx(15.0, rel=1e-14)


def make_spectrum(n=3, spacing=15.0, mean=250.0, guard=0.35):
    return core.ModeSpectrum.equally_spaced(mean, spacing, n, guard=guard)


class TestModeSpectrum:
    def test_basic(self):
        sp = make_spectrum(10)
        assert sp.n_modes == 10
        assert sp.min_spacing() == pytest.approx(mhz(15.0), rel=1e-12)

    def test_detunings_positive(self):
        with pytest.raises(core.ValidationError):
            core.ModeSpectrum(mean_detuning=mhz(250), detunings=np.array([-1.0, 10.0]))

    def test_detunings_distinct(self):
        with pytest.raises(core.ValidationError):
            core.ModeSpectrum(mean_detuning=mhz(250),
                              detunings=mhz(np.array([250.0, 250.0])))

    def test_far_detuned_guard(self):
        # 10 modes at 50 MHz spacing around 250 MHz violate the default guard
        with pytest.raises(core.ValidationError):
            core.ModeSpectrum.equally_spaced(250.0, 50.0, 10)
        # with a wider guard (and the mean placed accordingly) it is accepted
        sp = core.ModeSpectrum(mean_detuning=mhz(475.0),
                               detunings=mhz(250.0 + 50.0 * np.arange(10)), guard=0.5)
        assert sp.n_modes == 10

    def test_single_mode(self):
        sp = core.ModeSpectrum(mean_detuning=mhz(250), detunings=np.array([mhz(250.0)]))
        assert sp.min_spacing() == math.inf


class TestOmegaTilde:
    def test_single_mode_at_detuning(self):
        sp = core.ModeSpectrum(mean_detuning=mhz(250), detunings=np.array([mhz(250.0)]))
        cv = core.CouplingVector(np.array([mhz(250.0)]))
        assert core.omega_tilde(cv, sp) == pytest.approx(1.0, rel=1e-14)

    def test_zero_field(self):
        sp = make_spectrum(4)
        cv = core.CouplingVector(np.zeros(4))
        assert core.omega_tilde(cv, sp) == 0.0

    def test_uniform_split(self):
        # W_k = D_k / sqrt(N) gives exactly 1 by direct evaluation of the sum
        for n in (2, 5, 10):
            sp = make_spectrum(n)
            cv = core.CouplingVector(sp.detunings / np.sqrt(n))
            assert core.omega_tilde(cv, sp) == pytest.approx(1.0, rel=1e-13)

    def test_length_mismatch(self):
        sp = make_spectrum(3)
        with pytest.raises(core.ValidationError, match=r"coupling has 4 entries for 3 modes"):
            core.omega_tilde(core.CouplingVector(np.ones(4)), sp)


class TestBrightMode:
    def test_single_coupled_mode(self):
        sp = make_spectrum(2)
        cv = core.CouplingVector(np.array([sp.detunings[0], 0.0]))
        w = core.bright_mode_coefficients(cv, sp)
        npt.assert_allclose(w, [1.0, 0.0], atol=1e-15)

    def test_common_phase(self):
        sp = make_spectrum(2)
        phi = 0.7
        cv = core.CouplingVector(sp.detunings * np.exp(1j * phi))
        w = core.bright_mode_coefficients(cv, sp)
        npt.assert_allclose(w, np.exp(-1j * phi) * np.ones(2) / np.sqrt(2), atol=1e-14)

    def test_normalised(self):
        rng = np.random.default_rng(3)
        sp = make_spectrum(7)
        for _ in range(20):
            cv = core.CouplingVector(rng.normal(size=7) + 1j * rng.normal(size=7))
            w = core.bright_mode_coefficients(cv, sp)
            assert abs(np.linalg.norm(w) - 1.0) < 1e-14

    def test_degenerate(self):
        sp = make_spectrum(3)
        with pytest.raises(core.ValidationError, match=r"all coupling weights vanish"):
            core.bright_mode_coefficients(core.CouplingVector(np.zeros(3)), sp)


class TestCompleteBrightBasis:
    def test_cardinal(self):
        u = core.complete_bright_basis(np.array([1.0, 0, 0]))
        npt.assert_allclose(np.abs(u), np.eye(3), atol=1e-12)

    def test_two_mode(self):
        w = np.array([1.0, 1.0]) / np.sqrt(2)
        u = core.complete_bright_basis(w)
        npt.assert_allclose(u[0], w, atol=1e-14)
        npt.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 16])
    def test_random_unitarity(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            w = rng.normal(size=n) + 1j * rng.normal(size=n)
            w = w / np.linalg.norm(w)
            u = core.complete_bright_basis(w)
            assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-12
            npt.assert_allclose(u[0], w, atol=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(core.ValidationError):
            core.complete_bright_basis(np.array([1.0, 1.0]))


class TestEffectiveRates:
    def test_zero_coupling(self):
        sp = make_spectrum(3)
        atoms = core.AtomicParams(Gamma=mhz(6), gamma=0.01, delta=0.02, beta=100)
        r = core.effective_rates(core.CouplingVector(np.zeros(3)), sp, atoms)
        assert r.gamma_eff == pytest.approx(0.01)
        assert r.delta_eff == pytest.approx(0.02)

    def test_single_mode_tenth(self):
        d = mhz(250.0)
        sp = core.ModeSpectrum(mean_detuning=d, detunings=np.array([d]))
        atoms = core.AtomicParams(Gamma=mhz(6), gamma=0.005, delta=0.0, beta=100)
        r = core.effective_rates(core.CouplingVector(np.array([d / 10])), sp, atoms)
        assert r.gamma_eff == pytest.approx(0.005 + mhz(6) / 100, rel=1e-12)
        assert r.delta_eff == pytest.approx(d / 100, rel=1e-12)

    def test_shift_adds_over_modes(self):
        # equal |W_k|^2 / D_k in every mode shifts N times the single-mode value
        for n in (2, 4, 8):
            sp = make_spectrum(n)
            amps = np.sqrt(sp.detunings)  # |W|^2 / D = 1 each
            atoms = core.AtomicParams(Gamma=mhz(6), gamma=0.0, delta=0.0, beta=100)
            r = core.effective_rates(core.CouplingVector(amps), sp, atoms)
            assert r.delta_eff == pytest.approx(n, rel=1e-12)

    def test_broadening_never_negative(self):
        rng = np.random.default_rng(11)
        sp = make_spectrum(5)
        atoms = core.AtomicParams(Gamma=mhz(6), gamma=0.3, beta=50)
        for _ in range(25):
            cv = core.CouplingVector(rng.normal(size=5) * 3.0)
            assert core.effective_rates(cv, sp, atoms).gamma_eff >= atoms.gamma


class TestDispersionPhase:
    def test_zero_at_entry(self):
        sp = make_spectrum(4)
        atoms = core.AtomicParams(Gamma=mhz(6), beta=100)
        npt.assert_allclose(core.dispersion_phase(atoms, sp, 0.0), 0.0)

    def test_quoted_magnitude(self):
        # beta Gamma / D = 100 * 6 / 250 = 2.4 rad regardless of the 2 pi factor
        d = mhz(250.0)
        sp = core.ModeSpectrum(mean_detuning=d, detunings=np.array([d]))
        atoms = core.AtomicParams(Gamma=mhz(6.0), beta=100.0)
        ph = core.dispersion_phase(atoms, sp, 1.0)
        assert ph[0] == pytest.approx(-2.4, rel=1e-12)

    def test_monotone_in_detuning(self):
        sp = make_spectrum(6)
        atoms = core.AtomicParams(Gamma=mhz(6), beta=100)
        mags = np.abs(core.dispersion_phase(atoms, sp, 1.0))
        order = np.argsort(sp.detunings)
        assert np.all(np.diff(mags[order]) < 0)

    def test_position_range(self):
        sp = make_spectrum(2)
        atoms = core.AtomicParams(Gamma=mhz(6), beta=100)
        with pytest.raises(core.ValidationError):
            core.dispersion_phase(atoms, sp, 1.5)


class TestInequalitySeven:
    def test_zero_coupling_infinite(self):
        assert core.check_inequality_7(make_spectrum(4), 0.0) == math.inf

    def test_constructed_margin(self):
        # spacing / (D W~^2 / sqrt(N)) arranged to give exactly 100
        sp = core.ModeSpectrum(mean_detuning=mhz(250.0),
                               detunings=mhz(250.0 + 50.0 * np.arange(10) - 225.0),
                               guard=1.0)
        ot2 = mhz(0.5) * math.sqrt(10) / sp.mean_detuning
        margin = core.check_inequality_7(sp, math.sqrt(ot2))
        assert margin == pytest.approx(100.0, rel=1e-12)

    def test_halving_spacing(self):
        a = core.check_inequality_7(make_spectrum(5, spacing=10.0), 0.01)
        b = core.check_inequality_7(make_spectrum(5, spacing=5.0), 0.01)
        assert a == pytest.approx(2 * b, rel=1e-12)

    def test_single_mode_infinite(self):
        sp = core.ModeSpectrum(mean_detuning=mhz(250), detunings=np.array([mhz(250.0)]))
        assert core.check_inequality_7(sp, 0.1) == math.inf

    def test_decreasing_in_coupling(self):
        sp = make_spectrum(5)
        margins = [core.check_inequality_7(sp, ot) for ot in (0.01, 0.02, 0.04)]
        assert margins[0] > margins[1] > margins[2]


class TestInequalityNine:
    def test_zero_rates_infinite(self):
        sp = make_spectrum(4)
        assert core.check_inequality_9(sp, core.EffectiveRates(0.0, 0.0)) == math.inf

    def test_back_substituted_factor(self):
        # the implied broadened linewidth 2 pi * 0.0946 MHz reproduces ~167
        sp = core.ModeSpectrum(mean_detuning=mhz(475.0),
                               detunings=mhz(250.0 + 50.0 * np.arange(10)), guard=0.5)
        rates = core.EffectiveRates(gamma_eff=0.0, delta_eff=mhz(0.0946))
        margin = core.check_inequality_9(sp, rates)
        assert margin == pytest.approx(167.0, rel=2e-3)

    def test_scales_inverse_sqrt_n(self):
        # equal spacing, so only the sqrt(N) in the denominator differs
        rates = core.EffectiveRates(gamma_eff=0.01, delta_eff=0.0)
        m4 = core.check_inequality_9(make_spectrum(4, guard=0.5), rates)
        m16 = core.check_inequality_9(make_spectrum(16, guard=0.5), rates)
        assert m4 == pytest.approx(2 * m16, rel=1e-12)

    def test_decreasing_in_rate(self):
        sp = make_spectrum(4)
        margins = [core.check_inequality_9(sp, core.EffectiveRates(g, 0.0))
                   for g in (0.01, 0.02, 0.04)]
        assert margins[0] > margins[1] > margins[2]


def test_margin_report_flags():
    rep = core.MarginReport(margin7=100.0, margin9=5.0, threshold=10.0)
    assert rep.pass7 and not rep.pass9
    with pytest.raises(core.ValidationError):
        core.MarginReport(margin7=-1.0, margin9=1.0)


def test_margin_report_from_configuration():
    sp = make_spectrum(10)
    atoms = core.AtomicParams(Gamma=mhz(6), gamma=0.0, beta=100)
    cv = core.CouplingVector(0.01 * sp.detunings / math.sqrt(10))
    rep = core.margin_report(sp, cv, atoms)
    assert rep.pass7 and rep.pass9
    assert rep.margin7 > rep.margin9 > 0


class TestStageContract:
    """Integrators tabulate their coefficients on stage_times and step them with
    rk4_linear, a block of RK4_BLOCK steps at a time."""

    def test_stage_times_non_uniform(self):
        # tolerance: one rounded add per midpoint, 1e-15 absolute on O(1) times
        times = np.array([0.0, 0.1, 0.35, 0.4, 1.0])
        stages = core.stage_times(times)
        assert stages.shape == (2 * times.size - 1,)
        npt.assert_array_equal(stages[0::2], times)
        npt.assert_allclose(stages[1::2], [0.05, 0.225, 0.375, 0.7], rtol=0, atol=1e-15)

    def test_block_tabulated_rk4_matches_inline_rk4(self):
        """A run of two full blocks and a partial one on a non-uniform grid,
        tabulated on each block's stage times and carried from block to block,
        against RK4 written out in time; tolerance 1e-13 of the largest state
        entry.  One call over the whole grid agrees to the same bound."""

        def a(t):
            return -0.3 + 2j * np.cos(3.0 * t)

        def b(t):
            return np.exp(-t) * (1.0 + 0.5j * np.sin(t))

        times = np.linspace(0.0, 4.0, 2 * core.RK4_BLOCK + 300) ** 1.2
        y0 = np.array([1.0 + 0.0j, -0.5j, 0.25 + 0.25j])

        def run(block):
            blocks, ys = [], [y0[:, None]]
            for start in range(0, times.size - 1, block):
                t = times[start:start + block + 1]
                stages = core.stage_times(t)
                blocks.append(stages.size)
                # the same coefficients for every state entry
                a_rows, b_rows = (core.rk4_stages(np.broadcast_to(f(stages), (y0.size, stages.size)))
                                  for f in (a, b))
                ys.append(core.rk4_linear(a_rows[[0, 1, 3]], b_rows, np.diff(t),
                                          ys[-1][:, -1])[:, 1:])
            return np.concatenate(ys, axis=1).T, blocks

        tabulated, blocks = run(core.RK4_BLOCK)

        def f(yy, t):
            return a(t) * yy + b(t)

        inline = [y0]
        y = y0
        for t0, t1 in zip(times[:-1], times[1:]):
            h = t1 - t0
            k1 = f(y, t0)
            k2 = f(y + 0.5 * h * k1, t0 + 0.5 * h)
            k3 = f(y + 0.5 * h * k2, t0 + 0.5 * h)
            k4 = f(y + h * k3, t1)
            y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            inline.append(y)
        inline = np.array(inline)

        assert np.max(np.abs(tabulated - inline)) <= 1e-13 * np.max(np.abs(inline))
        # tabulated one block at a time, never the whole grid
        assert blocks == [2 * core.RK4_BLOCK + 1] * 2 + [2 * (times.size - 1 - 2 * core.RK4_BLOCK) + 1]
        whole, _ = run(times.size)
        assert np.max(np.abs(whole - inline)) <= 1e-13 * np.max(np.abs(inline))

    @staticmethod
    def rk4_factor(z):
        """RK4's amplification factor, the map of one step of dy/dt = a y, at z = h a."""
        return 1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0

    @pytest.mark.parametrize("n, maps", [
        (1, None), (2, None), (3, None), (1000, None), (1001, None),
        (core.RK4_BLOCK, "decaying"), (core.RK4_BLOCK, "rotating"),
    ], ids=["1", "2", "3", "1000", "1001", "block-decaying", "block-rotating"])
    def test_affine_scan_matches_a_sequential_loop(self, n, maps):
        """The running-product scan composes random maps y -> m y + c as the loop
        y_{n+1} = m_n y_n + c_n does, on a batch of two rows; tolerance 1e-13 of
        the largest value (its rounding differs in order).  The maps have |m|
        about 1, or are RK4 steps of a whole block: decaying at the pde step
        guard's bound, h a about -0.5 (|m| about 0.6), or rotating fast, h a
        about +-2i with some decay."""
        rng = np.random.default_rng(n)
        noise = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        if maps is None:
            m = np.exp(0.01 * noise)
        elif maps == "decaying":
            m = self.rk4_factor(-0.5 + 0.05j * noise.imag)
        else:
            m = self.rk4_factor(-0.1 * rng.random((2, n)) + 2j * rng.choice([-1.0, 1.0], (2, n)))
        c = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        y0 = np.array([0.3 - 1.0j, 2.0])
        y, ref = [y0], y0
        for k in range(n):
            ref = m[:, k] * ref + c[:, k]
            y.append(ref)
        ref = np.stack(y, axis=-1)
        out = core._affine_scan(m.copy(), c.copy(), y0)
        assert out.shape == (2, n + 1)
        npt.assert_array_equal(out[:, 0], y0)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("factor, step", [(0.27, 541), (np.nan, 0), (3.0, 646)],
                             ids=["underflow", "nan", "overflow"])
    def test_affine_scan_refuses_a_product_outside_the_normal_range(self, factor, step):
        """A running product of the maps that underflows (RK4 at h a = -1.6 gives
        m = 0.27, whose product falls below the smallest normal float after 542
        steps), overflows (3^647 after 647 steps) or is NaN raises
        NumericalError naming the first such step of the block, before numpy
        or any division can warn."""
        m = np.full((2, core.RK4_BLOCK), factor, dtype=complex)
        m[0] = 0.9  # the step is the first at which any row fails
        c = np.ones_like(m)
        with pytest.raises(core.NumericalError, match=rf"RK4 step {step} of a block"):
            core._affine_scan(m, c, np.ones(2))

    def test_rk4_linear_stage_states(self):
        """The stage states rk4_linear returns are those of RK4 written out,
        Y_1 = y_n, Y_2 = y_n + h/2 k1, Y_3 = y_n + h/2 k2 and Y_4 = y_n + h k3,
        with b at the two midpoint stages apart, for a constant a given with
        a step axis of size 1; tolerance 1e-13 of the largest."""
        rng = np.random.default_rng(5)
        a = np.broadcast_to((-0.4 + 1.5j) * np.ones((1, 1)), (3, 1, 1))
        b = rng.normal(size=(4, 1, 50)) + 1j * rng.normal(size=(4, 1, 50))
        h = 0.1
        y, states = core.rk4_linear(a, b, h, np.array([1.0 + 0.5j]), stages=True)
        ref_y, ref_states, yy = [1.0 + 0.5j], [], 1.0 + 0.5j
        for k in range(50):
            b1, b2, b3, b4 = b[:, 0, k]
            k1 = a[0, 0, 0] * yy + b1
            y2 = yy + 0.5 * h * k1
            k2 = a[1, 0, 0] * y2 + b2
            y3 = yy + 0.5 * h * k2
            k3 = a[1, 0, 0] * y3 + b3
            y4 = yy + h * k3
            k4 = a[2, 0, 0] * y4 + b4
            ref_states.append([yy, y2, y3, y4])
            yy = yy + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            ref_y.append(yy)
        ref_states = np.array(ref_states).T[:, None, :]
        assert np.max(np.abs(y[0] - ref_y)) <= 1e-13 * np.max(np.abs(ref_y))
        assert np.max(np.abs(states - ref_states)) <= 1e-13 * np.max(np.abs(ref_states))
