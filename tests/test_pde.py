import math
import re
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memspin import cli, compiler, core, pde
from memspin.core import angular_from_mhz as mhz

GAMMA = mhz(6.0)
FWHM, CENTER, WINDOW = 10.0, 20.0, 40.0
BANDWIDTH_FACTOR = 2.2
ETA = BANDWIDTH_FACTOR * 4 * math.log(2) / FWHM


def single_mode_setup(beta=1000.0, d=1.0, gamma=0.0, nz=256, dt=0.02):
    sp = core.ModeSpectrum(mean_detuning=mhz(250.0), detunings=np.array([mhz(250.0)]))
    ot = math.sqrt(d * ETA / (beta * GAMMA))
    atoms = core.AtomicParams(Gamma=GAMMA, gamma=gamma, beta=beta)
    cell = pde.MemoryCell(atoms=atoms, gradient_eta=ETA, id="cell")
    cv = core.CouplingVector(np.array([ot * mhz(250.0)]))
    grid = pde.Grid(nz=nz, dt=dt, window=WINDOW)
    pulse = pde.GaussianPulse(fwhm=FWHM, center=CENTER, mode_amplitudes=np.array([1.0]))
    return sp, atoms, cell, cv, grid, pulse


OPTS = pde.SimOptions()


def one_window(cell, entry, pulse, grid, sp, options=OPTS):
    """(output FieldState, residual SpinState, input energy) of one cell
    through one window from zero spin: simulate_network on a one-cell schedule."""
    res = pde.simulate_network([cell], pde.Schedule(entries=((entry,),)), {0: pulse}, grid, sp,
                               options)
    return res.outputs[0], res.residual_spins[0], res.input_energy


class TestGridAndSchedule:
    def test_grid_invariants(self):
        with pytest.raises(core.ValidationError):
            pde.Grid(nz=32, dt=0.02, window=40.0)
        with pytest.raises(core.ValidationError):
            pde.Grid(nz=128, dt=0.03, window=40.0)  # not an integer multiple
        g = pde.Grid(nz=128, dt=0.02, window=40.0)
        assert g.nt == 2000
        r = g.refined(2.0)
        assert r.nz == 256 and r.dt == 0.01

    def test_entry_validation(self):
        with pytest.raises(core.ValidationError, match=r"unknown event 'stash'"):
            pde.ScheduleEntry(event="stash")
        with pytest.raises(core.ValidationError, match=r"store window requires a nonzero"):
            pde.ScheduleEntry(event="store", coupling=None)
        with pytest.raises(core.ValidationError, match=r"store window requires a nonzero"):
            pde.ScheduleEntry(event="store", coupling=core.CouplingVector(np.zeros(2)))
        with pytest.raises(core.ValidationError, match=r"gradient_sign must be \+1 or -1"):
            pde.ScheduleEntry(event="hold", gradient_sign=0)

    def test_recall_before_store(self):
        cv = core.CouplingVector(np.ones(1))
        sched = pde.Schedule(entries=((
            pde.ScheduleEntry(event="recall", coupling=cv, gradient_sign=-1),
            pde.ScheduleEntry(event="store", coupling=cv, gradient_sign=1),
        ),))
        with pytest.raises(core.ValidationError, match=r"cell 0 recalls in window 0 before"):
            sched.check_causality()

    def test_ragged_rows_rejected(self):
        cv = core.CouplingVector(np.ones(1))
        a = pde.ScheduleEntry(event="store", coupling=cv, gradient_sign=1)
        with pytest.raises(core.ValidationError, match=r"all cells must cover the same windows"):
            pde.Schedule(entries=((a, a), (a,)))

    def test_output_windows(self):
        cv = core.CouplingVector(np.ones(1))
        sched = pde.Schedule(entries=((
            pde.ScheduleEntry(event="store", coupling=cv, gradient_sign=1),
            pde.ScheduleEntry(event="hold"),
            pde.ScheduleEntry(event="recall", coupling=cv, gradient_sign=-1),
        ),))
        assert sched.output_windows() == (2,)


def test_pulse_takes_an_array_of_times():
    amps = np.array([[0.6, 0.8j], [1.0, -0.5]])
    pulse = pde.GaussianPulse(fwhm=FWHM, center=CENTER, mode_amplitudes=amps)
    t = np.linspace(0.0, WINDOW, 7)
    e = pulse(t)
    assert e.shape == (7, 2, 2)
    npt.assert_allclose(e, pulse.envelope(t)[:, None, None] * amps, rtol=1e-15, atol=0)
    assert pulse(CENTER).shape == (2, 2)


class TestSingleCell:
    def test_no_coupling_passthrough(self):
        sp, atoms, cell, cv, grid, pulse = single_mode_setup()
        out, spin, _ = one_window(
            cell, pde.ScheduleEntry(event="hold"), pulse, grid, sp, OPTS)
        expected = pulse.mode_amplitudes[0] * pulse.envelope(grid.times)
        npt.assert_allclose(out.envelopes[0], expected, atol=1e-12)
        assert np.max(np.abs(spin.sigma)) == 0.0

    def test_store_recall_efficiency(self):
        """Full cycle at high optical depth reaches the >= 0.90 regime."""
        sp, atoms, cell, cv, grid, pulse = single_mode_setup(gamma=mhz(5e-5))
        sched = pde.Schedule(entries=((pde.ScheduleEntry("store", cv, 1),
                                       pde.ScheduleEntry("recall", cv, -1)),))
        res = pde.simulate_network([cell], sched, {0: pulse}, grid, sp, OPTS)
        out1, out2 = res.outputs
        eff = out2.energy() / res.input_energy
        assert eff >= 0.90
        assert out1.energy() / res.input_energy <= 0.02  # little leakage during storage

    def test_energy_bookkeeping_lossless(self):
        """Input energy = transmitted + beta*Gamma*integral(|s|^2) without decay."""
        sp, atoms, cell, cv, grid, pulse = single_mode_setup(beta=200.0, d=0.8)
        opts = pde.SimOptions(power_broadening=False)
        out, spin, e_in = one_window(
            cell, pde.ScheduleEntry("store", cv, 1), pulse, grid, sp, opts)
        total = out.energy() + spin.energy_norm(atoms)
        assert abs(total - e_in) / e_in <= 1e-3

    def test_energy_bookkeeping_with_losses(self):
        """With scattering on, the books can only lose energy."""
        sp, atoms, cell, cv, grid, pulse = single_mode_setup(beta=200.0, d=0.8,
                                                             gamma=mhz(1e-3))
        out, spin, e_in = one_window(
            cell, pde.ScheduleEntry("store", cv, 1), pulse, grid, sp, OPTS)
        total = out.energy() + spin.energy_norm(atoms)
        assert total <= e_in * (1 + 1e-3)
        assert total < e_in * 0.999  # decay actually bit

    def test_linearity(self):
        sp, atoms, cell, cv, grid, pulse = single_mode_setup(nz=128)
        p1 = pde.GaussianPulse(FWHM, CENTER, np.array([1.0]))
        p2 = pde.GaussianPulse(FWHM, CENTER - 5.0, np.array([0.5j]))

        def run(p):
            out, spin, _ = one_window(
                cell, pde.ScheduleEntry("store", cv, 1), p, grid, sp, OPTS)
            return out.envelopes, spin.sigma

        o1, s1 = run(p1)
        o2, s2 = run(p2)
        out, spin, _ = one_window(
            cell, pde.ScheduleEntry("store", cv, 1), lambda t: p1(t) + p2(t),
            grid, sp, OPTS)
        npt.assert_allclose(out.envelopes, o1 + o2, atol=1e-10)
        npt.assert_allclose(spin.sigma, s1 + s2, atol=1e-10)

    def test_step_size_guard(self):
        sp, atoms, cell, cv, grid, pulse = single_mode_setup()
        big = pde.MemoryCell(atoms=atoms, gradient_eta=80.0, id="fast")
        with pytest.raises(core.NumericalError, match=r"too large for dynamics rate"):
            one_window(big, pde.ScheduleEntry("store", cv, 1), pulse,
                       pde.Grid(nz=128, dt=0.02, window=WINDOW), sp, OPTS)

    def test_margin_warning(self):
        sp = core.ModeSpectrum.equally_spaced(250.0, 0.02, 2)
        atoms = core.AtomicParams(Gamma=GAMMA, gamma=0.0, beta=300.0)
        cell = pde.MemoryCell(atoms=atoms, gradient_eta=ETA, id="warn")
        ot = math.sqrt(ETA / (300.0 * GAMMA))
        cv = core.CouplingVector(ot * sp.detunings / math.sqrt(2))
        grid = pde.Grid(nz=64, dt=0.02, window=WINDOW)
        pulse = pde.GaussianPulse(FWHM, CENTER, np.ones(2) / math.sqrt(2))
        with pytest.warns(RuntimeWarning):
            one_window(cell, pde.ScheduleEntry("store", cv, 1), pulse, grid, sp,
                       pde.SimOptions())

    def test_margin_warning_names_the_caller(self):
        """The warning points at the line that called into pde, whichever entry point."""
        sp = core.ModeSpectrum.equally_spaced(250.0, 0.02, 2)
        atoms = core.AtomicParams(Gamma=GAMMA, gamma=0.0, beta=300.0)
        cell = pde.MemoryCell(atoms=atoms, gradient_eta=ETA, id="warn")
        ot = math.sqrt(ETA / (300.0 * GAMMA))
        cv = core.CouplingVector(ot * sp.detunings / math.sqrt(2))
        grid = pde.Grid(nz=64, dt=0.02, window=WINDOW)
        pulse = pde.GaussianPulse(FWHM, CENTER, np.ones(2) / math.sqrt(2))
        store, recall = pde.ScheduleEntry("store", cv, 1), pde.ScheduleEntry("recall", cv, -1)
        calls = {
            "simulate_network": lambda: pde.simulate_network(
                [cell], pde.Schedule(entries=((store,),)), {0: pulse}, grid, sp),
            "eq5_deviation": lambda: pde.eq5_deviation(cell, [[store, recall]], pulse, grid,
                                                       [sp]),
        }
        for name, call in calls.items():
            with pytest.warns(RuntimeWarning, match="validity margins") as record:
                call()
            assert [w.filename for w in record] == [__file__], name

    def test_margin_warning_kept_for_each_threshold(self):
        """Chains that share cells, schedule and spectrum but not their margin
        threshold are checked apart: the first fails at its own threshold and
        warns, though the second passes at its own."""
        sp = core.ModeSpectrum.equally_spaced(250.0, 2.0, 2)
        atoms = core.AtomicParams(Gamma=GAMMA, gamma=0.0, beta=300.0)
        cells = [pde.MemoryCell(atoms=atoms, gradient_eta=ETA, id="twice")]
        cv = core.CouplingVector(math.sqrt(ETA / (300.0 * GAMMA)) * sp.detunings / math.sqrt(2))
        report = core.margin_report(sp, cv, atoms)
        thresholds = (2.0 * max(report.margin7, report.margin9),
                      0.5 * min(report.margin7, report.margin9))
        sched = pde.Schedule(entries=((pde.ScheduleEntry("store", cv, 1),),))
        pulse = pde.GaussianPulse(FWHM, CENTER, np.ones(2) / math.sqrt(2))
        chains = [pde.Chain(cells, sched, sp, {0: pulse}, pde.SimOptions(margin_threshold=t))
                  for t in thresholds]
        with pytest.warns(RuntimeWarning, match="validity margins") as record:
            pde._simulate_batch(chains, pde.Grid(nz=64, dt=0.02, window=WINDOW))
        assert len(record) == 1


@pytest.mark.parametrize("target, refused", [(1.002, True), (1.0005, False)])
def test_efficiency_above_unity_refused_beyond_tolerance(monkeypatch, target, refused):
    """A lossless one-cell store and recall with its outflow scaled to an
    efficiency of ``target``: 1e-3 above unity is tolerated, no more."""
    sp, atoms, cell, cv, grid, pulse = single_mode_setup(nz=64)
    sched = pde.Schedule(entries=((pde.ScheduleEntry("store", cv, 1),
                                   pde.ScheduleEntry("recall", cv, -1)),))
    chain = pde.Chain([cell], sched, sp, {0: pulse}, pde.SimOptions(power_broadening=False))
    (base,) = pde._simulate_batch([chain], grid)
    scale, outflow = math.sqrt(target / base.efficiency), pde._ChainOperator.outflow
    monkeypatch.setattr(pde._ChainOperator, "outflow",
                        lambda self, e, s1: scale * outflow(self, e, s1))
    if refused:
        with pytest.raises(core.NumericalError, match="exceeds unity beyond tolerance"):
            pde._simulate_batch([chain], grid)
    else:
        (res,) = pde._simulate_batch([chain], grid)
        assert res.efficiency == pytest.approx(target, rel=1e-12)


class TestBrightDark:
    def setup_method(self):
        self.sp = core.ModeSpectrum.equally_spaced(250.0, 15.0, 3)
        self.atoms = core.AtomicParams(Gamma=GAMMA, gamma=0.0, beta=300.0)
        self.cell = pde.MemoryCell(atoms=self.atoms, gradient_eta=ETA, id="bd")
        self.ot = math.sqrt(ETA / (300.0 * GAMMA))
        u = compiler.haar_random_unitary(3, seed=9)
        self.coupling = core.CouplingVector(
            self.ot * self.sp.detunings * np.conj(u.matrix[0]))
        self.grid = pde.Grid(nz=192, dt=0.02, window=WINDOW)

    def test_equivalence_with_rotated_single_mode(self):
        """N-mode run equals bright-basis rotation + single-mode run + rotation back."""
        rng = np.random.default_rng(4)
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        amps /= np.linalg.norm(amps)
        pulse = pde.GaussianPulse(FWHM, CENTER, amps)
        outN, _, _ = one_window(
            self.cell, pde.ScheduleEntry("store", self.coupling, 1), pulse,
            self.grid, self.sp, OPTS)

        w = core.bright_mode_coefficients(self.coupling, self.sp)
        basis = core.complete_bright_basis(w)
        rot = basis @ amps
        sp1 = core.ModeSpectrum(mean_detuning=self.sp.mean_detuning,
                                detunings=np.array([self.sp.mean_detuning]))
        cv1 = core.CouplingVector(np.array([self.ot * self.sp.mean_detuning]))
        outB, _, _ = one_window(
            self.cell, pde.ScheduleEntry("store", cv1, 1),
            pde.GaussianPulse(FWHM, CENTER, np.array([rot[0]])),
            self.grid, sp1, OPTS)

        env = pulse.envelope(self.grid.times)
        reduced = np.vstack([outB.envelopes[0], rot[1] * env, rot[2] * env])
        back = basis.conj().T @ reduced
        dev = np.max(np.abs(back - outN.envelopes)) / np.max(np.abs(outN.envelopes))
        assert dev <= 1e-3, f"bright/dark deviation {dev:.2e}"

    def test_dark_mode_passes_unimpeded(self):
        w = core.bright_mode_coefficients(self.coupling, self.sp)
        basis = core.complete_bright_basis(w)
        dark = basis.conj().T @ np.array([0.0, 1.0, 0.0], dtype=complex)
        pulse = pde.GaussianPulse(FWHM, CENTER, dark)
        out, spin, e_in = one_window(
            self.cell, pde.ScheduleEntry("store", self.coupling, 1), pulse,
            self.grid, self.sp, OPTS)
        assert out.energy() / e_in >= 0.999
        assert spin.energy_norm(self.atoms) <= 1e-6 * e_in


def two_op_network(n, u_in, u_out, beta=1000.0, gamma=mhz(5e-5), nz=256, dt=0.02,
                   amps=None):
    sp = core.ModeSpectrum.equally_spaced(250.0, 15.0, n, guard=0.35)
    ot = math.sqrt(ETA / (beta * GAMMA))
    atoms = core.AtomicParams(Gamma=GAMMA, gamma=gamma, beta=beta)
    cells = [pde.MemoryCell(atoms=atoms, gradient_eta=ETA, id=f"m{j}") for j in range(n)]
    wp = compiler.compile_write(u_in, sp, ot)
    rp = compiler.compile_read(u_out, sp, ot)
    sched = pde.store_recall_schedule(wp, rp)
    grid = pde.Grid(nz=nz, dt=dt, window=WINDOW)
    if amps is None:
        amps = np.ones(n, dtype=complex) / math.sqrt(n)
    pulse = pde.GaussianPulse(FWHM, CENTER, amps)
    return sp, cells, sched, grid, pulse


class TestNetwork:
    def test_single_cell_matches_network(self):
        sp, atoms, cell, cv, grid, pulse = single_mode_setup(nz=128)
        sched = pde.Schedule(entries=((
            pde.ScheduleEntry("store", cv, 1),
            pde.ScheduleEntry("recall", cv, -1),
        ),))
        res = pde.simulate_network([cell], sched, {0: pulse}, grid, sp, OPTS)
        out1, _, _ = one_window(cell, sched.entries[0][0], pulse, grid, sp, OPTS)
        npt.assert_allclose(res.outputs[0].envelopes, out1.envelopes, atol=1e-12)

    def test_three_mode_overlap_against_ideal(self):
        u_in = compiler.haar_random_unitary(3, seed=31)
        u_out = compiler.haar_random_unitary(3, seed=32)
        sp, cells, sched, grid, pulse = two_op_network(3, u_in, u_out, nz=192)
        psi = pde.echo_mode(pde._simulate_batch(
            [pde.reference_echo(cells, sched, sp, pulse, OPTS)], grid)[0])
        ideal_m = compiler.ideal_transfer(u_in, u_out)
        ideal = pde.ideal_output(ideal_m, pulse.mode_amplitudes, psi)
        res = pde.simulate_network(cells, sched, {0: pulse}, grid, sp, OPTS)
        assert pde.overlap(res, ideal) >= 0.98
        assert 0.85 <= res.efficiency <= 0.95

    def test_efficiency_unaffected_by_unitary_choice(self):
        """Coupling power is shared equally, so the loss is unitary-independent."""
        effs = []
        for seeds in ((1, 2), (7, 8)):
            u_in = compiler.haar_random_unitary(2, seed=seeds[0])
            u_out = compiler.haar_random_unitary(2, seed=seeds[1])
            sp, cells, sched, grid, pulse = two_op_network(2, u_in, u_out, nz=128)
            res = pde.simulate_network(cells, sched, {0: pulse}, grid, sp, OPTS)
            effs.append(res.efficiency)
        assert abs(effs[0] - effs[1]) <= 1e-6

    def test_heatmap_recorded(self):
        u = compiler.dft_unitary(2)
        sp, cells, sched, grid, pulse = two_op_network(2, u, u, nz=128)
        res = pde.simulate_network(cells, sched, {0: pulse}, grid, sp, heatmap=True)
        assert res.heatmap_field is not None
        assert res.heatmap_field.shape[0] == 2 * grid.nz
        assert res.heatmap_spin.shape == res.heatmap_field.shape

    def test_dispersion_phase_applied_when_uncompensated(self):
        sp = core.ModeSpectrum.equally_spaced(250.0, 15.0, 2)
        atoms = core.AtomicParams(Gamma=GAMMA, gamma=0.0, beta=100.0)
        cell = pde.MemoryCell(atoms=atoms, gradient_eta=ETA, id="disp")
        grid = pde.Grid(nz=64, dt=0.02, window=WINDOW)
        pulse = pde.GaussianPulse(FWHM, CENTER, np.array([1.0, 1.0]))
        opts = pde.SimOptions(compensate_dispersion=False)
        out, _, _ = one_window(cell, pde.ScheduleEntry(event="hold"), pulse, grid, sp, opts)
        phases = np.exp(1j * core.dispersion_phase(atoms, sp, 1.0))
        expected = phases[:, None] * pulse.envelope(grid.times)[None, :]
        npt.assert_allclose(out.envelopes, expected, atol=1e-12)


class TestEchoHelpers:
    def test_echo_center_two_windows(self):
        cv = core.CouplingVector(np.ones(1))
        sched = pde.Schedule(entries=((
            pde.ScheduleEntry("store", cv, 1),
            pde.ScheduleEntry("recall", cv, -1),
        ),))
        grid = pde.Grid(nz=64, dt=0.02, window=40.0)
        win, local = pde.echo_center(sched, grid, pulse_center=20.0)
        assert win == 1 and local == pytest.approx(20.0)

    def test_echo_center_with_hold(self):
        cv = core.CouplingVector(np.ones(1))
        sched = pde.Schedule(entries=((
            pde.ScheduleEntry("store", cv, 1),
            pde.ScheduleEntry("hold", gradient_sign=-1),
            pde.ScheduleEntry("recall", cv, -1),
        ),))
        grid = pde.Grid(nz=64, dt=0.02, window=40.0)
        win, local = pde.echo_center(sched, grid, pulse_center=15.0)
        # 25 us of dephasing unwinds within the hold window
        assert win == 1 and local == pytest.approx(25.0)

    def test_reference_echo_unit_energy(self):
        sp, atoms, cell, cv, grid, pulse = single_mode_setup(nz=128)
        cv = core.CouplingVector(np.array([0.004 * sp.mean_detuning]))
        sched = pde.Schedule(entries=((pde.ScheduleEntry("store", cv, 1),
                                       pde.ScheduleEntry("recall", cv, -1)),))
        psi = pde.echo_mode(pde._simulate_batch(
            [pde.reference_echo([cell], sched, sp, pulse, OPTS)], grid)[0])
        assert psi.energy() == pytest.approx(1.0, rel=1e-12)


class TestEfficiencyOverlap:
    def _result(self, outputs):
        return pde.NetworkResult(
            outputs=outputs, residual_spins=[], efficiency=0.0, overlap=None,
            input_energy=1.0, window_energies=[], output_windows=(0,))

    def test_output_equals_ideal(self):
        t = np.linspace(0, 40, 401)
        env = np.exp(-((t - 20.0) / 6.0) ** 2)
        fs = pde.FieldState(envelopes=env[None, :] * (0.5 + 0.5j), times=t)
        assert pde.overlap(self._result([fs]), [fs]) == pytest.approx(1.0, abs=1e-12)

    def test_scaled_amplitude_mirrors_quoted_numbers(self):
        t = np.linspace(0, 40, 401)
        env = np.exp(-((t - 20.0) / 6.0) ** 2)
        ideal = pde.FieldState(envelopes=env[None, :], times=t)
        scaled = pde.FieldState(envelopes=0.955 * env[None, :], times=t)
        assert pde.overlap(self._result([scaled]), [ideal]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_output(self):
        t = np.linspace(0, 40, 401)
        env = np.exp(-((t - 20.0) / 6.0) ** 2)
        ideal = pde.FieldState(envelopes=env[None, :], times=t)
        zero = pde.FieldState(envelopes=np.zeros_like(env)[None, :], times=t)
        assert pde.overlap(self._result([zero]), [ideal]) == 0.0

    def test_zero_ideal_rejected(self):
        t = np.linspace(0, 40, 401)
        zero = pde.FieldState(envelopes=np.zeros((1, t.size)), times=t)
        with pytest.raises(core.NumericalError, match=r"ideal output has zero energy"):
            pde.overlap(self._result([zero]), [zero])

    def test_ideal_output_needs_no_energy_scale(self):
        """random_3mode at grid scale 0.5: the ideal envelopes carry |T u|^2 in
        the unit-energy echo mode, and the overlap, which divides by the
        ideal's energy, reads the same to 1e-14 under any scale of them."""
        setup = cli.NetworkSetup(cli.load_config("random_3mode"), grid_scale=0.5)
        result, psi, _ = cli.run_network(setup)
        transfer, u = compiler.ideal_transfer(setup.u_in, setup.u_out), setup.pulse.mode_amplitudes
        ideal = pde.ideal_output(transfer, u, psi)
        assert ideal[0].energy() == pytest.approx(np.sum(np.abs(transfer @ u) ** 2), rel=1e-12)
        assert pde.overlap(result, ideal) == result.overlap
        for scale in (1e-3, 3.7, 1e3):
            scaled = [pde.FieldState(envelopes=scale * i.envelopes, times=i.times)
                      for i in ideal]
            assert pde.overlap(result, scaled) == pytest.approx(result.overlap, rel=1e-14)


class TestTransferExtraction:
    def test_identity_plan_diagonal(self):
        u = compiler.UnitarySpec(np.eye(2))
        sp, cells, sched, grid, pulse = two_op_network(2, u, u, nz=128)
        m = pde.extract_transfer_matrix(cells, sched, grid, sp, pulse, OPTS)
        off = m - np.diag(np.diag(m))
        assert np.max(np.abs(off)) <= 1e-6
        res = pde.simulate_network(cells, sched, {0: pulse}, grid, sp, OPTS)
        npt.assert_allclose(np.abs(np.diag(m)) ** 2, res.efficiency, rtol=1e-3)

    def test_compiled_random_matches_ideal(self):
        u_in = compiler.haar_random_unitary(3, seed=21)
        u_out = compiler.haar_random_unitary(3, seed=22)
        sp, cells, sched, grid, pulse = two_op_network(3, u_in, u_out, nz=128)
        m = pde.extract_transfer_matrix(cells, sched, grid, sp, pulse, OPTS)
        ideal = compiler.ideal_transfer(u_in, u_out)
        ratio = m / ideal
        ratio = ratio * np.exp(-1j * np.angle(ratio[0, 0]))
        assert np.max(np.abs(np.angle(ratio))) <= 0.1
        npt.assert_allclose(np.abs(ratio), np.abs(ratio[0, 0]), rtol=1e-3)

    def test_read_mapping_is_adjoint(self):
        """Identity in, random matrix out: the realised transfer is its adjoint."""
        u_in = compiler.UnitarySpec(np.eye(2))
        u_out = compiler.haar_random_unitary(2, seed=77)
        sp, cells, sched, grid, pulse = two_op_network(2, u_in, u_out, nz=128)
        m = pde.extract_transfer_matrix(cells, sched, grid, sp, pulse, OPTS)
        adj = u_out.matrix.conj().T
        inner = abs(np.vdot(adj, m)) ** 2 / (np.linalg.norm(adj) ** 2
                                             * np.linalg.norm(m) ** 2)
        assert inner >= 0.98

    def test_uncoupled_mode_column_transmits(self):
        """A mode no memory addresses leaves in the write window, not the echo."""
        sp = core.ModeSpectrum.equally_spaced(250.0, 15.0, 2)
        ot = math.sqrt(ETA / (1000.0 * GAMMA))
        atoms = core.AtomicParams(Gamma=GAMMA, gamma=0.0, beta=1000.0)
        cell = pde.MemoryCell(atoms=atoms, gradient_eta=ETA, id="m0")
        cv = core.CouplingVector(np.array([ot * sp.detunings[0], 0.0]))
        sched = pde.Schedule(entries=((
            pde.ScheduleEntry("store", cv, 1),
            pde.ScheduleEntry("recall", cv, -1),
        ),))
        grid = pde.Grid(nz=128, dt=0.02, window=WINDOW)
        pulse = pde.GaussianPulse(FWHM, CENTER, np.ones(2))
        m = pde.extract_transfer_matrix([cell], sched, grid, sp, pulse, OPTS)
        assert abs(m[1, 1]) <= 1e-6 and abs(m[0, 1]) <= 1e-6
        probe = pde.GaussianPulse(FWHM, CENTER, np.array([0.0, 1.0]))
        res = pde.simulate_network([cell], sched, {0: probe}, grid, sp, OPTS)
        assert res.window_energies[0]["output"] / res.input_energy >= 0.999


class TestEq5:
    def _setup(self, spacing_mhz, beta=300.0, dt=0.01, nz=128):
        sp = core.ModeSpectrum.equally_spaced(250.0, spacing_mhz, 2)
        ot = math.sqrt(ETA / (beta * GAMMA))
        atoms = core.AtomicParams(Gamma=GAMMA, gamma=0.0, beta=beta)
        cell = pde.MemoryCell(atoms=atoms, gradient_eta=ETA, id="eq5")
        cv = core.CouplingVector(ot * sp.detunings / math.sqrt(2))
        grid = pde.Grid(nz=nz, dt=dt, window=WINDOW)
        pulse = pde.GaussianPulse(FWHM, CENTER, np.ones(2, dtype=complex) / math.sqrt(2))
        entries = [pde.ScheduleEntry("store", cv, 1), pde.ScheduleEntry("recall", cv, -1)]
        return sp, cell, cv, grid, pulse, entries

    def _deviation(self, spacing_mhz):
        sp, cell, cv, grid, pulse, entries = self._setup(spacing_mhz)
        sched = pde.Schedule(entries=((entries[0], entries[1]),))
        res = pde.simulate_network([cell], sched, {0: pulse}, grid, sp, OPTS)
        (outs,), _ = pde.simulate_eq5(cell, [entries], pulse, grid, [sp], OPTS)
        beats = sp.detunings - sp.mean_detuning
        tt = grid.times
        comp_in = np.sum(pulse.mode_amplitudes[:, None] * pulse.envelope(tt)[None, :]
                         * np.exp(1j * np.outer(beats, tt)), axis=0)
        e_in = float(np.trapezoid(np.abs(comp_in) ** 2, tt))
        eff5 = outs[1].energy() / e_in
        rates = core.effective_rates(cv, sp, cell.atoms)
        m9 = core.check_inequality_9(sp, rates)
        return m9, res.efficiency, eff5

    @pytest.mark.parametrize("rotation", [0.3, 0.15], ids=["refused", "accepted"])
    def test_step_guard_counts_the_peak_light_shift(self, rotation):
        """A single-excited cell's rotation is |Im decay| plus the peak light
        shift (sum_k |W_k|)^2 / D.  With two equal couplings w and the retune
        off, the detuning holds the gradient alone, so that is 4 w^2 / D +
        eta / 2, while the decay alone reads eta / 2: at dt * 4 w^2 / D = 0.3
        the step is refused, naming the rotation, and at 0.15 it is not."""
        sp, cell, _, grid, pulse, _ = self._setup(2.0, beta=1.0)
        d = sp.mean_detuning
        w = math.sqrt(rotation * d / (4.0 * grid.dt))
        cv = core.CouplingVector(np.full(2, w))
        entries = [pde.ScheduleEntry("store", cv, 1), pde.ScheduleEntry("recall", cv, -1)]
        opts = pde.SimOptions(auto_two_photon=False)
        (chain,) = pde.eq5_chains(cell, [entries], pulse, [sp], opts)[1:]
        peak = 4.0 * w ** 2 / d + ETA / 2.0
        assert grid.dt * (peak - 4.0 * w ** 2 / d) < pde.MAX_STEP_ROTATION
        if grid.dt * peak <= pde.MAX_STEP_ROTATION:
            pde.window_operators([chain], grid)
        else:
            with pytest.raises(core.NumericalError, match=re.escape(
                    f"too large for rotation {peak:.3g} rad/us (dt * rotation = "
                    f"{grid.dt * peak:.2f} > {pde.MAX_STEP_ROTATION})")):
                pde.window_operators([chain], grid)

    def test_single_mode_limit_matches_cell(self):
        sp1 = core.ModeSpectrum(mean_detuning=mhz(250.0),
                                detunings=np.array([mhz(250.0)]))
        ot = math.sqrt(ETA / (300.0 * GAMMA))
        atoms = core.AtomicParams(Gamma=GAMMA, gamma=0.0, beta=300.0)
        cell = pde.MemoryCell(atoms=atoms, gradient_eta=ETA, id="one")
        cv = core.CouplingVector(np.array([ot * mhz(250.0)]))
        grid = pde.Grid(nz=128, dt=0.02, window=WINDOW)
        pulse = pde.GaussianPulse(FWHM, CENTER, np.array([1.0]))
        entries = [pde.ScheduleEntry("store", cv, 1), pde.ScheduleEntry("recall", cv, -1)]
        sched = pde.Schedule(entries=((entries[0], entries[1]),))
        res = pde.simulate_network([cell], sched, {0: pulse}, grid, sp1, OPTS)
        (outs,), _ = pde.simulate_eq5(cell, [entries], pulse, grid, [sp1], OPTS)
        eff5 = outs[1].energy() / res.input_energy
        assert abs(eff5 - res.efficiency) / res.efficiency <= 1e-3

    def test_agreement_in_regime(self):
        m9, eff1, eff5 = self._deviation(2.0)
        assert m9 >= 100
        assert abs(eff5 - eff1) / eff1 <= 0.01

    def test_negative_control_out_of_regime(self):
        with pytest.warns(RuntimeWarning, match="validity margins below threshold"):
            m9, eff1, eff5 = self._deviation(0.019068)
        assert m9 <= 1.5
        assert abs(eff5 - eff1) / eff1 > 0.05

    def test_batched_deviation_matches_per_case_calls(self):
        setups = [self._setup(spacing, dt=0.02, nz=64) for spacing in (1.0, 0.3, 0.05)]
        sp, cell, cv, grid, pulse, entries = setups[0]
        with pytest.warns(RuntimeWarning, match="validity margins below threshold"):
            batched = pde.eq5_deviation(cell, [s[5] for s in setups], pulse, grid,
                                        [s[0] for s in setups], OPTS)
        assert len(batched) == 3
        with warnings.catch_warnings():
            # only some of the cases, called alone, fail the margins
            warnings.filterwarnings("ignore", "cell 'eq5': validity margins", RuntimeWarning)
            for got, (sp, cell, cv, grid, pulse, entries) in zip(batched, setups):
                (ref,) = pde.eq5_deviation(cell, [entries], pulse, grid, [sp], OPTS)
                npt.assert_allclose(got, ref, rtol=1e-12, atol=0)
        assert abs(batched[0][2] - batched[2][2]) > 1e-3

    def test_beat_resolution_guard(self):
        sp, cell, cv, grid, pulse, entries = self._setup(2.0)
        coarse = pde.Grid(nz=128, dt=0.2, window=WINDOW)
        with pytest.raises(core.NumericalError, match=r"does not resolve the fastest beat"):
            pde.simulate_eq5(cell, [entries], pulse, coarse, [sp], OPTS)

    def test_step_size_guard(self):
        """A step that resolves the beat but not the peak rate is refused, as
        the chain operator refuses it."""
        sp, cell, cv, grid, pulse, entries = self._setup(0.019068, dt=1.0, nz=64)
        core.check_beat_resolution(sp, grid.dt)
        with pytest.raises(core.NumericalError, match=r"dt \* rate = 1\.53 > 0\.5"):
            pde.simulate_eq5(cell, [entries], pulse, grid, [sp], OPTS)


def test_convergence_single_cell():
    sp, atoms, cell, cv, grid, pulse = single_mode_setup(nz=192, dt=0.02)
    sched = pde.Schedule(entries=((
        pde.ScheduleEntry("store", cv, 1),
        pde.ScheduleEntry("recall", cv, -1),
    ),))
    res1 = pde.simulate_network([cell], sched, {0: pulse}, grid, sp, OPTS)
    res2 = pde.simulate_network([cell], sched, {0: pulse}, grid.refined(2.0), sp, OPTS)
    assert abs(res1.efficiency - res2.efficiency) <= 1e-3


def test_heatmap_csv(tmp_path):
    grid = pde.Grid(nz=64, dt=0.02, window=40.0)
    mat = np.arange(12.0).reshape(3, 4)
    path = tmp_path / "heat.csv"
    pde.write_heatmap_csv(path, mat, np.array([0.0, 1.0, 2.0, 3.0]), grid, n_cells=1)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("nz=64,n_cells=1,")
    assert len(lines) == 4
    assert len(lines[1].split(",")) == 4


def test_heatmap_csv_rows_match_per_value_format(tmp_path):
    mat = np.array([[0.0, -0.0, 1.5e-300, 123456.789, np.nan],
                    [np.pi, -2.5e-7, 1e10, 7.0, np.inf]])
    grid = pde.Grid(nz=64, dt=0.02, window=40.0)
    path = tmp_path / "heat.csv"
    pde.write_heatmap_csv(path, mat, np.arange(5.0), grid, n_cells=1)
    body = path.read_text().split("\n", 1)[1]
    assert body == "".join(",".join(f"{v:.8e}" for v in row) + "\n" for row in mat)


def test_heatmap_encoder_matches_percent_format(tmp_path):
    """The block encoder writes what '%.8e' writes on near-ties, decade carries,
    signed zeros, subnormals, |e| >= 100, negatives, non-finite values and
    log-uniform draws spread over more rows than one block."""
    ties = [9.999999995e-3, 1.000000005, 1.234567895e-7, 123456789.5, 9.9999999995e99]
    near = [np.nextafter(v, direction) for v in ties for direction in (0.0, np.inf)]
    decades = 10.0 ** np.arange(-20.0, 21.0)
    carries = [9.9999999996e-3, 0.99999999999, 9.999999999e5, *decades,
               *np.nextafter(decades, 0.0), *np.nextafter(decades, np.inf)]
    special = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-99, 1e-100, 1e100,
               9.99999999e99, -1.0, -2.5e-7, np.nan, np.inf, -np.inf]
    rng = np.random.default_rng(7)
    draws = 10.0 ** rng.uniform(-30.0, 30.0, 20_000)
    values = np.concatenate([ties, near, carries, special, draws])
    cols = 10
    values = np.concatenate([values, np.ones(-values.size % cols)])
    # in rows of ten, most rows hold draws only and take the encoded path;
    # in one column, every adversarial value sits in a row of its own
    for mat in (values.reshape(-1, cols), values[:, None]):
        assert mat.shape[0] > pde.HEATMAP_BLOCK_ROWS
        path = tmp_path / "heat.csv"
        pde.write_heatmap_csv(path, mat, np.arange(float(mat.shape[1])),
                              pde.Grid(nz=64, dt=0.02, window=40.0), n_cells=1)
        body = path.read_bytes().split(b"\n", 1)[1].decode()
        assert body.split("\n")[:-1] == [",".join("%.8e" % v for v in row)
                                         for row in mat.tolist()]
    _, fallback = pde._encode_rows(draws.reshape(-1, cols))
    assert fallback.size < draws.size // cols // 100


def edge_values():
    """Floats nearest m * 10^p over decades -99 ... 99 for 9-digit mantissas m
    at the digit split's edges, k 10^8, k 10^4 +- 1 and 999,999,999, and for
    10-digit ones from 9,999,999,996 up, whose rounding carries a decade."""
    nine = st.one_of(
        st.integers(1, 9).map(lambda k: k * 10**8),
        st.tuples(st.integers(10**4 + 1, 10**5 - 1), st.sampled_from((-1, 1))).map(
            lambda kd: kd[0] * 10**4 + kd[1]),
        st.just(999_999_999))
    carry = st.integers(9_999_999_996, 9_999_999_999)
    return st.one_of(st.tuples(nine, st.integers(-107, 91)),
                     st.tuples(carry, st.integers(-108, 89))).map(
        lambda mp: float(f"{mp[0]}e{mp[1]}"))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_encoder_rows_marked_exact_match_percent_format(data):
    """Positive float64 values over every decade and values at the digit
    split's edges (:func:`edge_values`): every row the encoder marks as exact
    is what '%.8e' writes, byte for byte, and rows of edge values alone are
    exact."""
    decades = st.tuples(st.floats(1.0, 10.0, exclude_max=True), st.integers(-323, 308)).map(
        lambda md: md[0] * 10.0 ** md[1]).filter(math.isfinite)
    values = data.draw(st.lists(st.one_of(
        st.floats(min_value=5e-324, max_value=np.finfo(float).max), decades,
        edge_values()), min_size=1, max_size=40))
    edges = data.draw(st.lists(edge_values(), min_size=1, max_size=8))
    cols = data.draw(st.integers(1, 4))
    mixed = np.array(values + [1.0] * (-len(values) % cols)).reshape(-1, cols)
    for block, all_exact in ((mixed, False), (np.array(edges).reshape(-1, 1), True)):
        text, fallback = pde._encode_rows(block)
        if all_exact:
            assert fallback.size == 0
        for r, row in enumerate(block.tolist()):
            if r not in fallback:
                assert bytes(text[r]) == (",".join("%.8e" % v for v in row) + "\n").encode()


def reference_chain_rhs(sig, e, cells, entries, spectrum, grid, light_shift=False):
    """Explicit per-mode trapezoid form of one chain RHS, cell by cell, with
    power broadening on and dispersion uncompensated.  The light shift
    +sum_k |W_k|^2 / D_k is added when ``light_shift``, else cancelled."""
    dz = 1.0 / (grid.nz - 1)
    dsig = np.empty_like(sig)
    profiles = []
    for c, (cell, entry) in enumerate(zip(cells, entries)):
        ratios = entry.coupling.amplitudes / spectrum.detunings
        ncal = cell.atoms.coupling_density
        gamma_eff = cell.atoms.gamma + cell.atoms.Gamma * np.sum(np.abs(ratios) ** 2)
        delta = cell.atoms.delta + entry.gradient_sign * cell.gradient_eta * (grid.z - 0.5)
        if light_shift:
            delta = delta + np.sum(np.abs(entry.coupling.amplitudes) ** 2 / spectrum.detunings)
        incr = 1j * ncal * ratios[:, None] * sig[c][None, :]
        ek = np.empty((e.size, grid.nz), dtype=complex)
        ek[:, 0] = e
        ek[:, 1:] = e[:, None] + np.cumsum(0.5 * dz * (incr[:, 1:] + incr[:, :-1]), axis=1)
        dsig[c] = -(gamma_eff + 1j * delta) * sig[c] + 1j * (np.conj(ratios) @ ek)
        profiles.append(ek)
        e = ek[:, -1] * np.exp(1j * core.dispersion_phase(cell.atoms, spectrum, 1.0))
    return dsig, e, profiles


def uncompensated_chain():
    """3-cell, 3-mode compiled chain with unequal depths and dispersion left uncompensated."""
    sp = core.ModeSpectrum.equally_spaced(250.0, 15.0, 3)
    u_in = compiler.haar_random_unitary(3, seed=5)
    u_out = compiler.haar_random_unitary(3, seed=6)
    cells = [pde.MemoryCell(atoms=core.AtomicParams(Gamma=GAMMA, gamma=mhz(1e-3), beta=beta),
                            gradient_eta=ETA, id=f"m{c}")
             for c, beta in enumerate((300.0, 500.0, 800.0))]
    wp = compiler.compile_write(u_in, sp, math.sqrt(ETA / (500.0 * GAMMA)))
    rp = compiler.compile_read(u_out, sp, math.sqrt(ETA / (500.0 * GAMMA)))
    sched = pde.store_recall_schedule(wp, rp)
    grid = pde.Grid(nz=64, dt=0.02, window=WINDOW)
    opts = pde.SimOptions(compensate_dispersion=False)
    return sp, cells, sched, grid, opts


def test_chain_superposition_through_batch_axis():
    """Runs x, y and a x + b y of a 3-cell chain, integrated as one batch: the
    third run's window outputs and residual spins are a run 1 + b run 2."""
    sp, cells, sched, grid, opts = uncompensated_chain()
    grid = pde.Grid(nz=grid.nz, dt=0.05, window=grid.window)
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    a, b = 0.7 - 0.4j, -0.3 + 1.1j
    r1, r2, r3 = pde._simulate_batch([pde.Chain(cells, sched, sp, {0: pde.GaussianPulse(
        FWHM, CENTER, amps)}, opts) for amps in (x, y, a * x + b * y)], grid)
    for o1, o2, o3 in zip(r1.outputs, r2.outputs, r3.outputs):
        scale = np.max(np.abs(o3.envelopes))
        assert scale > 0
        npt.assert_allclose(o3.envelopes, a * o1.envelopes + b * o2.envelopes,
                            rtol=0, atol=1e-12 * scale)
    spins = [np.array([s.sigma for s in r.residual_spins]) for r in (r1, r2, r3)]
    npt.assert_allclose(spins[2], a * spins[0] + b * spins[1], rtol=0,
                        atol=1e-12 * np.max(np.abs(spins[2])))


def real_space_rhs(op, sig, drive, rate=None, absorb=None):
    """(dsig/dt, S) of a real-space chain on whole spin grids ``sig`` (...,
    cells, nz): the right-hand side the sweep integrates point by point,
    from the decay, absorption and iG of ``op``, a chain operator or a
    real-space block, and the inflow ``drive`` (..., cells, 1).
    Single-excited chains pass their ``rate`` and ``absorb`` on the stage
    time."""
    acc = pde._cumtrapz(sig, op.half_dz)
    dsig = (op.decay if rate is None else op.decay + rate) * sig + drive
    if op.iG is not None:
        dsig += op.iG @ acc[..., -1:]
    dsig -= (op.absorb if absorb is None else absorb) * acc
    return dsig, acc


@pytest.mark.parametrize("window", [0, 1])
def test_chain_operator_matches_per_mode_trapezoid(window):
    """Bright-mode RHS of a 3-cell chain with uncompensated dispersion, for one
    state, for a stacked batch of two (each row against the reference) and
    for detuned atoms with the light shift left in."""
    rng = np.random.default_rng(11)
    sp, cells, sched, grid, opts = uncompensated_chain()
    sig = rng.normal(size=(3, grid.nz)) + 1j * rng.normal(size=(3, grid.nz))
    e = rng.normal(size=3) + 1j * rng.normal(size=3)
    sig2 = rng.normal(size=(2, 3, grid.nz)) + 1j * rng.normal(size=(2, 3, grid.nz))
    e2 = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    op = pde._ChainOperator(cells, sched, window, sp, grid, opts)
    entries = [row[window] for row in sched.entries]

    def check(dsig, out, norms, sig, e, cells=cells, light_shift=False):
        ref_dsig, ref_out, ref_profiles = reference_chain_rhs(sig, e, cells, entries, sp, grid,
                                                              light_shift)
        assert np.max(np.abs(dsig - ref_dsig)) <= 1e-12 * np.max(np.abs(ref_dsig))
        assert np.max(np.abs(out - ref_out)) <= 1e-12 * np.max(np.abs(ref_out))
        ref_norms = np.concatenate([np.sqrt(np.sum(np.abs(p) ** 2, axis=0))
                                    for p in ref_profiles])
        assert np.max(np.abs(norms - ref_norms)) <= 1e-12 * np.max(ref_norms)

    dsig, acc = real_space_rhs(op, sig, op.inflow_drive(e))
    check(dsig, op.outflow(e[..., None], acc[..., -1:])[..., 0], op.field_norms(e, acc), sig, e)
    dsig2, acc2 = real_space_rhs(op, sig2, op.inflow_drive(e2))
    out2, norms2 = op.outflow(e2[..., None], acc2[..., -1:])[..., 0], op.field_norms(e2, acc2)
    assert dsig2.shape == sig2.shape and out2.shape == e2.shape
    for b in range(2):
        check(dsig2[b], out2[b], norms2[b], sig2[b], e2[b])
    detuned = [replace(cell, atoms=replace(cell.atoms, delta=mhz(0.2))) for cell in cells]
    op = pde._ChainOperator(detuned, sched, window, sp, grid, replace(opts, auto_two_photon=False))
    dsig, acc = real_space_rhs(op, sig, op.inflow_drive(e))
    check(dsig, op.outflow(e[..., None], acc[..., -1:])[..., 0], op.field_norms(e, acc), sig, e,
          detuned, light_shift=True)


def assert_same_run(res, ref, n_windows):
    """A run of a batch against its own simulate_network run: outputs, residual
    spins and window energies to 1e-12."""
    assert len(res.outputs) == len(ref.outputs) == n_windows
    for out, ref_out in zip(res.outputs, ref.outputs):
        scale = np.max(np.abs(ref_out.envelopes))
        assert np.max(np.abs(out.envelopes - ref_out.envelopes)) <= 1e-12 * scale
    for spin, ref_spin in zip(res.residual_spins, ref.residual_spins):
        assert spin.cell_id == ref_spin.cell_id
        assert np.max(np.abs(spin.sigma - ref_spin.sigma)) \
            <= 1e-12 * np.max(np.abs(ref_spin.sigma))
    for we, ref_we in zip(res.window_energies, ref.window_energies):
        assert we["window"] == ref_we["window"]
        for key in ("input", "output"):
            assert abs(we[key] - ref_we[key]) <= 1e-12 * ref.input_energy
    assert abs(res.efficiency - ref.efficiency) <= 1e-12
    assert res.output_windows == ref.output_windows


def test_batched_basis_probes_match_single_runs():
    """Each probe of the one batched integration against its own simulate_network run."""
    sp, cells, sched, grid, opts = uncompensated_chain()
    pulse = pde.GaussianPulse(FWHM, CENTER, np.ones(3, dtype=complex) / math.sqrt(3))
    probes = pde._simulate_batch(pde._basis_probe(cells, sched, grid, sp, opts, pulse), grid)
    assert len(probes) == 3
    for j, res in enumerate(probes):
        probe = pde.GaussianPulse(FWHM, CENTER, np.eye(3)[j])
        ref = pde.simulate_network(cells, sched, {0: probe}, grid, sp, opts)
        assert_same_run(res, ref, sched.n_windows)


def test_batch_runs_with_own_schedule_and_spectrum():
    """Two runs of a 3-cell chain with different couplings and spectra, dispersion
    uncompensated, as one batch: each against its own simulate_network run."""
    sp, cells, sched, grid, opts = uncompensated_chain()
    sp2 = core.ModeSpectrum.equally_spaced(250.0, 11.0, 3)
    weight = math.sqrt(ETA / (700.0 * GAMMA))
    sched2 = pde.store_recall_schedule(
        compiler.compile_write(compiler.haar_random_unitary(3, seed=7), sp2, weight),
        compiler.compile_read(compiler.haar_random_unitary(3, seed=8), sp2, weight))
    rng = np.random.default_rng(12)
    amps = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    runs = pde._simulate_batch([pde.Chain(cells, schedule, spectrum, {0: pde.GaussianPulse(
        FWHM, CENTER, a)}, opts) for schedule, spectrum, a in zip((sched, sched2), (sp, sp2), amps)],
        grid)
    assert len(runs) == 2
    for res, schedule, spectrum, a in zip(runs, (sched, sched2), (sp, sp2), amps):
        ref = pde.simulate_network(cells, schedule, {0: pde.GaussianPulse(FWHM, CENTER, a)},
                                   grid, spectrum, opts)
        assert_same_run(res, ref, schedule.n_windows)
    # the second run's operator differs from the first's
    assert abs(runs[0].efficiency - runs[1].efficiency) > 1e-6


def test_divergence_names_the_first_non_finite_grid_time():
    sp, atoms, cell, cv, grid, pulse = single_mode_setup(nz=64)
    sched = pde.Schedule(entries=((pde.ScheduleEntry("store", cv, 1),
                                   pde.ScheduleEntry("recall", cv, -1)),))

    def poisoned(t):
        # the inflow turns NaN from t = 10 us on
        return np.where(np.asarray(t) >= 10.0, np.nan, 1.0)[..., None] * pulse(t)

    with pytest.raises(core.NumericalError, match=r"window 0 at t = 10 us"):
        pde.simulate_network([cell], sched, {0: poisoned}, grid, sp, OPTS)


def test_transfer_columns_match_basis_probe_runs():
    u_in = compiler.haar_random_unitary(2, seed=41)
    u_out = compiler.haar_random_unitary(2, seed=42)
    sp, cells, sched, grid, pulse = two_op_network(2, u_in, u_out, nz=64)
    m = pde.extract_transfer_matrix(cells, sched, grid, sp, pulse, OPTS)
    psi = pde.echo_mode(pde._simulate_batch(
        [pde.reference_echo(cells, sched, sp, pulse, OPTS)], grid)[0]).envelopes[0]
    win, _ = pde.echo_center(sched, grid, pulse.center)
    for j in range(2):
        probe = pde.GaussianPulse(FWHM, CENTER, np.eye(2)[j])
        res = pde.simulate_network(cells, sched, {0: probe}, grid, sp, OPTS)
        out = res.outputs[win]
        column = np.trapezoid(out.envelopes * np.conj(psi), out.times, axis=1)
        npt.assert_allclose(m[:, j], column / math.sqrt(res.input_energy), rtol=0, atol=1e-12)


@pytest.mark.parametrize("limit", [pde.MODAL_COND_LIMIT, 0.0], ids=["default", "real_space"])
def test_mixed_batch_matches_standalone_runs(monkeypatch, limit):
    """A 3-cell chain with its 1-cell reference echo, and the multi-transition
    and single-excited runs of two eq5 cases, as one batch: each chain against
    its own standalone run.  At a conditioning limit of 0 every chain steps in
    real space, in blocks of two sizes and both kinds."""
    monkeypatch.setattr(pde, "MODAL_COND_LIMIT", limit)
    sp, cells, sched, grid, opts = uncompensated_chain()
    rng = np.random.default_rng(13)
    pulse = pde.GaussianPulse(FWHM, CENTER, rng.normal(size=3) + 1j * rng.normal(size=3))
    network = pde.Chain(cells, sched, sp, {0: pulse}, opts)
    echo = pde.reference_echo(cells, sched, sp, pulse, opts)
    cases = [TestEq5()._setup(spacing, dt=grid.dt, nz=grid.nz) for spacing in (1.0, 0.3)]
    eq5 = pde.eq5_chains(cases[0][1], [c[5] for c in cases], cases[0][4], [c[0] for c in cases],
                         OPTS)
    chains = [network, echo, *eq5]
    runs = pde._simulate_batch(chains, grid)
    assert len(runs) == 6
    for res, chain in zip(runs, chains):
        (ref,) = pde._simulate_batch([chain], grid)
        assert_same_run(res, ref, sched.n_windows)
    # the single-excited chains are simulate_eq5's runs
    single, _ = pde.simulate_eq5(cases[0][1], [c[5] for c in cases], cases[0][4], grid,
                                 [c[0] for c in cases], OPTS)
    for res, outs in zip(runs[4:], single):
        for out, ref_out in zip(res.outputs, outs):
            npt.assert_array_equal(out.envelopes, ref_out.envelopes)
    assert abs(runs[2].efficiency - runs[4].efficiency) > 1e-6


def test_echo_pads_to_the_schedule_windows():
    """The reference echo holds after its recall, so it rides with a longer schedule,
    and its recalled mode is that of the two-window echo."""
    sp, atoms, cell, cv, grid, pulse = single_mode_setup(nz=64)
    two = pde.Schedule(entries=((pde.ScheduleEntry("store", cv, 1),
                                 pde.ScheduleEntry("recall", cv, -1)),))
    three = pde.Schedule(entries=((pde.ScheduleEntry("store", cv, 1),
                                   pde.ScheduleEntry("hold", gradient_sign=-1),
                                   pde.ScheduleEntry("recall", cv, -1)),))
    echo3 = pde.reference_echo([cell], three, sp, pulse, OPTS)
    assert echo3.schedule.n_windows == 3
    network, res3 = pde._simulate_batch([pde.Chain([cell], three, sp, {0: pulse}, OPTS), echo3],
                                        grid)
    (res2,) = pde._simulate_batch([pde.reference_echo([cell], two, sp, pulse, OPTS)], grid)
    npt.assert_array_equal(pde.echo_mode(res3).envelopes, pde.echo_mode(res2).envelopes)
    with pytest.raises(core.ValidationError, match="same windows"):
        pde._simulate_batch([pde.Chain([cell], three, sp, {0: pulse}, OPTS),
                             pde.reference_echo([cell], two, sp, pulse, OPTS)], grid)


def uncompensated_batch():
    """The uncompensated 3-cell chain fed a seeded pulse, and its reference echo."""
    sp, cells, sched, grid, opts = uncompensated_chain()
    rng = np.random.default_rng(17)
    pulse = pde.GaussianPulse(FWHM, CENTER, rng.normal(size=3) + 1j * rng.normal(size=3))
    return [pde.Chain(cells, sched, sp, {0: pulse}, opts),
            pde.reference_echo(cells, sched, sp, pulse, opts)], sched, grid


def worst_conditioning(chain, grid):
    """The largest condition number of the eigenvectors of ``chain``'s cell operators."""
    windows = pde.window_operators([chain], grid)
    return max(pde._CellModes(part.decay[c], part.absorb.item(c), 0.5 / (grid.nz - 1)).cond
               for (part,) in windows for c in range(len(chain.cells)))


def real_space_runs(monkeypatch) -> list:
    """Monkeypatch _RealSpaceBlock.run to log each real-space run: the block,
    its input spins, step count and stride, the S(1) series and final spins
    it returns, and the spins it records, by step."""
    runs, run = [], pde._RealSpaceBlock.run

    def logging(self, spins, nt, stride, record):
        rows = {}

        def keep(steps, ys):
            rows.update(zip(steps.tolist(), ys.copy()))
            record(steps, ys)

        s1, final = run(self, spins, nt, stride, keep)
        runs.append({"block": self, "spins": spins.copy(), "nt": nt, "stride": stride,
                     "s1": s1, "final": final, "rows": rows})
        return s1, final

    monkeypatch.setattr(pde._RealSpaceBlock, "run", logging)
    return runs


def test_modal_step_matches_the_real_space_step(monkeypatch):
    """The uncompensated chain and its echo take the modal step; with the
    conditioning limit at 0 both take the real-space sweep.  The two runs
    agree to 1e-11 of the largest output and 1e-10 of the largest final spin."""
    chains, sched, grid = uncompensated_batch()
    assert worst_conditioning(chains[0], grid) <= pde.MODAL_COND_LIMIT
    runs = real_space_runs(monkeypatch)
    modal = pde._simulate_batch(chains, grid)
    assert runs == []
    monkeypatch.setattr(pde, "MODAL_COND_LIMIT", 0.0)
    real = pde._simulate_batch(chains, grid)
    # per window one real-space run per chain size, through every step
    assert [run["nt"] for run in runs] == [grid.nt] * (sched.n_windows * 2)
    for res, ref in zip(modal, real):
        for out, ref_out in zip(res.outputs, ref.outputs):
            scale = np.max(np.abs(ref_out.envelopes))
            assert np.max(np.abs(out.envelopes - ref_out.envelopes)) <= 1e-11 * scale
        for spin, ref_spin in zip(res.residual_spins, ref.residual_spins):
            assert np.max(np.abs(spin.sigma - ref_spin.sigma)) \
                <= 1e-10 * np.max(np.abs(ref_spin.sigma))
        assert abs(res.efficiency - ref.efficiency) <= 1e-11 * ref.efficiency


def test_conditioning_limit_is_applied_per_chain(monkeypatch):
    """With the limit between the echo's conditioning and the chain's, only the
    chain falls back to real space; the echo beside it steps as it does alone."""
    chains, sched, grid = uncompensated_batch()
    network, echo = (worst_conditioning(chain, grid) for chain in chains)
    assert echo < network
    monkeypatch.setattr(pde, "MODAL_COND_LIMIT", math.sqrt(echo * network))
    runs = real_space_runs(monkeypatch)
    res_network, res_echo = pde._simulate_batch(chains, grid)
    assert {run["block"].decay.shape[-2] for run in runs} == {len(chains[0].cells)}
    runs.clear()
    (alone,) = pde._simulate_batch([chains[1]], grid)
    assert runs == []
    for out, ref_out in zip(res_echo.outputs, alone.outputs):
        npt.assert_array_equal(out.envelopes, ref_out.envelopes)
    monkeypatch.setattr(pde, "MODAL_COND_LIMIT", 0.0)
    (real,) = pde._simulate_batch([chains[0]], grid)
    assert_same_run(res_network, real, sched.n_windows)


def per_step_rk4(run):
    """A logged real-space run (:func:`real_space_runs`) redone one RK4 step
    at a time on whole spin grids, four evaluations of real_space_rhs a step,
    with the block's coefficients tabulated on every stage time: the S(1)
    series, the final spins and the spins of every stride-th step of the
    heat chain, if the block has one."""
    block, nt, h = run["block"], run["nt"], run["block"].h
    table = np.stack([part.coefficients(block.stages, pulse)
                      for part, pulse in zip(block.parts, block.pulses)], axis=2)

    def f(y, k):
        return real_space_rhs(block, y, *table[k])

    y, s1, rows = run["spins"].copy(), np.empty_like(run["s1"]), {}
    for i in range(nt):
        k1, acc = f(y, 2 * i)
        s1[..., i] = acc[..., -1]
        if i % run["stride"] == 0 and block.heat is not None:
            rows[i] = y[block.heat].copy()
        k2 = f(y + 0.5 * h * k1, 2 * i + 1)[0]
        k3 = f(y + 0.5 * h * k2, 2 * i + 1)[0]
        k4 = f(y + h * k3, 2 * i + 2)[0]
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    s1[..., nt] = f(y, 2 * nt)[1][..., -1]
    return s1, y, rows


def assert_sweep_matches_per_step_rk4(runs, times):
    """Each logged run against :func:`per_step_rk4` from the same spins: the
    S(1) series, the outputs, the final spins and the recorded spins, each to
    1e-12 of its largest value."""
    for run in runs:
        s1, final, rows = per_step_rk4(run)
        assert np.max(np.abs(run["s1"] - s1)) <= 1e-12 * np.max(np.abs(s1))
        assert np.max(np.abs(run["final"] - final)) <= 1e-12 * np.max(np.abs(final))
        for j, (part, pulse) in enumerate(zip(run["block"].parts, run["block"].pulses)):
            e = np.moveaxis(part.inflow(times, pulse), 0, -1)
            out, ref = part.outflow(e, run["s1"][j]), part.outflow(e, s1[j])
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert rows.keys() == run["rows"].keys()
        if rows:
            ref = np.array(list(rows.values()))
            got = np.array([run["rows"][key] for key in rows])
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_sweep_matches_per_step_rk4_on_the_eq5_batch(monkeypatch):
    """The bundled eq5 sweep's single-excited chains, both cases in one block,
    through both windows."""
    cell, pulse, options, groups = cli.build_eq5_cases(cli.load_config("eq5_regime_sweep"))
    ((grid, cases),) = groups.items()
    chains = pde.eq5_chains(cell, [c["entries"] for c in cases], pulse,
                            [c["spectrum"] for c in cases], options)
    runs = real_space_runs(monkeypatch)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "cell 'eq5': validity margins", RuntimeWarning)
        pde._simulate_batch(chains, grid)
    assert [(run["block"].absorb, len(run["block"].parts)) for run in runs] \
        == [(None, len(cases))] * 2
    assert_sweep_matches_per_step_rk4(runs, grid.times)


def test_sweep_matches_per_step_rk4_on_a_chain_with_heatmaps(monkeypatch):
    """The uncompensated 3-cell chain, recording heatmaps, and its echo, both
    in real space under a conditioning limit of 0: the chain's cells couple
    through S(1), and its heatmap rows are the spins it records."""
    chains, sched, grid = uncompensated_batch()
    monkeypatch.setattr(pde, "MODAL_COND_LIMIT", 0.0)
    runs = real_space_runs(monkeypatch)
    (network, _) = pde._simulate_batch(chains, grid, heat=0)
    assert sorted(run["block"].decay.shape[-2] for run in runs) == [1, 1, 3, 3]
    steps = range(0, grid.nt, max(1, grid.nt // 200))
    rows = [run["rows"] for run in runs if run["rows"]]
    assert [list(r) for r in rows] == [list(steps)] * sched.n_windows
    # the heatmap of spin magnitudes, window after window
    spins = np.array([np.abs(r[i]).reshape(-1) for r in rows for i in steps])
    npt.assert_array_equal(network.heatmap_spin.T, spins)
    assert_sweep_matches_per_step_rk4(runs, grid.times)


@pytest.mark.parametrize("limit", [pde.MODAL_COND_LIMIT, 0.0], ids=["default", "real_space"])
def test_heatmaps_of_a_chain_past_the_first_of_its_block(monkeypatch, limit):
    """The uncompensated chain's three basis probes as one block, recording
    probe 2: its heatmaps equal those of probe 2 run alone, bit for bit, and
    the other probes carry none."""
    monkeypatch.setattr(pde, "MODAL_COND_LIMIT", limit)
    sp, cells, sched, grid, opts = uncompensated_chain()
    pulse = pde.GaussianPulse(FWHM, CENTER, np.ones(3))
    probes = pde._basis_probe(cells, sched, grid, sp, opts, pulse)
    runs = pde._simulate_batch(probes, grid, heat=2)
    (alone,) = pde._simulate_batch(probes[2:], grid, heat=0)
    for name in ("heatmap_field", "heatmap_spin", "heatmap_times"):
        npt.assert_array_equal(getattr(runs[2], name), getattr(alone, name))
    samples = len(range(0, grid.nt, max(1, grid.nt // 200)))
    assert runs[2].heatmap_field.shape == (len(cells) * grid.nz, sched.n_windows * samples)
    for res in runs[:2]:
        assert res.heatmap_field is res.heatmap_spin is res.heatmap_times is None


def modal_block_runs(monkeypatch) -> list:
    """Monkeypatch _ModalBlock.run to log each modal block that runs."""
    blocks, run = [], pde._ModalBlock.run

    def logging(self, *args):
        blocks.append(self)
        return run(self, *args)

    monkeypatch.setattr(pde._ModalBlock, "run", logging)
    return blocks


@pytest.mark.parametrize("limit", [pde.MODAL_COND_LIMIT, 0.0], ids=["default", "real_space"])
def test_heatmaps_of_a_chain_behind_one_of_another_size(monkeypatch, limit):
    """The uncompensated chain recording heatmaps behind its 1-cell echo, on a
    grid whose heatmap stride does not divide MODAL_BLOCK, so that samples
    straddle the blocks of steps: by default both share one modal block per
    window, and either way the chain's heatmaps equal those of the chain run
    alone, bit for bit."""
    monkeypatch.setattr(pde, "MODAL_COND_LIMIT", limit)
    (chain, echo), sched, grid = uncompensated_batch()
    assert pde.MODAL_BLOCK % max(1, grid.nt // 200) != 0
    blocks = modal_block_runs(monkeypatch)
    _, res = pde._simulate_batch([echo, chain], grid, heat=1)
    assert [block.offsets.tolist() for block in blocks] \
        == ([[0, 1, 4]] * sched.n_windows if limit else [])
    (alone,) = pde._simulate_batch([chain], grid, heat=0)
    for name in ("heatmap_field", "heatmap_spin", "heatmap_times"):
        npt.assert_array_equal(getattr(res, name), getattr(alone, name))


def test_interleaved_chain_sizes_run_as_alone(monkeypatch):
    """A batch of 1-cell, 3-cell, 1-cell and 3-cell chains runs as one modal
    block per window, with one L and K for both 3-cell chains: every chain's
    outputs, residual spins and efficiency, and the last one's heatmaps,
    equal those of its standalone run, bit for bit."""
    (chain, echo), sched, grid = uncompensated_batch()
    batch = [echo, chain, replace(echo, inputs={0: pde.GaussianPulse(FWHM, CENTER, [0.5j])}),
             replace(chain, inputs={0: pde.GaussianPulse(FWHM, CENTER, [1.0, -0.5j, 0.25])})]
    blocks = modal_block_runs(monkeypatch)
    runs = pde._simulate_batch(batch, grid, heat=3)
    assert [[(lo, hi, len(K)) for lo, hi, _, K in block.runs] for block in blocks] \
        == [[(2, 8, 2)]] * sched.n_windows
    for j, res in enumerate(runs):
        (alone,) = pde._simulate_batch([batch[j]], grid, heat=0 if j == 3 else None)
        for out, ref in zip(res.outputs, alone.outputs, strict=True):
            npt.assert_array_equal(out.envelopes, ref.envelopes)
        for spin, ref in zip(res.residual_spins, alone.residual_spins, strict=True):
            npt.assert_array_equal(spin.sigma, ref.sigma)
        assert (res.efficiency, res.input_energy) == (alone.efficiency, alone.input_energy)
        for name in ("heatmap_field", "heatmap_spin", "heatmap_times"):
            npt.assert_array_equal(getattr(res, name), getattr(alone, name))


@pytest.mark.parametrize("heat", [-2, 2])
def test_heatmap_index_outside_the_batch_is_refused(heat):
    """identity_1mode's batch holds the network and its echo: a heatmap index
    past either end names itself and the batch size instead of recording
    nothing (-2) or failing on an index (2)."""
    setup = cli.NetworkSetup(cli.load_config("identity_1mode"))
    with pytest.raises(core.ValidationError, match=re.escape(
            f"heatmap index {heat} outside a batch of 2 chains")):
        pde._simulate_batch(setup.chains(False), setup.grid, heat=heat)


def test_step_guard_messages_read_above_their_bounds():
    """A product just past its bound prints with the decimals that show the
    breach, not rounded down onto the bound; a clear breach keeps two."""
    with pytest.raises(core.NumericalError, match=r"\(dt \* rate = 0\.5002 > 0\.5\)"):
        pde._check_step(0.02, 25.01, 0.0)
    with pytest.raises(core.NumericalError, match=r"\(dt \* rotation = 0\.2001 > 0\.2\)"):
        pde._check_step(0.02, 0.0, 10.005)
    with pytest.raises(core.NumericalError, match=r"\(dt \* rate = 0\.92 > 0\.5\)"):
        pde._check_step(0.02, 46.0, 0.0)


def single_mode_echo(nz):
    """The single-mode cell storing (gradient sign +1) and recalling (-1) as a
    chain, and its grid."""
    sp, atoms, cell, cv, grid, pulse = single_mode_setup(nz=nz)
    sched = pde.Schedule(entries=((pde.ScheduleEntry("store", cv, 1),
                                   pde.ScheduleEntry("recall", cv, -1)),))
    return pde.Chain([cell], sched, sp, {0: pulse}, OPTS), grid


@pytest.mark.parametrize("nz", [64, 256])
@pytest.mark.parametrize("window", [0, 1], ids=["store", "recall"])
def test_cell_modes_match_a_dense_build(nz, window):
    """V and V^-1 of the closed form, formed in full by applying them to the
    identity, against the dense A = diag(decay) - absorb T: A V = V diag(lam)
    with V unit lower triangular and V V^-1 = I to 1e-12 of the matrix scale,
    and cond, psi = T[-1] V and beta = V^-1 1 as the dense matrices give them."""
    chain, grid = single_mode_echo(nz)
    (part,) = pde.window_operators([chain], grid)[window]
    decay, absorb, half_dz = part.decay[0], part.absorb.item(0), part.half_dz
    modes = pde._CellModes(decay, absorb, half_dz)
    T = pde._cumtrapz(np.eye(nz), half_dz).T
    A = np.diag(decay) - absorb * T
    eye = np.eye(nz, dtype=complex)

    def apply(y, inverse):
        return pde._modal_map(y, modes.columns[inverse], modes.symbols[inverse])

    V, V_inv = (apply(eye, inverse).T for inverse in (False, True))
    npt.assert_allclose(modes.lam, np.diag(A), rtol=0, atol=1e-15 * np.max(np.abs(A)))
    scale = np.max(np.abs(A)) * np.max(np.abs(V))
    assert np.max(np.abs(A @ V - V * modes.lam)) <= 1e-12 * scale
    assert np.max(np.abs(np.triu(V, 1))) <= 1e-12 * np.max(np.abs(V))
    assert np.max(np.abs(np.diag(V) - 1.0)) <= 1e-12
    assert np.max(np.abs(V @ V_inv - eye)) <= 1e-12 * np.max(np.abs(V)) * np.max(np.abs(V_inv))
    rng = np.random.default_rng(nz + window)
    y = rng.normal(size=(3, nz)) + 1j * rng.normal(size=(3, nz))
    npt.assert_allclose(apply(apply(y, True), False), y, rtol=0,
                        atol=1e-12 * np.max(np.abs(y)))
    cond = np.linalg.norm(V, 1) * np.linalg.norm(V_inv, 1)
    assert 1.0 < modes.cond <= pde.MODAL_COND_LIMIT
    assert abs(modes.cond - cond) <= 1e-12 * cond
    for row, dense in ((modes.psi, T[-1] @ V), (modes.beta, V_inv @ np.ones(nz))):
        npt.assert_allclose(row, dense, rtol=0, atol=1e-12 * np.max(np.abs(dense)))


def test_a_decay_that_is_not_linear_steps_in_real_space():
    """Eigenvalues that do not step evenly along z break the Toeplitz form: the
    cell's condition number is not finite and its chain takes real space."""
    chain, grid = single_mode_echo(64)
    (part,), _ = pde.window_operators([chain], grid)
    assert pde._window_modes([chain], [part], part.half_dz) != [None]
    part.decay = part.decay - 0.1j * ETA * grid.z ** 2
    assert not math.isfinite(pde._CellModes(part.decay[0], part.absorb.item(0),
                                            part.half_dz).cond)
    assert pde._window_modes([chain], [part], part.half_dz) == [None]


def held_chain():
    """The uncompensated 3-cell chain with its middle cell holding, uncoupled,
    in the recall window."""
    sp, cells, sched, grid, opts = uncompensated_chain()
    rows = list(sched.entries)
    rows[1] = (rows[1][0], pde.ScheduleEntry("hold", gradient_sign=-1))
    return sp, cells, pde.Schedule(entries=tuple(rows)), grid, opts


def test_field_norms_match_the_per_mode_field():
    """Field norms of the bright/dark split against the explicit per-mode field
    sqrt(sum_k |e_k + emit_k S(z)|^2) of each cell, with e_k the cell's inflow
    carried down the chain mode by mode, for a batch of two states of the
    held chain, to 1e-12 of the largest norm."""
    sp, cells, sched, grid, opts = held_chain()
    rng = np.random.default_rng(19)
    sig = rng.normal(size=(2, 3, grid.nz)) + 1j * rng.normal(size=(2, 3, grid.nz))
    e = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    op = pde._ChainOperator(cells, sched, 1, sp, grid, opts)
    acc = pde._cumtrapz(sig, op.half_dz)
    norms = op.field_norms(e, acc)
    assert norms.shape == (2, 3 * grid.nz)
    for b in range(2):
        inflow, ref = e[b], []
        for c, (cell, row) in enumerate(zip(cells, sched.entries)):
            coupling = row[1].coupling
            emit = (np.zeros(3) if coupling is None else
                    1j * cell.atoms.coupling_density * coupling.amplitudes / sp.detunings)
            field = inflow[:, None] + emit[:, None] * acc[b, c][None, :]
            ref.append(np.sqrt(np.sum(np.abs(field) ** 2, axis=0)))
            inflow = field[:, -1] * np.exp(1j * core.dispersion_phase(cell.atoms, sp, 1.0))
        ref = np.concatenate(ref)
        assert np.max(np.abs(norms[b] - ref)) <= 1e-12 * np.max(ref)


def test_block_maps_every_row_in_one_pass():
    """A block of two held chains in the recall window, whose coupled cells
    have two distinct operators: V^-1 then V returns the spins to 1e-12, the
    held cell's rows come back bit-equal both ways, and one chain's spins
    agree with the block map.  The outflow matches H S(1) + C e to 1e-14."""
    sp, cells, sched, grid, opts = held_chain()
    chains = [pde.Chain(cells, sched, sp, {}, opts)] * 2
    parts = pde.window_operators(chains, grid)[1]
    modes = pde._window_modes(chains, parts, parts[0].half_dz)
    assert len({m for chain in modes for m in chain if m.absorb != 0.0}) == 2
    assert [m.absorb for m in modes[0]][1] == 0.0
    stages = core.stage_times(grid.times)
    block = pde._ModalBlock(parts, [None, None], None, grid.dt, stages, modes)
    rng = np.random.default_rng(23)
    y = rng.normal(size=(2, 3, grid.nz)) + 1j * rng.normal(size=(2, 3, grid.nz))
    # the block's rows are the chains' cells end to end
    a = block.map(y.reshape(6, -1), True)
    back = block.map(a, False).reshape(y.shape)
    a = a.reshape(y.shape)
    assert np.max(np.abs(back - y)) <= 1e-12 * np.max(np.abs(y))
    npt.assert_array_equal(a[:, 1], y[:, 1])
    npt.assert_array_equal(back[:, 1], y[:, 1])
    for j in range(2):
        heat = pde._ModalBlock(parts, [None, None], j, grid.dt, stages, modes)
        npt.assert_allclose(heat.spins(a[j][None].copy())[0], back[j], rtol=0,
                            atol=1e-14 * np.max(np.abs(back)))
    op = parts[0]
    e = rng.normal(size=(2, 3, 40)) + 1j * rng.normal(size=(2, 3, 40))
    s1 = rng.normal(size=(2, 3, 40)) + 1j * rng.normal(size=(2, 3, 40))
    ref = op.H @ s1 + op.C[..., None] * e
    assert np.max(np.abs(op.outflow(e, s1) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_chain_reproduces_the_gradient_echo_law():
    """identity_1mode without losses, a 20 us pulse centred in an 80 us window,
    at optical depths that set beta = 0.25, 0.5, 1 and 1.5 (1 at the bundled
    1,000): each efficiency is (1 - exp(-2 pi beta))^2 (Hetet et al., PRL 100,
    023601 (2008)) to 1e-4 relative, about 7x the worst residual at grid
    scale 1.  The law holds for a pulse whose spectrum lies well inside the
    broadened line, which the bundled 10 us pulse in 40 us does not."""
    cfg = cli.load_config("identity_1mode")
    cfg["atoms"]["gamma_mhz"] = 0.0
    cfg["options"] = {"power_broadening": False}
    cfg["grid"]["window_us"] = 80.0
    cfg["pulse"].update(fwhm_us=20.0, center_us=40.0)
    betas = (0.25, 0.5, 1.0, 1.5)
    setups = []
    for beta in betas:
        cfg["atoms"]["optical_depth"] = 1000.0 * beta
        setups.append(cli.NetworkSetup(cfg))
    results = pde._simulate_batch([setup.chains(False)[0] for setup in setups], setups[0].grid)
    for beta, res in zip(betas, results, strict=True):
        law = (1.0 - math.exp(-2.0 * math.pi * beta)) ** 2
        assert res.efficiency == pytest.approx(law, rel=1e-4), f"beta = {beta}"
