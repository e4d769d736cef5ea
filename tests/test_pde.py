import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from memspin import compiler, core, pde
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


OPTS = pde.SimOptions(check_margins=False)


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
        with pytest.raises(pde.ScheduleError):
            pde.ScheduleEntry(event="stash")
        with pytest.raises(pde.ScheduleError):
            pde.ScheduleEntry(event="store", coupling=None)
        with pytest.raises(pde.ScheduleError):
            pde.ScheduleEntry(event="store", coupling=core.CouplingVector(np.zeros(2)))
        with pytest.raises(pde.ScheduleError):
            pde.ScheduleEntry(event="hold", gradient_sign=0)

    def test_recall_before_store(self):
        cv = core.CouplingVector(np.ones(1))
        sched = pde.Schedule(entries=((
            pde.ScheduleEntry(event="recall", coupling=cv, gradient_sign=-1),
            pde.ScheduleEntry(event="store", coupling=cv, gradient_sign=1),
        ),))
        with pytest.raises(pde.ScheduleError):
            sched.check_causality()
        # seeded spin makes the same schedule legal
        sched.check_causality(preloaded={0})

    def test_ragged_rows_rejected(self):
        cv = core.CouplingVector(np.ones(1))
        a = pde.ScheduleEntry(event="store", coupling=cv, gradient_sign=1)
        with pytest.raises(pde.ScheduleError):
            pde.Schedule(entries=((a, a), (a,)))

    def test_output_windows(self):
        cv = core.CouplingVector(np.ones(1))
        sched = pde.Schedule(entries=((
            pde.ScheduleEntry(event="store", coupling=cv, gradient_sign=1),
            pde.ScheduleEntry(event="hold"),
            pde.ScheduleEntry(event="recall", coupling=cv, gradient_sign=-1),
        ),))
        assert sched.output_windows() == (2,)


def test_pulse_energy_closed_form():
    pulse = pde.GaussianPulse(fwhm=FWHM, center=CENTER,
                              mode_amplitudes=np.array([0.6, 0.8j]))
    t = np.linspace(-200, 260, 400001)
    numeric = np.trapezoid(np.sum(np.abs(pulse.mode_amplitudes[:, None]
                                         * pulse.envelope(t)[None, :]) ** 2, axis=0), t)
    assert pulse.energy() == pytest.approx(numeric, rel=1e-10)


class TestSingleCell:
    def test_no_coupling_passthrough(self):
        sp, atoms, cell, cv, grid, pulse = single_mode_setup()
        out, spin = pde.simulate_cell(
            cell, pde.ScheduleEntry(event="hold"), pulse, grid, sp, OPTS)
        expected = pulse.mode_amplitudes[0] * pulse.envelope(grid.times)
        npt.assert_allclose(out.envelopes[0], expected, atol=1e-12)
        assert np.max(np.abs(spin.sigma)) == 0.0

    def test_store_recall_efficiency(self):
        """Full cycle at high optical depth reaches the >= 0.90 regime."""
        sp, atoms, cell, cv, grid, pulse = single_mode_setup(gamma=mhz(5e-5))
        out1, spin1 = pde.simulate_cell(
            cell, pde.ScheduleEntry("store", cv, 1), pulse, grid, sp, OPTS)
        out2, spin2 = pde.simulate_cell(
            cell, pde.ScheduleEntry("recall", cv, -1), None, grid, sp, OPTS,
            initial_spin=spin1.sigma)
        eff = out2.energy() / pulse.energy()
        assert eff >= 0.90
        assert out1.energy() / pulse.energy() <= 0.02  # little leakage during storage

    def test_energy_bookkeeping_lossless(self):
        """Input energy = transmitted + beta*Gamma*integral(|s|^2) without decay."""
        sp, atoms, cell, cv, grid, pulse = single_mode_setup(beta=200.0, d=0.8)
        opts = pde.SimOptions(check_margins=False, power_broadening=False)
        out, spin = pde.simulate_cell(
            cell, pde.ScheduleEntry("store", cv, 1), pulse, grid, sp, opts)
        total = out.energy() + spin.energy_norm(atoms)
        assert abs(total - pulse.energy()) / pulse.energy() <= 1e-3

    def test_energy_bookkeeping_with_losses(self):
        """With scattering on, the books can only lose energy."""
        sp, atoms, cell, cv, grid, pulse = single_mode_setup(beta=200.0, d=0.8,
                                                             gamma=mhz(1e-3))
        out, spin = pde.simulate_cell(
            cell, pde.ScheduleEntry("store", cv, 1), pulse, grid, sp, OPTS)
        total = out.energy() + spin.energy_norm(atoms)
        assert total <= pulse.energy() * (1 + 1e-3)
        assert total < pulse.energy() * 0.999  # decay actually bit

    def test_linearity(self):
        sp, atoms, cell, cv, grid, pulse = single_mode_setup(nz=128)
        p1 = pde.GaussianPulse(FWHM, CENTER, np.array([1.0]))
        p2 = pde.GaussianPulse(FWHM, CENTER - 5.0, np.array([0.5j]))

        def run(p):
            out, spin = pde.simulate_cell(
                cell, pde.ScheduleEntry("store", cv, 1), p, grid, sp, OPTS)
            return out.envelopes, spin.sigma

        o1, s1 = run(p1)
        o2, s2 = run(p2)
        out, spin = pde.simulate_cell(
            cell, pde.ScheduleEntry("store", cv, 1), lambda t: p1(t) + p2(t),
            grid, sp, OPTS)
        npt.assert_allclose(out.envelopes, o1 + o2, atol=1e-10)
        npt.assert_allclose(spin.sigma, s1 + s2, atol=1e-10)

    def test_step_size_guard(self):
        sp, atoms, cell, cv, grid, pulse = single_mode_setup()
        big = pde.MemoryCell(atoms=atoms, gradient_eta=80.0, id="fast")
        with pytest.raises(pde.StepSizeError):
            pde.simulate_cell(big, pde.ScheduleEntry("store", cv, 1), pulse,
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
            pde.simulate_cell(cell, pde.ScheduleEntry("store", cv, 1), pulse, grid,
                              sp, pde.SimOptions())

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
            "simulate_cell": lambda: pde.simulate_cell(cell, store, pulse, grid, sp),
            "eq5_deviation": lambda: pde.eq5_deviation(cell, [store, recall], pulse, grid, sp),
        }
        for name, call in calls.items():
            with pytest.warns(RuntimeWarning, match="validity margins") as record:
                call()
            assert [w.filename for w in record] == [__file__], name


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
        outN, _ = pde.simulate_cell(
            self.cell, pde.ScheduleEntry("store", self.coupling, 1), pulse,
            self.grid, self.sp, OPTS)

        w = core.bright_mode_coefficients(self.coupling, self.sp)
        basis = core.complete_bright_basis(w)
        rot = basis @ amps
        sp1 = core.ModeSpectrum(mean_detuning=self.sp.mean_detuning,
                                detunings=np.array([self.sp.mean_detuning]))
        cv1 = core.CouplingVector(np.array([self.ot * self.sp.mean_detuning]))
        outB, _ = pde.simulate_cell(
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
        out, spin = pde.simulate_cell(
            self.cell, pde.ScheduleEntry("store", self.coupling, 1), pulse,
            self.grid, self.sp, OPTS)
        assert out.energy() / pulse.energy() >= 0.999
        assert spin.energy_norm(self.atoms) <= 1e-6 * pulse.energy()


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
        out1, spin1 = pde.simulate_cell(cell, sched.entries[0][0], pulse, grid, sp, OPTS)
        out2, spin2 = pde.simulate_cell(cell, sched.entries[0][1], None, grid, sp, OPTS,
                                        initial_spin=spin1.sigma)
        npt.assert_allclose(res.outputs[0].envelopes, out1.envelopes, atol=1e-12)
        npt.assert_allclose(res.outputs[1].envelopes, out2.envelopes, atol=1e-12)
        npt.assert_allclose(res.residual_spins[0].sigma, spin2.sigma, atol=1e-12)

    def test_three_mode_overlap_against_ideal(self):
        u_in = compiler.haar_random_unitary(3, seed=31)
        u_out = compiler.haar_random_unitary(3, seed=32)
        sp, cells, sched, grid, pulse = two_op_network(3, u_in, u_out, nz=192)
        psi = pde.default_temporal_mode(cells, sched, grid, sp, pulse, OPTS)
        e1 = pde.GaussianPulse(FWHM, CENTER, np.array([1.0])).energy()
        ideal_m = compiler.ideal_transfer(u_in, u_out).matrix
        ideal = pde.ideal_output(ideal_m, pulse.mode_amplitudes, psi, e1)
        res = pde.simulate_network(cells, sched, {0: pulse}, grid, sp, OPTS, ideal=ideal)
        assert res.overlap >= 0.98
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
        opts = pde.SimOptions(check_margins=False, record_heatmap=True)
        res = pde.simulate_network(cells, sched, {0: pulse}, grid, sp, opts)
        assert res.heatmap_field is not None
        assert res.heatmap_field.shape[0] == 2 * grid.nz
        assert res.heatmap_spin.shape == res.heatmap_field.shape
        assert res.heatmap_z.size == 2 * grid.nz

    def test_dispersion_phase_applied_when_uncompensated(self):
        sp = core.ModeSpectrum.equally_spaced(250.0, 15.0, 2)
        atoms = core.AtomicParams(Gamma=GAMMA, gamma=0.0, beta=100.0)
        cell = pde.MemoryCell(atoms=atoms, gradient_eta=ETA, id="disp")
        grid = pde.Grid(nz=64, dt=0.02, window=WINDOW)
        pulse = pde.GaussianPulse(FWHM, CENTER, np.array([1.0, 1.0]))
        opts = pde.SimOptions(check_margins=False, compensate_dispersion=False)
        out, _ = pde.simulate_cell(cell, pde.ScheduleEntry(event="hold"), pulse,
                                   grid, sp, opts)
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
        psi = pde.reference_echo(cell, 0.004, pulse, grid, sp.mean_detuning, OPTS)
        assert psi.energy() == pytest.approx(1.0, rel=1e-12)


class TestEfficiencyOverlap:
    def _result(self, outputs, input_energy):
        return pde.NetworkResult(
            outputs=outputs, residual_spins=[], efficiency=0.0, overlap=None,
            input_energy=input_energy, window_energies=[], output_windows=(0,))

    def test_output_equals_ideal(self):
        t = np.linspace(0, 40, 401)
        env = np.exp(-((t - 20.0) / 6.0) ** 2)
        fs = pde.FieldState(envelopes=env[None, :] * (0.5 + 0.5j), times=t)
        eff, ov = pde.efficiency_and_overlap(self._result([fs], fs.energy()), [fs])
        assert ov == pytest.approx(1.0, abs=1e-12)
        assert eff == pytest.approx(1.0, rel=1e-12)

    def test_scaled_amplitude_mirrors_quoted_numbers(self):
        t = np.linspace(0, 40, 401)
        env = np.exp(-((t - 20.0) / 6.0) ** 2)
        ideal = pde.FieldState(envelopes=env[None, :], times=t)
        scaled = pde.FieldState(envelopes=0.955 * env[None, :], times=t)
        eff, ov = pde.efficiency_and_overlap(
            self._result([scaled], ideal.energy()), [ideal])
        assert eff == pytest.approx(0.912, abs=1e-3)
        assert ov == pytest.approx(1.0, abs=1e-12)

    def test_zero_output(self):
        t = np.linspace(0, 40, 401)
        env = np.exp(-((t - 20.0) / 6.0) ** 2)
        ideal = pde.FieldState(envelopes=env[None, :], times=t)
        zero = pde.FieldState(envelopes=np.zeros_like(env)[None, :], times=t)
        eff, ov = pde.efficiency_and_overlap(self._result([zero], 1.0), [ideal])
        assert eff == 0.0 and ov == 0.0

    def test_zero_ideal_rejected(self):
        t = np.linspace(0, 40, 401)
        zero = pde.FieldState(envelopes=np.zeros((1, t.size)), times=t)
        with pytest.raises(pde.UndefinedOverlapError):
            pde.efficiency_and_overlap(self._result([zero], 1.0), [zero])


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
        ideal = compiler.ideal_transfer(u_in, u_out).matrix
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
        assert res.window_energies[0]["output"] / probe.energy() >= 0.999


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
        outs, _ = pde.simulate_eq5(cell, entries, pulse, grid, sp, OPTS)
        beats = sp.detunings - sp.mean_detuning
        tt = grid.times
        comp_in = np.sum(pulse.mode_amplitudes[:, None] * pulse.envelope(tt)[None, :]
                         * np.exp(1j * np.outer(beats, tt)), axis=0)
        e_in = float(np.trapezoid(np.abs(comp_in) ** 2, tt))
        eff5 = outs[1].energy() / e_in
        rates = core.effective_rates(cv, sp, cell.atoms)
        m9 = core.check_inequality_9(sp, rates)
        return m9, res.efficiency, eff5

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
        outs, _ = pde.simulate_eq5(cell, entries, pulse, grid, sp1, OPTS)
        eff5 = outs[1].energy() / pulse.energy()
        assert abs(eff5 - res.efficiency) / res.efficiency <= 1e-3

    def test_agreement_in_regime(self):
        m9, eff1, eff5 = self._deviation(2.0)
        assert m9 >= 100
        assert abs(eff5 - eff1) / eff1 <= 0.01

    def test_negative_control_out_of_regime(self):
        m9, eff1, eff5 = self._deviation(0.019068)
        assert m9 <= 1.5
        assert abs(eff5 - eff1) / eff1 > 0.05

    def test_beat_resolution_guard(self):
        sp, cell, cv, grid, pulse, entries = self._setup(2.0)
        coarse = pde.Grid(nz=128, dt=0.2, window=WINDOW)
        with pytest.raises(pde.StepSizeError):
            pde.simulate_eq5(cell, entries, pulse, coarse, sp, OPTS)


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
    opts = pde.SimOptions(check_margins=False, compensate_dispersion=False)
    return sp, cells, sched, grid, opts


def test_chain_superposition_through_batch_axis():
    """Runs x, y and a x + b y of a 3-cell chain, integrated as one batch: the
    third run's window outputs and residual spins are a run 1 + b run 2."""
    sp, cells, sched, grid, opts = uncompensated_chain()
    grid = pde.Grid(nz=grid.nz, dt=0.05, window=grid.window)
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    a, b = 0.7 - 0.4j, -0.3 + 1.1j
    pulse = pde.GaussianPulse(FWHM, CENTER, np.array([x, y, a * x + b * y]))
    sig = np.zeros((3, sched.n_cells, grid.nz), dtype=complex)
    r1, r2, r3 = pde._simulate_batch(cells, sched, {0: pulse}, grid, sp, opts, sig)
    for o1, o2, o3 in zip(r1.outputs, r2.outputs, r3.outputs):
        scale = np.max(np.abs(o3.envelopes))
        assert scale > 0
        npt.assert_allclose(o3.envelopes, a * o1.envelopes + b * o2.envelopes,
                            rtol=0, atol=1e-12 * scale)
    spins = [np.array([s.sigma for s in r.residual_spins]) for r in (r1, r2, r3)]
    npt.assert_allclose(spins[2], a * spins[0] + b * spins[1], rtol=0,
                        atol=1e-12 * np.max(np.abs(spins[2])))


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

    dsig, acc = op.derivative(sig, e)
    check(dsig, op.outflow(e, acc), op.field_norms(e, acc), sig, e)
    dsig2, acc2 = op.derivative(sig2, e2)
    out2, norms2 = op.outflow(e2, acc2), op.field_norms(e2, acc2)
    assert dsig2.shape == sig2.shape and out2.shape == e2.shape
    for b in range(2):
        check(dsig2[b], out2[b], norms2[b], sig2[b], e2[b])
    detuned = [replace(cell, atoms=replace(cell.atoms, delta=mhz(0.2))) for cell in cells]
    op = pde._ChainOperator(detuned, sched, window, sp, grid, replace(opts, auto_two_photon=False))
    dsig, acc = op.derivative(sig, e)
    check(dsig, op.outflow(e, acc), op.field_norms(e, acc), sig, e, detuned, light_shift=True)


def test_batched_basis_probes_match_single_runs():
    """Each probe of the one batched integration against its own simulate_network run."""
    sp, cells, sched, grid, opts = uncompensated_chain()
    pulse = pde.GaussianPulse(FWHM, CENTER, np.ones(3, dtype=complex) / math.sqrt(3))
    probes = pde._basis_probe(cells, sched, grid, sp, opts, pulse)
    assert len(probes) == 3
    for j, res in enumerate(probes):
        probe = pde.GaussianPulse(FWHM, CENTER, np.eye(3)[j])
        ref = pde.simulate_network(cells, sched, {0: probe}, grid, sp, opts)
        assert len(res.outputs) == len(ref.outputs) == sched.n_windows
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


def test_transfer_columns_match_basis_probe_runs():
    u_in = compiler.haar_random_unitary(2, seed=41)
    u_out = compiler.haar_random_unitary(2, seed=42)
    sp, cells, sched, grid, pulse = two_op_network(2, u_in, u_out, nz=64)
    m = pde.extract_transfer_matrix(cells, sched, grid, sp, pulse, OPTS)
    psi = pde.default_temporal_mode(cells, sched, grid, sp, pulse, OPTS).envelopes[0]
    win, _ = pde.echo_center(sched, grid, pulse.center)
    e1 = pde.GaussianPulse(FWHM, CENTER, np.array([1.0])).energy()
    for j in range(2):
        probe = pde.GaussianPulse(FWHM, CENTER, np.eye(2)[j])
        out = pde.simulate_network(cells, sched, {0: probe}, grid, sp, OPTS).outputs[win]
        column = np.trapezoid(out.envelopes * np.conj(psi), out.times, axis=1) / math.sqrt(e1)
        npt.assert_allclose(m[:, j], column, rtol=0, atol=1e-12)
