"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines
and timings.  Criteria and tolerances are pinned here; nothing is deferred
to later calibration.
"""

import json
import math
import time

import numpy as np
import pytest

from memspin import analytic, cli, compiler, core, fock, pde
from memspin.core import angular_from_mhz as mhz

GAMMA = mhz(6.0)
ETA = 2.2 * 4 * math.log(2) / 10.0
OPTS = pde.SimOptions()


def _store(cell, coupling, pulse, grid, sp, options=OPTS) -> pde.NetworkResult:
    """One cell storing ``pulse`` in one window: simulate_network on a one-cell schedule."""
    return pde.simulate_network([cell], pde.Schedule(entries=((
        pde.ScheduleEntry("store", coupling, 1),),)), {0: pulse}, grid, sp, options)


def _report(n, detail):
    print(f"\nACCEPTANCE {n}: PASS ({detail})")


@pytest.fixture(scope="module")
def golden_run():
    """Bundled ten-mode scenario executed once, shared by criteria 3 and 8."""
    cfg = json.loads(cli.scenario_path("ten_mode_two_ops").read_text())
    cfg["outputs"] = {"heatmap": False, "transfer": False}

    def execute(grid_scale=1.0):
        return cli.run_network(cli.NetworkSetup(cfg, grid_scale=grid_scale))[0]

    t0 = time.monotonic()
    base = execute()
    elapsed = time.monotonic() - t0
    return {"execute": execute, "base": base, "elapsed": elapsed}


def test_criterion_1_compiler_exactness():
    """200 random unitaries: plan reconstruction and ideal transfer to 1e-12."""
    t0 = time.monotonic()
    rng_seed = 0
    worst_rec = 0.0
    worst_transfer = 0.0
    for n in (2, 3, 5, 10):
        sp = core.ModeSpectrum.equally_spaced(250.0, 15.0, n, guard=0.35)
        for k in range(50):
            u_in = compiler.haar_random_unitary(n, seed=rng_seed)
            u_out = compiler.haar_random_unitary(n, seed=rng_seed + 1)
            rng_seed += 2
            plan = compiler.compile_write(u_in, sp, 0.004)
            rec = compiler.reconstruct_matrix(plan, sp)
            worst_rec = max(worst_rec, float(np.max(np.abs(rec - u_in.matrix))))
            t = compiler.ideal_transfer(u_in, u_out)
            direct = u_out.matrix.conj().T @ u_in.matrix
            worst_transfer = max(worst_transfer, float(np.max(np.abs(t - direct))))
    elapsed = time.monotonic() - t0
    assert worst_rec <= 1e-12
    assert worst_transfer <= 1e-12
    assert elapsed < 5.0
    _report(1, f"200 unitaries, reconstruction {worst_rec:.1e}, "
               f"transfer {worst_transfer:.1e}, {elapsed:.1f}s")


def test_criterion_2_bright_dark_equivalence():
    """Multimode run equals rotated single-mode run; dark modes pass through."""
    t0 = time.monotonic()
    sp = core.ModeSpectrum.equally_spaced(250.0, 15.0, 3)
    atoms = core.AtomicParams(Gamma=GAMMA, gamma=0.0, beta=300.0)
    cell = pde.MemoryCell(atoms=atoms, gradient_eta=ETA, id="bd")
    ot = math.sqrt(ETA / (300.0 * GAMMA))
    u = compiler.haar_random_unitary(3, seed=9)
    coupling = core.CouplingVector(ot * sp.detunings * np.conj(u.matrix[0]))
    grid = pde.Grid(nz=192, dt=0.02, window=40.0)
    rng = np.random.default_rng(4)
    amps = rng.normal(size=3) + 1j * rng.normal(size=3)
    amps /= np.linalg.norm(amps)
    pulse = pde.GaussianPulse(10.0, 20.0, amps)
    outN = _store(cell, coupling, pulse, grid, sp).outputs[0]

    w = core.bright_mode_coefficients(coupling, sp)
    basis = core.complete_bright_basis(w)
    rot = basis @ amps
    sp1 = core.ModeSpectrum(mean_detuning=sp.mean_detuning,
                            detunings=np.array([sp.mean_detuning]))
    cv1 = core.CouplingVector(np.array([ot * sp.mean_detuning]))
    outB = _store(cell, cv1, pde.GaussianPulse(10.0, 20.0, np.array([rot[0]])), grid,
                  sp1).outputs[0]
    env = pulse.envelope(grid.times)
    reduced = np.vstack([outB.envelopes[0], rot[1] * env, rot[2] * env])
    back = basis.conj().T @ reduced
    dev = np.max(np.abs(back - outN.envelopes)) / np.max(np.abs(outN.envelopes))
    assert dev <= 1e-3

    dark = basis.conj().T @ np.array([0.0, 1.0, 0.0], dtype=complex)
    resD = _store(cell, coupling, pde.GaussianPulse(10.0, 20.0, dark), grid, sp)
    transmission = resD.outputs[0].energy() / resD.input_energy
    assert transmission >= 0.999
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(2, f"field deviation {dev:.1e}, dark transmission {transmission:.6f}, "
               f"{elapsed:.1f}s")


def test_criterion_3_paper_golden_run(golden_run):
    """Ten modes, 15 MHz spacing, two compiled operations: efficiency and overlap.

    The published simulation result is (91.2 +- 0.2)% efficiency with 0.988
    overlap; a +-3 point window absorbs the unstated decay, coupling and
    gradient parameters.  The bundled scenario uses the full quoted ensemble
    depth per memory (see the decisions ledger on the per-segment figure).
    """
    res = golden_run["base"]
    elapsed = golden_run["elapsed"]
    assert 0.882 <= res.efficiency <= 0.942, \
        f"efficiency {res.efficiency:.4f} outside 91.2 +- 3 points"
    assert res.overlap >= 0.98
    assert elapsed <= 600.0
    _report(3, f"efficiency {res.efficiency:.4f} (target 0.912 +- 0.030), "
               f"overlap {res.overlap:.4f} >= 0.98, {elapsed:.0f}s <= 600s")


def test_criterion_4_analytic_vs_oracle():
    """Closed-form spin solutions track the brute-force integrator."""
    t0 = time.monotonic()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(10):
        offs = np.sort(rng.uniform(-8, 8, size=3))
        while np.min(np.diff(offs)) < 1.0:
            offs = np.sort(rng.uniform(-8, 8, size=3))
        det = mhz(250.0) + mhz(offs)
        sp = core.ModeSpectrum(mean_detuning=mhz(250.0), detunings=det)
        amps = (rng.normal(size=3) + 1j * rng.normal(size=3)) * mhz(2.0)
        # rescale each draw onto the margin >= 100 regime the criterion pins
        m0 = core.check_inequality_7(sp, core.omega_tilde(core.CouplingVector(amps), sp))
        amps = amps * math.sqrt(m0 / 150.0)
        cv = core.CouplingVector(amps)
        atoms = core.AtomicParams(Gamma=GAMMA, gamma=0.01, delta=0.005, beta=100.0)
        ot = core.omega_tilde(cv, sp)
        assert core.check_inequality_7(sp, ot) >= 100
        sol = analytic.AnalyticSpinSolution.from_params(atoms, cv, sp)
        t = np.linspace(0, 1.0, 1001)
        exact = analytic.undriven_spin_exact(sol, t)
        oracle = analytic.ode_oracle(atoms, cv, sp, None, t, sigma0=exact[0])
        worst = max(worst, float(np.max(np.abs(exact - oracle)) / np.max(np.abs(oracle))))
    assert worst <= 1e-3

    gamma = 0.05
    spacing = 100 * math.sqrt(2) * gamma
    sp = core.ModeSpectrum(mean_detuning=mhz(250.0),
                           detunings=mhz(250.0) + spacing * np.array([-0.5, 0.5]))
    cv = core.CouplingVector(np.array([0.3 + 0.1j, 0.2 - 0.25j]) * mhz(0.5))
    atoms = core.AtomicParams(Gamma=GAMMA, gamma=gamma, beta=100.0)
    m9 = core.check_inequality_9(sp, core.effective_rates(cv, sp, atoms))
    assert 90 <= m9 <= 110
    sol = analytic.AnalyticSpinSolution.from_params(atoms, cv, sp, alpha=0.3 - 0.4j)
    fields = np.array([0.8 + 0.1j, -0.5 + 0.3j])
    t = np.linspace(0, 60.0, 12001)
    drv = analytic.driven_spin_solution(sol, fields, t)
    orc = analytic.ode_oracle(atoms, cv, sp, fields, t, sigma0=drv[0])
    driven_err = float(np.max(np.abs(drv - orc)) / np.max(np.abs(orc)))
    assert driven_err <= 1e-3

    tt = np.linspace(0, 1.0, 501)
    amps = np.array([1.0 + 0.5j, -0.7 + 0.2j]) * mhz(2.0)
    errs = []
    for spread in (4.0, 8.0):
        spx = core.ModeSpectrum(mean_detuning=mhz(250.0),
                                detunings=mhz(250.0) + mhz(spread) * np.array([-1, 1.0]))
        solx = analytic.AnalyticSpinSolution.from_params(
            core.AtomicParams(Gamma=GAMMA, beta=100.0), core.CouplingVector(amps), spx)
        e = analytic.undriven_spin_exact(solx, tt)
        f = analytic.undriven_spin_firstorder(solx, tt)
        errs.append(float(np.max(np.abs(e - f))))
    ratio = errs[0] / errs[1]
    assert abs(ratio - 2.0) <= 0.3 * 2.0
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(4, f"undriven {worst:.1e}, driven {driven_err:.1e}, "
               f"first-order halving ratio {ratio:.2f}, {elapsed:.1f}s")


def test_criterion_5_regime_validation():
    """Single-excited-state model vs multi-transition model at two margins."""
    t0 = time.monotonic()

    def deviation(spacing_mhz):
        sp = core.ModeSpectrum.equally_spaced(250.0, spacing_mhz, 2)
        beta = 300.0
        ot = math.sqrt(ETA / (beta * GAMMA))
        atoms = core.AtomicParams(Gamma=GAMMA, gamma=0.0, beta=beta)
        cell = pde.MemoryCell(atoms=atoms, gradient_eta=ETA, id="eq5")
        cv = core.CouplingVector(ot * sp.detunings / math.sqrt(2))
        grid = pde.Grid(nz=128, dt=0.01, window=40.0)
        pulse = pde.GaussianPulse(10.0, 20.0, np.ones(2, dtype=complex) / math.sqrt(2))
        entries = [pde.ScheduleEntry("store", cv, 1),
                   pde.ScheduleEntry("recall", cv, -1)]
        (_, _, dev), = pde.eq5_deviation(cell, [entries], pulse, grid, [sp], OPTS)
        m9 = core.check_inequality_9(sp, core.effective_rates(cv, sp, atoms))
        return m9, dev

    m9_hi, dev_hi = deviation(2.0)
    assert m9_hi >= 100
    assert dev_hi <= 0.01
    with pytest.warns(RuntimeWarning, match="validity margins below threshold"):
        m9_lo, dev_lo = deviation(0.019068)
    assert m9_lo <= 1.5
    assert dev_lo > 0.05
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(5, f"margin {m9_hi:.0f}: dev {dev_hi:.4f} <= 1%; "
               f"margin {m9_lo:.1f}: dev {dev_lo:.3f} > 5%; {elapsed:.0f}s")


def test_criterion_6_validity_margins():
    """The 50 MHz configuration passes both checks; the linewidth one is tighter.

    The published margin factor 167 cannot be recomputed from first
    principles (the broadened rates behind it are unstated); the bundled
    configuration back-solves the implied coupling weight, so the margin
    reproduces the factor as a consistency probe, not ground truth.
    """
    cfg = json.loads(cli.scenario_path("fifty_mhz_margins").read_text())
    setup = cli.NetworkSetup(cfg)
    rep = setup.margin_report()
    assert rep.pass7 and rep.pass9
    assert rep.margin9 < rep.margin7
    assert 160.0 <= rep.margin9 <= 175.0
    _report(6, f"margin7 {rep.margin7:.0f}, margin9 {rep.margin9:.1f} (tighter), "
               f"factor 167 documented as back-solved, not independently derivable")


def test_criterion_7_fock_cz():
    """Heralded conditional phase on all basis states and the superposition."""
    t0 = time.monotonic()
    stages = fock.cz_network()
    policy = fock.cz_policy(stages)
    plus = (1 / math.sqrt(2), 1 / math.sqrt(2))
    cases = [((1, 0), (1, 0)), ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, 1), (0, 1)),
             (plus, plus)]
    worst_fid = 1.0
    for q1, q2 in cases:
        state = fock.dual_rail_input(q1, q2)
        outcomes = fock.run_with_feedforward(stages, state, policy)
        succ = [o for o in outcomes if o.success]
        assert len(succ) == 1
        assert succ[0].probability == pytest.approx(1 / 16, abs=1e-10)
        fid = succ[0].conditioned_state.normalized().fidelity(
            fock.dual_rail_cz_ideal(q1, q2))
        worst_fid = min(worst_fid, fid)
    assert worst_fid >= 1 - 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(7, f"five inputs, worst fidelity 1 - {1 - worst_fid:.1e}, "
               f"herald probability 1/16 exact, {elapsed:.1f}s")


def test_criterion_8_conservation_and_convergence(golden_run):
    """Lossless energy bookkeeping and grid-refinement stability."""
    t0 = time.monotonic()
    sp = core.ModeSpectrum(mean_detuning=mhz(250.0), detunings=np.array([mhz(250.0)]))
    beta = 200.0
    ot = math.sqrt(0.8 * ETA / (beta * GAMMA))
    atoms = core.AtomicParams(Gamma=GAMMA, gamma=0.0, beta=beta)
    cell = pde.MemoryCell(atoms=atoms, gradient_eta=ETA, id="cons")
    cv = core.CouplingVector(np.array([ot * mhz(250.0)]))
    grid = pde.Grid(nz=256, dt=0.02, window=40.0)
    pulse = pde.GaussianPulse(10.0, 20.0, np.array([1.0]))
    lossless = pde.SimOptions(power_broadening=False)
    res = _store(cell, cv, pulse, grid, sp, lossless)
    out, spin = res.outputs[0], res.residual_spins[0]
    balance = abs(out.energy() + spin.energy_norm(atoms) - res.input_energy) / res.input_energy
    assert balance <= 1e-3

    refined = golden_run["execute"](grid_scale=2.0)
    base = golden_run["base"]
    delta = abs(refined.efficiency - base.efficiency)
    assert delta <= 1e-3
    elapsed = time.monotonic() - t0
    _report(8, f"lossless balance {balance:.1e} <= 1e-3, refinement shift "
               f"{delta:.1e} <= 1e-3, {elapsed:.0f}s")
