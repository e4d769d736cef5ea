import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memspin import compiler, core
from memspin.core import angular_from_mhz as mhz


def spectrum(n, spacing=15.0):
    return core.ModeSpectrum.equally_spaced(250.0, spacing, n, guard=0.35)


def test_unitary_spec_rejects_non_unitary():
    with pytest.raises(core.ValidationError):
        compiler.UnitarySpec(np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(core.ValidationError):
        compiler.UnitarySpec(np.ones((2, 3)))


def test_compile_identity_targets_single_modes():
    sp = spectrum(2)
    plan = compiler.compile_write(compiler.UnitarySpec(np.eye(2)), sp, 0.01)
    npt.assert_allclose(plan.memories[0].amplitudes[1], 0.0, atol=1e-15)
    npt.assert_allclose(plan.memories[1].amplitudes[0], 0.0, atol=1e-15)
    assert abs(plan.memories[0].amplitudes[0]) > 0


def test_compile_hadamard_rows():
    sp = spectrum(2)
    h = compiler.UnitarySpec(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    ot = 0.02
    plan = compiler.compile_write(h, sp, ot)
    for j in range(2):
        ratios = plan.memories[j].amplitudes / sp.detunings
        npt.assert_allclose(np.abs(ratios), ot / math.sqrt(2), rtol=1e-12)
    # second row carries the sign flip
    r1 = plan.memories[1].amplitudes / sp.detunings
    assert np.sign(r1[0].real) != np.sign(r1[1].real)


@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_reconstruction_random(n):
    sp = spectrum(n)
    for seed in range(5):
        u = compiler.haar_random_unitary(n, seed=seed)
        plan = compiler.compile_write(u, sp, 0.004)
        rec = compiler.reconstruct_matrix(plan, sp)
        assert np.max(np.abs(rec - u.matrix)) <= 1e-12


def test_equal_power_across_rows():
    sp = spectrum(6)
    u = compiler.haar_random_unitary(6, seed=2)
    plan = compiler.compile_write(u, sp, 0.007)
    weights = [np.sum(np.abs(cv.amplitudes / sp.detunings) ** 2)
               for cv in plan.memories]
    npt.assert_allclose(weights, weights[0], rtol=1e-12)


def test_read_plan_identity_recalls_own_modes():
    sp = spectrum(3)
    plan = compiler.compile_read(compiler.UnitarySpec(np.eye(3)), sp, 0.01)
    for j, cv in enumerate(plan.memories):
        mask = np.abs(cv.amplitudes) > 0
        assert mask.sum() == 1 and mask[j]


def test_matched_write_read_gives_identity_transfer():
    u = compiler.haar_random_unitary(4, seed=8)
    npt.assert_allclose(compiler.ideal_transfer(u, u), np.eye(4), atol=1e-12)


def test_ideal_transfer_swap():
    swap = compiler.UnitarySpec(np.array([[0, 1], [1, 0]], dtype=float))
    ident = compiler.UnitarySpec(np.eye(2))
    npt.assert_allclose(compiler.ideal_transfer(ident, swap), swap.matrix.T, atol=1e-14)


def test_validate_plan_zero_coupling_infinite():
    sp = spectrum(3)
    atoms = core.AtomicParams(Gamma=mhz(6), gamma=0.0, beta=100)
    plan = compiler.CouplingPlan(
        memories=tuple(core.CouplingVector(np.zeros(3)) for _ in range(3)),
        omega_tilde_target=0.0)
    rep = compiler.validate_plan(plan, sp, atoms)
    assert rep.margin7 == math.inf and rep.margin9 == math.inf


def test_validate_plan_paper_configuration():
    """Ten modes at 50 MHz spacing pass both checks, the second being tighter."""
    sp = core.ModeSpectrum(mean_detuning=mhz(475.0),
                           detunings=mhz(250.0 + 50.0 * np.arange(10)), guard=0.5)
    atoms = core.AtomicParams(Gamma=mhz(6.0), gamma=0.0, beta=100.0)
    u = compiler.dft_unitary(10)
    ot = 0.0141182
    rep = compiler.validate_plan(compiler.compile_write(u, sp, ot), sp, atoms)
    assert rep.pass7 and rep.pass9
    assert rep.margin9 < rep.margin7


def test_validate_plan_margin_decreases_with_coupling():
    sp = spectrum(4)
    atoms = core.AtomicParams(Gamma=mhz(6), gamma=0.0, beta=100)
    u = compiler.dft_unitary(4)
    m = [compiler.validate_plan(compiler.compile_write(u, sp, ot), sp, atoms).margin7
         for ot in (0.005, 0.01, 0.02)]
    assert m[0] > m[1] > m[2]


def test_plan_json_round_trip():
    sp = spectrum(3)
    u = compiler.haar_random_unitary(3, seed=4)
    plan = compiler.compile_write(u, sp, 0.004)
    data = plan.to_json_dict()
    assert set(data) == {"memories", "omega_tilde"}
    back = compiler.CouplingPlan.from_json_dict(data)
    for a, b in zip(back.memories, plan.memories):
        npt.assert_allclose(a.amplitudes, b.amplitudes, rtol=1e-15)
    assert back.omega_tilde_target == plan.omega_tilde_target


def test_compile_rejects_mismatched_spectrum():
    with pytest.raises(core.ValidationError):
        compiler.compile_write(compiler.UnitarySpec(np.eye(3)), spectrum(4), 0.01)
    with pytest.raises(core.ValidationError):
        compiler.compile_write(compiler.UnitarySpec(np.eye(3)), spectrum(3), 0.0)


def test_dft_unitary_is_unitary():
    for n in (2, 7):
        u = compiler.dft_unitary(n)
        npt.assert_allclose(u.matrix @ u.matrix.conj().T, np.eye(n), atol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1),
       weight=st.floats(1e-4, 0.1))
def test_compile_round_trip_haar(n, seed, weight):
    """reconstruct_matrix inverts both compiles for any Haar draw, N = 1..10."""
    u = compiler.haar_random_unitary(n, seed=seed)
    sp = spectrum(n)
    for compile_plan in (compiler.compile_write, compiler.compile_read):
        rec = compiler.reconstruct_matrix(compile_plan(u, sp, weight), sp)
        assert np.max(np.abs(rec - u.matrix)) <= 1e-12
