import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memspin import cli, compiler, core, fock


def naive_permanent(a):
    """Permutation-sum definition, the brute-force oracle."""
    n = a.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0.0j
        for i, j in enumerate(perm):
            prod *= a[i, j]
        total += prod
    return total


class TestPermanent:
    def test_identity(self):
        for n in (1, 2, 4):
            assert fock.permanent(np.eye(n)) == pytest.approx(1.0)

    def test_all_ones(self):
        assert fock.permanent(np.ones((2, 2))) == pytest.approx(2.0)
        assert fock.permanent(np.ones((3, 3))) == pytest.approx(6.0)

    def test_against_naive(self):
        rng = np.random.default_rng(5)
        for n in range(1, 6):
            for _ in range(10):
                a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                assert fock.permanent(a) == pytest.approx(naive_permanent(a), rel=1e-12)

    def test_size_cap(self):
        with pytest.raises(core.ValidationError, match=r"permanent limited to n <= 6, got 7"):
            fock.permanent(np.eye(7))
        with pytest.raises(core.ValidationError):
            fock.permanent(np.ones((2, 3)))


class TestFockState:
    def test_cap_enforced(self):
        with pytest.raises(core.ValidationError, match=r"occupation \(5, 0\) exceeds photon cap"):
            fock.FockState.from_occupation((5, 0))
        with pytest.raises(core.ValidationError, match=r"11 modes exceed the mode cap 10"):
            fock.FockState.from_occupation(tuple([0] * (fock.MODE_CAP + 1)))

    def test_normalise(self):
        st = fock.FockState(amplitudes={(1, 0): 3.0, (0, 1): 4.0j}, n_modes=2)
        nn = st.normalized()
        assert nn.norm() == pytest.approx(1.0)
        with pytest.raises(core.ValidationError):
            fock.FockState(amplitudes={}, n_modes=2).normalized()

    def test_inner_and_fidelity(self):
        a = fock.FockState(amplitudes={(1, 0): 1.0}, n_modes=2)
        b = fock.FockState(amplitudes={(1, 0): 1j / math.sqrt(2),
                                       (0, 1): 1 / math.sqrt(2)}, n_modes=2)
        assert a.inner(b) == pytest.approx(1j / math.sqrt(2))
        assert a.fidelity(b) == pytest.approx(0.5)


def brute_force_apply(state, u, modes):
    """Expand the creation-operator polynomial term by term (small cases)."""
    out = {}
    for occ, amp in state.amplitudes.items():
        # polynomial over output occupations on the full register
        poly = {tuple(0 for _ in range(state.n_modes)): amp}
        norm = math.sqrt(math.prod(math.factorial(occ[m]) for m in modes))
        for m_idx, m in enumerate(modes):
            for _ in range(occ[m]):
                new = {}
                for key, val in poly.items():
                    for j_idx, j in enumerate(modes):
                        k = list(key)
                        k[j] = k[j] + 1
                        coeff = u.matrix[j_idx, m_idx] * math.sqrt(k[j])
                        k = tuple(k)
                        new[k] = new.get(k, 0.0 + 0.0j) + val * coeff
                poly = new
        for key, val in poly.items():
            full = list(occ)
            for m in modes:
                full[m] = key[m]
            tot = tuple(full)
            out[tot] = out.get(tot, 0.0 + 0.0j) + val / norm
    return {k: v for k, v in out.items() if abs(v) > 1e-12}


class TestApplyUnitary:
    def test_identity_leaves_state(self):
        st = fock.FockState(amplitudes={(2, 1, 0): 0.6, (1, 1, 1): 0.8j}, n_modes=3)
        out = fock.apply_unitary(st, compiler.UnitarySpec(np.eye(3)), (0, 1, 2))
        for occ, amp in st.amplitudes.items():
            assert out.amplitudes[occ] == pytest.approx(amp)

    def test_single_photon_is_matrix_column(self):
        u = compiler.haar_random_unitary(3, seed=12)
        st = fock.FockState.from_occupation((0, 1, 0))
        out = fock.apply_unitary(st, u, (0, 1, 2))
        for j in range(3):
            occ = tuple(1 if m == j else 0 for m in range(3))
            assert out.amplitudes.get(occ, 0j) == pytest.approx(u.matrix[j, 1])

    def test_hong_ou_mandel(self):
        bs = fock.beamsplitter()
        out = fock.apply_unitary(fock.FockState.from_occupation((1, 1)), bs, (0, 1))
        assert out.amplitudes.get((1, 1), 0j) == pytest.approx(0.0, abs=1e-14)
        assert abs(out.amplitudes[(2, 0)]) == pytest.approx(1 / math.sqrt(2))
        assert abs(out.amplitudes[(0, 2)]) == pytest.approx(1 / math.sqrt(2))

    def test_norm_and_photon_number_preserved(self):
        rng = np.random.default_rng(2)
        u = compiler.haar_random_unitary(3, seed=3)
        amps = {}
        for occ in [(2, 0, 1), (1, 1, 1), (0, 2, 1)]:
            amps[occ] = rng.normal() + 1j * rng.normal()
        st = fock.FockState(amplitudes=amps, n_modes=3).normalized()
        out = fock.apply_unitary(st, u, (0, 1, 2))
        assert out.norm() == pytest.approx(1.0, abs=1e-10)
        assert {sum(occ) for occ in out.amplitudes} == {3}

    def test_matches_operator_expansion(self):
        """Permanent amplitudes equal direct polynomial expansion exhaustively."""
        u = compiler.haar_random_unitary(3, seed=9)
        modes = (0, 1, 2)
        checked = 0
        for total in (1, 2, 3):
            for occ in fock._compositions(total, 4):
                if any(o > 3 for o in occ):
                    continue
                st = fock.FockState.from_occupation(occ)
                got = fock.apply_unitary(st, u, modes)
                want = brute_force_apply(st, u, modes)
                keys = set(got.amplitudes) | set(want)
                for k in keys:
                    npt.assert_allclose(got.amplitudes.get(k, 0j), want.get(k, 0j),
                                        atol=1e-12)
                checked += 1
        assert checked > 10

    def test_composition(self):
        u = compiler.haar_random_unitary(3, seed=4)
        v = compiler.haar_random_unitary(3, seed=5)
        vu = compiler.UnitarySpec(v.matrix @ u.matrix)
        st = fock.FockState(amplitudes={(1, 1, 0): 0.6, (0, 1, 1): 0.8}, n_modes=3)
        one = fock.apply_unitary(fock.apply_unitary(st, u, (0, 1, 2)), v, (0, 1, 2))
        two = fock.apply_unitary(st, vu, (0, 1, 2))
        keys = set(one.amplitudes) | set(two.amplitudes)
        for k in keys:
            npt.assert_allclose(one.amplitudes.get(k, 0j), two.amplitudes.get(k, 0j),
                                atol=1e-10)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_norm_conserved_for_haar_draws(self, data):
        """Any unitary on any subset of modes keeps the norm of any state within
        the photon cap, and the weight of each photon-number sector, to 1e-12
        absolute for a unit-norm input."""
        n_modes = data.draw(st.integers(2, 4), label="n_modes")
        modes = data.draw(st.permutations(range(n_modes)), label="order")[
            :data.draw(st.integers(1, n_modes), label="n_acted")]
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        occupation = st.lists(st.integers(0, 2), min_size=n_modes, max_size=n_modes)
        occupations = data.draw(st.lists(occupation.filter(lambda o: sum(o) <= 4),
                                         min_size=1, max_size=4, unique_by=tuple),
                                label="occupations")
        moduli, phases = st.floats(0.1, 1.0), st.floats(0.0, 2.0 * math.pi)
        amps = {tuple(occ): data.draw(moduli) * np.exp(1j * data.draw(phases))
                for occ in occupations}
        state = fock.FockState(amplitudes=amps, n_modes=n_modes).normalized()
        u = compiler.haar_random_unitary(len(modes), seed=seed)
        out = fock.apply_unitary(state, u, modes)
        assert abs(out.norm() - 1.0) <= 1e-12

        def sectors(fs):
            weights = np.zeros(5)
            for occ, amp in fs.amplitudes.items():
                weights[sum(occ)] += abs(amp) ** 2
            return weights

        npt.assert_allclose(sectors(out), sectors(state), rtol=0, atol=1e-12)

    def test_capacity_overflow(self):
        st = fock.FockState(amplitudes={(2, 2): 1.0}, n_modes=2, photon_cap=2)
        with pytest.raises(core.ValidationError, match=r"photons on the acted modes exceed"):
            fock.apply_unitary(st, fock.beamsplitter(), (0, 1))

    def test_mode_validation(self):
        st = fock.FockState.from_occupation((1, 0))
        with pytest.raises(core.ValidationError):
            fock.apply_unitary(st, fock.beamsplitter(), (0,))
        with pytest.raises(core.ValidationError):
            fock.apply_unitary(st, fock.beamsplitter(), (0, 5))

    def test_memoised_blocks_give_identical_amplitudes(self):
        """Cold, warm and fresh-spec applications of one matrix agree exactly."""
        u = compiler.haar_random_unitary(3, seed=21)
        st = fock.FockState(amplitudes={(2, 1, 0): 0.6, (1, 1, 1): 0.8j}, n_modes=3)
        fock._blocks.cache_clear()
        cold = fock.apply_unitary(st, u, (0, 1, 2))
        warm = fock.apply_unitary(st, u, (0, 1, 2))
        fresh = fock.apply_unitary(st, compiler.UnitarySpec(u.matrix.copy()), (0, 1, 2))
        assert cold.amplitudes == warm.amplitudes == fresh.amplitudes

    def test_distinct_unitaries_do_not_share_blocks(self):
        u = compiler.haar_random_unitary(3, seed=22)
        v = compiler.haar_random_unitary(3, seed=23)
        st = fock.FockState.from_occupation((1, 1, 1))
        fock._blocks.cache_clear()
        v_cold = fock.apply_unitary(st, v, (0, 1, 2))
        fock._blocks.cache_clear()
        u_out = fock.apply_unitary(st, u, (0, 1, 2))
        v_after_u = fock.apply_unitary(st, v, (0, 1, 2))
        assert v_after_u.amplitudes == v_cold.amplitudes
        assert v_after_u.amplitudes != u_out.amplitudes

    def test_one_unitary_placed_anywhere_gives_its_cold_amplitudes(self):
        """The rows of one matrix are memoised per placement (modes in order,
        mode count, cap): klm_cz's eye(4) on modes 4-7 of 8 and 0-3 of 4, and a
        Haar matrix on three orderings of 5 modes under two caps and on all of
        3 modes, each match their own cold run, and the operator expansion,
        after every other placement has filled the memo."""
        stages = fock.cz_network()
        eye, haar = stages[1].unitary, compiler.haar_random_unitary(3, seed=24)
        u1_out = fock.apply_unitary(fock.dual_rail_input((0.6, 0.8j), (0.8, 0.6)),
                                    stages[0].unitary, stages[0].modes)
        rails = fock.FockState(amplitudes={(1, 0, 0, 1): 0.6, (0, 1, 1, 0): 0.8j}, n_modes=4)
        mixed = {(1, 0, 1, 1, 0): 0.6, (0, 2, 0, 0, 1): 0.8j}
        cases = [(u1_out, eye, (4, 5, 6, 7)), (rails, eye, (0, 1, 2, 3))]
        cases += [(fock.FockState(amplitudes=mixed, n_modes=5, photon_cap=cap), haar, modes)
                  for cap in (4, 3) for modes in ((0, 1, 2), (4, 2, 0), (0, 2, 4))]
        cases.append((fock.FockState(amplitudes={(1, 0, 2): 0.6, (0, 1, 1): 0.8j}, n_modes=3),
                      haar, (0, 1, 2)))
        cold = []
        for state, u, modes in cases:
            fock._blocks.cache_clear()
            cold.append(fock.apply_unitary(state, u, modes).amplitudes)
            want = brute_force_apply(state, u, modes)
            for k in set(cold[-1]) | set(want):
                npt.assert_allclose(cold[-1].get(k, 0j), want.get(k, 0j), atol=1e-12)
        fock._blocks.cache_clear()
        for _ in range(2):
            warm = [fock.apply_unitary(state, u, modes).amplitudes for state, u, modes in cases]
            assert warm == cold
        assert [list(w) for w in warm] == [list(c) for c in cold]

    def test_cap_refused_after_a_larger_cap_was_memoised(self):
        """(2, 2) fits cap 4, so its row is memoised; under cap 2 the same
        unitary on the same occupation is still refused."""
        bs = fock.beamsplitter()
        fock._blocks.cache_clear()
        roomy = fock.FockState(amplitudes={(2, 2): 1.0}, n_modes=2, photon_cap=4)
        assert fock.apply_unitary(roomy, bs, (0, 1)).norm() == pytest.approx(1.0, abs=1e-12)
        tight = fock.FockState(amplitudes={(2, 2): 1.0}, n_modes=2, photon_cap=2)
        with pytest.raises(core.ValidationError,
                           match=r"4 photons on the acted modes exceed photon cap 2"):
            fock.apply_unitary(tight, bs, (0, 1))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_derived_states_pass_the_public_checks(self, data):
        """States built without the constructor's checks (unitary outputs,
        conditioned states, normalised states) pass those checks when rebuilt
        through the public constructor from their fields."""
        n_modes = data.draw(st.integers(2, 5), label="n_modes")
        cap = data.draw(st.integers(1, 4), label="photon_cap")
        modes = data.draw(st.permutations(range(n_modes)), label="order")[
            :data.draw(st.integers(1, min(n_modes, 4)), label="n_acted")]
        measured = data.draw(st.permutations(range(n_modes)), label="measured")[
            :data.draw(st.integers(1, n_modes), label="n_measured")]
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        occupation = st.lists(st.integers(0, cap), min_size=n_modes, max_size=n_modes)
        occupations = data.draw(st.lists(occupation.filter(lambda o: sum(o) <= cap),
                                         min_size=1, max_size=4, unique_by=tuple),
                                label="occupations")
        amps = {tuple(occ): complex(data.draw(st.floats(0.1, 1.0)),
                                    data.draw(st.floats(-1.0, 1.0)))
                for occ in occupations}
        state = fock.FockState(amplitudes=amps, n_modes=n_modes, photon_cap=cap)
        out = fock.apply_unitary(state, compiler.haar_random_unitary(len(modes), seed=seed),
                                 modes)
        derived = [state.normalized(), out, out.normalized()]
        derived += [o.conditioned_state for o in fock.measurement_distribution(out, measured)]
        for fs in derived:
            rebuilt = fock.FockState(amplitudes=dict(fs.amplitudes), n_modes=fs.n_modes,
                                     photon_cap=fs.photon_cap)
            assert rebuilt == fs
            assert all(type(n) is int for occ in fs.amplitudes for n in occ)


def per_pattern_scan(state, modes, pattern):
    """Probability and conditioned amplitudes of one pattern, by a full scan."""
    keep = [m for m in range(state.n_modes) if m not in modes]
    prob = 0.0
    reduced = {}
    for occ, amp in state.amplitudes.items():
        if tuple(occ[m] for m in modes) != pattern:
            continue
        prob += abs(amp) ** 2
        key = tuple(occ[m] for m in keep)
        reduced[key] = reduced.get(key, 0.0 + 0.0j) + amp
    scale = 1.0 / math.sqrt(prob)
    return prob, {k: v * scale for k, v in reduced.items()}


def pattern_outcome(outcomes, pattern):
    """The outcome of ``pattern`` in a measurement distribution."""
    (out,) = [o for o in outcomes if o.pattern == pattern]
    return out


class TestMeasurement:
    def test_full_measurement_certain(self):
        st = fock.FockState.from_occupation((1, 0))
        (out,) = fock.measurement_distribution(st, (0, 1))
        assert out.pattern == (1, 0)
        assert out.probability == pytest.approx(1.0)
        assert out.conditioned_state.n_modes == 0

    def test_partial_measurement(self):
        st = fock.FockState(amplitudes={(1, 0): 1 / math.sqrt(2),
                                        (0, 1): 1 / math.sqrt(2)}, n_modes=2)
        out = pattern_outcome(fock.measurement_distribution(st, (1,)), (0,))
        assert out.probability == pytest.approx(0.5)
        assert out.conditioned_state.amplitudes[(1,)] == pytest.approx(1.0)

    def test_zero_probability_rejected(self):
        """A pattern of zero probability is not among the outcomes."""
        st = fock.FockState.from_occupation((1, 0))
        assert [o.pattern for o in fock.measurement_distribution(st, (0,))] == [(1,)]
        stored_zero = fock.FockState(amplitudes={(1, 0): 1.0, (0, 1): 0.0}, n_modes=2)
        assert [o.pattern for o in fock.measurement_distribution(stored_zero, (0,))] == [(1,)]

    def test_mode_validation(self):
        st = fock.FockState.from_occupation((1, 0, 1))
        for modes in ((0, 3), (3,), (-1,), (2, 2)):
            with pytest.raises(core.ValidationError):
                fock.measurement_distribution(st, modes)

    def test_distribution_matches_per_pattern_scan(self):
        """The one-pass distribution equals a scan of the state per pattern, exactly."""
        u = compiler.haar_random_unitary(5, seed=31)
        st = fock.apply_unitary(fock.FockState.from_occupation((1, 1, 1, 0, 1)), u,
                                range(5))
        modes = (3, 1)
        outs = fock.measurement_distribution(st, modes)
        patterns = sorted({tuple(occ[m] for m in modes) for occ in st.amplitudes})
        assert [o.pattern for o in outs] == patterns
        for out in outs:
            prob, amps = per_pattern_scan(st, modes, out.pattern)
            assert out.probability == prob
            assert list(out.conditioned_state.amplitudes.items()) == list(amps.items())

    def test_distribution_sums_to_one(self):
        bs = fock.beamsplitter()
        st = fock.apply_unitary(fock.FockState.from_occupation((2, 1)), bs, (0, 1))
        outs = fock.measurement_distribution(st, (0,))
        assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-10)


class TestNsGate:
    def test_heralded_amplitudes(self):
        ns = fock.ns_gate()
        for n, target in ((0, 0.5), (1, 0.5), (2, -0.5)):
            st = fock.FockState.from_occupation((n, 1, 0))
            out = fock.apply_unitary(st, ns, (0, 1, 2))
            amp = out.amplitudes.get((n, 1, 0), 0j)
            npt.assert_allclose(amp, target, atol=1e-10)

    def test_herald_probability_quarter(self):
        ns = fock.ns_gate()
        for n in range(3):
            st = fock.FockState.from_occupation((n, 1, 0))
            out = fock.apply_unitary(st, ns, (0, 1, 2))
            res = pattern_outcome(fock.measurement_distribution(out, (1, 2)), (1, 0))
            assert res.probability == pytest.approx(0.25, abs=1e-10)

    def test_unitary(self):
        ns = fock.ns_gate()
        npt.assert_allclose(ns.matrix.conj().T @ ns.matrix, np.eye(3), atol=1e-10)

    def test_matches_klm_matrix(self):
        """The derived gate is the published one (Knill, Laflamme & Milburn, Nature 409, 46)."""
        r2 = math.sqrt(2.0)
        s = math.sqrt(3.0 / r2 - 2.0)
        klm = np.array([[1.0 - r2, 2.0 ** -0.25, s],
                        [2.0 ** -0.25, 0.5, 0.5 - 1.0 / r2],
                        [s, 0.5 - 1.0 / r2, r2 - 0.5]])
        npt.assert_allclose(fock.ns_gate().matrix, klm, rtol=0, atol=1e-15)


class TestCzNetwork:
    def setup_method(self):
        self.stages = fock.cz_network()
        self.policy = fock.cz_policy(self.stages)

    def test_stage_structure(self):
        assert [s.label for s in self.stages] == ["U1", "U2", "U3", "U4", "U5"]
        assert [s.role for s in self.stages] == list(fock.ROLES)
        for s in self.stages:
            u = s.unitary.matrix
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-10

    def _run(self, q1, q2):
        inp = fock.dual_rail_input(q1, q2)
        outs = fock.run_with_feedforward(self.stages, inp, self.policy)
        succ = [o for o in outs if o.success]
        assert len(succ) == 1
        return succ[0], sum(o.probability for o in outs if not o.success)

    def test_basis_states(self):
        for q1 in ((1, 0), (0, 1)):
            for q2 in ((1, 0), (0, 1)):
                out, fail_p = self._run(q1, q2)
                assert out.probability == pytest.approx(1 / 16, abs=1e-10)
                assert fail_p == pytest.approx(15 / 16, abs=1e-10)
                ideal = fock.dual_rail_cz_ideal(q1, q2)
                fid = out.conditioned_state.normalized().fidelity(ideal)
                assert fid >= 1 - 1e-10

    def test_one_one_flips_sign(self):
        out, _ = self._run((0, 1), (0, 1))
        state = out.conditioned_state.normalized()
        amp = state.amplitudes[(0, 1, 1, 0)]
        ref = fock.dual_rail_input((0, 1), (0, 1)).amplitudes[(0, 1, 1, 0, 1, 0, 1, 0)]
        # heralded amplitude is -1/4 relative to the input product state
        assert np.real(amp / ref) < 0

    def test_superposition_input(self):
        plus = (1 / math.sqrt(2), 1 / math.sqrt(2))
        out, _ = self._run(plus, plus)
        ideal = fock.dual_rail_cz_ideal(plus, plus)
        assert out.conditioned_state.normalized().fidelity(ideal) >= 1 - 1e-10
        assert out.probability == pytest.approx(1 / 16, abs=1e-10)

    def test_qubit_swap_symmetry(self):
        a, _ = self._run((1, 0), (0, 1))
        b, _ = self._run((0, 1), (1, 0))
        fa = a.conditioned_state.normalized().fidelity(fock.dual_rail_cz_ideal((1, 0), (0, 1)))
        fb = b.conditioned_state.normalized().fidelity(fock.dual_rail_cz_ideal((0, 1), (1, 0)))
        assert fa == pytest.approx(fb, abs=1e-12)


def test_heralded_amplitudes_match_composed_permanents():
    """On the basis inputs of klm_cz, each success amplitude times sqrt(p) is
    <out, herald| U5 U4 U3 U2 U1 |in> by the permanent rule, within 1e-12.

    The stages after the measurement act on the qubit modes only, so they
    commute with the projection onto the herald pattern."""
    stages, (policy, cap, fc) = cli.build_fock_network(cli.load_config("klm_cz"))
    u = np.eye(fock.CZ_MODES, dtype=complex)
    for stage in stages:
        u = fock.embed_unitary(stage.unitary.matrix, stage.modes, fock.CZ_MODES) @ u
    herald = dict(zip(policy.measure_modes, fc["herald"]))
    qubit_modes = [m for m in range(fock.CZ_MODES) if m not in herald]

    def expanded(occ):
        return [i for i, n in enumerate(occ) for _ in range(n)]

    def factorials(occ):
        return math.prod(math.factorial(n) for n in occ)

    for label in ("00", "01", "10", "11"):
        state = fock.dual_rail_input(*cli._parse_qubit_label(label), photon_cap=cap)
        (n_occ,) = state.amplitudes
        (succ,) = [o for o in fock.run_with_feedforward(stages, state, policy) if o.success]
        got = succ.conditioned_state.amplitudes
        outputs = fock._compositions(sum(n_occ) - sum(herald.values()), len(qubit_modes))
        assert set(got) <= set(outputs)
        largest = 0.0
        for q_occ in outputs:
            m_occ = [0] * fock.CZ_MODES
            for m, n in [*zip(qubit_modes, q_occ), *herald.items()]:
                m_occ[m] = n
            want = (fock.permanent(u[np.ix_(expanded(m_occ), expanded(n_occ))])
                    / math.sqrt(factorials(m_occ) * factorials(n_occ)))
            assert abs(got.get(q_occ, 0j) * math.sqrt(succ.probability) - want) <= 1e-12
            largest = max(largest, abs(want))
        assert largest == pytest.approx(0.25)


class TestFeedforward:
    def test_trivial_policy_is_sequential(self):
        bs = fock.beamsplitter()
        stages = [
            fock.GateStage(unitary=bs, modes=(0, 1), label="A", role="prepare"),
            fock.GateStage(unitary=compiler.UnitarySpec(np.eye(1)), modes=(2,),
                           label="M", role="measure"),
            fock.GateStage(unitary=bs, modes=(0, 1), label="B", role="transfer"),
        ]
        policy = fock.FeedforwardPolicy(measure_modes=(2,),
                                        branches={(0,): ((stages[2],), True)})
        st = fock.FockState.from_occupation((1, 0, 0))
        outs = fock.run_with_feedforward(stages, st, policy)
        assert len(outs) == 1 and outs[0].probability == pytest.approx(1.0)
        # H then H is the identity on the rails
        amp = outs[0].conditioned_state.amplitudes[(1, 0)]
        assert abs(amp) == pytest.approx(1.0, abs=1e-12)

    def test_missing_branch_is_policy_error(self):
        stages = [fock.GateStage(unitary=compiler.UnitarySpec(np.eye(1)), modes=(0,),
                                 label="M", role="measure")]
        policy = fock.FeedforwardPolicy(measure_modes=(0,), branches={(5,): ((), True)})
        with pytest.raises(core.ValidationError, match=r"no policy branch for measured pattern"):
            fock.run_with_feedforward(stages, fock.FockState.from_occupation((1,)), policy)

    def test_no_measure_stage_runs_through(self):
        bs = fock.beamsplitter()
        stages = [fock.GateStage(unitary=bs, modes=(0, 1), label="A", role="prepare")]
        policy = fock.FeedforwardPolicy(measure_modes=(), branches={})
        outs = fock.run_with_feedforward(stages, fock.FockState.from_occupation((1, 0)),
                                         policy)
        assert outs[0].probability == 1.0 and outs[0].success


def test_stage_plans_export():
    stages = fock.cz_network()
    sp = core.ModeSpectrum.equally_spaced(250.0, 15.0, 8, guard=0.25)
    plans = fock.stage_plans(stages, sp, omega_tilde_target=0.004)
    assert len(plans) == 5
    for plan, stage in zip(plans, stages):
        assert plan["label"] == stage.label
        assert len(plan["memories"]) == 8
        assert plan["omega_tilde"] == pytest.approx(0.004)
        # round trip through the shared plan shape reproduces the embedded unitary
        back = compiler.CouplingPlan.from_json_dict(plan)
        rec = compiler.reconstruct_matrix(back, sp)
        full = fock.embed_unitary(stage.unitary.matrix, stage.modes, 8)
        npt.assert_allclose(rec, full, atol=1e-12)
