"""Few-photon linear optics: occupation-number states, permanents, heralding.

Verifies the conditional-gate logic that amplitude-level field simulation
cannot express: photon counting, post-selection on detector patterns, and
feed-forward between gate stages.  States live in a small Fock space (mode
occupations capped at ``photon_cap``); a multimode unitary acts through the
standard permanent homomorphism

    <m| U |n> = per(U[m, n]) / sqrt(prod m_i! prod n_j!),

where U[m, n] repeats row i m_i times and column j n_j times, with the
single-photon convention  a_k+  ->  sum_j U_jk a_j+.

The nonlinear-sign unitary is derived on first use, in closed form, from
its heralding constraints (success amplitude +1/2 on the zero- and
one-photon components, -1/2 on the two-photon component, heralded on the
ancilla pattern (1, 0)) and checked against them at run time; no gate
constants are hard-coded.

Each distinct unitary's blocks <m|U|n> are computed once per process:
``_blocks`` memoises them by matrix content (shape and bytes), so the
fixed stage unitaries are reused across inputs and ``cz_network()``
rebuilds, for up to ``MEMO_SIZE`` unitaries.  A block is the same
``permanent(sub) / norm`` computed on first use, and measurement keeps
state order within each pattern, so results are bit-identical to
recomputing everything per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .compiler import UnitarySpec, compile_write
from .core import MemspinError, ModeSpectrum, ValidationError

PERMANENT_CAP = 6
DEFAULT_PHOTON_CAP = 4
MODE_CAP = 10
MEMO_SIZE = 64  # distinct unitaries, and (photons, modes) pairs, memoised per process
ROLES = ("prepare", "measure", "write", "transfer", "feedforward")


class CapacityError(MemspinError):
    """Photon number or matrix size beyond the configured caps."""


class ConditioningError(MemspinError):
    """Conditioning on a measurement pattern of zero probability."""


class PolicyError(MemspinError):
    """A measured pattern has no branch in the feed-forward policy."""


class DerivationError(MemspinError):
    """A derived gate misses its heralding constraints or is not unitary."""


@lru_cache(maxsize=PERMANENT_CAP)
def _ryser_subsets(n: int) -> tuple:
    """The nonempty column subsets S of n columns as an (n, 2^n - 1) 0/1 mask, and (-1)^|S|."""
    mask = (np.arange(1, 1 << n)[:, None] >> np.arange(n)) & 1
    return mask.T.astype(complex), (-1.0) ** mask.sum(axis=1)


def permanent(matrix: np.ndarray) -> complex:
    """Permanent of a square matrix by Ryser's formula, every column subset in one product."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError("permanent requires a square matrix")
    n = a.shape[0]
    if n > PERMANENT_CAP:
        raise CapacityError(f"permanent limited to n <= {PERMANENT_CAP}, got {n}")
    if n == 0:
        return 1.0 + 0.0j
    mask, sign = _ryser_subsets(n)
    return complex((-1) ** n * (sign @ np.prod(a @ mask, axis=0)))


@lru_cache(maxsize=MEMO_SIZE)
def _compositions(total: int, parts: int) -> tuple:
    """All tuples of ``parts`` non-negative ints summing to ``total``."""
    if parts == 1:
        return ((total,),)
    return tuple((first,) + rest for first in range(total + 1)
                 for rest in _compositions(total - first, parts - 1))


@lru_cache(maxsize=MEMO_SIZE)
def _blocks(shape: tuple, data: bytes):
    """``(n_sub, m_sub) -> <m|U|n>`` of one unitary, memoised by matrix content."""
    mat = np.frombuffer(data, dtype=complex).reshape(shape)

    @lru_cache(maxsize=None)
    def block(n_sub, m_sub):
        rows = [i for i, m in enumerate(m_sub) for _ in range(m)]
        cols = [j for j, n in enumerate(n_sub) for _ in range(n)]
        norm = math.sqrt(
            math.prod(math.factorial(m) for m in m_sub)
            * math.prod(math.factorial(n) for n in n_sub))
        return permanent(mat[np.ix_(rows, cols)]) / norm

    return block


def _checked_modes(modes, n_modes: int, arity: int | None = None) -> tuple:
    modes = tuple(int(m) for m in modes)
    if arity is not None and len(modes) != arity:
        raise ValidationError(f"{arity} mode indices needed, got {modes}")
    if any(m < 0 or m >= n_modes for m in modes):
        raise ValidationError(f"mode index out of range 0..{n_modes - 1} in {modes}")
    if len(set(modes)) != len(modes):
        raise ValidationError(f"duplicate mode indices in {modes}")
    return modes


@dataclass
class FockState:
    """Superposition over occupation tuples of ``n_modes`` modes."""

    amplitudes: dict
    n_modes: int
    photon_cap: int = DEFAULT_PHOTON_CAP

    def __post_init__(self):
        if self.n_modes > MODE_CAP:
            raise CapacityError(f"{self.n_modes} modes exceed the mode cap {MODE_CAP}")
        for occ, amp in self.amplitudes.items():
            if len(occ) != self.n_modes:
                raise ValidationError(f"occupation {occ} does not span {self.n_modes} modes")
            if any(n < 0 or n > self.photon_cap for n in occ):
                raise CapacityError(f"occupation {occ} exceeds photon cap {self.photon_cap}")

    @classmethod
    def from_occupation(cls, occ, photon_cap: int = DEFAULT_PHOTON_CAP) -> "FockState":
        occ = tuple(int(n) for n in occ)
        return cls(amplitudes={occ: 1.0 + 0.0j}, n_modes=len(occ), photon_cap=photon_cap)

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def normalized(self) -> "FockState":
        n = self.norm()
        if n == 0:
            raise ValidationError("cannot normalise the zero state")
        return FockState(
            amplitudes={k: v / n for k, v in self.amplitudes.items()},
            n_modes=self.n_modes, photon_cap=self.photon_cap)

    def inner(self, other: "FockState") -> complex:
        """<self|other> over the shared occupation basis."""
        if other.n_modes != self.n_modes:
            raise ValidationError("states live on different mode counts")
        return complex(sum(
            np.conj(v) * other.amplitudes[k]
            for k, v in self.amplitudes.items() if k in other.amplitudes))

    def fidelity(self, other: "FockState") -> float:
        denom = self.norm() * other.norm()
        if denom == 0:
            return 0.0
        return abs(self.inner(other)) ** 2 / denom ** 2

    def total_photons(self) -> set[int]:
        return {sum(occ) for occ in self.amplitudes}


def apply_unitary(state: FockState, u: UnitarySpec, modes) -> FockState:
    """Act with a linear-optical unitary on a subset of modes.

    Amplitudes on the acted modes transform through matrix permanents over
    occupation-expanded submatrices; the remaining modes ride along.
    """
    modes = _checked_modes(modes, state.n_modes, arity=u.n)
    block = _blocks(u.matrix.shape, u.matrix.tobytes())
    out: dict = {}
    for occ, amp in state.amplitudes.items():
        n_sub = tuple(occ[m] for m in modes)
        p = sum(n_sub)
        if p > state.photon_cap:
            raise CapacityError(
                f"{p} photons on the acted modes exceed photon cap {state.photon_cap}")
        if p == 0:
            out[occ] = out.get(occ, 0.0 + 0.0j) + amp
            continue
        for m_sub in _compositions(p, len(modes)):
            coeff = block(n_sub, m_sub)
            if coeff == 0:
                continue
            new_occ = list(occ)
            for m, n in zip(modes, m_sub):
                new_occ[m] = n
            key = tuple(new_occ)
            out[key] = out.get(key, 0.0 + 0.0j) + amp * coeff
    out = {k: v for k, v in out.items() if abs(v) > 1e-15}
    return FockState(amplitudes=out, n_modes=state.n_modes, photon_cap=state.photon_cap)


@dataclass
class MeasurementOutcome:
    """One detector pattern with its probability and the surviving state."""

    pattern: tuple
    probability: float
    conditioned_state: FockState | None
    success: bool = True


def measure_and_condition(state: FockState, modes, pattern) -> MeasurementOutcome:
    """Project the given modes onto a photon-count pattern.

    The measured modes are removed; the returned state lives on the
    remaining modes and is renormalised.
    """
    pattern = tuple(int(p) for p in pattern)
    modes = _checked_modes(modes, state.n_modes, arity=len(pattern))
    for outcome in measurement_distribution(state, modes):
        if outcome.pattern == pattern:
            return outcome
    raise ConditioningError(f"pattern {pattern} has zero probability")


def measurement_distribution(state: FockState, modes) -> list[MeasurementOutcome]:
    """All patterns with nonzero probability on the given modes, in sorted order."""
    modes = _checked_modes(modes, state.n_modes)
    keep = [m for m in range(state.n_modes) if m not in modes]
    groups: dict = {}
    for occ, amp in state.amplitudes.items():
        group = groups.setdefault(tuple(occ[m] for m in modes), [0.0, {}])
        group[0] += abs(amp) ** 2
        key = tuple(occ[m] for m in keep)
        group[1][key] = group[1].get(key, 0.0 + 0.0j) + amp
    outcomes = []
    for pattern in sorted(groups):
        prob, reduced = groups[pattern]
        if prob == 0.0:
            continue
        scale = 1.0 / math.sqrt(prob)
        cond = FockState({k: v * scale for k, v in reduced.items()}, len(keep), state.photon_cap)
        outcomes.append(MeasurementOutcome(pattern, prob, cond))
    return outcomes


@dataclass(frozen=True)
class GateStage:
    """One unitary applied to a subset of modes, with a protocol role."""

    unitary: UnitarySpec
    modes: tuple
    label: str
    role: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValidationError(f"unknown stage role '{self.role}'")
        if len(self.modes) != self.unitary.n:
            raise ValidationError("stage mode list must match its unitary size")


def embed_unitary(u: np.ndarray, modes, n_total: int) -> np.ndarray:
    """Embed a small unitary into an identity on ``n_total`` modes."""
    full = np.eye(n_total, dtype=complex)
    idx = np.asarray(modes, dtype=int)
    full[np.ix_(idx, idx)] = u
    return full


def beamsplitter(theta: float = math.pi / 4) -> UnitarySpec:
    """Real symmetric two-mode mixer; theta = pi/4 gives the balanced case."""
    c, s = math.cos(theta), math.sin(theta)
    return UnitarySpec(matrix=np.array([[c, s], [s, -c]]), label="bs")


def _ns_amplitudes(u: np.ndarray) -> np.ndarray:
    """Heralded amplitudes for signal photon numbers 0, 1, 2.

    Signal on mode 0, ancillas prepared in (1, 0) and heralded on (1, 0).
    """
    two = u[np.ix_([0, 0, 1], [0, 0, 1])]
    return np.array([u[1, 1], permanent(u[:2, :2]), permanent(two) / 2.0])


_NS_TARGET = np.array([0.5, 0.5, -0.5])


@lru_cache(maxsize=1)
def ns_gate() -> UnitarySpec:
    """Derive the 3-mode nonlinear-sign unitary from its heralded amplitudes.

    With u11 = a0 and u01 = u10, the targets (a0, a1, a2) = (1/2, 1/2, -1/2)
    give a0 u00^2 - 2 a1 u00 + a2 = 0, taken at its root inside the unit
    disc, and u01^2 = a1 - a0 u00.  Unitary completion with u02, u20 > 0
    gives the ancilla column and row: the gate of Knill, Laflamme & Milburn,
    Nature 409, 46 (2001).
    """
    a0, a1, a2 = _NS_TARGET.astype(complex)
    root = np.sqrt(a1 * a1 - a0 * a2)
    u00 = min((a1 + root) / a0, (a1 - root) / a0, key=abs)
    u01 = np.sqrt(a1 - a0 * u00)
    block = np.array([[u00, u01], [u01, a0]])
    col = np.eye(2) - block @ block.conj().T  # = c c^+ for the ancilla column c
    row = np.eye(2) - block.conj().T @ block  # = r^+ r for the ancilla row r
    u = np.empty((3, 3), dtype=complex)
    u[:2, :2] = block
    u[:2, 2] = col[:, 0] / np.sqrt(col[0, 0].real)
    u[2, :2] = row[0] / np.sqrt(row[0, 0].real)
    u[2, 2] = -(u[2, :2] @ block[0].conj()) / u[0, 2].conj()
    miss = max(np.max(np.abs(_ns_amplitudes(u) - _NS_TARGET)),
               np.max(np.abs(u.conj().T @ u - np.eye(3))))
    if not miss <= 1e-12:
        raise DerivationError(f"nonlinear-sign gate misses its constraints by {miss:.3g}")
    return UnitarySpec(matrix=u, label="ns")


@dataclass(frozen=True)
class FeedforwardPolicy:
    """Maps measured patterns to the stages that complete the protocol."""

    measure_modes: tuple
    branches: dict
    default: tuple | None = None  # (stages, success) for unlisted patterns


def run_with_feedforward(stages, input_state: FockState,
                         policy: FeedforwardPolicy) -> list[MeasurementOutcome]:
    """Execute stages, branch on the measured pattern, finish per policy.

    Stages are applied in order until (and including) the first stage with
    role ``measure``; the listed modes are then measured and each observed
    pattern is continued with the stages its policy branch selects.
    Returns one outcome per observed pattern, each carrying the cumulative
    probability and the final conditioned state of its branch.
    """
    state = input_state
    for stage in stages:
        state = apply_unitary(state, stage.unitary, stage.modes)
        if stage.role == "measure":
            break
    else:
        return [MeasurementOutcome(pattern=(), probability=1.0,
                                   conditioned_state=state, success=True)]

    outcomes = []
    for base in measurement_distribution(state, policy.measure_modes):
        branch = policy.branches.get(base.pattern, policy.default)
        if branch is None:
            raise PolicyError(f"no policy branch for measured pattern {base.pattern}")
        branch_stages, success = branch
        final = base.conditioned_state
        for stage in branch_stages:
            final = apply_unitary(final, stage.unitary, stage.modes)
        outcomes.append(MeasurementOutcome(
            pattern=base.pattern, probability=base.probability,
            conditioned_state=final, success=success))
    return outcomes


# ---------------------------------------------------------------------------
# Conditional-phase network on two dual-rail qubits
# ---------------------------------------------------------------------------

# Mode layout: qubit 1 rails (0, 1), qubit 2 rails (2, 3) with the logical-1
# rails adjacent (modes 1 and 2), ancilla pairs (4, 5) and (6, 7).
CZ_MODES = 8
CZ_ANCILLA_MODES = (4, 5, 6, 7)
CZ_HERALD_PATTERN = (1, 0, 1, 0)


def cz_network() -> list[GateStage]:
    """Stage list for the heralded conditional-phase gate.

    Balanced mixing of the two logical-1 rails, a nonlinear-sign core on
    each output arm, measurement of the four ancillas, and the inverse
    mixing.  On the herald pattern (1, 0, 1, 0) the composition acts as a
    conditional phase flip on the qubits with success probability 1/16.
    """
    bs = beamsplitter()
    ns = ns_gate()
    n = CZ_MODES
    prepare_full = (
        embed_unitary(ns.matrix, (1, 4, 5), n)
        @ embed_unitary(ns.matrix, (2, 6, 7), n)
        @ embed_unitary(bs.matrix, (1, 2), n)
    )
    sub = (1, 2, 4, 5, 6, 7)
    prepare = UnitarySpec(matrix=prepare_full[np.ix_(sub, sub)], label="u1")
    return [
        GateStage(unitary=prepare, modes=sub, label="U1", role="prepare"),
        GateStage(unitary=UnitarySpec(np.eye(4), label="u2"),
                  modes=CZ_ANCILLA_MODES, label="U2", role="measure"),
        GateStage(unitary=UnitarySpec(np.eye(4), label="u3"),
                  modes=(0, 1, 2, 3), label="U3", role="write"),
        GateStage(unitary=UnitarySpec(bs.matrix, label="u4"),
                  modes=(1, 2), label="U4", role="transfer"),
        GateStage(unitary=UnitarySpec(np.eye(4), label="u5"),
                  modes=(0, 1, 2, 3), label="U5", role="feedforward"),
    ]


def cz_policy(stages, herald=CZ_HERALD_PATTERN,
              ancilla_modes=CZ_ANCILLA_MODES) -> FeedforwardPolicy:
    """Success branch on the herald pattern; everything else is a flagged miss."""
    return FeedforwardPolicy(
        measure_modes=_checked_modes(ancilla_modes, CZ_MODES, arity=len(herald)),
        branches={tuple(herald): (tuple(stages[2:]), True)},
        default=((), False),
    )


def dual_rail_input(q1_amps, q2_amps, photon_cap: int = DEFAULT_PHOTON_CAP) -> FockState:
    """Two dual-rail qubits plus the two ancilla photons of the gate.

    ``q1_amps`` and ``q2_amps`` are (amp_logical0, amp_logical1); logical 1
    occupies the inner rails (modes 1 and 2).
    """
    amps = {}
    for b1, occ1 in ((0, (1, 0)), (1, (0, 1))):
        for b2, occ2 in ((0, (0, 1)), (1, (1, 0))):
            a = complex(q1_amps[b1]) * complex(q2_amps[b2])
            if a == 0:
                continue
            occ = occ1 + occ2 + (1, 0, 1, 0)
            amps[occ] = a
    if not amps:
        raise ValidationError("input qubit amplitudes are all zero")
    state = FockState(amplitudes=amps, n_modes=CZ_MODES, photon_cap=photon_cap)
    return state.normalized()


def dual_rail_cz_ideal(q1_amps, q2_amps, photon_cap: int = DEFAULT_PHOTON_CAP) -> FockState:
    """The conditional-phase action on the qubit rails (no ancillas)."""
    amps = {}
    for b1, occ1 in ((0, (1, 0)), (1, (0, 1))):
        for b2, occ2 in ((0, (0, 1)), (1, (1, 0))):
            a = complex(q1_amps[b1]) * complex(q2_amps[b2])
            if a == 0:
                continue
            if b1 == 1 and b2 == 1:
                a = -a
            amps[occ1 + occ2] = a
    state = FockState(amplitudes=amps, n_modes=4, photon_cap=photon_cap)
    return state.normalized()


def stage_plans(stages, spectrum: ModeSpectrum, omega_tilde_target: float) -> list[dict]:
    """Serialise each stage to the coupling-plan JSON shape.

    Every stage unitary is embedded into the full mode count and compiled
    into per-memory coupling rows, giving the hand-off format shared with
    the plan compiler.
    """
    if spectrum.n_modes != CZ_MODES:
        raise ValidationError(f"stage export needs a {CZ_MODES}-mode spectrum")
    plans = []
    for stage in stages:
        full = embed_unitary(stage.unitary.matrix, stage.modes, CZ_MODES)
        spec = UnitarySpec(matrix=full, label=stage.label)
        plan = compile_write(spec, spectrum, omega_tilde_target)
        data = plan.to_json_dict()
        data["label"] = stage.label
        data["role"] = stage.role
        plans.append(data)
    return plans
