"""Compile target unitaries into per-memory coupling-field plans.

A plan assigns one coupling vector to each memory cell in the chain.  Row j
of the target matrix determines the couplings of memory j so that the cell
stores (write plan) or emits (read plan) the corresponding superposition of
the frequency modes.  All rows share one coupling weight ``omega_tilde``,
so the total coupling power per memory is independent of the mode count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AtomicParams,
    CouplingVector,
    MarginReport,
    ModeSpectrum,
    ValidationError,
    margin_report,
    omega_tilde,
    MARGIN_THRESHOLD,
)

UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class UnitarySpec:
    """A validated N x N unitary with a human-readable label."""

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"matrix must be square, got shape {m.shape}")
        gram = m.conj().T @ m
        err = np.max(np.abs(gram - np.eye(m.shape[0])))
        if err > UNITARITY_TOL:
            raise ValidationError(
                f"matrix '{self.label}' is not unitary (max deviation {err:.3g})"
            )

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])


@dataclass(frozen=True)
class CouplingPlan:
    """Per-memory coupling vectors realising one target matrix.

    ``memories[j]`` holds the couplings of the j-th cell in the chain;
    ``omega_tilde_target`` is the common coupling weight of every row.
    """

    memories: tuple[CouplingVector, ...]
    omega_tilde_target: float

    @property
    def n_memories(self) -> int:
        return len(self.memories)

    def to_json_dict(self) -> dict:
        """Serialise to the documented JSON plan shape."""
        return {
            "memories": [
                {
                    "omega_re": cv.amplitudes.real.tolist(),
                    "omega_im": cv.amplitudes.imag.tolist(),
                }
                for cv in self.memories
            ],
            "omega_tilde": self.omega_tilde_target,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CouplingPlan":
        mems = tuple(
            CouplingVector(np.asarray(m["omega_re"]) + 1j * np.asarray(m["omega_im"]))
            for m in data["memories"]
        )
        return cls(memories=mems, omega_tilde_target=float(data["omega_tilde"]))


def compile_write(u: UnitarySpec, spectrum: ModeSpectrum,
                  omega_tilde_target: float) -> CouplingPlan:
    """Couplings W_{j,k} = W~ * D_k * conj(U_{jk}) so cell j stores row j.

    The read compile is the same map (``compile_read``) applied during
    recall, where the spin-to-field transfer of the chain is the adjoint of
    the matrix: mode k receives sum_j conj(U_{jk}) S_j.
    """
    if u.n != spectrum.n_modes:
        raise ValidationError(
            f"target is {u.n}x{u.n} but the spectrum has {spectrum.n_modes} modes"
        )
    if omega_tilde_target <= 0:
        raise ValidationError("omega_tilde_target must be positive")
    rows = tuple(
        CouplingVector(omega_tilde_target * spectrum.detunings * np.conj(u.matrix[j]))
        for j in range(u.n)
    )
    return CouplingPlan(memories=rows, omega_tilde_target=float(omega_tilde_target))


compile_read = compile_write


def reconstruct_matrix(plan: CouplingPlan, spectrum: ModeSpectrum) -> np.ndarray:
    """Invert the compile map: row j is (1 / W~_j) * conj(W_{j,k}) / D_k."""
    rows = []
    for cv in plan.memories:
        ot = omega_tilde(cv, spectrum)
        rows.append(np.conj(cv.amplitudes / spectrum.detunings) / ot)
    return np.asarray(rows)


def ideal_transfer(u_in: UnitarySpec, u_out: UnitarySpec) -> np.ndarray:
    """The lossless mode-transfer matrix of a write/read pair, adj(U_out) @ U_in."""
    if u_in.n != u_out.n:
        raise ValidationError("write and read targets must have equal size")
    return u_out.matrix.conj().T @ u_in.matrix


def validate_plan(plan: CouplingPlan, spectrum: ModeSpectrum, atoms: AtomicParams,
                  threshold: float = MARGIN_THRESHOLD) -> MarginReport:
    """Worst-case validity margins over all memories in the plan."""
    reps = [margin_report(spectrum, cv, atoms) for cv in plan.memories]
    return MarginReport(margin7=min((r.margin7 for r in reps), default=math.inf),
                        margin9=min((r.margin9 for r in reps), default=math.inf),
                        threshold=threshold)


def haar_random_unitary(n: int, seed: int, label: str = "") -> UnitarySpec:
    """Deterministic Haar-distributed unitary from a seed (QR of a Ginibre draw)."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return UnitarySpec(matrix=q, label=label or f"haar{n}s{seed}")


def dft_unitary(n: int, label: str = "") -> UnitarySpec:
    """Discrete-Fourier-transform unitary, a convenient dense N-mode target."""
    k = np.arange(n)
    m = np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    return UnitarySpec(matrix=m, label=label or f"dft{n}")
