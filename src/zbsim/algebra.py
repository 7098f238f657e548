"""Dirac algebra for a neutral spin-1/2 particle in static longitudinal fields.

All operators are fixed in the standard Dirac-Pauli representation, where
beta is diagonal and the helicity operator Sigma_x commutes with the model
Hamiltonian

    H = c*p*alpha_x + m*c^2*beta + delta*beta*Sigma_x ,

with delta = d*E - mu*B the spin-splitting interaction energy (the dipole
coupling 2*beta*S_x*(d*E - mu*B) written with S_x = (hbar/2)*Sigma_x).
Eigenstates are labeled by the energy branch l = sign(E) and the helicity
s = sign(<Sigma_x>); the two helicity sectors carry shifted rest energies
m*c^2 + s*delta, which is what splits the spectrum and every precession
frequency derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "ConfigError",
    "BRANCH_SPIN_LABELS",
    "LABEL_NAMES",
    "label_index",
    "DiracOperatorSet",
    "ParticleConfig",
    "EigenSystem",
    "build_operators",
    "build_hamiltonian",
    "eigensystem_numeric",
    "eigensystem_analytic",
    "matrix_element",
]


class ConfigError(ValueError):
    """Physically invalid particle/field configuration."""


#: (branch l, helicity s) labels in storage order; +1 means +/up, -1 means -/down.
BRANCH_SPIN_LABELS: tuple[tuple[int, int], ...] = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))

#: Human-readable names aligned with BRANCH_SPIN_LABELS.
LABEL_NAMES: tuple[str, ...] = ("+up", "+down", "-up", "-down")


def label_index(l: int, s: int) -> int:
    """Storage index of the (branch, helicity) label."""
    if l not in (+1, -1) or s not in (+1, -1):
        raise ValueError(f"labels must be +1 or -1, got (l={l}, s={s})")
    return BRANCH_SPIN_LABELS.index((l, s))


def _pauli() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return sx, sy, sz


@dataclass(frozen=True)
class DiracOperatorSet:
    """The fixed 4x4 operator algebra.

    alpha_j and beta satisfy the Clifford relations {alpha_i, alpha_j} = 2*delta_ij,
    {alpha_i, beta} = 0, beta^2 = 1. sigma_*_big are the block-diagonal spin
    matrices Sigma_j = diag(sigma_j, sigma_j); spin_j = (hbar/2)*Sigma_j.
    """

    alpha_x: np.ndarray
    alpha_y: np.ndarray
    alpha_z: np.ndarray
    beta: np.ndarray
    sigma_x_big: np.ndarray
    sigma_y_big: np.ndarray
    sigma_z_big: np.ndarray
    spin_x: np.ndarray
    spin_y: np.ndarray
    spin_z: np.ndarray
    hbar: float = 1.0

    def alpha(self, axis: str) -> np.ndarray:
        return {"x": self.alpha_x, "y": self.alpha_y, "z": self.alpha_z}[axis]

    def spin(self, axis: str) -> np.ndarray:
        return {"x": self.spin_x, "y": self.spin_y, "z": self.spin_z}[axis]


def build_operators(hbar: float = 1.0) -> DiracOperatorSet:
    """Construct the Dirac-Pauli operator set (read-only arrays)."""
    sx, sy, sz = _pauli()
    z2 = np.zeros((2, 2), dtype=complex)
    i2 = np.eye(2, dtype=complex)

    def offdiag(m: np.ndarray) -> np.ndarray:
        return np.block([[z2, m], [m, z2]])

    def blockdiag(m: np.ndarray) -> np.ndarray:
        return np.block([[m, z2], [z2, m]])

    mats = {
        "alpha_x": offdiag(sx),
        "alpha_y": offdiag(sy),
        "alpha_z": offdiag(sz),
        "beta": np.block([[i2, z2], [z2, -i2]]),
        "sigma_x_big": blockdiag(sx),
        "sigma_y_big": blockdiag(sy),
        "sigma_z_big": blockdiag(sz),
    }
    mats["spin_x"] = 0.5 * hbar * mats["sigma_x_big"]
    mats["spin_y"] = 0.5 * hbar * mats["sigma_y_big"]
    mats["spin_z"] = 0.5 * hbar * mats["sigma_z_big"]
    for m in mats.values():
        m.setflags(write=False)
    return DiracOperatorSet(hbar=hbar, **mats)


@dataclass(frozen=True)
class ParticleConfig:
    """Particle constants, dipole couplings and the derived spin splitting.

    `delta` may be given directly or derived as d*E_field - mu*B_field; when
    both are supplied they must agree. The model requires |delta| < m*c^2 so
    that both helicity sectors keep a positive rest energy (stronger fields
    would reorder the spectrum and are rejected rather than extrapolated).
    """

    mass: float = 1.0
    c: float = 1.0
    hbar: float = 1.0
    mu: float = 0.0
    d: float = 0.0
    B_field: float = 0.0
    E_field: float = 0.0
    delta: float | None = None

    def __post_init__(self) -> None:
        for name in ("mass", "c", "hbar"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        derived = self.d * self.E_field - self.mu * self.B_field
        if self.delta is None:
            object.__setattr__(self, "delta", derived)
        elif any((self.mu, self.d, self.B_field, self.E_field)):
            tol = 1e-12 * max(self.mc2, abs(self.delta), abs(derived))
            if abs(self.delta - derived) > tol:
                raise ConfigError(
                    f"delta={self.delta} inconsistent with d*E - mu*B = {derived}"
                )
        if not abs(self.delta) < self.mc2:  # also rejects NaN
            raise ConfigError(
                f"|delta|={abs(self.delta)} must stay below m*c^2={self.mc2}"
            )

    @property
    def mc2(self) -> float:
        return self.mass * self.c**2

    @property
    def rest_energy_up(self) -> float:
        return self.mc2 + self.delta

    @property
    def rest_energy_down(self) -> float:
        return self.mc2 - self.delta

    def rest_energy(self, s: int) -> float:
        return self.mc2 + s * self.delta

    @classmethod
    def natural(cls, delta: float = 0.0) -> "ParticleConfig":
        """Natural-unit config (hbar = c = m = 1) with a direct splitting."""
        return cls(delta=delta)


@dataclass(frozen=True)
class EigenSystem:
    """Labeled eigen-decomposition of the 4x4 Hamiltonian at fixed momentum.

    Column i of `spinors` is the unit eigenvector for BRANCH_SPIN_LABELS[i],
    with energy energies[i]. Spinor phases are fixed so the first component
    above 1e-10 of the max magnitude is real and positive, which makes matrix
    elements reproducible across the numeric and closed-form constructions.
    """

    p: float
    energies: np.ndarray
    spinors: np.ndarray
    rest_energy_up: float
    rest_energy_down: float

    def energy(self, l: int, s: int) -> float:
        return float(self.energies[label_index(l, s)])

    def spinor(self, l: int, s: int) -> np.ndarray:
        return self.spinors[:, label_index(l, s)]

    def rest_energy(self, s: int) -> float:
        return self.rest_energy_up if s > 0 else self.rest_energy_down


def build_hamiltonian(
    p: float, cfg: ParticleConfig, ops: DiracOperatorSet | None = None
) -> np.ndarray:
    """Model Hamiltonian c*p*alpha_x + m*c^2*beta + delta*beta*Sigma_x."""
    if ops is None:
        ops = build_operators(cfg.hbar)
    H = (
        cfg.c * p * ops.alpha_x
        + cfg.mc2 * ops.beta
        + cfg.delta * (ops.beta @ ops.sigma_x_big)
    )
    H.setflags(write=False)
    return H


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first non-negligible component is real > 0."""
    mags = np.abs(v)
    idx = int(np.flatnonzero(mags > 1e-10 * mags.max())[0])
    return v * np.conj(v[idx] / mags[idx])


def _cluster_indices(values: np.ndarray, tol: float) -> Iterable[list[int]]:
    group = [0]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] <= tol:
            group.append(i)
        else:
            yield group
            group = [i]
    yield group


def eigensystem_numeric(
    H: np.ndarray, ops: DiracOperatorSet, p: float = 0.0, c: float = 1.0
) -> EigenSystem:
    """Diagonalize H and label eigenpairs by (branch, helicity).

    Degenerate subspaces (delta = 0 and/or p = 0) are resolved by
    co-diagonalizing with Sigma_x, so the labels stay continuous across
    parameters. Rest energies are recovered from sqrt(E^2 - (c*p)^2) of the
    positive-branch levels. Raises ValueError for non-Hermitian input.
    """
    H = np.asarray(H, dtype=complex)
    if H.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {H.shape}")
    scale = max(np.linalg.norm(H), 1.0)
    if np.linalg.norm(H - H.conj().T) > 1e-12 * scale:
        raise ValueError("Hamiltonian must be Hermitian")

    evals, evecs = np.linalg.eigh(H)
    for group in _cluster_indices(evals, 1e-10 * scale):
        if len(group) > 1:
            V = evecs[:, group]
            M = V.conj().T @ ops.sigma_x_big @ V
            _, U = np.linalg.eigh(0.5 * (M + M.conj().T))
            rotated = V @ U
            evecs[:, group] = rotated
            # near-degenerate clusters: re-pair each rotated vector with its own
            # Rayleigh quotient, not with eigh's arbitrary in-cluster ordering
            for j, col in zip(group, rotated.T):
                evals[j] = float(np.real(col.conj() @ H @ col))

    energies = np.empty(4)
    spinors = np.empty((4, 4), dtype=complex)
    seen = set()
    for i in range(4):
        v = evecs[:, i]
        hel = float(np.real(v.conj() @ ops.sigma_x_big @ v))
        if abs(abs(hel) - 1.0) > 1e-10:
            raise ValueError(
                f"eigenvector is not a helicity eigenstate (<Sigma_x> = {hel}); "
                "H must commute with Sigma_x"
            )
        l = +1 if evals[i] > 0 else -1
        s = +1 if hel > 0 else -1
        if (l, s) in seen:
            raise ValueError(f"duplicate (branch, helicity) label {(l, s)}")
        seen.add((l, s))
        k = label_index(l, s)
        energies[k] = evals[i]
        spinors[:, k] = _fix_phase(v)

    cp2 = (c * p) ** 2
    rest_up = float(np.sqrt(max(energies[label_index(+1, +1)] ** 2 - cp2, 0.0)))
    rest_down = float(np.sqrt(max(energies[label_index(+1, -1)] ** 2 - cp2, 0.0)))
    energies.setflags(write=False)
    spinors.setflags(write=False)
    return EigenSystem(
        p=float(p),
        energies=energies,
        spinors=spinors,
        rest_energy_up=rest_up,
        rest_energy_down=rest_down,
    )


def eigensystem_analytic(p: float, cfg: ParticleConfig) -> EigenSystem:
    """Closed-form eigensystem from the two 2x2 helicity blocks.

    In the helicity-s sector, spanned by u_s = (chi_s, 0) and w_s = (0, chi_s)
    with sigma_x chi_s = s*chi_s, the Hamiltonian reduces to

        [[a_s, s*c*p], [s*c*p, -a_s]],   a_s = m*c^2 + s*delta,

    whose eigenvalues are +-sqrt((c*p)^2 + a_s^2) with eigenvectors
    (a_s + R, b) and (-b, a_s + R), b = s*c*p. Phases follow the same
    convention as eigensystem_numeric.
    """
    sqrt2 = np.sqrt(2.0)
    energies = np.empty(4)
    spinors = np.empty((4, 4), dtype=complex)
    for l, s in BRANCH_SPIN_LABELS:
        a = cfg.rest_energy(s)
        b = s * cfg.c * p
        R = float(np.hypot(a, b))
        if l > 0:
            x1, x2 = a + R, b
        else:
            x1, x2 = -b, a + R
        chi = np.array([1.0, s], dtype=complex) / sqrt2
        v = np.concatenate([x1 * chi, x2 * chi]) / np.hypot(x1, x2)
        k = label_index(l, s)
        energies[k] = l * R
        spinors[:, k] = _fix_phase(v)
    energies.setflags(write=False)
    spinors.setflags(write=False)
    return EigenSystem(
        p=float(p),
        energies=energies,
        spinors=spinors,
        rest_energy_up=cfg.rest_energy_up,
        rest_energy_down=cfg.rest_energy_down,
    )


def matrix_element(op_matrix: np.ndarray, bra: np.ndarray, ket: np.ndarray) -> complex:
    """<bra| op |ket> for unit-norm spinors."""
    op_matrix = np.asarray(op_matrix)
    bra = np.asarray(bra)
    ket = np.asarray(ket)
    n = op_matrix.shape[0]
    if op_matrix.shape != (n, n) or bra.shape != (n,) or ket.shape != (n,):
        raise ValueError(
            f"dimension mismatch: op {op_matrix.shape}, bra {bra.shape}, ket {ket.shape}"
        )
    return complex(bra.conj() @ op_matrix @ ket)
