"""Wavepackets as normalized superpositions of labeled plane-wave eigenstates.

A packet stores complex amplitudes c[(l,s), k] on a strictly increasing
momentum grid with trapezoidal quadrature weights, so the continuum
sum-integral over branch, spin and momentum becomes the finite sum
sum_k w_k sum_{l,s} |c|^2 = 1. The position-space phase factor is never
materialized: every observable computed downstream is an expectation value,
which only needs the coefficients and the per-mode eigensystem. Each mode
evolves by the eigenphase exp(-i*E_l^s*t/hbar) on its coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import BRANCH_SPIN_LABELS, LABEL_NAMES, ParticleConfig

__all__ = [
    "Wavepacket",
    "EQUAL_MIX",
    "DEFAULT_MIX",
    "gaussian_packet",
    "single_mode",
    "packet_to_dict",
    "packet_from_dict",
]

_NORM_TOL = 1e-10

#: Equal real four-way branch/spin mix in BRANCH_SPIN_LABELS order.
EQUAL_MIX = (0.5, 0.5, 0.5, 0.5)

#: Canonical equal-weight mix with staggered phases. An all-real equal mix
#: makes two cross-term pairs cancel exactly (the spin-ZB tone of S_y and the
#: Larmor tone of S_z), hiding tones the verification pipeline must see; the
#: i on the (+,down) amplitude breaks that symmetry while keeping all four
#: populations equal.
DEFAULT_MIX = (0.5, 0.5j, 0.5, 0.5)


@dataclass(frozen=True)
class Wavepacket:
    """Immutable momentum-grid superposition; rows of `coeffs` follow BRANCH_SPIN_LABELS."""

    grid: np.ndarray
    weights: np.ndarray
    coeffs: np.ndarray
    cfg: ParticleConfig

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=complex)
        n = grid.size
        if coeffs.shape != (4, n) or weights.shape != (n,):
            raise ValueError(
                f"inconsistent shapes: grid {grid.shape}, weights {weights.shape}, "
                f"coeffs {coeffs.shape}"
            )
        if n > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("momentum grid must be strictly increasing")
        if not np.all(weights > 0):
            raise ValueError("quadrature weights must be positive")
        norm = float(np.sum(weights * np.sum(np.abs(coeffs) ** 2, axis=0)))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"packet norm {norm} deviates from 1 beyond {_NORM_TOL}")
        for arr in (grid, weights, coeffs):
            arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n_modes(self) -> int:
        return self.grid.size

    def norm(self) -> float:
        return float(np.sum(self.weights * np.sum(np.abs(self.coeffs) ** 2, axis=0)))

    def occupancy(self) -> dict[str, float]:
        """Population fraction per (branch, helicity) label."""
        pops = np.sum(self.weights * np.abs(self.coeffs) ** 2, axis=1)
        return dict(zip(LABEL_NAMES, (float(x) for x in pops)))

    def mean_momentum(self) -> float:
        dens = self.weights * np.sum(np.abs(self.coeffs) ** 2, axis=0)
        return float(np.sum(dens * self.grid))


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    if grid.size == 1:
        return np.ones(1)
    w = np.empty(grid.size)
    w[0] = 0.5 * (grid[1] - grid[0])
    w[-1] = 0.5 * (grid[-1] - grid[-2])
    w[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    return w


def _normalized(grid: np.ndarray, weights: np.ndarray, coeffs: np.ndarray,
                cfg: ParticleConfig) -> Wavepacket:
    norm = np.sqrt(np.sum(weights * np.sum(np.abs(coeffs) ** 2, axis=0)))
    if norm == 0.0:
        raise ValueError("mix amplitudes must not all be zero")
    return Wavepacket(grid=grid, weights=weights, coeffs=coeffs / norm, cfg=cfg)


def gaussian_packet(
    p0: float,
    sigma_p: float,
    mix: Sequence[complex] = DEFAULT_MIX,
    n_modes: int = 64,
    cfg: ParticleConfig | None = None,
) -> Wavepacket:
    """Gaussian momentum envelope around p0 with a fixed branch/spin mix.

    The grid spans p0 +- 5*sigma_p with n_modes uniform points;
    c[(l,s), k] ~ mix[(l,s)] * exp(-(p_k - p0)^2 / (4*sigma_p^2)), normalized.
    """
    cfg = cfg or ParticleConfig.natural()
    if not sigma_p > 0:
        raise ValueError(f"sigma_p must be positive, got {sigma_p}")
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    mix_arr = np.asarray(mix, dtype=complex)
    if mix_arr.shape != (len(BRANCH_SPIN_LABELS),):
        raise ValueError(f"mix must have 4 entries in {LABEL_NAMES} order")
    if n_modes == 1:
        grid = np.array([float(p0)])
    else:
        grid = np.linspace(p0 - 5.0 * sigma_p, p0 + 5.0 * sigma_p, n_modes)
    weights = _trapezoid_weights(grid)
    envelope = np.exp(-((grid - p0) ** 2) / (4.0 * sigma_p**2))
    coeffs = mix_arr[:, None] * envelope[None, :]
    return _normalized(grid, weights, coeffs, cfg)


def single_mode(
    p: float,
    mix: Sequence[complex] = DEFAULT_MIX,
    cfg: ParticleConfig | None = None,
) -> Wavepacket:
    """One grid point with weight 1; the unit-test carrier for per-mode formulas."""
    cfg = cfg or ParticleConfig.natural()
    mix_arr = np.asarray(mix, dtype=complex)
    if mix_arr.shape != (len(BRANCH_SPIN_LABELS),):
        raise ValueError(f"mix must have 4 entries in {LABEL_NAMES} order")
    return _normalized(np.array([float(p)]), np.ones(1), mix_arr[:, None].copy(), cfg)


def packet_to_dict(wp: Wavepacket) -> dict:
    """JSON-ready document; complex amplitudes become [re, im] pairs."""
    return {
        "config": {
            "mass": wp.cfg.mass,
            "c": wp.cfg.c,
            "hbar": wp.cfg.hbar,
            "delta": wp.cfg.delta,
        },
        "grid": [float(p) for p in wp.grid],
        "weights": [float(w) for w in wp.weights],
        "coeffs": {
            name: [[float(c.real), float(c.imag)] for c in wp.coeffs[i]]
            for i, name in enumerate(LABEL_NAMES)
        },
    }


def packet_from_dict(doc: dict) -> Wavepacket:
    """Inverse of packet_to_dict; config keys other than mass, c, hbar and delta are ignored."""
    cfg_doc = doc["config"]
    cfg = ParticleConfig(
        mass=cfg_doc["mass"],
        c=cfg_doc["c"],
        hbar=cfg_doc["hbar"],
        delta=cfg_doc["delta"],
    )
    grid = np.asarray(doc["grid"], dtype=float)
    weights = np.asarray(doc["weights"], dtype=float)
    coeffs = np.empty((4, grid.size), dtype=complex)
    for i, name in enumerate(LABEL_NAMES):
        pairs = np.asarray(doc["coeffs"][name], dtype=float)
        coeffs[i] = pairs[:, 0] + 1j * pairs[:, 1]
    return Wavepacket(grid=grid, weights=weights, coeffs=coeffs, cfg=cfg)
