"""Independent reference computations behind the benchmark's output checks.

Nothing here imports `zbsim`: the tones come from the closed forms of the
split spectrum, and packet series from the benchmark's own 4x4 Dirac
Hamiltonian, so a fault in the program's spectrum or oracle cannot hide
behind the same fault in its check. Natural units throughout
(hbar = c = m = 1, so 2*m*c^2/hbar = 2).
"""

from __future__ import annotations

import numpy as np

#: Branch/helicity labels (l, s) in the order of the packet coefficients and
#: of `--mix`: +up, +down, -up, -down.
LABELS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)
_I2 = np.eye(2, dtype=complex)

#: Dirac-Pauli representation: alpha_j off-diagonal, beta and Sigma_j block-diagonal.
ALPHA = {axis: np.block([[_Z2, s], [s, _Z2]]) for axis, s in zip("xyz", (_SX, _SY, _SZ))}
SIGMA = {axis: np.block([[s, _Z2], [_Z2, s]]) for axis, s in zip("xyz", (_SX, _SY, _SZ))}
BETA = np.block([[_I2, _Z2], [_Z2, -_I2]])


def branch_energies(p, delta: float):
    """(E_up, E_down), E_s = sqrt(p^2 + (1 + s*delta)^2); broadcasts over p."""
    p = np.asarray(p, dtype=float)
    return np.hypot(p, 1.0 + delta), np.hypot(p, 1.0 - delta)


def tones(p, delta: float) -> dict:
    """Signed omega_L and the three ZB tones at momentum p (broadcasts)."""
    e_up, e_down = branch_energies(p, delta)
    return {
        # E_up - E_down, written without the cancellation of the difference
        "omega_L": 4.0 * delta / (e_up + e_down),
        "omega_zb1": 2.0 * e_up,
        "omega_zb2": e_up + e_down,
        "omega_zb3": 2.0 * e_down,
    }


def sweep_columns(delta: float, v_max: float, steps: int) -> dict[str, np.ndarray]:
    """Every column `zbsim sweep` can print, over its velocity grid."""
    v = np.linspace(0.0, v_max, steps)
    p = v / np.sqrt(1.0 - v * v)
    t = tones(p, delta)
    _, e_down = branch_energies(p, delta)
    return {
        "v": v,
        "p": p,
        "omega_zb": 2.0 * np.hypot(p, 1.0),
        **t,
        "omega_sb": 2.0 * e_down,
        "omega_ob1": 2.0 * t["omega_L"],
        "omega_ob2": 2.0 * e_down,
        "omega_forbidden": np.full(v.shape, 2.0),
    }


def hamiltonian(p: float, delta: float) -> np.ndarray:
    """H = p*alpha_x + beta + delta*beta*Sigma_x."""
    return p * ALPHA["x"] + BETA + delta * (BETA @ SIGMA["x"])


def labeled_eigensystem(p: float, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """(energies, spinor columns) in LABELS order, for nondegenerate levels.

    Labels are l = sign(E) and s = sign(<Sigma_x>). Each spinor's global phase
    makes its first component above 1e-10 of its largest real and positive,
    the convention the packet coefficients refer to.
    """
    evals, evecs = np.linalg.eigh(hamiltonian(p, delta))
    energies = np.empty(4)
    spinors = np.empty((4, 4), dtype=complex)
    for e, v in zip(evals, evecs.T):
        s = +1 if np.real(v.conj() @ SIGMA["x"] @ v) > 0 else -1
        k = LABELS.index((+1 if e > 0 else -1, s))
        mags = np.abs(v)
        first = int(np.flatnonzero(mags > 1e-10 * mags.max())[0])
        energies[k] = e
        spinors[:, k] = v * np.conj(v[first]) / mags[first]
    return energies, spinors


def gaussian_packet(p0: float, sigma_p: float, mix, n_modes: int):
    """(grid, weights, coeffs) of the documented Gaussian packet.

    Grid p0 +- 5*sigma_p with n_modes points, trapezoid weights,
    c[(l,s), k] ~ mix[(l,s)] * exp(-(p_k - p0)^2 / (4*sigma_p^2)), scaled so
    that sum_k w_k sum_{l,s} |c|^2 = 1.
    """
    grid = np.linspace(p0 - 5.0 * sigma_p, p0 + 5.0 * sigma_p, n_modes)
    weights = np.empty(n_modes)
    weights[0] = 0.5 * (grid[1] - grid[0])
    weights[-1] = 0.5 * (grid[-1] - grid[-2])
    weights[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    envelope = np.exp(-((grid - p0) ** 2) / (4.0 * sigma_p**2))
    coeffs = np.asarray(mix, dtype=complex)[:, None] * envelope[None, :]
    norm = np.sqrt(np.sum(weights * np.sum(np.abs(coeffs) ** 2, axis=0)))
    return grid, weights, coeffs / norm


def packet_series(p0, sigma_p, mix, n_modes, delta, times) -> dict[str, np.ndarray]:
    """All nine expectation series of the Gaussian packet at `times`.

    Each mode evolves as psi(t) = sum_j c_j exp(-i E_j t) |j>, so
    <O>(t) = sum_ij conj(c_i) c_j <i|O|j> exp(i (E_i - E_j) t). Positions
    integrate c*<alpha_j> from t = 0 pair by pair: (exp(i w t) - 1)/(i w),
    or t where w = 0.
    """
    times = np.asarray(times, dtype=float)
    ops = {f"S_{a}": 0.5 * SIGMA[a] for a in "xyz"}
    ops.update({f"alpha_{a}": ALPHA[a] for a in "xyz"})
    ops.update({f"r_{a}": ALPHA[a] for a in "xyz"})
    out = {tag: np.zeros(times.size, dtype=complex) for tag in ops}
    grid, weights, coeffs = gaussian_packet(p0, sigma_p, mix, n_modes)
    for p, w, c in zip(grid, weights, coeffs.T):
        energies, spinors = labeled_eigensystem(p, delta)
        omega = (energies[:, None] - energies[None, :]).ravel()
        osc = np.exp(1j * np.outer(omega, times))
        drift = omega == 0.0
        integ = np.empty_like(osc)
        integ[drift] = times
        integ[~drift] = (osc[~drift] - 1.0) / (1j * omega[~drift, None])
        pops = np.outer(c.conj(), c)
        for tag, op in ops.items():
            amps = (pops * (spinors.conj().T @ op @ spinors)).ravel()
            out[tag] += w * (amps @ (integ if tag[0] == "r" else osc))
    return {tag: vals.real for tag, vals in out.items()}
