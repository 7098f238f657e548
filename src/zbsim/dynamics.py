"""Expectation-value time series: closed-form tone sums and a brute-force oracle.

Two independent routes to every observable:

* `expectation_series` evolves each momentum mode exactly by eigenphase
  rotation and contracts <psi|O|psi> per sample (for position tags it
  integrates the velocity contraction term-by-term, exactly). It assumes
  nothing about which cross terms survive.

* `analytic_series` sums the closed-form tones of one tone table. The table
  (`_CROSS_TERMS`) names the cross terms that survive: Larmor tones from
  same-branch opposite-spin pairs, ZB tones from opposite-branch pairs. Each
  tone's frequency is a closed-form level difference; its amplitude contracts
  the numerically labeled eigenspinors. `tone_amplitudes` and
  `spin_x_constant` read the same table.

The two routes must agree pointwise; the test suite holds them to 1e-9.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .algebra import (
    BRANCH_SPIN_LABELS,
    DiracOperatorSet,
    EigenSystem,
    build_hamiltonian,
    build_operators,
    eigensystem_numeric,
    label_index,
    matrix_element,
)
from .spectrum import FrequencySet, branch_energy, frequency_set
from .wavepacket import Wavepacket

__all__ = [
    "OBSERVABLE_TAGS",
    "TimeSeries",
    "default_time_grid",
    "expectation_series",
    "analytic_series",
    "spin_x_constant",
    "tone_amplitudes",
]

OBSERVABLE_TAGS = (
    "S_x", "S_y", "S_z",
    "alpha_x", "alpha_y", "alpha_z",
    "r_x", "r_y", "r_z",
)

_IMAG_TOL = 1e-12
CSV_HEADER = "t,value,observable,p0,delta"

#: Surviving cross terms (tone label, bra (l, s), ket (l, s)) of each spin and
#: velocity observable; every other off-diagonal element vanishes. The term
#: and its conjugate pair contribute 2*Re[A*exp(i*omega*t)] together.
_CROSS_TERMS = {
    "S_x": (),
    "alpha_x": (("omega_zb1", (+1, +1), (-1, +1)), ("omega_zb3", (+1, -1), (-1, -1))),
    **dict.fromkeys(("S_y", "S_z", "alpha_y", "alpha_z"), (
        ("omega_L", (+1, +1), (+1, -1)),
        ("omega_L", (-1, +1), (-1, -1)),
        ("omega_zb2", (+1, +1), (-1, -1)),
        ("omega_zb2", (+1, -1), (-1, +1)),
    )),
}


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real observable values."""

    times: np.ndarray
    values: np.ndarray
    observable_tag: str

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.size < 2 or values.shape != times.shape:
            raise ValueError("need matching 1-d arrays with at least two samples")
        steps = np.diff(times)
        dt = steps[0]
        if dt <= 0 or np.any(np.abs(steps - dt) > 1e-9 * abs(dt)):
            raise ValueError("time grid must be uniform and increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("samples must be finite")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def to_csv(self, target, p0: float, delta: float) -> None:
        """Write the `t,value,observable,p0,delta` contract rows (12 sig. digits)."""
        if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
            with open(target, "w", encoding="utf-8", newline="") as fh:
                self.to_csv(fh, p0, delta)
            return
        fh: io.TextIOBase = target
        fh.write(CSV_HEADER + "\n")
        for t, x in zip(self.times, self.values):
            fh.write(f"{t:.12g},{x:.12g},{self.observable_tag},{p0:.12g},{delta:.12g}\n")


def default_time_grid(
    freqs: FrequencySet, periods: float = 20.0, samples: int = 4096
) -> np.ndarray:
    """Uniform grid spanning `periods` of the slowest tone (endpoint excluded)."""
    tones = [w for w in freqs.tones().values() if w > 1e-12]
    slowest = min(tones) if tones else freqs.omega_forbidden
    t_max = periods * 2.0 * np.pi / slowest
    return np.linspace(0.0, t_max, samples, endpoint=False)


def _check_tag(observable_tag: str) -> None:
    if observable_tag not in OBSERVABLE_TAGS:
        raise ValueError(f"unknown observable {observable_tag!r}; expected one of {OBSERVABLE_TAGS}")


def _operator(ops: DiracOperatorSet, observable_tag: str) -> np.ndarray:
    """S_j for spin tags; alpha_j for velocity tags and for r_j, the integral of c*alpha_j."""
    kind, axis = observable_tag.split("_")
    return ops.spin(axis) if kind == "S" else ops.alpha(axis)


def _mode_eigensystems(wp: Wavepacket) -> tuple[DiracOperatorSet, list[EigenSystem]]:
    ops = build_operators(wp.cfg.hbar)
    eigs = [
        eigensystem_numeric(build_hamiltonian(p, wp.cfg, ops), ops, p=p, c=wp.cfg.c)
        for p in wp.grid
    ]
    return ops, eigs


def _check_real(values: np.ndarray, what: str) -> np.ndarray:
    resid = np.max(np.abs(values.imag))
    if resid > _IMAG_TOL * max(1.0, float(np.max(np.abs(values.real)))):
        raise ValueError(f"imaginary residue {resid} in {what}; labeling/phase bug")
    return values.real


def _oracle_contraction(wp: Wavepacket, op: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """sum_k w_k <psi_k(t)| op |psi_k(t)> evaluated by direct contraction."""
    _, eigs = _mode_eigensystems(wp)
    hbar = wp.cfg.hbar
    vals = np.zeros(t_grid.size, dtype=complex)
    for k, eig in enumerate(eigs):
        phases = np.exp(-1j * np.outer(eig.energies, t_grid) / hbar)
        psi = eig.spinors @ (phases * wp.coeffs[:, k][:, None])
        vals += wp.weights[k] * np.einsum("it,ij,jt->t", psi.conj(), op, psi)
    return _check_real(vals, "oracle contraction")


def _oracle_position(wp: Wavepacket, op: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Exact time integral of c*<alpha_j>, term by term over eigenpairs.

    Each cross term A_ij e^{i w_ij t} integrates to A_ij (e^{i w_ij t}-1)/(i w_ij);
    diagonal (w_ij = 0) terms integrate to A_ij * t. Plane-wave absolute position
    is ill-defined, so the series is relative to its t=0 value.
    """
    _, eigs = _mode_eigensystems(wp)
    hbar = wp.cfg.hbar
    vals = np.zeros(t_grid.size, dtype=complex)
    for k, eig in enumerate(eigs):
        c = wp.coeffs[:, k]
        elems = eig.spinors.conj().T @ op @ eig.spinors
        amps = np.outer(c.conj(), c) * elems
        omegas = (eig.energies[:, None] - eig.energies[None, :]) / hbar
        for i in range(4):
            for j in range(4):
                a = amps[i, j]
                if a == 0.0:
                    continue
                w = omegas[i, j]
                if w == 0.0:
                    vals += wp.weights[k] * a * t_grid
                else:
                    vals += wp.weights[k] * a * (np.exp(1j * w * t_grid) - 1.0) / (1j * w)
    return _check_real(wp.cfg.c * vals, "oracle position integral")


def expectation_series(wp: Wavepacket, observable_tag: str, t_grid: np.ndarray) -> TimeSeries:
    """Brute-force oracle series for any observable tag."""
    _check_tag(observable_tag)
    t_grid = np.asarray(t_grid, dtype=float)
    op = _operator(build_operators(wp.cfg.hbar), observable_tag)
    if observable_tag.startswith("r_"):
        vals = _oracle_position(wp, op, t_grid)
    else:
        vals = _oracle_contraction(wp, op, t_grid)
    return TimeSeries(times=t_grid, values=vals, observable_tag=observable_tag)


def _tone_table(wp: Wavepacket, observable_tag: str) -> tuple[float, list[tuple[str, float, complex]]]:
    """(constant, [(tone label, omega, A)]) of an observable over every mode.

    The series is constant + sum 2*Re[A*exp(i*omega*t)]. omega is the signed
    closed-form level difference (l_bra*E_bra - l_ket*E_ket)/hbar and A the
    weighted amplitude w*conj(c_bra)*c_ket*<bra|O|ket>. For r_j the table is
    that of its rate c*alpha_j, which callers integrate.
    """
    cfg = wp.cfg
    kind, axis = observable_tag.split("_")
    rate = cfg.c if kind == "r" else 1.0
    key = f"alpha_{axis}" if kind == "r" else observable_tag
    ops, eigs = _mode_eigensystems(wp)
    op = _operator(ops, observable_tag)
    constant = 0.0
    terms: list[tuple[str, float, complex]] = []
    for k, eig in enumerate(eigs):
        p, w, c = wp.grid[k], wp.weights[k], wp.coeffs[:, k]
        energy = {s: branch_energy(p, cfg, s) for s in (+1, -1)}
        for i, (l, s) in enumerate(BRANCH_SPIN_LABELS):
            if key == "S_x":
                constant += w * abs(c[i]) ** 2 * s * cfg.hbar / 2.0
            elif key == "alpha_x":  # group velocity c*p/E of the level
                constant += w * abs(c[i]) ** 2 * cfg.c * p / (l * energy[s])
        for label, (lb, sb), (lk, sk) in _CROSS_TERMS[key]:
            omega = (lb * energy[sb] - lk * energy[sk]) / cfg.hbar
            bra, ket = label_index(lb, sb), label_index(lk, sk)
            elem = matrix_element(op, eig.spinors[:, bra], eig.spinors[:, ket])
            terms.append((label, omega, rate * w * np.conj(c[bra]) * c[ket] * elem))
    return rate * constant, terms


def analytic_series(wp: Wavepacket, observable_tag: str, t_grid: np.ndarray) -> TimeSeries:
    """Closed-form series for any observable tag, summed from its tone table.

    Position tags integrate the rate table exactly from r(0) = 0: a tone
    becomes A*(e^{i w t} - 1)/(i w), and a zero-frequency term (omega_L at
    delta = 0) or the constant becomes a linear drift.
    """
    _check_tag(observable_tag)
    t_grid = np.asarray(t_grid, dtype=float)
    constant, terms = _tone_table(wp, observable_tag)
    position = observable_tag.startswith("r_")
    vals = constant * t_grid if position else np.full(t_grid.size, constant)
    for _, omega, amp in terms:
        if not position:
            shape = np.exp(1j * omega * t_grid)
        elif omega == 0.0:
            shape = t_grid
        else:
            shape = (np.exp(1j * omega * t_grid) - 1.0) / (1j * omega)
        vals = vals + 2.0 * np.real(amp * shape)
    return TimeSeries(times=t_grid, values=vals, observable_tag=observable_tag)


def spin_x_constant(wp: Wavepacket) -> float:
    """Helicity expectation sum_k w_k sum_{l,s} |c|^2 * s*hbar/2; a constant of motion."""
    return _tone_table(wp, "S_x")[0]


def tone_amplitudes(wp: Wavepacket, observable_tag: str) -> dict[str, tuple[float, complex]]:
    """Coherent complex amplitude of each closed-form tone family of an observable.

    Returns {tone label: (omega, A)} such that the series contribution of the
    family is 2*Re[A*exp(i*omega*t)] (exact for single-mode packets; for
    multimode packets A aggregates the per-mode amplitudes and omega is the
    packet-center tone). A structural zero amplitude means the tone is nulled
    for this packet, e.g. the Larmor tone of r_y at p = 0 or delta = 0.
    Zero-frequency families (omega_L at delta = 0) report the coefficient of
    their constant/linear contribution instead of a spectral line. Families
    with negative frequency (omega_L under delta < 0) are folded onto the
    positive line they produce in a real series.
    """
    _check_tag(observable_tag)
    if observable_tag == "S_x":
        raise ValueError("S_x carries no tones; it is a constant of motion")
    center = frequency_set(wp.mean_momentum(), wp.cfg).tones()
    position = observable_tag.startswith("r_")
    out: dict[str, tuple[float, complex]] = {}
    for label, omega, amp in _tone_table(wp, observable_tag)[1]:
        if position and omega != 0.0:
            amp = amp / (1j * omega)
        if omega < 0.0:  # 2*Re[A e^{i w t}] == 2*Re[conj(A) e^{-i w t}]
            amp = np.conj(amp)
        out[label] = (center[label], out.get(label, (0.0, 0j))[1] + amp)
    return out
