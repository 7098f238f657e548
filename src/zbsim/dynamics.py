"""Expectation-value time series: closed-form tone sums and a brute-force oracle.

All quantities are in natural units (hbar = c = m = 1). There are two
independent routes to every observable:

* `expectation_table` evolves each momentum mode exactly by eigenphase
  rotation and contracts <psi|O|psi> over all 16 eigenpairs per sample, for
  all nine tags at once (for position tags it integrates the velocity
  contraction term by term, exactly). It assumes nothing about which cross
  terms survive.

* `analytic_series` sums the closed-form tones of one tone table. The table
  (`_CROSS_TERMS`) names the cross terms that survive: Larmor tones from
  same-branch opposite-spin pairs, ZB tones from opposite-branch pairs. Each
  tone's frequency is a closed-form level difference; its amplitude contracts
  the numerically labeled eigenspinors. `tone_amplitudes` and
  `spin_x_constant` read the same table.

The two routes must agree pointwise; the test suite holds them to 1e-9.
"""

from __future__ import annotations

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
    "expectation_table",
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
#: Samples per block of the oracle: bounds its (K*16, chunk) pair-phase array.
_CHUNK = 256

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
    """S_j for spin tags; alpha_j for velocity tags and for r_j, the integral of alpha_j."""
    kind, axis = observable_tag.split("_")
    return ops.spin(axis) if kind == "S" else ops.alpha(axis)


def _mode_eigensystems(wp: Wavepacket) -> tuple[DiracOperatorSet, list[EigenSystem]]:
    ops = build_operators()
    return ops, [eigensystem_numeric(build_hamiltonian(p, wp.cfg, ops), ops) for p in wp.grid]


def _check_real(values: np.ndarray, what: str) -> np.ndarray:
    resid = np.max(np.abs(values.imag))
    if resid > _IMAG_TOL * max(1.0, float(np.max(np.abs(values.real)))):
        raise ValueError(f"imaginary residue {resid} in {what}; labeling/phase bug")
    return values.real


def expectation_table(wp: Wavepacket, t_grid: np.ndarray) -> dict[str, TimeSeries]:
    """Brute-force oracle series of all nine observables, in one pass.

    Each mode evolves as psi_k(t) = V_k (e^{-i E_k t} * c_k), so
    <O>(t) = sum_k sum_ij A_kij e^{i w_kij t}, with A_kij = w_k conj(c_ki) c_kj <i|O|j>
    and w_kij = E_ki - E_kj, over all 16 eigenpairs of every mode.
    Position tags integrate <alpha_j> term by term from r(0) = 0: a term
    becomes A (e^{i w t} - 1)/(i w), and a w = 0 term the drift A t.
    Eigensystems are built once; per time chunk the 4 level phases of each
    mode give the 16 pair phases that all nine tags share.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    ops, eigs = _mode_eigensystems(wp)
    spinors = np.stack([eig.spinors for eig in eigs])                  # (K, 4, 4)
    levels = np.stack([eig.energies for eig in eigs])                  # (K, 4)
    coeffs = wp.coeffs.T                                               # (K, 4)
    op_stack = np.stack([_operator(ops, tag) for tag in OBSERVABLE_TAGS[:6]])
    elems = np.einsum("kai,nab,kbj->nkij", spinors.conj(), op_stack, spinors)
    amps = (wp.weights[:, None, None] * coeffs.conj()[:, :, None] * coeffs[:, None, :]
            * elems).reshape(6, -1)                                    # (6, K*16)
    omegas = (levels[:, :, None] - levels[:, None, :]).ravel()
    still = omegas == 0.0
    rates = amps[3:]  # d r_j/dt = alpha_j
    pos_amps = np.divide(rates, 1j * omegas, out=np.zeros_like(rates), where=~still)
    drift = rates[:, still].sum(axis=1)

    vals = np.empty((len(OBSERVABLE_TAGS), t_grid.size), dtype=complex)
    for start in range(0, t_grid.size, _CHUNK):
        t = t_grid[start:start + _CHUNK]
        arg = np.multiply.outer(levels, t)
        phases = np.empty(arg.shape, dtype=complex)                    # (K, 4, n)
        phases.real, phases.imag = np.cos(arg), -np.sin(arg)  # e^{-i arg}; half the cost of complex np.exp
        pairs = (phases.conj()[:, :, None, :] * phases[:, None, :, :]).reshape(omegas.size, -1)
        vals[:6, start:start + t.size] = amps @ pairs
        pairs -= 1.0  # per term, not as a summed constant, so that r(0) is exactly 0
        vals[6:, start:start + t.size] = pos_amps @ pairs + np.multiply.outer(drift, t)
    return {
        tag: TimeSeries(times=t_grid, values=_check_real(row, f"oracle {tag}"), observable_tag=tag)
        for tag, row in zip(OBSERVABLE_TAGS, vals)
    }


def _tone_table(wp: Wavepacket, observable_tag: str) -> tuple[float, list[tuple[str, float, complex]]]:
    """(constant, [(tone label, omega, A)]) of an observable over every mode.

    The series is constant + sum 2*Re[A*exp(i*omega*t)]. omega is the signed
    closed-form level difference l_bra*E_bra - l_ket*E_ket and A the
    weighted amplitude w*conj(c_bra)*c_ket*<bra|O|ket>. For r_j the table is
    that of its rate alpha_j, which callers integrate.
    """
    cfg = wp.cfg
    kind, axis = observable_tag.split("_")
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
                constant += w * abs(c[i]) ** 2 * s / 2.0
            elif key == "alpha_x":  # group velocity p/E of the level
                constant += w * abs(c[i]) ** 2 * p / (l * energy[s])
        for label, (lb, sb), (lk, sk) in _CROSS_TERMS[key]:
            omega = lb * energy[sb] - lk * energy[sk]
            bra, ket = label_index(lb, sb), label_index(lk, sk)
            elem = matrix_element(op, eig.spinors[:, bra], eig.spinors[:, ket])
            terms.append((label, omega, w * np.conj(c[bra]) * c[ket] * elem))
    return constant, terms


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
    """Helicity expectation sum_k w_k sum_{l,s} |c|^2 * s/2; a constant of motion."""
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
