"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import json
import time

import numpy as np
import pytest

from zbsim.algebra import (
    ParticleConfig,
    build_hamiltonian,
    eigensystem_analytic,
    eigensystem_numeric,
)
from zbsim.cli import main
from zbsim.dynamics import (
    OBSERVABLE_TAGS,
    analytic_series,
    default_time_grid,
    expectation_table,
    spin_x_constant,
    tone_amplitudes,
)
from zbsim.spectral import beat_envelope, extract_peaks, match_frequencies, periodogram
from zbsim.spectrum import free_zb_frequency, frequency_set, momentum_from_velocity
from zbsim.wavepacket import DEFAULT_MIX, gaussian_packet, single_mode
from conftest import DELTA_GRID, P_GRID

SUITE_P0 = 0.5
SUITE_DELTA = 0.4


def report(num: int, description: str, ok: bool) -> None:
    print(f"[acceptance] criterion {num:02d} {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def suite_packet():
    return single_mode(SUITE_P0, DEFAULT_MIX, ParticleConfig(delta=SUITE_DELTA))


@pytest.fixture(scope="module")
def suite_freqs():
    return frequency_set(SUITE_P0, ParticleConfig(delta=SUITE_DELTA))


@pytest.fixture(scope="module")
def suite_grid(suite_freqs):
    return default_time_grid(suite_freqs, periods=20.0, samples=4096)


def test_criterion_01_eigenvalue_oracle_equivalence(ops):
    start = time.perf_counter()
    worst = 0.0
    for delta in DELTA_GRID:
        cfg = ParticleConfig(delta=float(delta))
        for p in P_GRID:
            ana = eigensystem_analytic(float(p), cfg)
            num = eigensystem_numeric(build_hamiltonian(float(p), cfg, ops), ops)
            worst = max(worst, float(np.max(
                np.abs(ana.energies - num.energies) / np.abs(num.energies)
            )))
    elapsed = time.perf_counter() - start
    report(1, f"closed-form vs numeric energies on 51x10 grid "
              f"(worst rel {worst:.2e}, {elapsed:.2f}s)",
           worst <= 1e-12 and elapsed < 1.0)


def test_criterion_02_rest_frame_longitudinal_pair():
    rest = frequency_set(0.0, ParticleConfig(delta=0.4))
    up, down = rest.omega_zb1, rest.omega_zb3
    ok = abs(up - 2.8) <= 1e-12 and abs(down - 1.2) <= 1e-12
    report(2, f"rest-frame longitudinal tones ({up}, {down}) vs (2.8, 1.2)", ok)


def test_criterion_03_orbital_beat_is_twice_larmor():
    worst = 0.0
    for delta in DELTA_GRID:
        cfg = ParticleConfig(delta=float(delta))
        for p in P_GRID:
            fs = frequency_set(float(p), cfg)
            denom = max(abs(2.0 * fs.omega_L), 1e-300)
            worst = max(worst, abs(fs.omega_ob1 - 2.0 * fs.omega_L) / denom)
    report(3, f"omega_ob1 = 2*omega_L on full grid (worst rel {worst:.2e})", worst <= 1e-12)


def test_criterion_04_forbidden_band():
    ok = True
    for delta in DELTA_GRID:
        cfg = ParticleConfig(delta=float(delta))
        band = 2.0  # 2*m*c^2/hbar
        for p in P_GRID:
            fs = frequency_set(float(p), cfg)
            if p > 0:
                ok = ok and fs.omega_L < band < fs.omega_zb2
                ok = ok and fs.omega_zb1 > band
        if delta > 0:
            rest = frequency_set(0.0, cfg)
            # the below-band claim, witnessed where omega_zb3 is smallest
            ok = ok and rest.omega_zb3 < band
            ok = ok and rest.omega_zb1 > band
            ok = ok and rest.omega_L < band
    report(4, "omega_L < 2mc^2/hbar < omega_zb2 (p>0), omega_zb1 above band, "
              "omega_zb3 below band at rest for delta>0", ok)


def test_criterion_05_motional_shifts():
    p = momentum_from_velocity(np.linspace(0.0, 0.99, 100))
    fs = frequency_set(p, ParticleConfig(delta=SUITE_DELTA))
    blue = {
        "omega_zb": free_zb_frequency(p),
        "omega_zb1": fs.omega_zb1,
        "omega_zb2": fs.omega_zb2,
        "omega_zb3": fs.omega_zb3,
        "omega_sb": fs.omega_sb,
    }
    red = {"omega_L": fs.omega_L, "omega_ob1": fs.omega_ob1}
    ok = all(np.all(np.diff(vals) > 0) for vals in blue.values())
    ok = ok and all(np.all(np.diff(vals) < 0) for vals in red.values())
    report(5, "blue shift of ZB/beat tones, red shift of Larmor/orbital beat, "
              "every consecutive velocity pair", ok)


def test_criterion_06_spin_channel_pipeline(suite_packet, suite_freqs, suite_grid):
    start = time.perf_counter()
    expected = {"omega_L": suite_freqs.omega_L, "omega_zb2": suite_freqs.omega_zb2}
    ok = True
    detail = []
    table = expectation_table(suite_packet, suite_grid)
    for tag in ("S_y", "S_z"):
        series = table[tag]
        peaks = extract_peaks(periodogram(series), rel_threshold=0.01)
        match = match_frequencies(peaks, expected, tol_rel=1e-3)
        _, envelope = beat_envelope(series, peaks)
        beat_err = abs(envelope - suite_freqs.omega_sb) / suite_freqs.omega_sb
        ok = ok and match.clean and match.complete and len(peaks.peaks) == 2
        ok = ok and beat_err <= 1e-2
        detail.append(f"{tag}: peaks {len(peaks.peaks)}, beat err {beat_err:.1e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(6, f"spin channel peaks {{omega_L, omega_zb2}} + beat omega_sb "
              f"({'; '.join(detail)}; {elapsed:.2f}s)", ok)


def test_criterion_07_longitudinal_channel_pipeline(suite_packet, suite_freqs, suite_grid):
    expected = {"omega_zb1": suite_freqs.omega_zb1, "omega_zb3": suite_freqs.omega_zb3}
    series = expectation_table(suite_packet, suite_grid)["alpha_x"]
    peaks = extract_peaks(periodogram(series), rel_threshold=0.01)
    match = match_frequencies(peaks, expected, tol_rel=1e-3)
    _, envelope = beat_envelope(series, peaks)
    beat_err = abs(envelope - suite_freqs.omega_ob1) / suite_freqs.omega_ob1
    ok = match.clean and match.complete and beat_err <= 1e-2
    report(7, f"alpha_x peaks {{omega_zb1, omega_zb3}} + beat omega_ob1 "
              f"(beat err {beat_err:.1e})", ok)


def test_criterion_08_transverse_channel_pipeline(suite_packet, suite_freqs, suite_grid):
    expected = {"omega_L": suite_freqs.omega_L, "omega_zb2": suite_freqs.omega_zb2}
    ok = True
    table = expectation_table(suite_packet, suite_grid)
    for tag in ("r_y", "r_z"):
        series = table[tag]
        peaks = extract_peaks(periodogram(series), rel_threshold=0.01)
        match = match_frequencies(peaks, expected, tol_rel=1e-3)
        ok = ok and match.clean and match.complete
    # Larmor-tone nulls: in the rest frame and without spin splitting
    cfg = ParticleConfig(delta=SUITE_DELTA)
    rest = single_mode(0.0, DEFAULT_MIX, cfg)
    nosplit = single_mode(SUITE_P0, DEFAULT_MIX, ParticleConfig(delta=0.0))
    residual = 0.0
    for packet in (rest, nosplit):
        for tag in ("r_y", "r_z"):
            residual = max(residual, abs(tone_amplitudes(packet)[tag]["omega_L"][1]))
    ok = ok and residual <= 1e-12
    report(8, f"r_y/r_z peaks {{omega_L, omega_zb2}}; Larmor-tone null at p=0 and "
              f"delta=0 (residual {residual:.1e})", ok)


def test_criterion_09_conservation_suite(ops, suite_grid):
    cfg = ParticleConfig(delta=SUITE_DELTA)
    packets = [
        single_mode(SUITE_P0, DEFAULT_MIX, cfg),
        gaussian_packet(SUITE_P0, 0.05, DEFAULT_MIX, 32, cfg),
        single_mode(0.0, DEFAULT_MIX, cfg),
    ]
    worst = 0.0
    for wp in packets:
        eigs = [eigensystem_numeric(build_hamiltonian(p, wp.cfg, ops), ops)
                for p in wp.grid]
        hams = [build_hamiltonian(p, wp.cfg, ops) for p in wp.grid]
        traces = {"norm": [], "energy": [], "spin_x": [], "pops": []}
        for t in np.linspace(0.0, suite_grid[-1], 8):
            norm = energy = helicity = 0.0
            pops = np.zeros(4)
            for k, eig in enumerate(eigs):
                # eigenphase evolution psi_k(t) = V_k (e^{-i E_k t} * c_k)
                psi = eig.spinors @ (np.exp(-1j * eig.energies * t) * wp.coeffs[:, k])
                w = wp.weights[k]
                norm += w * float(np.real(psi.conj() @ psi))
                energy += w * float(np.real(psi.conj() @ hams[k] @ psi))
                helicity += w * float(np.real(psi.conj() @ ops.spin_x @ psi))
                pops += w * np.abs(eig.spinors.conj().T @ psi) ** 2
            traces["norm"].append(norm)
            traces["energy"].append(energy)
            traces["spin_x"].append(helicity)
            traces["pops"].append(pops)
        worst = max(
            worst,
            float(np.ptp(traces["norm"])),
            float(np.ptp(traces["energy"])),
            float(np.ptp(traces["spin_x"])),
            float(np.max(np.ptp(np.array(traces["pops"]), axis=0))),
        )
        sx_series = expectation_table(wp, suite_grid)["S_x"]
        worst = max(worst, float(np.max(np.abs(sx_series.values - spin_x_constant(wp)))))
    report(9, f"norm, <H>, <S_x>, populations constant (worst drift {worst:.1e})",
           worst <= 1e-10)


def test_criterion_10_kinematic_consistency(suite_packet, suite_freqs):
    dt = (2.0 * np.pi / suite_freqs.omega_zb1) / 200.0
    t = np.arange(0.0, 4096) * dt
    r = analytic_series(suite_packet, "r_x", t).values
    v = analytic_series(suite_packet, "alpha_x", t).values
    deriv = (r[:-4] - 8.0 * r[1:-3] + 8.0 * r[3:-1] - r[4:]) / (12.0 * dt)
    err = float(np.max(np.abs(deriv - v[2:-2])))
    report(10, f"d<r_x>/dt = <alpha_x> at dt = T1/200 (max err {err:.1e})", err <= 1e-6)


def test_criterion_11_analytic_vs_oracle_series():
    cfg = ParticleConfig(delta=SUITE_DELTA)
    packets = [
        single_mode(SUITE_P0, DEFAULT_MIX, cfg),
        single_mode(0.0, DEFAULT_MIX, cfg),
        single_mode(SUITE_P0, DEFAULT_MIX, ParticleConfig(delta=0.0)),
        gaussian_packet(SUITE_P0, 0.05, DEFAULT_MIX, 32, cfg),
        single_mode(SUITE_P0, DEFAULT_MIX, ParticleConfig(delta=-SUITE_DELTA)),
        single_mode(-SUITE_P0, DEFAULT_MIX, cfg),
    ]
    worst = 0.0
    for wp in packets:
        fs = frequency_set(wp.mean_momentum(), wp.cfg)
        t = default_time_grid(fs, periods=20.0, samples=1024)
        table = expectation_table(wp, t)
        for tag in OBSERVABLE_TAGS:
            analytic = analytic_series(wp, tag, t)
            oracle = table[tag]
            worst = max(worst, float(np.max(np.abs(oracle.values - analytic.values))))
    report(11, f"closed-form series vs eigenphase oracle, all nine observables "
               f"(worst pointwise {worst:.1e})", worst <= 1e-9)


def test_criterion_12_cli_verification_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = main(["verify", "--out", str(a)])
    code_b = main(["verify", "--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    passed = json.loads(a.read_text())["pass"]
    report(12, f"cmd_verify exits 0 and reruns byte-identical "
               f"(exit {code_a}/{code_b}, identical {identical})",
           code_a == 0 and code_b == 0 and identical and passed)
