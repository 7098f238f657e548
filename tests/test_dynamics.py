import math

import numpy as np
import pytest

from zbsim import dynamics
from zbsim.algebra import (
    ParticleConfig,
    build_hamiltonian,
    eigensystem_numeric,
)
from zbsim.dynamics import (
    OBSERVABLE_TAGS,
    TimeSeries,
    analytic_series,
    default_time_grid,
    expectation_table,
    spin_x_constant,
    tone_amplitudes,
)
from zbsim.spectrum import branch_energy, frequency_set
from zbsim.wavepacket import DEFAULT_MIX, EQUAL_MIX, gaussian_packet, single_mode

RT2 = 1.0 / math.sqrt(2.0)

#: Mixes that leave exactly one cross term: (+,up)/(-,up), (+,down)/(-,down),
#: and the same-branch spin pairs of the positive and the negative branch.
UP_PAIR = (RT2, 0, RT2, 0)
DOWN_PAIR = (0, RT2, 0, RT2)
POS_BRANCH = (RT2, RT2, 0, 0)
NEG_BRANCH = (0, 0, RT2, RT2)


def evolve(eig, c, t):
    """psi(t) = V (e^{-i E t} * c): the eigenphase evolution of one mode (hbar = 1)."""
    return eig.spinors @ (np.exp(-1j * eig.energies * t) * c)


def single_tone(p, mix, tag, label, cfg):
    """Coherent amplitude of one tone family of a single-mode packet."""
    return tone_amplitudes(single_mode(p, mix, cfg), tag)[label][1]


def larmor_closed_magnitudes(p, cfg):
    """|<l,up|alpha_y,z|l,down>| in closed form: |p*(omega_L + l*2*delta)| / (eta, zeta)."""
    e_up, e_down = branch_energy(p, cfg, +1), branch_energy(p, cfg, -1)
    r_up, r_down = cfg.rest_energy(+1), cfg.rest_energy(-1)
    eta = 2.0 * math.sqrt(e_up * e_down * (e_up + r_up) * (e_down + r_down))
    zeta = 2.0 * math.sqrt(e_up * e_down * (e_up - r_up) * (e_down - r_down))
    omega_l = e_up - e_down
    return {+1: abs(p * (omega_l + 2.0 * cfg.delta)) / eta,
            -1: abs(p * (omega_l - 2.0 * cfg.delta)) / zeta}


@pytest.fixture()
def wp(cfg):
    return single_mode(0.5, DEFAULT_MIX, cfg)


@pytest.fixture()
def t_grid(cfg):
    return default_time_grid(frequency_set(0.5, cfg))


def suite_packets(cfg):
    """The packets every oracle-equivalence and conservation check runs over."""
    return [
        single_mode(0.5, DEFAULT_MIX, cfg),
        single_mode(0.5, EQUAL_MIX, cfg),
        single_mode(0.0, DEFAULT_MIX, cfg),
        single_mode(0.5, POS_BRANCH, cfg),      # positive branch only
        single_mode(0.5, (RT2, 0, 0, RT2), cfg),      # single spin-ZB cross term
        gaussian_packet(0.5, 0.05, DEFAULT_MIX, 32, cfg),
        single_mode(0.5, DEFAULT_MIX, ParticleConfig(delta=0.0)),
        single_mode(0.5, DEFAULT_MIX, ParticleConfig(delta=-0.4)),
        single_mode(-0.5, DEFAULT_MIX, cfg),
    ]


class TestTimeSeries:
    def test_requires_uniform_grid(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([0.0, 1.0, 3.0]), np.zeros(3), "S_x")

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([0.0]), np.zeros(1), "S_x")

    def test_requires_finite_values(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([0.0, 1.0]), np.array([0.0, np.nan]), "S_x")


class TestDefaultTimeGrid:
    def test_spans_twenty_slow_periods(self, cfg):
        fs = frequency_set(0.5, cfg)
        t = default_time_grid(fs)
        assert t.size == 4096
        assert t[0] == 0.0
        t_max = 20.0 * 2.0 * np.pi / fs.omega_L
        assert t[-1] == pytest.approx(t_max * (1 - 1 / 4096), rel=1e-12)

    def test_degenerate_uses_free_tone(self):
        fs = frequency_set(0.5, ParticleConfig(delta=0.0))
        t = default_time_grid(fs)
        assert t[-1] < 200.0  # slowest tone is the free ZB line, not omega_L = 0


class TestEvolveMode:
    def test_eigenstate_is_stationary(self, cfg, ops):
        eig = eigensystem_numeric(build_hamiltonian(0.5, cfg, ops), ops)
        c = np.array([1, 0, 0, 0], dtype=complex)
        start, out = evolve(eig, c, 0.0), evolve(eig, c, 0.37)
        overlap = abs(np.vdot(out, start))
        assert overlap == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_zero_step_is_identity(self, cfg, ops):
        eig = eigensystem_numeric(build_hamiltonian(0.5, cfg, ops), ops)
        c = single_mode(0.5, DEFAULT_MIX, cfg).coeffs[:, 0]
        assert np.max(np.abs(evolve(eig, c, 0.0) - eig.spinors @ c)) <= 1e-15

    def test_step_chain_matches_series_oracle(self, cfg, ops):
        # stepping psi by projecting onto the eigenbasis each step and
        # contracting reproduces the oracle table
        wp = single_mode(0.5, DEFAULT_MIX, cfg)
        eig = eigensystem_numeric(build_hamiltonian(0.5, cfg, ops), ops)
        t = np.linspace(0.0, 8.0, 33)
        series = expectation_table(wp, t)["alpha_x"]
        psi = evolve(eig, wp.coeffs[:, 0], 0.0)
        dt = t[1] - t[0]
        vals = []
        for _ in t:
            vals.append(float(np.real(psi.conj() @ ops.alpha_x @ psi)))
            psi = evolve(eig, eig.spinors.conj().T @ psi, dt)
        assert np.max(np.abs(np.array(vals) - series.values)) <= 1e-12

    def test_branch_interference_oscillates_at_zb1(self, cfg):
        # equal (+,up)/(-,up) superposition: <alpha_x>(t) is a pure omega_zb1 tone
        wp = single_mode(0.5, UP_PAIR, cfg)
        fs = frequency_set(0.5, cfg)
        t = np.linspace(0.0, 40.0 * np.pi / fs.omega_zb1, 2048, endpoint=False)
        series = expectation_table(wp, t)["alpha_x"]
        x = series.values - np.mean(series.values)
        # projection onto the expected tone captures the full oscillation energy
        proj = 2.0 * np.mean(x * np.exp(-1j * fs.omega_zb1 * t))
        resid = x - np.real(proj * np.exp(1j * fs.omega_zb1 * t))
        assert fs.omega_zb1 == pytest.approx(2.0 * math.sqrt(2.21), rel=1e-12)
        assert np.max(np.abs(resid)) <= 1e-9


class TestHelicityConstant:
    def test_pure_up_packet(self, cfg):
        assert spin_x_constant(single_mode(0.5, UP_PAIR, cfg)) == pytest.approx(0.5, abs=1e-12)

    def test_balanced_populations(self, cfg):
        assert spin_x_constant(single_mode(0.5, EQUAL_MIX, cfg)) == pytest.approx(0.0, abs=1e-12)

    def test_time_independence_against_oracle(self, wp, t_grid):
        series = expectation_table(wp, t_grid)["S_x"]
        const = spin_x_constant(wp)
        assert np.max(np.abs(series.values - const)) <= 1e-10


class TestConservation:
    def test_norm_energy_populations_and_helicity(self, cfg, ops):
        fs = frequency_set(0.5, cfg)
        t_final = 20.0 * 2.0 * np.pi / fs.omega_L
        for wp in suite_packets(cfg):
            eigs = [
                eigensystem_numeric(build_hamiltonian(p, wp.cfg, ops), ops)
                for p in wp.grid
            ]
            norms, energies, sx = [], [], []
            pops = []
            for frac in np.linspace(0.0, 1.0, 9):
                norm = energy = helic = 0.0
                pop = np.zeros(4)
                for k, eig in enumerate(eigs):
                    psi = evolve(eig, wp.coeffs[:, k], frac * t_final)
                    w = wp.weights[k]
                    norm += w * float(np.real(psi.conj() @ psi))
                    H = build_hamiltonian(wp.grid[k], wp.cfg, ops)
                    energy += w * float(np.real(psi.conj() @ H @ psi))
                    helic += w * float(np.real(psi.conj() @ ops.spin_x @ psi))
                    pop += w * np.abs(eig.spinors.conj().T @ psi) ** 2
                norms.append(norm)
                energies.append(energy)
                sx.append(helic)
                pops.append(pop)
            assert np.ptp(norms) <= 1e-12
            assert np.ptp(energies) <= 1e-12
            assert np.ptp(sx) <= 1e-10
            assert np.max(np.ptp(np.array(pops), axis=0)) <= 1e-12


class TestOracleEquivalence:
    def test_all_observables_all_packets(self, cfg):
        for wp in suite_packets(cfg):
            fs = frequency_set(max(wp.mean_momentum(), 0.0), wp.cfg)
            t = default_time_grid(fs, periods=20.0, samples=1024)
            table = expectation_table(wp, t)
            for tag in OBSERVABLE_TAGS:
                analytic = analytic_series(wp, tag, t)
                oracle = table[tag]
                assert np.max(np.abs(oracle.values - analytic.values)) <= 1e-9, tag

    def test_leftward_packet(self, cfg):
        # negative momentum flows through labels, elements and frequencies
        wp = single_mode(-0.5, DEFAULT_MIX, cfg)
        fs = frequency_set(-0.5, cfg)
        assert fs.omega_zb1 == pytest.approx(2.0 * math.sqrt(2.21), rel=1e-12)
        t = default_time_grid(fs, samples=512)
        table = expectation_table(wp, t)
        for tag in ("S_y", "alpha_x", "r_y"):
            analytic = analytic_series(wp, tag, t)
            oracle = table[tag]
            assert np.max(np.abs(oracle.values - analytic.values)) <= 1e-9
        # a purely positive-branch packet drifts backward
        drift = analytic_series(single_mode(-0.5, POS_BRANCH, cfg), "alpha_x", t).values[0]
        assert drift < 0

    def test_global_phase_invariance(self, cfg, t_grid):
        base = single_mode(0.5, DEFAULT_MIX, cfg)
        rotated = single_mode(0.5, tuple(np.exp(0.7j) * np.asarray(DEFAULT_MIX)), cfg)
        table_a, table_b = expectation_table(base, t_grid), expectation_table(rotated, t_grid)
        for tag in ("S_y", "alpha_x", "r_y"):
            a = table_a[tag].values
            b = table_b[tag].values
            assert np.max(np.abs(a - b)) <= 1e-14

    def test_unknown_observable_rejected(self, wp, t_grid):
        assert tuple(expectation_table(wp, t_grid)) == OBSERVABLE_TAGS
        with pytest.raises(ValueError):
            analytic_series(wp, "momentum", t_grid)


class TestExpectationTable:
    @pytest.mark.parametrize("samples", [4, 255, 256, 257, 1000])
    def test_chunk_seams(self, cfg, samples):
        # the grid and its two halves evaluated separately straddle different
        # chunk boundaries; 4 samples is the smallest grid whose halves hold two
        wp = gaussian_packet(0.5, 0.05, DEFAULT_MIX, 8, cfg)
        t = default_time_grid(frequency_set(0.5, cfg), samples=samples)
        half = samples // 2
        whole = expectation_table(wp, t)
        first, second = expectation_table(wp, t[:half]), expectation_table(wp, t[half:])
        for tag in OBSERVABLE_TAGS:
            joined = np.concatenate([first[tag].values, second[tag].values])
            assert np.max(np.abs(whole[tag].values - joined)) <= 1e-13, tag

    @pytest.mark.parametrize("delta", [0.4, 0.0, -0.4])
    def test_positions_start_at_exact_zero(self, delta):
        # at delta = 0, omega_L = 0 and the Larmor pairs take the drift path
        cfg = ParticleConfig(delta=delta)
        t = default_time_grid(frequency_set(0.5, cfg), samples=300)
        for wp in (single_mode(0.5, DEFAULT_MIX, cfg), gaussian_packet(0.5, 0.05, DEFAULT_MIX, 16, cfg)):
            table = expectation_table(wp, t)
            for tag in ("r_x", "r_y", "r_z"):
                assert table[tag].values[0] == 0.0, tag

    def test_matches_direct_contraction(self, cfg, ops):
        wp = gaussian_packet(0.5, 0.05, DEFAULT_MIX, 16, cfg)
        t = default_time_grid(frequency_set(0.5, cfg), samples=300)
        table = expectation_table(wp, t)
        eigs = [eigensystem_numeric(build_hamiltonian(p, cfg, ops), ops) for p in wp.grid]
        for tag in OBSERVABLE_TAGS[:6]:
            kind, axis = tag.split("_")
            op = ops.spin(axis) if kind == "S" else ops.alpha(axis)
            direct = np.zeros(t.size)
            for k, eig in enumerate(eigs):
                psi = eig.spinors @ (np.exp(-1j * np.outer(eig.energies, t)) * wp.coeffs[:, k][:, None])
                direct += wp.weights[k] * np.real(np.einsum("it,ij,jt->t", psi.conj(), op, psi))
            assert np.max(np.abs(table[tag].values - direct)) <= 1e-12, tag

    def test_eigensystems_built_once_per_mode(self, cfg, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return eigensystem_numeric(*args, **kwargs)

        monkeypatch.setattr(dynamics, "eigensystem_numeric", counted)
        t = default_time_grid(frequency_set(0.5, cfg), samples=600)
        for wp in (single_mode(0.5, DEFAULT_MIX, cfg), gaussian_packet(0.5, 0.05, DEFAULT_MIX, 16, cfg)):
            calls.clear()
            expectation_table(wp, t)
            assert len(calls) == wp.n_modes


class TestSpinSeries:
    def test_same_branch_pair_is_single_larmor_tone(self, cfg, t_grid):
        wp = single_mode(0.5, POS_BRANCH, cfg)
        tones = tone_amplitudes(wp, "S_y")
        larmor = tones["omega_L"][1]
        assert abs(tones["omega_zb2"][1]) <= 1e-15
        tone = 2.0 * np.real(larmor * np.exp(1j * frequency_set(0.5, cfg).omega_L * t_grid))
        assert np.max(np.abs(analytic_series(wp, "S_y", t_grid).values - tone)) <= 1e-15

    def test_cross_branch_pair_is_single_zb_tone(self, cfg, t_grid):
        wp = single_mode(0.5, (RT2, 0, 0, RT2), cfg)
        tones = tone_amplitudes(wp, "S_y")
        zb = tones["omega_zb2"][1]
        assert abs(tones["omega_L"][1]) <= 1e-15
        assert abs(zb) > 1e-3
        tone = 2.0 * np.real(zb * np.exp(1j * frequency_set(0.5, cfg).omega_zb2 * t_grid))
        assert np.max(np.abs(analytic_series(wp, "S_y", t_grid).values - tone)) <= 1e-15

    def test_invalid_axis(self, wp, t_grid):
        with pytest.raises(ValueError):
            analytic_series(wp, "S_w", t_grid)
        with pytest.raises(ValueError):
            tone_amplitudes(wp, "r_w")


class TestLongitudinalSeries:
    def test_positive_branch_packet_is_constant(self, cfg, t_grid):
        wp = single_mode(0.5, POS_BRANCH, cfg)
        series = analytic_series(wp, "alpha_x", t_grid)
        drift = 0.5 * 0.5 / math.sqrt(2.21) + 0.5 * 0.5 / math.sqrt(0.61)
        assert np.ptp(series.values) <= 1e-14
        assert series.values[0] == pytest.approx(drift, rel=1e-12)

    def test_rest_frame_zb_survives(self, cfg):
        # the branch-interference amplitude has magnitude 1 at p = 0, so an
        # equal-weight (+,up)/(-,up) packet oscillates with unit amplitude
        wp = single_mode(0.0, UP_PAIR, cfg)
        fs = frequency_set(0.0, cfg)
        t = np.linspace(0.0, 3.0 * 2.0 * np.pi / fs.omega_zb1, 512, endpoint=False)
        series = expectation_table(wp, t)["alpha_x"]
        # Fourier projection over the integer number of periods is exact for a pure tone
        amp = 2.0 * abs(np.mean(series.values * np.exp(-1j * fs.omega_zb1 * t)))
        assert amp == pytest.approx(1.0, abs=1e-12)
        analytic = analytic_series(wp, "alpha_x", t)
        assert np.max(np.abs(series.values - analytic.values)) <= 1e-12

    def test_position_derivative_matches_velocity(self, cfg):
        # 5-point central stencil at dt = T1/200
        wp = single_mode(0.5, DEFAULT_MIX, cfg)
        fs = frequency_set(0.5, cfg)
        dt = (2.0 * np.pi / fs.omega_zb1) / 200.0
        t = np.arange(0.0, 4000.0 * dt, dt)
        r = analytic_series(wp, "r_x", t).values
        v = analytic_series(wp, "alpha_x", t).values
        deriv = (r[:-4] - 8.0 * r[1:-3] + 8.0 * r[3:-1] - r[4:]) / (12.0 * dt)
        assert np.max(np.abs(deriv - v[2:-2])) <= 1e-6

    def test_position_equals_trapezoid_integral_of_velocity(self, cfg, t_grid):
        # trapezoid error at the default sampling is O(dt^2) ~ 4e-4
        wp = single_mode(0.5, DEFAULT_MIX, cfg)
        r = analytic_series(wp, "r_x", t_grid).values
        v = analytic_series(wp, "alpha_x", t_grid).values
        steps = np.diff(t_grid)
        integral = np.concatenate(
            [[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * steps)]
        )
        assert np.max(np.abs(integral - r)) <= 1e-3
        fine = np.linspace(t_grid[0], t_grid[-1] / 4.0, t_grid.size, endpoint=False)
        r2 = analytic_series(wp, "r_x", fine).values
        v2 = analytic_series(wp, "alpha_x", fine).values
        integral2 = np.concatenate(
            [[0.0], np.cumsum(0.5 * (v2[1:] + v2[:-1]) * np.diff(fine))]
        )
        assert np.max(np.abs(integral2 - r2)) <= 1e-4

    def test_position_starts_at_r0(self, cfg, t_grid):
        wp = single_mode(0.5, DEFAULT_MIX, cfg)
        for tag in ("r_x", "r_y", "r_z"):
            assert analytic_series(wp, tag, t_grid).values[0] == 0.0

    def test_positive_branch_position_is_straight_line(self, cfg, t_grid):
        wp = single_mode(0.5, POS_BRANCH, cfg)
        r = analytic_series(wp, "r_x", t_grid)
        v = analytic_series(wp, "alpha_x", t_grid).values[0]
        assert np.max(np.abs(r.values - v * t_grid)) <= 1e-12

    def test_tone_amplitude_ratio_follows_inverse_frequency(self, cfg):
        # single-tone packets isolate each line; amplitudes via Fourier projection
        fs = frequency_set(0.5, cfg)
        # |<+,s|alpha_x|-,s>| = (m*c^2 + s*delta) / E_s
        n1, n2 = 1.4 / math.sqrt(2.21), 0.6 / math.sqrt(0.61)

        def tone_amplitude(mix, omega):
            wp = single_mode(0.5, mix, cfg)
            t = np.linspace(0.0, 100.0 * 2.0 * np.pi / omega, 8192, endpoint=False)
            series = analytic_series(wp, "r_x", t)
            proj = 2.0 * np.mean(series.values * np.exp(-1j * omega * t))
            return abs(proj)

        a1 = tone_amplitude(UP_PAIR, fs.omega_zb1)
        a3 = tone_amplitude(DOWN_PAIR, fs.omega_zb3)
        predicted = (n2 / n1) * (fs.omega_zb1 / fs.omega_zb3)
        assert a3 / a1 == pytest.approx(predicted, rel=1e-9)


class TestTransversePosition:
    def test_larmor_tone_null_at_rest(self, cfg):
        wp = single_mode(0.0, DEFAULT_MIX, cfg)
        for tag in ("r_y", "r_z"):
            assert abs(tone_amplitudes(wp, tag)["omega_L"][1]) <= 1e-12

    def test_larmor_tone_null_without_splitting(self):
        wp = single_mode(0.5, DEFAULT_MIX, ParticleConfig(delta=0.0))
        for tag in ("r_y", "r_z"):
            assert abs(tone_amplitudes(wp, tag)["omega_L"][1]) <= 1e-12

    def test_parts_sum_to_full(self, cfg, wp, t_grid):
        # each tone family contributes 2*Re[A*(e^{i w t} - 1)] to a position series
        full = analytic_series(wp, "r_y", t_grid)
        parts = sum(2.0 * np.real(amp * (np.exp(1j * omega * t_grid) - 1.0))
                    for omega, amp in tone_amplitudes(wp, "r_y").values())
        assert np.max(np.abs(full.values - parts)) <= 1e-14


class TestAmplitudeSet:
    """Velocity amplitudes of single-tone packets against their closed forms.

    Each mix leaves one cross term with |c_bra*c_ket| = 1/2, so a tone's
    amplitude is half its matrix element.
    """

    def test_longitudinal_amplitudes_match_rest_energy_ratio(self, cfg):
        n1 = single_tone(0.5, UP_PAIR, "alpha_x", "omega_zb1", cfg)
        n2 = single_tone(0.5, DOWN_PAIR, "alpha_x", "omega_zb3", cfg)
        assert abs(n1) == pytest.approx(0.5 * 1.4 / math.sqrt(2.21), rel=1e-12)
        assert abs(n2) == pytest.approx(0.5 * 0.6 / math.sqrt(0.61), rel=1e-12)

    def test_longitudinal_amplitudes_survive_at_rest(self, cfg):
        assert abs(single_tone(0.0, UP_PAIR, "alpha_x", "omega_zb1", cfg)) == pytest.approx(0.5, rel=1e-12)
        assert abs(single_tone(0.0, DOWN_PAIR, "alpha_x", "omega_zb3", cfg)) == pytest.approx(0.5, rel=1e-12)

    def test_closed_form_cross_check(self):
        for p, delta in ((0.5, 0.4), (1.3, 0.7), (3.0, -0.25)):
            cfg = ParticleConfig(delta=delta)
            closed = larmor_closed_magnitudes(p, cfg)
            for tag in ("alpha_y", "alpha_z"):
                for l, mix in ((+1, POS_BRANCH), (-1, NEG_BRANCH)):
                    amp = single_tone(p, mix, tag, "omega_L", cfg)
                    assert 2.0 * abs(amp) == pytest.approx(closed[l], rel=1e-10)

    def test_normalizer_values(self, cfg):
        # eta and zeta at p = 0.5, delta = 0.4, from E+^up = sqrt(2.21), E+^down = sqrt(0.61)
        e_pu, e_pd = math.sqrt(2.21), math.sqrt(0.61)
        eta = 2.0 * math.sqrt(e_pu * e_pd * (e_pu + 1.4) * (e_pd + 0.6))
        zeta = 2.0 * math.sqrt(e_pu * e_pd * (e_pu - 1.4) * (e_pd - 0.6))
        hw = e_pu - e_pd
        for tag in ("alpha_y", "alpha_z"):
            pos = single_tone(0.5, POS_BRANCH, tag, "omega_L", cfg)
            neg = single_tone(0.5, NEG_BRANCH, tag, "omega_L", cfg)
            assert 2.0 * abs(pos) * eta == pytest.approx(0.5 * (hw + 0.8), rel=1e-12)
            assert 2.0 * abs(neg) * zeta == pytest.approx(0.5 * abs(hw - 0.8), rel=1e-12)

    def test_larmor_elements_vanish_at_rest(self, cfg):
        for tag in ("alpha_y", "alpha_z"):
            for mix in (POS_BRANCH, NEG_BRANCH):
                assert abs(single_tone(0.0, mix, tag, "omega_L", cfg)) <= 1e-14

    def test_larmor_elements_vanish_without_splitting(self):
        cfg = ParticleConfig(delta=0.0)
        for tag in ("alpha_y", "alpha_z"):
            for mix in (POS_BRANCH, NEG_BRANCH):
                assert abs(single_tone(0.5, mix, tag, "omega_L", cfg)) <= 1e-14

    def test_dominance_report_is_comparable(self, cfg):
        # neither branch dominates the Larmor tone: the two magnitudes are equal
        for tag in ("alpha_y", "alpha_z"):
            pos = single_tone(0.5, POS_BRANCH, tag, "omega_L", cfg)
            neg = single_tone(0.5, NEG_BRANCH, tag, "omega_L", cfg)
            assert abs(neg) == pytest.approx(abs(pos), rel=1e-10)


class TestToneAmplitudes:
    def test_labels_per_channel(self, cfg, wp):
        assert set(tone_amplitudes(wp, "S_y")) == {"omega_L", "omega_zb2"}
        assert set(tone_amplitudes(wp, "alpha_x")) == {"omega_zb1", "omega_zb3"}
        assert set(tone_amplitudes(wp, "r_x")) == {"omega_zb1", "omega_zb3"}

    def test_helicity_tag_rejected(self, wp):
        with pytest.raises(ValueError):
            tone_amplitudes(wp, "S_x")

    def test_structural_nulls(self, cfg):
        wp0 = single_mode(0.0, DEFAULT_MIX, cfg)
        _, amp = tone_amplitudes(wp0, "r_y")["omega_L"]
        assert abs(amp) <= 1e-14
        _, amp = tone_amplitudes(wp0, "S_y")["omega_zb2"]
        assert abs(amp) <= 1e-14

    def test_negative_splitting_folds_larmor_line(self):
        # omega_L is a signed level difference; the spectral line sits at |omega_L|
        cfg = ParticleConfig(delta=-0.4)
        wp = single_mode(0.5, DEFAULT_MIX, cfg)
        fs = frequency_set(0.5, cfg)
        assert fs.omega_L < 0
        omega, amp = tone_amplitudes(wp, "S_y")["omega_L"]
        assert omega == pytest.approx(abs(fs.omega_L), rel=1e-12)
        assert abs(amp) > 1e-3
        t = default_time_grid(fs, samples=512)
        oracle = expectation_table(wp, t)["S_y"]
        analytic = analytic_series(wp, "S_y", t)
        assert np.max(np.abs(oracle.values - analytic.values)) <= 1e-9

    def test_real_equal_mix_cancellations(self, cfg):
        # the symmetry that forces the staggered-phase default mix
        wp = single_mode(0.5, EQUAL_MIX, cfg)
        _, amp = tone_amplitudes(wp, "S_y")["omega_zb2"]
        assert abs(amp) <= 1e-14
        _, amp = tone_amplitudes(wp, "S_z")["omega_L"]
        assert abs(amp) <= 1e-14
        wp = single_mode(0.5, DEFAULT_MIX, cfg)
        assert abs(tone_amplitudes(wp, "S_y")["omega_zb2"][1]) > 1e-3
        assert abs(tone_amplitudes(wp, "S_z")["omega_L"][1]) > 1e-3


def test_observable_tags_cover_all_channels():
    assert OBSERVABLE_TAGS == (
        "S_x", "S_y", "S_z", "alpha_x", "alpha_y", "alpha_z", "r_x", "r_y", "r_z"
    )
