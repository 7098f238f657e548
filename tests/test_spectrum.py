import math

import numpy as np
import pytest

from zbsim.algebra import (
    ConfigError,
    ParticleConfig,
    build_hamiltonian,
    eigensystem_numeric,
)
from zbsim.spectrum import (
    FrequencySet,
    branch_energy,
    free_zb_frequency,
    frequency_set,
    momentum_from_velocity,
)
from conftest import DELTA_GRID, P_GRID

#: The `zbsim sweep` default velocity grid (--v-max 0.99, --steps 100).
V_GRID = np.linspace(0.0, 0.99, 100)


def blue_shift(p):
    """Motional increase of the free ZB frequency over its rest value 2mc^2/hbar."""
    fs = frequency_set(p, ParticleConfig())
    return fs.omega_zb2 - fs.omega_forbidden


def rest_frame_longitudinal(delta):
    """Rest-frame longitudinal ZB pair (omega_zb1, omega_zb3) = (2(1 + delta), 2(1 - delta))."""
    fs = frequency_set(0.0, ParticleConfig(delta=delta))
    return fs.omega_zb1, fs.omega_zb3


def sweep(delta, v_grid=V_GRID):
    """Frequencies over a velocity grid, as `zbsim sweep` computes them."""
    return frequency_set(momentum_from_velocity(v_grid), ParticleConfig(delta=delta))


class TestFreeZB:
    def test_rest_frame_lower_bound(self):
        assert free_zb_frequency(0.0) == pytest.approx(2.0, rel=1e-15)

    def test_at_one_mc(self):
        assert free_zb_frequency(1.0) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)

    def test_at_relativistic_speed(self):
        # v = 0.9c: p = gamma*m*v and omega = 2*sqrt(p^2 + 1) = 2*gamma
        p = momentum_from_velocity(0.9)
        gamma = 1.0 / math.sqrt(1.0 - 0.81)
        assert p == pytest.approx(gamma * 0.9, rel=1e-12)
        assert free_zb_frequency(p) == pytest.approx(2.0 * gamma, rel=1e-12)
        assert free_zb_frequency(p) == pytest.approx(4.588314677411235, rel=1e-10)


class TestBlueShift:
    def test_zero_at_rest(self):
        assert blue_shift(0.0) == 0.0

    def test_value_at_one_mc(self):
        assert blue_shift(1.0) == pytest.approx(2.0 * math.sqrt(2.0) - 2.0, rel=1e-12)

    def test_monotone(self):
        assert blue_shift(2.0) > blue_shift(1.0) > blue_shift(0.5) > 0.0
        assert np.all(np.diff(blue_shift(np.array([0.0, 0.5, 1.0, 2.0]))) > 0.0)


class TestFrequencySet:
    def test_rest_frame_reference_point(self):
        fs = frequency_set(0.0, ParticleConfig(delta=0.4))
        assert fs.omega_L == pytest.approx(0.8, abs=1e-12)
        assert fs.omega_zb1 == pytest.approx(2.8, abs=1e-12)
        assert fs.omega_zb2 == pytest.approx(2.0, abs=1e-12)
        assert fs.omega_zb3 == pytest.approx(1.2, abs=1e-12)
        assert fs.omega_sb == pytest.approx(1.2, abs=1e-12)
        assert fs.omega_ob1 == pytest.approx(1.6, abs=1e-12)
        assert fs.omega_forbidden == pytest.approx(2.0, abs=1e-15)

    def test_degenerate_limit(self):
        fs = frequency_set(1.3, ParticleConfig(delta=0.0))
        assert fs.omega_L == 0.0
        free = free_zb_frequency(1.3)
        for w in (fs.omega_zb1, fs.omega_zb2, fs.omega_zb3):
            assert w == pytest.approx(free, rel=1e-15)

    def test_modified_spin_zb_value(self):
        fs = frequency_set(0.5, ParticleConfig(delta=0.4))
        assert fs.omega_zb2 == pytest.approx(math.sqrt(2.21) + math.sqrt(0.61), rel=1e-12)
        assert fs.omega_zb2 == pytest.approx(2.267631842322516, rel=1e-12)

    def test_tone_ordering(self):
        for delta in DELTA_GRID:
            cfg = ParticleConfig(delta=float(delta))
            for p in P_GRID[::10]:
                fs = frequency_set(float(p), cfg)
                assert fs.omega_zb1 >= fs.omega_zb2 >= fs.omega_zb3 > 0.0

    def test_beat_identities_on_grid(self):
        for delta in DELTA_GRID:
            cfg = ParticleConfig(delta=float(delta))
            for p in P_GRID[::5]:
                fs = frequency_set(float(p), cfg)
                assert abs(fs.omega_ob1 - 2.0 * fs.omega_L) <= 1e-12 * max(fs.omega_ob1, 1e-300)
                # spin beat equals the down-sector ZB tone identically
                closed = 2.0 * math.hypot(float(p), 1.0 - float(delta))
                assert abs(fs.omega_sb - fs.omega_zb3) <= 1e-12 * fs.omega_zb3
                assert fs.omega_sb == pytest.approx(closed, rel=1e-12)

    def test_frequencies_match_numeric_eigen_differences(self, ops):
        for delta in DELTA_GRID[::3]:
            cfg = ParticleConfig(delta=float(delta))
            for p in P_GRID[::7]:
                fs = frequency_set(float(p), cfg)
                eig = eigensystem_numeric(build_hamiltonian(float(p), cfg, ops), ops)
                pairs = [
                    (fs.omega_L, eig.energy(+1, +1) - eig.energy(+1, -1)),
                    (fs.omega_zb1, eig.energy(+1, +1) - eig.energy(-1, +1)),
                    (fs.omega_zb2, eig.energy(+1, +1) - eig.energy(-1, -1)),
                    (fs.omega_zb3, eig.energy(+1, -1) - eig.energy(-1, -1)),
                ]
                for closed, numeric in pairs:
                    assert abs(closed - numeric) <= 1e-12 * max(abs(numeric), 1.0)

    def test_tones_view(self):
        fs = frequency_set(0.5, ParticleConfig(delta=0.4))
        assert set(fs.tones()) == {"omega_L", "omega_zb1", "omega_zb2", "omega_zb3"}

    def test_tones_are_line_magnitudes_for_negative_splitting(self):
        fs = frequency_set(0.5, ParticleConfig(delta=-0.4))
        assert fs.omega_L < 0
        assert fs.tones()["omega_L"] == abs(fs.omega_L)
        # the labeled sectors swap roles but the line positions mirror delta > 0
        mirror = frequency_set(0.5, ParticleConfig(delta=0.4))
        assert fs.tones()["omega_L"] == pytest.approx(mirror.omega_L, rel=1e-12)
        assert fs.omega_zb1 == pytest.approx(mirror.omega_zb3, rel=1e-12)


class TestRestFrameLongitudinal:
    def test_reference_splitting(self):
        assert rest_frame_longitudinal(0.4) == pytest.approx((2.8, 1.2), abs=1e-12)

    def test_free_limit(self):
        assert rest_frame_longitudinal(0.0) == pytest.approx((2.0, 2.0), abs=1e-15)

    def test_strong_field_lowers_into_observable_range(self):
        up, down = rest_frame_longitudinal(0.9)
        assert up == pytest.approx(3.8, abs=1e-12)
        assert down == pytest.approx(0.2, abs=1e-12)
        assert down < 2.0  # below the forbidden band

    def test_too_strong_rejected(self):
        with pytest.raises(ConfigError):
            rest_frame_longitudinal(1.0)


class TestKinematics:
    def test_rest(self):
        assert momentum_from_velocity(0.0) == 0.0

    def test_reference_points(self):
        # p = gamma*v with gamma = 1.25 at v = 0.6 and 5/3 at v = 0.8
        assert momentum_from_velocity(0.6) / 0.6 == pytest.approx(1.25, rel=1e-12)
        assert momentum_from_velocity(0.6) == pytest.approx(0.75, rel=1e-12)
        assert momentum_from_velocity(0.8) / 0.8 == pytest.approx(5.0 / 3.0, rel=1e-12)
        assert momentum_from_velocity(0.8) == pytest.approx(4.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("v", [1.0, -1.0, 1.2])
    def test_superluminal_rejected(self, v):
        with pytest.raises(ConfigError):
            momentum_from_velocity(v)
        with pytest.raises(ConfigError):  # one bad entry rejects the whole grid
            momentum_from_velocity(np.array([0.0, 0.5, v]))

    def test_momentum_strictly_increasing_in_velocity(self):
        ps = momentum_from_velocity(np.linspace(0.0, 0.995, 200))
        assert np.all(np.diff(ps) > 0)


class TestArrayCalls:
    def test_array_calls_equal_scalar_calls_bit_for_bit(self):
        v_grid = np.linspace(-0.99, 0.99, 333)
        p_scalar = [momentum_from_velocity(float(v)) for v in v_grid]
        assert all(type(p) is float for p in p_scalar)
        p_array = momentum_from_velocity(v_grid)
        assert p_array.shape == v_grid.shape
        assert np.array_equal(p_array.view(np.uint64), np.array(p_scalar).view(np.uint64))
        assert np.array_equal(free_zb_frequency(p_array).view(np.uint64),
                              np.array([free_zb_frequency(p) for p in p_scalar]).view(np.uint64))
        for delta in DELTA_GRID:
            cfg = ParticleConfig(delta=float(delta))
            fs = frequency_set(p_array, cfg)
            scalar = [frequency_set(p, cfg) for p in p_scalar]
            for name in ("p",) + FrequencySet.FIELDS:
                values = [getattr(f, name) for f in scalar]
                assert all(type(x) is float for x in values), name
                column = np.broadcast_to(getattr(fs, name), v_grid.shape)
                assert np.array_equal(column.view(np.uint64), np.array(values).view(np.uint64)), name
            for s in (+1, -1):
                assert type(branch_energy(p_scalar[0], cfg, s)) is float
                assert np.array_equal(branch_energy(p_array, cfg, s),
                                      [branch_energy(p, cfg, s) for p in p_scalar])


class TestSweep:
    def test_default_grid_shape(self):
        fs = sweep(0.4)
        assert fs.p.shape == fs.omega_L.shape == V_GRID.shape
        assert fs.p[0] == 0.0

    def test_rest_row_matches_reference(self):
        fs = sweep(0.4, np.array([0.0]))
        assert fs.omega_L[0] == pytest.approx(0.8, abs=1e-12)
        assert fs.omega_zb1[0] == pytest.approx(2.8, abs=1e-12)

    def test_blue_and_red_shift_columns(self):
        fs = sweep(0.4)
        for vals, sign in [
            (free_zb_frequency(fs.p), +1),
            (fs.omega_zb1, +1),
            (fs.omega_zb2, +1),
            (fs.omega_zb3, +1),
            (fs.omega_sb, +1),
            (fs.omega_L, -1),
            (fs.omega_ob1, -1),
        ]:
            assert np.all(sign * np.diff(vals) > 0)

    def test_larmor_red_shift_vanishes_at_infinity(self):
        cfg = ParticleConfig(delta=0.4)
        assert frequency_set(1e6, cfg).omega_L < 1e-5

    def test_degenerate_sweep_columns_equal(self):
        fs = sweep(0.0)
        assert np.array_equal(fs.omega_zb1, fs.omega_zb2)
        assert np.array_equal(fs.omega_zb2, fs.omega_zb3)

    def test_forbidden_band_on_sweep(self):
        for fs in (sweep(0.4), sweep(0.9)):
            assert np.all(fs.omega_L[1:] < 2.0)  # p > 0
            assert np.all(fs.omega_zb2[1:] > 2.0)
            assert np.all(fs.omega_zb1[1:] > 2.0)


def test_branch_energy_closed_form():
    cfg = ParticleConfig(delta=0.4)
    assert branch_energy(0.5, cfg, +1) == pytest.approx(math.sqrt(2.21), rel=1e-15)
    assert branch_energy(0.5, cfg, -1) == pytest.approx(math.sqrt(0.61), rel=1e-15)
