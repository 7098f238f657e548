import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zbsim.algebra import ParticleConfig
from zbsim.dynamics import expectation_series, spin_x_constant
from zbsim.wavepacket import (
    DEFAULT_MIX,
    EQUAL_MIX,
    Wavepacket,
    gaussian_packet,
    packet_from_dict,
    packet_to_dict,
    single_mode,
)


class TestGaussianPacket:
    def test_normalized_by_construction(self):
        wp = gaussian_packet(0.5, 0.05, EQUAL_MIX, 64)
        assert abs(wp.norm() - 1.0) <= 1e-10

    def test_grid_spans_five_sigma(self):
        wp = gaussian_packet(0.5, 0.05, EQUAL_MIX, 64)
        assert wp.grid[0] == pytest.approx(0.25)
        assert wp.grid[-1] == pytest.approx(0.75)
        assert np.all(np.diff(wp.grid) > 0)
        assert np.all(wp.weights > 0)

    def test_mean_momentum_centered(self):
        wp = gaussian_packet(0.5, 0.05, EQUAL_MIX, 64)
        assert wp.mean_momentum() == pytest.approx(0.5, abs=1e-6)

    def test_equal_mix_occupancies(self):
        occ = gaussian_packet(0.5, 0.05, EQUAL_MIX, 64).occupancy()
        assert all(frac == pytest.approx(0.25, abs=1e-12) for frac in occ.values())

    @pytest.mark.parametrize("kwargs", [
        {"sigma_p": 0.0}, {"sigma_p": -0.1}, {"n_modes": 0},
    ])
    def test_invalid_shape_parameters(self, kwargs):
        full = {"p0": 0.5, "sigma_p": 0.05, "mix": EQUAL_MIX, "n_modes": 8}
        full.update(kwargs)
        with pytest.raises(ValueError):
            gaussian_packet(**full)

    def test_zero_mix_rejected(self):
        with pytest.raises(ValueError):
            gaussian_packet(0.5, 0.05, (0, 0, 0, 0), 8)
        with pytest.raises(ValueError):
            single_mode(0.5, (0, 0, 0, 0))

    def test_wrong_mix_length(self):
        with pytest.raises(ValueError):
            gaussian_packet(0.5, 0.05, (1, 0, 0), 8)

    def test_single_mode_limit(self):
        amp = 1.0 / np.sqrt(2.0)
        wp = gaussian_packet(0.5, 1e-9, (amp, 0, amp, 0), n_modes=1)
        assert wp.grid.tolist() == [0.5]
        assert wp.weights.tolist() == [1.0]
        assert wp.coeffs[:, 0] == pytest.approx([amp, 0.0, amp, 0.0])


class TestQuadratureConvergence:
    def test_refining_modes_changes_little(self):
        cfg = ParticleConfig.natural(0.4)
        t_probe = np.array([0.0, 1.7])
        results = {}
        for n in (64, 128):
            wp = gaussian_packet(0.5, 0.05, DEFAULT_MIX, n, cfg)
            sy = expectation_series(wp, "S_y", np.linspace(0.0, 3.4, 64))
            results[n] = (wp.mean_momentum(), spin_x_constant(wp), sy.values[17])
        for a, b in zip(results[64], results[128]):
            assert abs(a - b) <= 1e-6


class TestWavepacketValidation:
    def test_norm_gate(self):
        with pytest.raises(ValueError):
            Wavepacket(
                grid=np.array([0.5]),
                weights=np.array([1.0]),
                coeffs=np.full((4, 1), 0.5 + 0j) * 1.01,
                cfg=ParticleConfig.natural(0.4),
            )

    def test_monotone_grid_gate(self):
        c = np.zeros((4, 2), dtype=complex)
        c[0] = [0.8, 0.6]
        with pytest.raises(ValueError):
            Wavepacket(
                grid=np.array([0.5, 0.4]),
                weights=np.array([1.0, 1.0]),
                coeffs=c,
                cfg=ParticleConfig.natural(0.4),
            )

    def test_positive_weights_gate(self):
        c = np.zeros((4, 2), dtype=complex)
        c[0] = [0.8, 0.6]
        with pytest.raises(ValueError):
            Wavepacket(
                grid=np.array([0.4, 0.5]),
                weights=np.array([1.0, -1.0]),
                coeffs=c,
                cfg=ParticleConfig.natural(0.4),
            )

    def test_arrays_frozen(self):
        wp = single_mode(0.5, DEFAULT_MIX)
        with pytest.raises(ValueError):
            wp.coeffs[0, 0] = 0.0

    def test_validate_diagnostics(self):
        wp = gaussian_packet(0.5, 0.05, DEFAULT_MIX, 16)
        assert abs(wp.norm() - 1.0) <= 1e-10
        assert wp.n_modes == 16
        occupancy = wp.occupancy()
        assert set(occupancy) == {"+up", "+down", "-up", "-down"}
        assert sum(occupancy.values()) == pytest.approx(1.0, abs=1e-10)
        assert wp.mean_momentum() == pytest.approx(0.5, abs=1e-6)


class TestSerialization:
    def test_round_trip_exact(self):
        wp = gaussian_packet(0.5, 0.05, DEFAULT_MIX, 16, ParticleConfig.natural(0.4))
        doc = packet_to_dict(wp)
        json.dumps(doc)  # must be JSON-ready
        back = packet_from_dict(doc)
        assert np.array_equal(back.grid, wp.grid)
        assert np.array_equal(back.weights, wp.weights)
        assert np.array_equal(back.coeffs, wp.coeffs)
        assert back.cfg.delta == wp.cfg.delta

    def test_coeffs_are_re_im_pairs(self):
        wp = single_mode(0.5, DEFAULT_MIX)
        doc = packet_to_dict(wp)
        assert doc["coeffs"]["+down"][0] == [0.0, 0.5]

    def test_unit_system_key_ignored(self):
        # documents written with a "unit_system" config key still load
        wp = single_mode(0.5, DEFAULT_MIX, ParticleConfig.natural(0.4))
        doc = packet_to_dict(wp)
        assert "unit_system" not in doc["config"]
        doc["config"]["unit_system"] = "natural"
        back = packet_from_dict(doc)
        assert back.cfg == wp.cfg
        assert np.array_equal(back.coeffs, wp.coeffs)

    def test_tampered_document_rejected(self):
        doc = packet_to_dict(single_mode(0.5, DEFAULT_MIX))
        doc["weights"] = [2.0]
        with pytest.raises(ValueError):
            packet_from_dict(doc)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(parts=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=8, max_size=8))
def test_any_nonzero_mix_normalizes(parts):
    mix = np.array(parts[:4]) + 1j * np.array(parts[4:])
    if np.sum(np.abs(mix) ** 2) < 1e-6:
        return
    wp = gaussian_packet(0.5, 0.05, tuple(mix), 16)
    assert abs(wp.norm() - 1.0) <= 1e-10
