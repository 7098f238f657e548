import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zbsim.algebra import (
    BRANCH_SPIN_LABELS,
    LABEL_NAMES,
    ConfigError,
    ParticleConfig,
    build_hamiltonian,
    build_operators,
    eigensystem_analytic,
    eigensystem_numeric,
    label_index,
    matrix_element,
)
from conftest import DELTA_GRID, P_GRID

I4 = np.eye(4)


def anticommutator(a, b):
    return a @ b + b @ a


def commutator(a, b):
    return a @ b - b @ a


def test_beta_is_standard_representation(ops):
    assert np.array_equal(ops.beta, np.diag([1, 1, -1, -1]).astype(complex))


def test_clifford_algebra(ops):
    alphas = [ops.alpha_x, ops.alpha_y, ops.alpha_z]
    for i, ai in enumerate(alphas):
        for j, aj in enumerate(alphas):
            expect = 2.0 * I4 if i == j else np.zeros((4, 4))
            assert np.max(np.abs(anticommutator(ai, aj) - expect)) <= 1e-15
        assert np.max(np.abs(anticommutator(ai, ops.beta))) <= 1e-15
    assert np.max(np.abs(ops.beta @ ops.beta - I4)) <= 1e-15
    assert np.max(np.abs(ops.alpha_x @ ops.alpha_x - I4)) <= 1e-15


def test_all_operators_hermitian(ops):
    for m in (ops.alpha_x, ops.alpha_y, ops.alpha_z, ops.beta,
              ops.sigma_x_big, ops.sigma_y_big, ops.sigma_z_big,
              ops.spin_x, ops.spin_y, ops.spin_z):
        assert np.max(np.abs(m - m.conj().T)) <= 1e-15


def test_sigma_x_eigenvalues(ops):
    # independent numeric eigensolve of the constructed matrix
    evals = np.linalg.eigvalsh(ops.sigma_x_big)
    assert np.allclose(evals, [-1, -1, 1, 1], atol=1e-14)


def test_helicity_commutes_with_model_terms(ops):
    for m in (ops.alpha_x, ops.beta, ops.beta @ ops.sigma_x_big):
        assert np.max(np.abs(commutator(ops.sigma_x_big, m))) <= 1e-15


def test_spin_is_half_sigma(ops):
    assert np.array_equal(ops.spin_x, 0.5 * ops.sigma_x_big)
    ops2 = build_operators(hbar=3.0)
    assert np.array_equal(ops2.spin_y, 1.5 * ops2.sigma_y_big)


def test_operator_arrays_read_only(ops):
    with pytest.raises(ValueError):
        ops.beta[0, 0] = 5.0


class TestParticleConfig:
    def test_natural_defaults(self):
        cfg = ParticleConfig.natural(0.4)
        assert (cfg.mass, cfg.c, cfg.hbar, cfg.delta) == (1.0, 1.0, 1.0, 0.4)
        assert cfg.rest_energy_up == pytest.approx(1.4)
        assert cfg.rest_energy_down == pytest.approx(0.6)

    @pytest.mark.parametrize("bad", [{"mass": 0.0}, {"mass": -1.0}, {"c": 0.0}, {"hbar": -2.0}])
    def test_positive_constants_required(self, bad):
        with pytest.raises(ConfigError):
            ParticleConfig(**bad)

    @pytest.mark.parametrize("delta", [1.0, 1.5, -1.0])
    def test_field_too_strong_rejected(self, delta):
        with pytest.raises(ConfigError):
            ParticleConfig(delta=delta)

    def test_delta_derived_from_dipoles(self):
        cfg = ParticleConfig(d=0.3, E_field=2.0, mu=0.5, B_field=0.4)
        assert cfg.delta == pytest.approx(0.3 * 2.0 - 0.5 * 0.4)

    def test_delta_consistency_enforced(self):
        with pytest.raises(ConfigError):
            ParticleConfig(delta=0.1, d=0.3, E_field=2.0)
        # agreeing values pass
        ParticleConfig(delta=0.6, d=0.3, E_field=2.0)


class TestHamiltonian:
    def test_rest_free_particle_is_beta(self, ops):
        cfg = ParticleConfig.natural(0.0)
        H = build_hamiltonian(0.0, cfg, ops)
        assert np.array_equal(H, ops.beta)

    def test_split_spectrum_values(self, ops):
        H = build_hamiltonian(0.5, ParticleConfig.natural(0.4), ops)
        evals = np.linalg.eigvalsh(H)
        expected = sorted([-math.sqrt(2.21), -math.sqrt(0.61), math.sqrt(0.61), math.sqrt(2.21)])
        assert np.allclose(evals, expected, rtol=1e-12)

    def test_free_particle_double_degeneracy(self, ops):
        H = build_hamiltonian(1.0, ParticleConfig.natural(0.0), ops)
        evals = np.linalg.eigvalsh(H)
        assert np.allclose(evals, [-math.sqrt(2)] * 2 + [math.sqrt(2)] * 2, rtol=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.3, 2.0])
    @pytest.mark.parametrize("delta", [0.0, 0.4, 0.85])
    def test_hermitian_and_commutes_with_helicity(self, ops, p, delta):
        H = build_hamiltonian(p, ParticleConfig.natural(delta), ops)
        assert np.max(np.abs(H - H.conj().T)) <= 1e-14
        assert np.max(np.abs(H @ ops.sigma_x_big - ops.sigma_x_big @ H)) <= 1e-14

    def test_block_diagonal_in_helicity_basis(self, ops):
        # Sigma_x eigenbasis orders eigenvalues (-1, -1, +1, +1)
        _, basis = np.linalg.eigh(ops.sigma_x_big)
        H = build_hamiltonian(1.7, ParticleConfig.natural(0.3), ops)
        Hb = basis.conj().T @ H @ basis
        assert np.max(np.abs(Hb[:2, 2:])) <= 1e-14
        assert np.max(np.abs(Hb[2:, :2])) <= 1e-14


class TestEigensystems:
    def test_non_hermitian_rejected(self, ops):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            eigensystem_numeric(bad, ops)

    def test_wrong_shape_rejected(self, ops):
        with pytest.raises(ValueError):
            eigensystem_numeric(np.eye(3), ops)

    @pytest.mark.parametrize("p", [0.0, 0.5, 3.7])
    @pytest.mark.parametrize("delta", [0.0, 0.4, 0.89])
    def test_numeric_invariants(self, ops, p, delta):
        cfg = ParticleConfig.natural(delta)
        H = build_hamiltonian(p, cfg, ops)
        eig = eigensystem_numeric(H, ops, p=p)
        gram = eig.spinors.conj().T @ eig.spinors
        assert np.max(np.abs(gram - I4)) <= 1e-12
        completeness = eig.spinors @ eig.spinors.conj().T
        assert np.max(np.abs(completeness - I4)) <= 1e-12
        scale = np.linalg.norm(H)
        for l, s in BRANCH_SPIN_LABELS:
            v = eig.spinor(l, s)
            e = eig.energy(l, s)
            assert np.linalg.norm(H @ v - e * v) <= 1e-12 * max(scale, 1.0)
            hel = float(np.real(v.conj() @ ops.sigma_x_big @ v))
            assert abs(hel - s) <= 1e-10
            assert np.sign(e) == l

    def test_phase_convention_first_component_real_positive(self, ops):
        cfg = ParticleConfig.natural(0.4)
        for builder in (
            lambda: eigensystem_numeric(build_hamiltonian(0.8, cfg, ops), ops, p=0.8),
            lambda: eigensystem_analytic(0.8, cfg),
        ):
            eig = builder()
            for i in range(4):
                v = eig.spinors[:, i]
                k = np.flatnonzero(np.abs(v) > 1e-10 * np.abs(v).max())[0]
                assert v[k].imag == pytest.approx(0.0, abs=1e-14)
                assert v[k].real > 0

    def test_analytic_rest_energies(self):
        eig = eigensystem_analytic(0.0, ParticleConfig.natural(0.4))
        assert eig.energy(+1, +1) == pytest.approx(1.4, rel=1e-12)
        assert eig.energy(+1, -1) == pytest.approx(0.6, rel=1e-12)
        free = eigensystem_analytic(0.0, ParticleConfig.natural(0.0))
        assert np.allclose(np.abs(free.energies), 1.0, rtol=1e-12)

    def test_analytic_split_value(self):
        eig = eigensystem_analytic(0.5, ParticleConfig.natural(0.4))
        assert eig.energy(+1, +1) == pytest.approx(math.sqrt(2.21), rel=1e-12)

    def test_analytic_matches_numeric_on_grid(self, ops):
        worst_e, worst_o = 0.0, 1.0
        for delta in DELTA_GRID[::3]:
            cfg = ParticleConfig.natural(float(delta))
            for p in P_GRID[::5]:
                ana = eigensystem_analytic(float(p), cfg)
                num = eigensystem_numeric(build_hamiltonian(float(p), cfg, ops), ops, p=float(p))
                rel = np.max(np.abs(ana.energies - num.energies) / np.abs(num.energies))
                worst_e = max(worst_e, rel)
                for i in range(4):
                    worst_o = min(worst_o, abs(np.vdot(ana.spinors[:, i], num.spinors[:, i])))
        assert worst_e <= 1e-12
        assert worst_o >= 1.0 - 1e-10

    def test_degenerate_labels_resolved(self, ops):
        # delta = 0: doubly degenerate branches still get sharp helicity labels
        cfg = ParticleConfig.natural(0.0)
        eig = eigensystem_numeric(build_hamiltonian(1.0, cfg, ops), ops, p=1.0)
        for l, s in BRANCH_SPIN_LABELS:
            v = eig.spinor(l, s)
            hel = float(np.real(v.conj() @ ops.sigma_x_big @ v))
            assert abs(hel - s) <= 1e-10

    def test_rest_energies_recovered(self, ops):
        cfg = ParticleConfig.natural(0.4)
        eig = eigensystem_numeric(build_hamiltonian(1.3, cfg, ops), ops, p=1.3)
        assert eig.rest_energy_up == pytest.approx(1.4, rel=1e-10)
        assert eig.rest_energy_down == pytest.approx(0.6, rel=1e-10)

    @pytest.mark.parametrize("delta", [1e-13, 1e-11, 1e-9, 1e-7])
    def test_near_degenerate_clusters_keep_both_invariants(self, ops, delta):
        # tiny splittings must not trade eigen-residual for label sharpness
        cfg = ParticleConfig.natural(delta)
        for p in (0.0, 0.5, 3.0):
            H = build_hamiltonian(p, cfg, ops)
            eig = eigensystem_numeric(H, ops, p=p)
            scale = np.linalg.norm(H)
            for l, s in BRANCH_SPIN_LABELS:
                v = eig.spinor(l, s)
                resid = np.linalg.norm(H @ v - eig.energy(l, s) * v)
                assert resid <= 1e-12 * scale
                hel = float(np.real(v.conj() @ ops.sigma_x_big @ v))
                assert abs(hel - s) <= 1e-10

    def test_negative_splitting_swaps_rest_energies(self, ops):
        cfg = ParticleConfig.natural(-0.4)
        eig = eigensystem_numeric(build_hamiltonian(0.0, cfg, ops), ops, p=0.0)
        assert eig.energy(+1, +1) == pytest.approx(0.6, rel=1e-12)
        assert eig.energy(+1, -1) == pytest.approx(1.4, rel=1e-12)


class TestMatrixElement:
    def test_helicity_eigenvalue_relation(self, ops):
        eig = eigensystem_analytic(0.7, ParticleConfig.natural(0.4))
        for l, s in BRANCH_SPIN_LABELS:
            v = eig.spinor(l, s)
            assert matrix_element(ops.sigma_x_big, v, v) == pytest.approx(s, abs=1e-12)

    def test_conjugate_symmetry(self, ops):
        rng = np.random.default_rng(7)
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        for op in (ops.alpha_y, ops.spin_z, ops.beta):
            lhs = matrix_element(op, a, b)
            rhs = matrix_element(op, b, a)
            assert lhs == pytest.approx(np.conj(rhs), abs=1e-14)

    def test_dimension_mismatch(self, ops):
        with pytest.raises(ValueError):
            matrix_element(ops.beta, np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            matrix_element(np.eye(2), np.ones(4), np.ones(4))

    def test_transverse_element_vanishes_at_rest(self, ops):
        eig = eigensystem_analytic(0.0, ParticleConfig.natural(0.4))
        val = matrix_element(ops.alpha_y, eig.spinor(-1, -1), eig.spinor(-1, +1))
        assert abs(val) <= 1e-14

    def test_transverse_element_matches_closed_form(self, ops):
        # negative-branch Larmor element against c*p*(hbar*w_L - 2*delta)/zeta
        p, delta = 0.5, 0.4
        cfg = ParticleConfig.natural(delta)
        eig = eigensystem_analytic(p, cfg)
        e_pu, e_pd = math.sqrt(2.21), math.sqrt(0.61)
        omega_l = e_pu - e_pd
        zeta = 2.0 * math.sqrt(e_pu * e_pd * (e_pu - 1.4) * (e_pd - 0.6))
        expected = abs(p * (omega_l - 2 * delta)) / zeta
        val = matrix_element(ops.alpha_y, eig.spinor(-1, -1), eig.spinor(-1, +1))
        assert abs(val) == pytest.approx(expected, rel=1e-10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    p=st.floats(min_value=0.0, max_value=5.0),
    delta=st.floats(min_value=0.0, max_value=0.89),
)
def test_energies_match_closed_form(p, delta):
    cfg = ParticleConfig.natural(delta)
    ops = build_operators()
    num = eigensystem_numeric(build_hamiltonian(p, cfg, ops), ops, p=p)
    for l, s in BRANCH_SPIN_LABELS:
        expected = l * math.hypot(p, 1.0 + s * delta)
        assert num.energy(l, s) == pytest.approx(expected, rel=1e-12)


def test_label_helpers():
    assert label_index(+1, +1) == 0
    assert label_index(-1, -1) == 3
    assert LABEL_NAMES[label_index(-1, +1)] == "-up"
    with pytest.raises(ValueError):
        label_index(0, 1)
