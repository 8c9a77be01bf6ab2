import itertools

import numpy as np
import pytest

from entrobounds.couplings import (
    build_decomposition,
    diagonal_coupling,
    maximal_classical_coupling,
    quantum_coupling,
)
from entrobounds.entropies import binary_entropy, conditional_shannon
from entrobounds.linalg import (
    HermitianOperator,
    fidelity,
    operator_norm,
    trace_distance,
)
from entrobounds.states import (
    BipartiteState,
    DensityOperator,
    partial_trace,
    sample_pure_state,
    sample_state,
    vector_marginals,
)


def grid_min_mismatch(p, q, step):
    """Exhaustive coarse-grid oracle for min Pr{X != Y} over couplings of
    two distributions of length 2 or 3: grid the free (d-1)x(d-1) block,
    complete the last row/column by the marginal constraints, and keep
    feasible points."""
    d = len(p)
    best = 1.0
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    for block in itertools.product(ticks, repeat=(d - 1) * (d - 1)):
        j = np.zeros((d, d))
        j[: d - 1, : d - 1] = np.asarray(block).reshape(d - 1, d - 1)
        j[: d - 1, d - 1] = p[: d - 1] - j[: d - 1, : d - 1].sum(axis=1)
        j[d - 1, :] = np.asarray(q) - j[: d - 1, :].sum(axis=0)
        if (j < -1e-12).any():
            continue
        best = min(best, 1.0 - np.trace(j))
    return best


class TestClassicalCoupling:
    def test_identical_distributions(self):
        c = maximal_classical_coupling([0.3, 0.7], [0.3, 0.7])
        assert c.mismatch_probability == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(c.joint, np.diag([0.3, 0.7]), atol=1e-14)

    def test_disjoint_supports(self):
        c = maximal_classical_coupling([1.0, 0.0], [0.0, 1.0])
        assert c.mismatch_probability == pytest.approx(1.0, abs=1e-14)

    def test_matches_half_l1_distance(self):
        p, q = np.array([0.7, 0.3]), np.array([0.3, 0.7])
        c = maximal_classical_coupling(p, q)
        assert c.mismatch_probability == pytest.approx(0.4, abs=1e-14)

    def test_marginals_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            d = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(d))
            q = rng.dirichlet(np.ones(d))
            c = maximal_classical_coupling(p, q)
            assert (c.joint >= -1e-14).all()
            np.testing.assert_allclose(c.joint.sum(axis=1), p, atol=1e-12)
            np.testing.assert_allclose(c.joint.sum(axis=0), q, atol=1e-12)
            assert c.mismatch_probability == pytest.approx(
                0.5 * np.abs(p - q).sum(), abs=1e-12)

    def test_no_grid_coupling_beats_it(self):
        rng = np.random.default_rng(1)
        for d, step in ((2, 0.01), (3, 0.05)):
            for _ in range(5):
                p = rng.dirichlet(np.ones(d))
                q = rng.dirichlet(np.ones(d))
                ours = maximal_classical_coupling(p, q).mismatch_probability
                assert ours <= grid_min_mismatch(p, q, step) + 1e-10

    def test_fano_style_conditional_entropy(self):
        # H(X|Y) <= h(eps) + eps log2(d - 1) for the maximal coupling
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(d))
            q = rng.dirichlet(np.ones(d))
            c = maximal_classical_coupling(p, q)
            eps = c.mismatch_probability
            bound = binary_entropy(min(eps, 1.0)) + eps * np.log2(d - 1)
            assert conditional_shannon(c.joint) <= bound + 1e-10

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            maximal_classical_coupling([0.5, 0.5], [1.0, 0.0, 0.0])


class TestDecomposition:
    def test_identical_pair_degenerate(self):
        rho = sample_state(3, 3, np.random.default_rng(3))
        dec = build_decomposition(rho, rho)
        assert dec.degenerate
        assert dec.epsilon == 0.0
        np.testing.assert_allclose(dec.omega.mat, rho.mat, atol=1e-14)

    def test_orthogonal_pure_pair(self):
        rho = DensityOperator.diagonal([1.0, 0.0])
        sigma = DensityOperator.diagonal([0.0, 1.0])
        dec = build_decomposition(rho, sigma)
        assert dec.epsilon == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(dec.delta.mat, rho.mat, atol=1e-12)
        np.testing.assert_allclose(dec.omega.mat, np.eye(2) / 2, atol=1e-12)

    def test_reconstruction_identities(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            rho = sample_state(d, d, rng)
            sigma = sample_state(d, d, rng)
            dec = build_decomposition(rho, sigma)
            eps = dec.epsilon
            assert eps == pytest.approx(trace_distance(rho, sigma), abs=1e-11)
            lhs = (sigma.mat + eps * dec.delta.mat) / (1.0 + eps)
            np.testing.assert_allclose(dec.omega.mat, lhs, atol=1e-11)
            rhs = (rho.mat + eps * dec.delta_prime.mat) / (1.0 + eps)
            np.testing.assert_allclose(dec.omega.mat, rhs, atol=1e-11)
            # (1 + eps) omega dominates both rho and sigma
            for part in (rho, sigma):
                dom = HermitianOperator((1.0 + eps) * dec.omega.mat - part.mat)
                assert dom.eigenvalues[-1] >= -1e-10


class TestQuantumCoupling:
    def test_identical_pair(self):
        rho = sample_state(3, 2, np.random.default_rng(5))
        qc = quantum_coupling(rho, rho)
        assert qc.epsilon == 0.0
        assert qc.overlap_psi == pytest.approx(1.0, abs=1e-10)
        assert fidelity(qc.psi, qc.theta) == pytest.approx(1.0, abs=1e-9)

    def test_commuting_qubit_pair(self):
        rho = DensityOperator.diagonal([0.9, 0.1])
        sigma = DensityOperator.diagonal([0.6, 0.4])
        qc = quantum_coupling(rho, sigma)
        eps = trace_distance(rho, sigma)
        assert eps == pytest.approx(0.3, abs=1e-12)
        assert qc.overlap_psi >= 1.0 - eps - 1e-10
        assert qc.overlap_phi >= 1.0 - eps - 1e-10

    def test_invariants_on_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            d = int(rng.integers(2, 6))
            rho = sample_state(d, int(rng.integers(1, d + 1)), rng)
            sigma = sample_state(d, int(rng.integers(1, d + 1)), rng)
            eps = trace_distance(rho, sigma)
            qc = quantum_coupling(rho, sigma)
            # contraction operators
            assert operator_norm(HermitianOperator(qc.x_op.conj().T @ qc.x_op)) <= 1 + 1e-10
            assert operator_norm(HermitianOperator(qc.y_op.conj().T @ qc.y_op)) <= 1 + 1e-10
            # overlap guarantees
            assert qc.overlap_psi >= 1.0 - eps - 1e-9
            assert qc.overlap_phi >= 1.0 - eps - 1e-9
            # Theta marginals are (rho, sigma^T)
            theta = BipartiteState(qc.theta, (d, d))
            m_a = partial_trace(theta, "A")
            m_b = partial_trace(theta, "B")
            assert np.abs(m_a.mat - rho.mat).max() < 1e-9
            assert np.abs(m_b.mat - sigma.mat.T).max() < 1e-9
            # fidelity route to the trace distance bound
            assert fidelity(qc.psi, qc.theta) >= 1.0 - eps - 1e-9

    def test_fidelity_with_pure_psi_is_the_overlap(self):
        # F(psi, Theta) = sqrt(<psi|Theta|psi>) for pure psi
        rng = np.random.default_rng(12)
        for _ in range(75):
            d = int(rng.integers(2, 5))
            rho, sigma = sample_state(d, d, rng), sample_state(d, d, rng)
            qc = quantum_coupling(rho, sigma)
            v = sigma.sqrt().mat.reshape(-1)
            v = v / np.linalg.norm(v)
            expected = np.sqrt(np.vdot(v, qc.theta.mat @ v).real)
            assert abs(fidelity(qc.psi, qc.theta) - expected) <= 1e-13

    def test_vartheta_marginals_dominated(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            rho = sample_state(d, d, rng)
            sigma = sample_state(d, d, rng)
            qc = quantum_coupling(rho, sigma)
            m1, m2 = vector_marginals(qc.vartheta, d, d)
            assert HermitianOperator(rho.mat - m1).eigenvalues[-1] >= -1e-9
            assert HermitianOperator(sigma.mat.T - m2).eigenvalues[-1] >= -1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            quantum_coupling(DensityOperator.maximally_mixed(2),
                             DensityOperator.maximally_mixed(3))


class TestDiagonalCoupling:
    def test_identical_pure_pair(self):
        rho = sample_pure_state(3, np.random.default_rng(8))
        dc = diagonal_coupling(rho, rho)
        assert dc.epsilon_mirsky == 0.0
        assert dc.largest_eigenvalue == pytest.approx(1.0, abs=1e-10)

    def test_commuting_qubit_pair(self):
        rho = DensityOperator.diagonal([0.7, 0.3])
        sigma = DensityOperator.diagonal([0.5, 0.5])
        dc = diagonal_coupling(rho, sigma)
        assert dc.epsilon_mirsky == pytest.approx(0.2, abs=1e-12)
        assert np.vdot(dc.phi_vector, dc.phi_vector).real == pytest.approx(0.8, abs=1e-12)
        assert dc.largest_eigenvalue >= 0.8 - 1e-10

    def test_invariants_on_random_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            d = int(rng.integers(2, 6))
            rho = sample_state(d, int(rng.integers(1, d + 1)), rng)
            sigma = sample_state(d, int(rng.integers(1, d + 1)), rng)
            dc = diagonal_coupling(rho, sigma)
            eps = trace_distance(rho, sigma)
            # Mirsky: sorted-spectra l1 distance never exceeds the trace norm
            assert dc.epsilon_mirsky <= eps + 1e-10
            # marginals are exact
            m_a = partial_trace(dc.omega, "A")
            m_b = partial_trace(dc.omega, "B")
            assert np.abs(m_a.mat - rho.mat).max() < 1e-9
            assert np.abs(m_b.mat - sigma.mat).max() < 1e-9
            # eigenvalue witness
            assert dc.largest_eigenvalue >= 1.0 - eps - 1e-9
            assert dc.largest_eigenvalue >= 1.0 - dc.epsilon_mirsky - 1e-9

    def test_degenerate_spectra_deterministic(self):
        # repeated eigenvalues: phase fixing makes the construction stable
        rho = DensityOperator.maximally_mixed(3)
        sigma = DensityOperator.diagonal([0.5, 0.25, 0.25])
        a = diagonal_coupling(rho, sigma)
        b = diagonal_coupling(rho, sigma)
        assert np.array_equal(a.phi_vector, b.phi_vector)
        assert a.epsilon_mirsky == pytest.approx(1.0 / 6.0, abs=1e-12)
