import numpy as np
import pytest

from entrobounds.entropies import von_neumann_entropy
from entrobounds.linalg import HermitianOperator, trace_distance, trace_norm
from entrobounds.states import (
    BipartiteState,
    DensityOperator,
    StateValidationError,
    dephase_in_eigenbasis,
    maximally_entangled_state,
    partial_trace,
    pinching,
    pretty_good_purification,
    sample_pure_bipartite,
    sample_pure_state,
    sample_qc_state,
    sample_state,
    steer,
    steering_povm,
    vector_marginals,
)


class TestDensityOperator:
    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(StateValidationError, match="negative eigenvalue"):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateValidationError, match="trace"):
            DensityOperator(np.diag([0.5, 0.4]))

    def test_clamps_tiny_negative_noise(self):
        rho = DensityOperator(np.diag([1.0 + 1e-13, -1e-13]))
        assert rho.eigenvalues[-1] >= 0.0
        assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("vec", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 0.0]])
    def test_pure_rejects_zero_and_non_finite_vectors(self, vec):
        with pytest.raises(ValueError, match="norm"):
            DensityOperator.pure(vec)

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="non-finite"):
            DensityOperator(np.diag([np.inf, 0.0]))

    def test_pure_normalizes(self):
        rho = DensityOperator.pure([2.0, 0.0])
        np.testing.assert_allclose(rho.mat, np.diag([1.0, 0.0]), atol=1e-14)


class TestBipartiteState:
    def test_takes_over_a_validated_state(self, monkeypatch):
        rng = np.random.default_rng(31)
        states = [rho for _ in range(10)
                  for rho in (sample_state(16, 3, rng), sample_pure_state(16, rng))]
        spectra = [rho.eigenvalues for rho in states]
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(a) or eigh(*a, **k))
        for rho, lam in zip(states, spectra):
            bs = BipartiteState(rho, (4, 4))
            assert isinstance(bs, DensityOperator) and isinstance(bs, HermitianOperator)
            assert np.array_equal(bs.mat, rho.mat)
            assert bs.eigenvalues is lam
        assert calls == []


class TestPartialTrace:
    def test_product_state(self):
        a = np.diag([0.7, 0.3])
        b = np.diag([0.2, 0.3, 0.5])
        state = BipartiteState(DensityOperator(np.kron(a, b)), (2, 3))
        np.testing.assert_allclose(partial_trace(state, "A").mat, a, atol=1e-14)
        np.testing.assert_allclose(partial_trace(state, "B").mat, b, atol=1e-14)

    def test_maximally_entangled_marginals(self):
        phi = maximally_entangled_state(3)
        for keep in ("A", "B"):
            np.testing.assert_allclose(partial_trace(phi, keep).mat,
                                       np.eye(3) / 3, atol=1e-12)

    def test_bad_keep(self):
        with pytest.raises(ValueError, match="keep"):
            partial_trace(maximally_entangled_state(2), "C")

    def test_vector_marginals_match_partial_trace(self):
        rng = np.random.default_rng(7)
        psi = sample_pure_bipartite(3, 4, rng)
        v = psi.eigenvectors[:, 0]
        m_a, m_b = vector_marginals(v, 3, 4)
        np.testing.assert_allclose(m_a, partial_trace(psi, "A").mat, atol=1e-10)
        np.testing.assert_allclose(m_b, partial_trace(psi, "B").mat, atol=1e-10)


class TestPurification:
    def test_pure_input(self):
        psi = pretty_good_purification(DensityOperator.pure([1.0, 0.0]))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0  # |00><00|
        np.testing.assert_allclose(psi.mat, expected, atol=1e-14)

    def test_maximally_mixed_gives_maximally_entangled(self):
        psi = pretty_good_purification(DensityOperator.maximally_mixed(2))
        np.testing.assert_allclose(psi.mat, maximally_entangled_state(2).mat, atol=1e-14)

    def test_marginals_are_rho_and_rho_transpose(self):
        rng = np.random.default_rng(1)
        rho = sample_state(3, 2, rng)
        psi = pretty_good_purification(rho)
        np.testing.assert_allclose(partial_trace(psi, "A").mat, rho.mat, atol=1e-10)
        np.testing.assert_allclose(partial_trace(psi, "B").mat, rho.mat.T, atol=1e-10)


class TestDephasing:
    def test_commuting_case_is_identity(self):
        rho = DensityOperator.diagonal([0.7, 0.3])
        sigma = DensityOperator.diagonal([0.5, 0.5])
        p, q = dephase_in_eigenbasis(rho, sigma)
        np.testing.assert_allclose(sorted(p.probs), [0.3, 0.7], atol=1e-14)
        np.testing.assert_allclose(q.probs, [0.5, 0.5], atol=1e-14)

    def test_contracts_trace_distance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            rho = sample_state(4, 4, rng)
            sigma = sample_state(4, 4, rng)
            p, q = dephase_in_eigenbasis(rho, sigma)
            classical = 0.5 * np.abs(p.probs - q.probs).sum()
            assert classical <= trace_distance(rho, sigma) + 1e-10

    def test_raises_entropy_of_second_argument(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            rho = sample_state(3, 3, rng)
            sigma = sample_state(3, 3, rng)
            _, q = dephase_in_eigenbasis(rho, sigma)
            assert von_neumann_entropy(DensityOperator.diagonal(q.probs)) \
                >= von_neumann_entropy(sigma) - 1e-10


class TestPinching:
    def test_diagonal_state_split(self):
        rho = DensityOperator.diagonal([0.5, 0.3, 0.2])
        proj = HermitianOperator.diagonal([1.0, 1.0, 0.0])
        dec = pinching(rho, proj)
        assert dec.weight_gt == pytest.approx(0.2, abs=1e-14)
        np.testing.assert_allclose(np.diag(dec.state_le.mat).real,
                                   [0.625, 0.375, 0.0], atol=1e-12)
        np.testing.assert_allclose(np.diag(dec.state_gt.mat).real,
                                   [0.0, 0.0, 1.0], atol=1e-12)

    def test_identity_projector(self):
        rho = DensityOperator.maximally_mixed(3)
        dec = pinching(rho, HermitianOperator(np.eye(3)))
        assert dec.weight_gt == 0.0
        assert dec.state_gt is None
        np.testing.assert_allclose(dec.state_le.mat, rho.mat, atol=1e-14)

    def test_reconstruction_matches_pinched_state(self):
        rng = np.random.default_rng(4)
        rho = sample_state(4, 4, rng)
        p = np.diag([1.0, 1.0, 0.0, 0.0])
        dec = pinching(rho, HermitianOperator(p))
        q = np.eye(4) - p
        expected = p @ rho.mat @ p + q @ rho.mat @ q
        np.testing.assert_allclose(dec.reconstruct(4), expected, atol=1e-12)

    def test_non_idempotent_rejected(self):
        with pytest.raises(ValueError, match="idempotent"):
            pinching(DensityOperator.maximally_mixed(2),
                     HermitianOperator(np.diag([0.5, 0.5])))


class TestSteering:
    def test_computational_decomposition_of_maximally_mixed(self):
        psi = maximally_entangled_state(2)
        decomposition = [(0.5, DensityOperator.diagonal([1.0, 0.0])),
                         (0.5, DensityOperator.diagonal([0.0, 1.0]))]
        povm = steering_povm(psi, decomposition)
        np.testing.assert_allclose(povm.elements[0].mat, np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(povm.elements[1].mat, np.diag([0.0, 1.0]), atol=1e-12)

    def test_random_decomposition_is_steered_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            states = [sample_state(3, 3, rng) for _ in range(3)]
            w = rng.dirichlet(np.ones(3))
            sigma = DensityOperator(sum(wi * s.mat for wi, s in zip(w, states)))
            psi = pretty_good_purification(sigma)
            povm = steering_povm(psi, list(zip(w, states)))
            total = np.zeros((3, 3), dtype=complex)
            for (wi, s), m in zip(zip(w, states), povm.elements):
                out = steer(psi, m)
                np.testing.assert_allclose(out, wi * s.mat, atol=1e-9)
                total += m.mat
            # elements sum to the support projector of sigma^T
            np.testing.assert_allclose(total, np.eye(3), atol=1e-9)

    def test_rejects_inconsistent_decomposition(self):
        psi = maximally_entangled_state(2)
        bad = [(1.0, DensityOperator.diagonal([1.0, 0.0]))]
        with pytest.raises(StateValidationError, match="average"):
            steering_povm(psi, bad)


class TestSampling:
    def test_rank_one_is_pure(self):
        rho = sample_state(4, 1, np.random.default_rng(0))
        assert rho.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)

    def test_rank_bounds(self):
        with pytest.raises(ValueError, match="rank"):
            sample_state(3, 4, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        a = sample_state(4, 4, np.random.default_rng(42))
        b = sample_state(4, 4, np.random.default_rng(42))
        assert np.array_equal(a.mat, b.mat)

    def test_mean_spectrum_is_uniform(self):
        # HS measure (rank == dim) has mean spectrum 1/d
        rng = np.random.default_rng(6)
        acc = np.zeros(4)
        n = 4000
        for _ in range(n):
            acc += sample_state(4, 4, rng).eigenvalues
        mean_max = acc[0] / n
        assert abs(acc.sum() / n - 1.0) < 1e-12
        assert 0.4 < mean_max < 0.7  # far from both pure (1) and uniform (0.25)

    def test_pure_state_sampler(self):
        rho = sample_pure_state(5, np.random.default_rng(1))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_qc_state_is_block_diagonal(self):
        state = sample_qc_state(2, 3, np.random.default_rng(2))
        assert state.dims == (2, 3)
        m = state.mat.reshape(2, 3, 2, 3)
        for j in range(3):
            for k in range(3):
                if j != k:
                    assert np.abs(m[:, j, :, k]).max() < 1e-14

    def test_qc_b_marginal_is_diagonal(self):
        state = sample_qc_state(3, 2, np.random.default_rng(3))
        b = partial_trace(state, "B").mat
        assert np.abs(b - np.diag(np.diag(b))).max() < 1e-12
