import math

import numpy as np
import pytest

from entrobounds.linalg import (
    HermitianOperator,
    MatrixFunctionDomainError,
    as_operator,
    fidelity,
    operator_norm,
    positive_part,
    trace_distance,
    trace_norm,
)
from entrobounds.entropies import von_neumann_entropy
from entrobounds.states import (
    DensityOperator,
    maximally_entangled_state,
    sample_pure_bipartite,
    sample_pure_state,
    sample_state,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.diag([1.0, -1.0])


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianOperator((g + g.conj().T) / 2)


class TestEigHermitian:
    def test_pauli_x(self):
        lam = HermitianOperator(PAULI_X).eigenvalues
        np.testing.assert_allclose(lam, [1.0, -1.0], atol=1e-12)

    def test_identity(self):
        op = HermitianOperator(np.eye(4))
        lam, u = op.eigenvalues, op.eigenvectors
        np.testing.assert_allclose(lam, np.ones(4), atol=1e-12)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-10)

    def test_diagonal_sorted_descending(self):
        op = HermitianOperator.diagonal([3.0, 1.0, 2.0])
        lam, u = op.eigenvalues, op.eigenvectors
        np.testing.assert_allclose(lam, [3.0, 2.0, 1.0], atol=1e-12)
        # permutation eigenvectors
        assert np.allclose(np.abs(u), np.abs(u).round(), atol=1e-12)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 8, 16, 64):
            op = random_hermitian(rng, d)
            lam, u = op.eigenvalues, op.eigenvectors
            recon = (u * lam) @ u.conj().T
            scale = 1.0 + np.abs(op.mat).max()
            assert np.abs(recon - op.mat).max() <= 1e-10 * scale
            assert np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-10
            assert (np.diff(lam) <= 1e-12).all()

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("mat, where", [
        ([[np.nan, 0.0], [0.0, 1.0]], r"\(0, 0\)"),
        # an unpaired infinity: the Hermiticity deviation alone is inf <= inf
        ([[0.0, np.inf], [1.0, 1.0]], r"\(0, 1\)"),
    ])
    def test_non_finite_entries_rejected(self, mat, where):
        with pytest.raises(ValueError, match="1 non-finite entries, the first at " + where):
            HermitianOperator(mat)


@pytest.fixture
def eigh_calls(monkeypatch):
    """Count calls of ``np.linalg.eigh``; read ``eigh_calls[0]``."""
    count = [0]
    original = np.linalg.eigh

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return count


class TestLazySpectrum:
    def test_unread_spectrum_is_never_decomposed(self, eigh_calls):
        rng = np.random.default_rng(21)
        op = random_hermitian(rng, 6)
        assert eigh_calls[0] == 0
        op.apply_function(np.exp)
        assert eigh_calls[0] == 1  # only op itself; the result is not read
        lam, u = op.eigenvalues, op.eigenvectors
        assert eigh_calls[0] == 1
        np.testing.assert_allclose((u * lam) @ u.conj().T, op.mat, atol=1e-12)

    def test_pure_states_make_no_call(self, eigh_calls):
        rng = np.random.default_rng(22)
        rho = DensityOperator.pure(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        psi = sample_pure_bipartite(4, 4, rng)
        phi = maximally_entangled_state(16)
        assert von_neumann_entropy(sample_pure_state(8, rng)) == 0.0
        for state in (rho, psi, phi):
            assert state.eigenvalues[0] == 1.0
            assert (state.eigenvalues[1:] == 0.0).all()
            assert von_neumann_entropy(state) == 0.0
        assert eigh_calls[0] == 0

    def test_fidelity_of_full_rank_states_makes_two_calls(self, eigh_calls):
        rng = np.random.default_rng(23)
        rho, sigma = sample_state(4, 4, rng), sample_state(4, 4, rng)
        before = eigh_calls[0]
        fidelity(rho.mat, sigma.mat)
        assert eigh_calls[0] - before == 2
        # states decompose once, on validation, and fidelity reuses that
        eigh_calls[0] = 0
        f = fidelity(DensityOperator(rho.mat), DensityOperator(sigma.mat))
        assert eigh_calls[0] == 2
        assert f == pytest.approx(fidelity(rho, sigma), abs=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3, 16, 256])
    def test_projector_eigenvectors(self, d, eigh_calls):
        rng = np.random.default_rng(d)
        g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        lead_zeros = g.copy()
        lead_zeros[: d // 2] = 0.0
        vectors = [g, lead_zeros, -1j * g, np.eye(d)[0], np.eye(d)[-1]]
        for vec in vectors:
            op = HermitianOperator.projector(vec)
            v = vec / np.linalg.norm(vec)
            u = op.eigenvectors
            assert np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-14
            assert abs(abs(np.vdot(u[:, 0], v)) - 1.0) <= 1e-14
            np.testing.assert_allclose(op.eigenvalues, np.eye(d)[0], atol=0)
            recon = (u * op.eigenvalues) @ u.conj().T
            assert np.abs(recon - op.mat).max() <= 1e-14
        assert eigh_calls[0] == 0


class TestMatrixFunction:
    def test_sqrt(self):
        out = HermitianOperator.diagonal([4.0, 9.0]).apply_function(np.sqrt)
        np.testing.assert_allclose(out.mat, np.diag([2.0, 3.0]), atol=1e-12)

    def test_inverse_sqrt_support_only(self):
        op = HermitianOperator.diagonal([4.0, 0.0])
        out = op.apply_function(lambda x: 1.0 / np.sqrt(x), support_only=True)
        np.testing.assert_allclose(out.mat, np.diag([0.5, 0.0]), atol=1e-12)

    def test_log_identity_is_zero(self):
        out = HermitianOperator(np.eye(3)).apply_function(np.log)
        np.testing.assert_allclose(out.mat, np.zeros((3, 3)), atol=1e-12)

    def test_log_negative_eigenvalue_raises(self):
        with pytest.raises(MatrixFunctionDomainError, match="-1"):
            HermitianOperator(PAULI_Z).apply_function(np.log)


class TestAsOperator:
    def test_operator_state_and_array(self):
        op = HermitianOperator(PAULI_X)
        assert as_operator(op) is op
        rho = DensityOperator.maximally_mixed(2)
        assert as_operator(rho) is rho
        arr = as_operator(np.diag([1.0, 0.0]))
        assert isinstance(arr, HermitianOperator)
        np.testing.assert_allclose(arr.eigenvalues, [1.0, 0.0], atol=1e-12)

    def test_arrays_accepted_by_distance_functions(self):
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        assert trace_distance(p0, p1) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(p0, p0) == pytest.approx(1.0, abs=1e-12)


class TestNorms:
    def test_trace_norm_diag(self):
        assert trace_norm(HermitianOperator.diagonal([1.0, -1.0])) == pytest.approx(2.0)

    def test_positive_part(self):
        out = positive_part(HermitianOperator.diagonal([0.3, -0.3]))
        np.testing.assert_allclose(out.mat, np.diag([0.3, 0.0]), atol=1e-12)

    def test_operator_norm_pauli_z(self):
        assert operator_norm(HermitianOperator(PAULI_Z)) == pytest.approx(1.0)

    def test_trace_norm_dominates_operator_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            op = random_hermitian(rng, 5)
            assert trace_norm(op) >= operator_norm(op) - 1e-12

    def test_trace_norm_multiplicative_under_tensor(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = random_hermitian(rng, 3)
            b = random_hermitian(rng, 2)
            prod = trace_norm(HermitianOperator(np.kron(a.mat, b.mat)))
            assert prod == pytest.approx(trace_norm(a) * trace_norm(b), abs=1e-9)


class TestFidelity:
    def test_self_fidelity(self):
        rho = sample_state(4, 3, np.random.default_rng(0))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_supports(self):
        zero = DensityOperator.diagonal([1.0, 0.0])
        one = DensityOperator.diagonal([0.0, 1.0])
        assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        zero = DensityOperator.diagonal([1.0, 0.0])
        mixed = DensityOperator.maximally_mixed(2)
        assert fidelity(zero, mixed) == pytest.approx(1.0 / math.sqrt(2), abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        rho = sample_state(4, 2, rng)
        sigma = sample_state(4, 4, rng)
        assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(DensityOperator.maximally_mixed(2), DensityOperator.maximally_mixed(3))

    def test_fuchs_van_de_graaf(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            rho = sample_state(d, int(rng.integers(1, d + 1)), rng)
            sigma = sample_state(d, int(rng.integers(1, d + 1)), rng)
            f = fidelity(rho, sigma)
            td = trace_distance(rho, sigma)
            assert 1.0 - f <= td + 1e-9
            assert td <= math.sqrt(max(1.0 - f * f, 0.0)) + 1e-9


class TestSqrtOperatorMonotone:
    def test_commuting_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a_diag = rng.uniform(0, 2, size=4)
            b_diag = a_diag + rng.uniform(0, 2, size=4)
            u = np.linalg.qr(rng.standard_normal((4, 4))
                             + 1j * rng.standard_normal((4, 4)))[0]
            a = HermitianOperator(u @ np.diag(a_diag) @ u.conj().T)
            b = HermitianOperator(u @ np.diag(b_diag) @ u.conj().T)
            diff = HermitianOperator(b.sqrt().mat - a.sqrt().mat)
            assert diff.eigenvalues[-1] >= -1e-9

    def test_random_2x2_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = random_hermitian(rng, 2)
            a = HermitianOperator(a.mat - (a.eigenvalues[-1] - 0.1) * np.eye(2))
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = HermitianOperator(a.mat + g @ g.conj().T)
            diff = HermitianOperator(b.sqrt().mat - a.sqrt().mat)
            assert diff.eigenvalues[-1] >= -1e-9
