import math
import tracemalloc

import numpy as np
import pytest

from entrobounds.linalg import (
    DENSE_DIM_LIMIT,
    HERMITICITY_ATOL,
    HermitianOperator,
    MatrixFunctionDomainError,
    _check_hermitian,
    _divided,
    _symmetrized,
    as_operator,
    descending_eigh,
    eigenpairs,
    factored_trace_distances,
    fidelity,
    hermitian_stack,
    operator_norm,
    trace_distance,
    trace_distances,
    trace_norm,
)
from entrobounds.bounds import tightness_witness_af, tightness_witness_fannes
from entrobounds.entropies import von_neumann_entropy
from entrobounds.gibbs import HamiltonianSpec, solve_beta
from entrobounds.harness import _case_cor_pure, _case_witness
from entrobounds.states import (
    BipartiteState,
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

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (0, 0)])
    def test_non_square_or_empty_rejected(self, shape):
        with pytest.raises(ValueError, match="expected a non-empty square matrix"):
            HermitianOperator(np.zeros(shape))

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

    @pytest.mark.parametrize("build", [
        lambda: HermitianOperator.diagonal([1.0, np.nan]),
        lambda: HermitianOperator.factored([[1.0], [0.0]], [np.nan]),
        lambda: HermitianOperator.factored([[np.inf], [0.0]], [1.0]),
        lambda: HermitianOperator.factored([[1.0], [0.0]], [1.0], np.nan),
        lambda: HermitianOperator(np.full((2, 2), np.nan)),
    ])
    def test_non_finite_parts_rejected(self, build):
        with pytest.raises(ValueError, match="non-finite"):
            build()

    def test_kron_vector_off_the_product_space_rejected(self):
        with pytest.raises(ValueError, match="vector of length 5 is not on 2 x 2"):
            HermitianOperator.rank_one_kron(np.ones(5), 0.1, np.eye(2), np.eye(2))

    def test_built_operators_keep_the_bits_of_a_checked_one(self):
        rng = np.random.default_rng(41)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        mat = g + g.conj().T + 1e-13j * rng.standard_normal((5, 5))
        assert np.array_equal(HermitianOperator._trusted(mat).mat, HermitianOperator(mat).mat)


def _names(calls):
    """The solver of each call that ``solver_calls`` recorded, in order."""
    return [name for name, _ in calls]


class TestLazySpectrum:
    def test_unread_spectrum_is_never_decomposed(self, solver_calls):
        rng = np.random.default_rng(21)
        op = random_hermitian(rng, 6)
        assert solver_calls == []
        op.apply_function(np.exp)
        # only op itself, its values and its vectors; the result is not read
        assert _names(solver_calls) == ["eigvalsh", "eigh"]
        lam, u = op.eigenvalues, op.eigenvectors
        assert _names(solver_calls) == ["eigvalsh", "eigh"]
        np.testing.assert_allclose((u * lam) @ u.conj().T, op.mat, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 8, 64])
    def test_vectors_read_first_keep_the_values_bits(self, d, solver_calls):
        """A dense operator's eigenvalues come from ``eigvalsh`` whichever of
        the two is read first; ``eigh`` gives the eigenvectors alone."""
        rng = np.random.default_rng([29, d])
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mat = (g + g.conj().T) / (2 * np.linalg.norm(g, 2))
        first, alone = HermitianOperator(mat), HermitianOperator(mat)
        u = first.eigenvectors
        assert solver_calls == [("eigh", (d, d))]
        lam = first.eigenvalues
        assert lam.tobytes() == alone.eigenvalues.tobytes()
        assert _names(solver_calls) == ["eigh", "eigvalsh", "eigvalsh"]
        assert np.abs((u * lam) @ u.conj().T - first.mat).max() <= 1e-13

    def test_trusted_values_alone_leave_the_vectors_to_their_first_read(self, solver_calls):
        """A state given its eigenvalues alone keeps them, and decomposes its
        matrix for the eigenvectors when they are first read."""
        state = sample_state(4, 4, np.random.default_rng(24))
        solver_calls.clear()
        op = DensityOperator._trusted(state.mat, state.eigenvalues)
        assert op.eigenvalues.tobytes() == state.eigenvalues.tobytes()
        assert solver_calls == []
        assert op.eigenvectors.tobytes() == eigenpairs(state.mat)[1].tobytes()
        assert solver_calls[0] == ("eigh", (4, 4))

    def test_pure_states_make_no_call(self, solver_calls):
        rng = np.random.default_rng(22)
        rho = DensityOperator.pure(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        psi = sample_pure_bipartite(4, 4, rng)
        phi = maximally_entangled_state(16)
        assert von_neumann_entropy(sample_pure_state(8, rng)) == 0.0
        for state in (rho, psi, phi):
            assert state.eigenvalues[0] == 1.0
            assert (state.eigenvalues[1:] == 0.0).all()
            assert von_neumann_entropy(state) == 0.0
        assert solver_calls == []

    def test_fidelity_of_full_rank_states_makes_two_calls(self, solver_calls):
        rng = np.random.default_rng(23)
        rho, sigma = sample_state(4, 4, rng), sample_state(4, 4, rng)
        before = len(solver_calls)
        fidelity(rho.mat, sigma.mat)
        # each operator: its values, then the vectors of its square root
        assert _names(solver_calls[before:]) == ["eigvalsh", "eigh"] * 2
        # states read their values once, on validation, and fidelity reuses
        # them; the square roots add the vectors
        solver_calls.clear()
        f = fidelity(DensityOperator(rho.mat), DensityOperator(sigma.mat))
        assert _names(solver_calls) == ["eigvalsh"] * 2 + ["eigh"] * 2
        assert f == pytest.approx(fidelity(rho, sigma), abs=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3, 16, 256])
    def test_projector_eigenvectors(self, d, solver_calls):
        rng = np.random.default_rng(d)
        g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        lead_zeros = g.copy()
        lead_zeros[: d // 2] = 0.0
        vectors = [g, lead_zeros, -1j * g, np.eye(d)[0], np.eye(d)[-1]]
        for vec in vectors:
            op = HermitianOperator.pure(vec)
            v = vec / np.linalg.norm(vec)
            u = op.eigenvectors
            assert np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-14
            assert abs(abs(np.vdot(u[:, 0], v)) - 1.0) <= 1e-14
            np.testing.assert_allclose(op.eigenvalues, np.eye(d)[0], atol=0)
            recon = (u * op.eigenvalues) @ u.conj().T
            assert np.abs(recon - op.mat).max() <= 1e-14
        assert solver_calls == []

    def test_constructors_with_a_known_spectrum_make_no_call(self, solver_calls):
        gibbs = solve_beta(HamiltonianSpec.oscillators([1.0], n_max=64), 1.0).state()
        states = [DensityOperator.pure([1, 1j]), DensityOperator.diagonal([0.2, 0.5, 0.3]),
                  *tightness_witness_fannes(16, 0.25), gibbs, DensityOperator.maximally_mixed(3)]
        for state in states:
            assert type(state) is DensityOperator
            lam, u = state.eigenvalues, state.eigenvectors
            assert (np.diff(lam) <= 0).all()
            assert np.abs((u * lam) @ u.conj().T - state.mat).max() <= 1e-15
        np.testing.assert_array_equal(states[1].eigenvalues, [0.5, 0.3, 0.2])
        np.testing.assert_array_equal(np.abs(states[1].eigenvectors), np.eye(3)[:, [1, 2, 0]])
        # a subclass's constructor arguments are passed on
        v = np.array([1.0, 1j, 0.0, 0.5]) / 1.5
        bipartite = [BipartiteState.diagonal([0.4, 0.3, 0.2, 0.1], (2, 2)),
                     BipartiteState.pure(v, (2, 2)),
                     BipartiteState.factored(v[:, None], [1.0], 0.0, (2, 2)),
                     BipartiteState.maximally_mixed(4, (2, 2))]
        for state in bipartite:
            assert type(state) is BipartiteState
            assert state.dims == (2, 2)
            lam, u = state.eigenvalues, state.eigenvectors
            assert (np.diff(lam) <= 0).all()
            assert np.abs((u * lam) @ u.conj().T - state.mat).max() <= 1e-15
        assert solver_calls == []

    @pytest.mark.parametrize("lam, validation", [
        # clamped at 0: the clamp reads the vectors
        ([0.6, 0.4 + 2e-13, 0.0, -2e-13], ["eigvalsh", "eigh"]),
        ([0.6, 0.3, 0.1 + 3e-12, 0.0], ["eigvalsh"]),  # trace renormalized
    ], ids=["clamped", "renormalized"])
    def test_repaired_state_is_decomposed_once(self, lam, validation, solver_calls):
        rng = np.random.default_rng(24)
        u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        rho = DensityOperator((u * lam) @ u.conj().T)
        assert _names(solver_calls) == validation
        assert rho.eigenvalues[-1] >= 0.0
        assert abs(rho.eigenvalues.sum() - 1.0) <= 1e-15
        assert abs(rho.trace() - 1.0) <= 1e-15
        v = rho.eigenvectors
        assert _names(solver_calls) == ["eigvalsh", "eigh"]  # each solver once
        assert np.abs((v * rho.eigenvalues) @ v.conj().T - rho.mat).max() <= 1e-15
        von_neumann_entropy(rho)
        fidelity(rho, rho.sqrt().mat @ rho.sqrt().mat)
        # only the product, which is a new operator
        assert _names(solver_calls) == ["eigvalsh", "eigh"] * 2

    def test_fidelity_of_a_renormalised_pure_state_makes_no_call(self, solver_calls):
        # DensityOperator divides a factor's weight by a trace that is off 1
        # by more than 1e-14; the state is still w |v><v| by its factor
        rng = np.random.default_rng(26)
        v = sample_pure_state(9, rng).factor[0][:, 0]
        psi = BipartiteState(HermitianOperator.factored(v[:, None], [1.0 + 3e-14]), (3, 3))
        w = psi.factor[1][0]
        assert w != 1.0
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        sigma = HermitianOperator(g @ g.conj().T / np.trace(g @ g.conj().T).real)
        f = fidelity(psi, sigma)
        assert solver_calls == []
        assert abs(f - math.sqrt(w * np.vdot(v, sigma.mat @ v).real)) <= 1e-15

    def test_pure_pair_and_af_witness_make_no_full_size_call(self, solver_calls):
        _case_cor_pure([np.random.default_rng(25)], 16)
        _case_witness([None], "af", 16, [0.25])
        dims = [shape[-1] for _, shape in solver_calls]
        assert 256 not in dims
        assert 16 in dims  # the marginals are decomposed as before


def _unit(rng, d):
    g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return g / np.linalg.norm(g)


def _orthonormal(rng, d, k):
    return np.linalg.qr(rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k)))[0]


def _dense_spectrum(op):
    return np.linalg.eigh(op.mat)[0][::-1]


def _assert_factored_eigenpairs(op):
    lam, u = op.eigenvalues, op.eigenvectors
    assert (np.diff(lam) <= 0).all()
    assert np.abs(u.conj().T @ u - np.eye(op.dim)).max() <= 1e-14
    assert np.abs((u * lam) @ u.conj().T - op.mat).max() <= 1e-14


def _distance_and_solver_dims(a, b, solver_calls, atol):
    """``trace_distance(a, b)`` and the ``(solver, dimension)`` of each
    eigensolver call it made, after checking it against the dense spectrum
    of ``a.mat - b.mat`` within ``atol``."""
    solver_calls.clear()
    td = trace_distance(a, b)
    made = [(name, shape[-1]) for name, shape in solver_calls]
    assert td == pytest.approx(0.5 * np.abs(np.linalg.eigvalsh(a.mat - b.mat)).sum(),
                               rel=0, abs=atol)
    return td, made


class TestFactoredOperator:
    @pytest.mark.parametrize("d", [2, 16, 256])
    def test_pure_pair_difference_matches_dense(self, d, solver_calls):
        rng = np.random.default_rng(d)
        u = _unit(rng, d)
        w = _unit(rng, d)
        w = w - np.vdot(u, w) * u
        w /= np.linalg.norm(w)
        pairs = {"random": _unit(rng, d), "near": u + 1e-6 * w, "orthogonal": w,
                 "equal": u, "phase": -1j * u}
        for name, v in pairs.items():
            td, made = _distance_and_solver_dims(DensityOperator.pure(u), DensityOperator.pure(v),
                                               solver_calls, 1e-13)
            assert made == [("eigvalsh", 2)], name  # the 2 x 2 eigenproblem of [u v] only
            vn = v / np.linalg.norm(v)
            gap = np.linalg.norm(vn - np.vdot(u, vn) * u)  # sqrt(1 - |<u|v>|^2), no cancellation
            assert td == pytest.approx(gap, rel=1e-6, abs=1e-13), name
        near = trace_distance(HermitianOperator.pure(u), HermitianOperator.pure(pairs["near"]))
        assert near == pytest.approx(1e-6 / math.sqrt(1 + 1e-12), rel=1e-9)

    @pytest.mark.parametrize("d", [2, 16])
    @pytest.mark.parametrize("eps", [0.05, 0.5, 1.0])
    def test_af_witness_pair(self, d, eps, solver_calls):
        rho, sigma = tightness_witness_af(d, eps)
        assert isinstance(rho, BipartiteState) and rho.factor is not None
        td, made = _distance_and_solver_dims(rho, sigma, solver_calls, 1e-13)
        assert made == [("eigvalsh", 2)]
        assert td == pytest.approx(eps, abs=1e-14)
        for op in (rho, sigma):
            np.testing.assert_allclose(op.eigenvalues, _dense_spectrum(op), rtol=0, atol=1e-13)
            _assert_factored_eigenpairs(op)
        c = eps / (d * d - 1)
        np.testing.assert_allclose(rho.eigenvalues, sorted([1 - eps] + [c] * (d * d - 1))[::-1],
                                   rtol=0, atol=1e-16)
        if eps == 1.0:  # c > lam: the witness vector comes last
            assert rho.eigenvalues[-1] == 0.0
            assert abs(abs(np.vdot(rho.eigenvectors[:, -1], sigma.factor[0][:, 0])) - 1) <= 1e-14

    @pytest.mark.parametrize("d", [3, 16, 64])
    def test_rank_two_minus_rank_three(self, d, solver_calls):
        rng = np.random.default_rng(d)
        if d > 3:  # one column shared exactly, one in part
            w = _orthonormal(rng, d, 4)
            va = w[:, :2]
            vb = np.stack([w[:, 0], (w[:, 1] + w[:, 2]) / np.sqrt(2), w[:, 3]], axis=1)
        else:
            va, vb = _orthonormal(rng, d, 2), _orthonormal(rng, d, 3)
        a = HermitianOperator.factored(va, [0.5, -0.2], 0.1)
        b = HermitianOperator.factored(vb, [0.3, 0.2, 0.7], -0.05)
        for first, second in ((a, b), (b, a)):
            _, made = _distance_and_solver_dims(first, second, solver_calls, 1e-13)
            # the eigenproblem of the R of [V_a V_b], at most d x d
            assert made == [("eigvalsh", min(d, 5))]
        for op in (a, b):
            np.testing.assert_allclose(op.eigenvalues, _dense_spectrum(op), rtol=0, atol=1e-13)
            _assert_factored_eigenpairs(op)

    def test_difference_without_a_factor_is_dense(self, solver_calls):
        rng = np.random.default_rng(26)
        rho, sigma = sample_state(4, 4, rng), DensityOperator.pure(_unit(rng, 4))
        for a, b in ((rho, sigma), (sigma, rho), (rho, rho)):
            td, made = _distance_and_solver_dims(a, b, solver_calls, 1e-14)
            assert made == [("eigvalsh", 4)]
            # bit for bit the trace norm of the dense operator a.mat - b.mat
            assert td == 0.5 * trace_norm(HermitianOperator(a.mat - b.mat))

    @pytest.mark.parametrize("ka, kb, d", [(1, 1, 9), (1, 3, 9), (2, 3, 16), (4, 4, 6)])
    def test_stack_matches_each_pair_alone(self, ka, kb, d):
        rng = np.random.default_rng([ka, kb, d])
        n = 5
        va = np.stack([_orthonormal(rng, d, ka) for _ in range(n)])
        vb = np.stack([_orthonormal(rng, d, kb) for _ in range(n)])
        w = _orthonormal(rng, d, max(ka, kb))
        va[1], vb[1] = w[:, :ka], w[:, -kb:]  # columns shared exactly
        la, lb = rng.standard_normal((n, ka)), rng.standard_normal((n, kb))
        ca, cb = rng.standard_normal(n), rng.standard_normal(n)
        cb[2] = ca[2]
        stacked = factored_trace_distances(va, la, ca, vb, lb, cb)
        for i in range(n):
            one = slice(i, i + 1)
            alone = factored_trace_distances(va[one], la[one], ca[one], vb[one], lb[one], cb[one])
            assert stacked[i] == alone[0]
            a = HermitianOperator.factored(va[i], la[i], ca[i])
            b = HermitianOperator.factored(vb[i], lb[i], cb[i])
            assert trace_distance(a, b) == stacked[i]
            dense = 0.5 * np.abs(np.linalg.eigvalsh(a.mat - b.mat)).sum()
            assert stacked[i] == pytest.approx(dense, rel=0, abs=1e-13)

    def test_af_witness_distance_builds_no_full_size_matrix(self):
        """One d^2 x d^2 complex matrix at d = 16 takes 1 MiB; the distance
        of the witness pair stays below 1/16 of it."""
        rho, sigma = tightness_witness_af(16, 0.25)
        tracemalloc.start()
        try:
            td = trace_distance(rho, sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert td == pytest.approx(0.25, abs=1e-14)
        assert peak < 65536


def _assert_matches_dense(op):
    """The eigenvalues of ``op``, and the projectors onto its eigenspaces
    (runs of eigenvalues closer than 1e-9), match ``descending_eigh`` of
    its ``mat`` within 1e-13."""
    lam, u = descending_eigh(op.mat)
    np.testing.assert_allclose(op.eigenvalues, lam, rtol=0, atol=1e-13)
    for group in np.split(np.arange(op.dim), np.flatnonzero(np.diff(lam) < -1e-9) + 1):
        v, w = op.eigenvectors[:, group], u[:, group]
        assert np.abs(v @ v.conj().T - w @ w.conj().T).max() <= 1e-13


def _block_state(rng, index, d):
    return DensityOperator.embedded(index, sample_state(len(index), len(index), rng), d)


class TestBlockOperator:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    def test_spectrum_matches_dense(self, d, seed, solver_calls):
        rng = np.random.default_rng([d, seed])
        k = int(rng.integers(1, d + 1))
        index = rng.choice(d, size=k, replace=False)
        b = random_hermitian(rng, k)
        op = HermitianOperator.embedded(index, b, d)
        assert np.array_equal(op.mat[np.ix_(index, index)], b.mat)
        assert np.count_nonzero(op.mat) == np.count_nonzero(b.mat)
        op.eigenvectors
        # the block's values order its vectors; a 1 x 1 block's vector is 1
        assert solver_calls == [("eigvalsh", (k, k))] + [("eigh", (1, k, k))] * (k > 1)
        _assert_matches_dense(op)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m, k, d", [(2, 1, 3), (2, 3, 6), (3, 2, 9), (4, 4, 16)])
    def test_several_blocks_match_dense(self, m, k, d, seed, solver_calls):
        """m blocks on disjoint index sets: the spectrum and eigenvectors
        come from one batched k x k solve each, and the trace distance of two
        such operators on the same index sets from their k x k differences."""
        rng = np.random.default_rng([m, k, d, seed])
        index = rng.permutation(d)[:m * k].reshape(m, k)
        blocks = [random_hermitian(rng, k) for _ in range(m)]
        op = HermitianOperator.embedded(index, blocks, d)
        for j, b in enumerate(blocks):
            assert np.array_equal(op.mat[np.ix_(index[j], index[j])], b.mat)
        assert np.count_nonzero(op.mat) == sum(np.count_nonzero(b.mat) for b in blocks)
        solver_calls.clear()
        _assert_matches_dense(op)
        # the dense reference, then one batched solve of the blocks (none for 1 x 1)
        assert solver_calls == [("eigh", (d, d))] + [("eigh", (m, k, k))] * (k > 1)
        other = HermitianOperator.embedded(index, [random_hermitian(rng, k) for _ in range(m)], d)
        td, made = _distance_and_solver_dims(op, other, solver_calls, 1e-13)
        assert made == ([("eigvalsh", k)] if k > 1 else [])

    def test_diagonal_trace_distance_calls_no_solver(self, solver_calls):
        """Two diagonal operators are block operators of 1 x 1 blocks on the
        same index sets: their trace distance sums the sorted differences
        of their entries, as a dense eigvalsh of the difference gives them."""
        rng = np.random.default_rng(29)
        for d in (2, 5, 64):
            p, q = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
            td = trace_distance(DensityOperator.diagonal(p), DensityOperator.diagonal(q))
            assert td == 0.5 * np.abs(np.sort(p - q)[::-1]).sum()
        assert solver_calls == []

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("d", [3, 5, 8, 16])
    def test_difference_on_one_index_set_is_a_block(self, d, seed, solver_calls):
        rng = np.random.default_rng([d, seed])
        index = rng.choice(d, size=int(rng.integers(2, d)), replace=False)
        rho, sigma = _block_state(rng, index, d), _block_state(rng, index, d)
        td, made = _distance_and_solver_dims(rho, sigma, solver_calls, 1e-14)
        assert made == [("eigvalsh", len(index))]
        # the k x k spectrum and d - k zeros, summed as the block operator sorts them
        block = HermitianOperator(rho.block[1][0] - sigma.block[1][0])
        assert td == 0.5 * trace_norm(HermitianOperator.embedded(index, block, d))

    def test_difference_on_other_index_sets_is_dense(self, solver_calls):
        rng = np.random.default_rng(27)
        a = _block_state(rng, [0, 2, 3], 6)
        # another set, the same set in another order, a subset, and no block
        for b in (_block_state(rng, [0, 2, 4], 6), _block_state(rng, [3, 2, 0], 6),
                  _block_state(rng, [0, 2], 6), sample_state(6, 6, rng)):
            for first, second in ((a, b), (b, a)):
                td, made = _distance_and_solver_dims(first, second, solver_calls, 1e-14)
                assert made == [("eigvalsh", 6)]
                assert td == 0.5 * trace_norm(HermitianOperator(first.mat - second.mat))

    def test_renormalised_trace_keeps_the_block(self, solver_calls):
        rng = np.random.default_rng(28)
        index = [4, 1, 2]
        small = sample_state(3, 3, rng)
        state = DensityOperator.embedded(index, HermitianOperator(small.mat * (1 + 1e-10)), 6)
        assert np.array_equal(state.block[0], [index])
        assert np.array_equal(state.block[1][0], state.mat[np.ix_(index, index)])
        assert state.trace() == pytest.approx(1.0, abs=1e-15)
        _assert_matches_dense(state)
        other = DensityOperator.embedded(index, small, 6)
        _, made = _distance_and_solver_dims(state, other, solver_calls, 1e-14)
        assert made == [("eigvalsh", 3)]

    @pytest.mark.parametrize("index", [[0, 0], [0, 3], [-1, 0], [0], [[0, 1], [1, 2]]])
    def test_index_must_be_distinct_and_in_range(self, index):
        blocks = [np.eye(2)] * len(index) if isinstance(index[0], list) else np.eye(2)
        with pytest.raises(ValueError, match="distinct indices"):
            HermitianOperator.embedded(index, blocks, 3)


def _eager(kind, parts):
    """The unsymmetrized matrix of each structured constructor, as it was
    built on construction before ``mat`` became lazy."""
    if kind == "diagonal":
        return np.diag(np.asarray(parts[0], dtype=float).astype(complex))
    if kind == "factored":
        vecs, lam, c = parts
        mat = np.diag(np.full(len(vecs), c, dtype=complex))
        for a, b in zip((vecs * (lam - c)).T, vecs.conj().T):
            mat += np.outer(a, b)
        return mat
    if kind in ("embedded", "blocks"):
        index, blocks, dim = parts
        mat = np.zeros((dim, dim), dtype=complex)
        for ix, block in zip(np.reshape(index, (-1, blocks[0].dim if kind == "blocks"
                                                    else blocks.dim)),
                             blocks if kind == "blocks" else [blocks]):
            mat[np.ix_(ix, ix)] = block.mat
        return mat
    v, s, a, b = parts
    # the diagonal coupling's omega as it was formed densely
    return np.outer(v, v.conj()) + s * np.kron(a, b)


def _structures(rng, d, scale=1.0):
    """(kind, parts, operator) of each structured constructor at dimension
    d (d^2 for the kron), its parts scaled by ``scale``."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    vecs = np.linalg.qr(g)[0][:, :max(1, d // 2)]
    lam = rng.random(vecs.shape[1])
    lam = lam / lam.sum() / 2 if d > vecs.shape[1] else lam / lam.sum()
    c = 0.5 / (d - vecs.shape[1]) * scale if d > vecs.shape[1] else 0.0
    p = rng.random(d)
    index = rng.choice(d + 2, size=d, replace=False)
    block = sample_state(d, d, rng)
    v = _unit(rng, d * d) * np.sqrt(0.6)
    a, b = sample_state(d, d, rng).mat, sample_state(d, d, rng).mat
    # a qc-like state: blocks w_x rho_x on the index sets x::2 of 2 d
    w = rng.dirichlet(np.ones(2)) * scale
    qc = [HermitianOperator(w[x] * sample_state(d, d, rng).mat) for x in range(2)]
    structures = [("diagonal", (p / p.sum() * scale,)), ("factored", (vecs, lam * scale, c)),
                  ("embedded", (index, HermitianOperator(block.mat * scale), d + 2)),
                  ("blocks", ([np.arange(x, 2 * d, 2) for x in range(2)], qc, 2 * d)),
                  ("kron", (v * np.sqrt(scale), 0.4 * scale, a, b))]
    build = {"diagonal": HermitianOperator.diagonal, "factored": HermitianOperator.factored,
             "embedded": HermitianOperator.embedded, "blocks": HermitianOperator.embedded,
             "kron": HermitianOperator.rank_one_kron}
    return [(kind, parts, build[kind](*parts)) for kind, parts in structures]


class TestLazyMatrix:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_mat_has_the_bits_of_the_dense_construction(self, d, seed):
        """Each structure builds no matrix until ``mat`` is read, and then the
        bits of its dense construction; its trace, read from the parts
        first, is ``np.trace`` of that matrix."""
        for kind, parts, op in _structures(np.random.default_rng([d, seed]), d):
            if d == 1 and kind == "factored":
                continue
            assert op._mat is None
            tr = op.trace()
            assert op._mat is None
            assert op.mat.tobytes() == _symmetrized(_eager(kind, parts)).tobytes()
            assert tr == float(np.real(np.trace(op.mat)))

    @pytest.mark.parametrize("scale", [1.0 + 3e-13, 1.0 - 2e-12, 1.0 + 5e-9])
    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_a_renormalized_state_reads_the_bits_of_the_dense_rule(self, d, scale):
        """A structured state off trace 1 by more than ``RENORM_ATOL`` records
        its trace; its ``mat`` is then ``sym(sym(M) / tr)`` and its trace
        that of the dense state, whether ``mat`` was read before or after."""
        for first in ("parts", "mat"):
            for kind, parts, op in _structures(np.random.default_rng(d), d, scale):
                dense = _symmetrized(_eager(kind, parts))
                tr = np.trace(dense).real
                assert op.trace() == tr and abs(tr - 1.0) > 1e-14
                if first == "mat":
                    op.mat
                state = DensityOperator._built(op) if kind == "kron" else DensityOperator(op)
                assert (state._mat is None) == (first == "parts")
                assert state.trace() == float(np.trace(state.mat).real)
                assert state.mat.tobytes() == _symmetrized(dense / tr).tobytes()
                if kind != "kron":
                    assert state.eigenvalues.tobytes() == (op.eigenvalues / tr).tobytes()

    @pytest.mark.parametrize("kind", ["diagonal", "factored", "embedded", "kron", "pure"])
    def test_reading_mat_above_the_dense_limit_raises_before_allocating(self, kind):
        """A structured operator of dimension 4100 holds its parts (a few
        vectors); a 4100 x 4100 complex matrix would take 269 MB.  Reading
        ``mat`` or the eigenvectors raises in the getter, with less than
        1 MiB allocated."""
        dim = DENSE_DIM_LIMIT + 4
        rng = np.random.default_rng(9)
        op = {"diagonal": lambda: HermitianOperator.diagonal(rng.random(dim)),
              "factored": lambda: HermitianOperator.factored(_orthonormal(rng, dim, 2), [0.5, 0.3]),
              "embedded": lambda: HermitianOperator.embedded([3, 7], np.eye(2), dim),
              "kron": lambda: HermitianOperator.rank_one_kron(_unit(rng, dim), 0.5, np.eye(4),
                                                              np.eye(dim // 4)),
              "pure": lambda: HermitianOperator.pure(_unit(rng, dim))}[kind]()
        assert op.trace() > 0.0
        tracemalloc.start()
        try:
            for read in ("mat", "eigenvectors"):
                with pytest.raises(ValueError, match=f"dimension {dim} is above the dense limit"):
                    getattr(op, read)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_fidelity_with_a_kron_operand_reads_its_parts(self):
        """F(w |x><x|, |v><v| + s A (x) B) from ``<x|v>`` and ``tr(X^dagger A X
        B^T)``, renormalized or not, matches the dense overlap, with no
        d^2 x d^2 matrix built."""
        rng = np.random.default_rng(31)
        for d_a, d_b in [(2, 2), (2, 3), (4, 3), (5, 5)]:
            v = _unit(rng, d_a * d_b) * np.sqrt(0.7)
            a, b = sample_state(d_a, d_a, rng), sample_state(d_b, d_b, rng)
            for s in (0.3, 0.3 + 4e-13):
                theta = DensityOperator._built(HermitianOperator.rank_one_kron(v, s, a.mat, b.mat))
                x = sample_pure_state(d_a * d_b, rng)
                f = fidelity(x, theta)
                assert theta._mat is None
                u, w = x.factor[0][:, 0], x.factor[1][0]
                assert f == pytest.approx(math.sqrt(w * np.vdot(u, theta.mat @ u).real),
                                          rel=0, abs=1e-15)
                assert fidelity(theta, x) == f

    @pytest.mark.parametrize("seed", range(20))
    def test_the_difference_of_symmetrized_stacks_is_exactly_hermitian(self, seed):
        """``trace_distances`` takes ``a - b`` as it is: symmetrizing the
        difference of two symmetrized stacks changes no bit, the signed zeros
        of equal entries, of real matrices and on the diagonal included."""
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 9))
        g = rng.standard_normal((2, 4, d, d)) + 1j * rng.standard_normal((2, 4, d, d))
        g[1, 0] = g[0, 0]  # a pair of equal matrices
        g[:, 1] = g[:, 1].real  # real matrices: every imaginary part a zero
        g[1, 2] = np.diag(np.diagonal(g[0, 2]))  # equal diagonals, zeros off them
        a, b = (_symmetrized(m) for m in g)
        assert _symmetrized(a - b).tobytes() == (a - b).tobytes()
        # zeros of either sign placed before the symmetrization can move the
        # sign of a zero part off the diagonal, never a value or the diagonal
        for part in (g.real, g.imag):
            zeros = rng.random(g.shape) < 0.3
            part[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
        a, b = (_symmetrized(m) for m in g)
        assert np.array_equal(_symmetrized(a - b), a - b)
        assert (np.diagonal(_symmetrized(a - b), axis1=1, axis2=2).tobytes()
                == np.diagonal(a - b, axis1=1, axis2=2).tobytes())


class TestMatrixFunction:
    def test_sqrt(self):
        out = HermitianOperator.diagonal([4.0, 9.0]).apply_function(np.sqrt)
        np.testing.assert_allclose(out.mat, np.diag([2.0, 3.0]), atol=1e-12)

    def test_inverse_sqrt_support_only(self):
        op = HermitianOperator.diagonal([4.0, 0.0])
        out = op.apply_function(lambda x: 1.0 / np.sqrt(x), support_only=True)
        np.testing.assert_allclose(out.mat, np.diag([0.5, 0.0]), atol=1e-12)
        # the support cut is 1e-12 max(lambda_max, 1): 7e-13 is outside it
        op = HermitianOperator.diagonal([0.5, 7e-13])
        out = op.apply_function(lambda x: 1.0 / np.sqrt(x), support_only=True)
        np.testing.assert_allclose(out.mat, np.diag([1 / np.sqrt(0.5), 0.0]), atol=1e-12)

    def test_sqrt_maps_rounding_noise_to_zero(self):
        out = HermitianOperator.diagonal([1.0, 5e-13]).sqrt()
        np.testing.assert_array_equal(out.mat, np.diag([1.0, 0.0]))

    def test_sqrt_domain_is_the_psd_rule(self):
        # PSD_ATOL = 1e-10: -5e-11 is rounding noise of a PSD operator, -2e-10 is not
        out = HermitianOperator.diagonal([1.0, -5e-11]).sqrt()
        np.testing.assert_array_equal(out.mat, np.diag([1.0, 0.0]))
        with pytest.raises(MatrixFunctionDomainError, match="-2e-10"):
            HermitianOperator.diagonal([1.0, -2e-10]).sqrt()

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

    @pytest.mark.parametrize("rho, sigma", [
        (np.eye(1), np.eye(3) / 3),  # would broadcast to a 3x3 difference
        (DensityOperator.maximally_mixed(2), DensityOperator.maximally_mixed(3)),
    ], ids=["broadcastable", "states"])
    def test_trace_distance_dimension_mismatch(self, rho, sigma):
        with pytest.raises(ValueError, match="dimension mismatch: "):
            trace_distance(rho, sigma)


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

    @pytest.mark.parametrize("d", [2, 16, 256])
    def test_pure_operand_matches_dense_path(self, d, monkeypatch):
        # a projector operand takes the closed form sqrt(<v|other|v>) with
        # no decomposition; the dense path is ||sqrt(a) sqrt(b)||_1, with
        # the projector's square root built from its exact spectrum
        rng = np.random.default_rng(d)
        u, v, mixed = sample_pure_state(d, rng), sample_pure_state(d, rng), sample_state(d, d, rng)
        pairs = [(u, mixed), (mixed, u), (u, v)]
        dense = [trace_norm(a.sqrt().mat @ b.sqrt().mat) for a, b in pairs]
        calls = []
        for name in ("eigh", "eigvalsh", "svd", "qr"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
        fast = [fidelity(a, b) for a, b in pairs]
        assert calls == []
        np.testing.assert_allclose(fast, dense, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [4, 16])
    def test_dense_pure_operand_matches_closed_form(self, d):
        # a pure state without its factor takes the dense path, where
        # rounding-level eigenvalues of u must not enter sqrt(u)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            u, sigma = sample_pure_state(d, rng), sample_state(d, d, rng)
            v = u.factor[0][:, 0]
            exact = math.sqrt(np.real(np.vdot(v, sigma.mat @ v)))
            assert fidelity(HermitianOperator(u.mat), sigma) == pytest.approx(exact, abs=1e-12)

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


def ref_symmetrized(mats):
    """The symmetrization as it was before it halved in place, kept verbatim
    (renamed) as the reference of its bits."""
    return (mats + mats.conj().swapaxes(-1, -2)) / 2


def ref_check_hermitian(mats):
    """The matrix scan as it was before it looped only on failure, kept
    verbatim (renamed) as the reference of its errors; it formed the
    adjoint for itself, and the symmetrization formed it again."""
    largest = np.abs(mats).max(axis=(1, 2))
    with np.errstate(invalid="ignore"):  # inf - inf; the deviation is then never read
        dev = np.abs(mats - mats.conj().swapaxes(1, 2)).max(axis=(1, 2))
    for mat, top, skew in zip(mats, largest.tolist(), dev.tolist()):
        # NaN or inf anywhere makes the largest magnitude non-finite
        if not top < np.inf:
            bad = np.argwhere(~np.isfinite(mat))
            raise ValueError(f"matrix has {len(bad)} non-finite entries, "
                             f"the first at {tuple(int(i) for i in bad[0])}")
        if skew > HERMITICITY_ATOL * max(1.0, top):
            raise ValueError(f"matrix is not Hermitian (max deviation {skew:.3e})")


class TestHermitianScan:
    """The scan of a stack raises the error of its first bad matrix in stack
    order, as the matrix-by-matrix scan did, and passes what it passed."""

    @staticmethod
    def stack(rng, defects):
        mats = []
        for defect in defects:
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            m = (g + g.conj().T) * (1e6 if defect == "large" else 1.0)
            if defect == "skew":
                m[0, 2] += 1e-9
            elif defect == "large":
                m[0, 2] += 1e-6  # within 1e-11 of the largest entry
            elif defect == "nan":
                m[1, 2] = complex(0.0, np.nan)
            elif defect == "inf":
                m[2, 0] = np.inf
            mats.append(m)
        return np.array(mats)

    @pytest.mark.parametrize("defects", [
        ("ok", "skew", "nan"), ("ok", "nan", "skew"), ("inf", "skew"), ("skew", "inf"),
        ("ok", "large", "ok", "skew"), ("ok", "large", "ok"), ("ok",), ("nan",),
    ])
    def test_the_first_bad_matrix_raises_in_stack_order(self, defects):
        mats = self.stack(np.random.default_rng(len(defects)), defects)
        try:
            ref_check_hermitian(mats)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                _check_hermitian(mats)
            assert str(info.value) == str(exc)
        else:
            assert set(defects) <= {"ok", "large"}
            _check_hermitian(mats)


def _stacks():
    """Random complex stacks of n in {1, 5} matrices of d in {1, 2, 3, 17,
    64, 128}: raw, and Hermitian up to the rounding of a Gram product."""
    rng = np.random.default_rng(41)
    for n in (1, 5):
        for d in (1, 2, 3, 17, 64, 128):
            g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
            yield n, d, g, g @ g.conj().swapaxes(1, 2)


def _read_only(a):
    a = np.array(a)
    a.setflags(write=False)
    return a


class TestFrozenSymmetrization:
    """The one-adjoint scan and symmetrization give the bits of the formulas
    they replaced, and only read their input."""

    def test_symmetrized_is_the_plain_formula(self):
        for _, _, g, gram in _stacks():
            for m in (g, gram, g[0]):
                assert _symmetrized(m).tobytes() == ref_symmetrized(m).tobytes()

    def test_divided_is_the_plain_formula(self):
        rng = np.random.default_rng(43)
        for n, _, g, gram in _stacks():
            tr = rng.uniform(0.5, 2.0, n)
            for m in (g, gram):
                assert _divided(m, tr).tobytes() == ref_symmetrized(m / tr[:, None, None]).tobytes()
                assert _divided(m[0], tr[0]).tobytes() == ref_symmetrized(m[0] / tr[0]).tobytes()
            blocks = g.reshape(n, 1, *g.shape[1:])
            assert (_divided(blocks, tr).tobytes()
                    == ref_symmetrized(blocks / tr[:, None, None, None]).tobytes())

    def test_the_scan_returns_the_symmetrized_stack(self):
        for _, _, _, gram in _stacks():
            ref_check_hermitian(gram)
            assert _check_hermitian(gram).tobytes() == ref_symmetrized(gram).tobytes()
            mats, lam, _ = hermitian_stack(gram, vectors=True)
            assert mats.tobytes() == ref_symmetrized(gram).tobytes()
            strided = gram[::-2]
            assert hermitian_stack(strided)[0].tobytes() == ref_symmetrized(strided).tobytes()
            assert lam.tobytes() == np.ascontiguousarray(
                np.linalg.eigvalsh(ref_symmetrized(gram))[:, ::-1]).tobytes()
            assert HermitianOperator(gram[-1]).mat.tobytes() == ref_symmetrized(gram[-1]).tobytes()

    def test_read_only_inputs_are_left_untouched(self):
        for n, _, g, gram in _stacks():
            frozen = _read_only(gram)
            before = frozen.tobytes()
            out = hermitian_stack(frozen)[0]
            op = HermitianOperator(frozen[0])
            eps = trace_distances(frozen, _read_only(gram[::-1]))
            sym, div = _symmetrized(frozen), _divided(frozen, _read_only(np.full(n, 2.0)))
            assert frozen.tobytes() == before
            assert out.flags.writeable and sym.flags.writeable and div.flags.writeable
            assert not np.shares_memory(out, frozen) and not np.shares_memory(op.mat, frozen)
            assert eps.shape == (n,)

    @pytest.mark.parametrize("defects", [
        ("ok", "skew", "nan"), ("ok", "nan", "skew"), ("inf", "skew"), ("skew", "inf"),
        ("ok", "large", "ok", "skew"), ("nan",), ("skew",),
    ])
    def test_the_first_bad_matrix_raises_through_both_entries(self, defects):
        mats = TestHermitianScan.stack(np.random.default_rng(7 * len(defects)), defects)
        with pytest.raises(ValueError) as ref:
            ref_check_hermitian(mats)
        with pytest.raises(ValueError) as stacked:
            hermitian_stack(_read_only(mats))
        assert str(stacked.value) == str(ref.value)
        first = next(j for j, defect in enumerate(defects) if defect not in ("ok", "large"))
        with pytest.raises(ValueError) as alone:
            HermitianOperator(_read_only(mats[first]))
        assert str(alone.value) == str(ref.value)
