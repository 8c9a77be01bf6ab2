import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from entrobounds import couplings
from entrobounds.couplings import (
    CouplingConsistencyError,
    build_decomposition,
    diagonal_coupling,
    diagonal_couplings,
    maximal_classical_coupling,
    quantum_coupling,
    quantum_couplings,
)
from entrobounds.entropies import binary_entropy, shannon_entropy
from entrobounds.linalg import (
    PSD_ATOL,
    HermitianOperator,
    fidelity,
    operator_norm,
    trace_distance,
)
from entrobounds.states import (
    BipartiteState,
    DensityOperator,
    StateStack,
    partial_trace,
    sample_pure_state,
    sample_state,
    vector_marginals,
)


def grid_min_mismatch(p, q, step):
    """Exhaustive coarse-grid oracle for min Pr{X != Y} over couplings of
    two distributions of length 2 or 3: grid the free (d-1)x(d-1) block,
    complete the last row/column by the marginal constraints, and keep
    feasible points.  The whole grid is one array of joint matrices."""
    d = len(p)
    n = d - 1
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    blocks = np.array(list(itertools.product(ticks, repeat=n * n))).reshape(-1, n, n)
    j = np.zeros((len(blocks), d, d))
    j[:, :n, :n] = blocks
    j[:, :n, n] = p[:n] - j[:, :n, :n].sum(axis=2)
    j[:, n, :] = np.asarray(q) - j[:, :n, :].sum(axis=1)
    feasible = ~(j < -1e-12).any(axis=(1, 2))
    return (1.0 - np.trace(j, axis1=1, axis2=2))[feasible].min(initial=1.0)


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
            h_x_given_y = shannon_entropy(c.joint.ravel()) - shannon_entropy(c.joint.sum(axis=0))
            assert h_x_given_y <= bound + 1e-10

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            maximal_classical_coupling([0.5, 0.5], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("p, error", [
        ([1.5, -0.5], r"probability -0\.5 is not finite and >= 0"),
        ([2.0, 2.0], r"probabilities sum to 4\.0, not 1"),
        ([0.5, np.nan], r"probability nan is not finite and >= 0"),
    ], ids=["negative", "sum", "nan"])
    def test_rejects_a_non_distribution(self, p, error):
        for pair in ((p, [0.5, 0.5]), ([0.5, 0.5], p)):
            with pytest.raises(ValueError, match=error):
                maximal_classical_coupling(*pair)


class TestDecomposition:
    def test_identical_pair_degenerate(self):
        rho = sample_state(3, 3, np.random.default_rng(3))
        dec = build_decomposition(rho, rho)
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


@pytest.mark.parametrize("construct", [build_decomposition, quantum_coupling, diagonal_coupling])
def test_couplings_reject_a_dimension_mismatch(construct):
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        construct(DensityOperator.maximally_mixed(2), DensityOperator.maximally_mixed(3))


@pytest.mark.parametrize("construct, name", [(quantum_coupling, "theta"),
                                             (diagonal_coupling, "omega")])
def test_couplings_above_the_dense_limit_build_no_coupling_state(construct, name):
    """d = 65 makes d^2 = 4225 > DENSE_DIM_LIMIT: a d^2 x d^2 complex array
    would take 285 MB.  The coupling state is held as its parts, and only a
    read of its ``mat`` meets the limit, before allocating."""
    rho = DensityOperator.maximally_mixed(65)
    sigma = DensityOperator.diagonal(np.arange(1.0, 66.0) / np.arange(1.0, 66.0).sum())
    tracemalloc.start()
    try:
        state = getattr(construct(rho, sigma), name)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        with pytest.raises(ValueError, match="dimension 4225 is above the dense limit"):
            state.mat
        read = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert built < 2**22
    assert read < 2**20
    if name == "theta":
        qc = construct(rho, sigma)
        assert fidelity(qc.psi, qc.theta) >= 1.0 - qc.epsilon - 1e-9


def test_couplings_decompose_only_what_they_read(solver_calls):
    """With the spectra of rho and sigma known, a couplings case makes four
    eigendecompositions: rho - sigma, omega (its values, then the vectors
    its inverse square root reads) and the two marginal residuals (in one
    stack).  Every Delta is a positive part normalised, a state by
    construction, and is never decomposed again."""
    rng = np.random.default_rng(2)
    u, v = (np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
            for _ in range(2))
    rho = DensityOperator.factored(u, [0.6, 0.3, 0.1])
    sigma = DensityOperator.factored(v, [0.5, 0.4, 0.1])
    qc = quantum_coupling(rho, sigma)
    fidelity(qc.psi, qc.theta)
    diagonal_coupling(rho, sigma)
    assert solver_calls == [("eigh", (1, 3, 3)), ("eigvalsh", (1, 3, 3)), ("eigh", (1, 3, 3)),
                            ("eigh", (2, 3, 3))]


def test_a_chunk_gives_each_pair_the_coupling_it_has_alone():
    """One chunk of a sampled pair, rho = sigma (eps < 1e-12, omega = rho),
    a state whose eigenvalues the validation clamped and a pure state whose
    weight the trace rule renormalized: every value the records read, and
    each part of Theta, is bit for bit that of the pair's stack of one."""
    rng = np.random.default_rng(11)
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    clamped = DensityOperator((u * [0.7, 0.3 + 1e-13, -1e-13]) @ u.conj().T)
    assert clamped.eigenvalues[-1] == 0.0
    pure = DensityOperator(HermitianOperator.factored(u[:, :1], [1.0 + 3e-14]))
    assert pure.factor[1][0] != 1.0
    a, b, c = (sample_state(3, 3, rng) for _ in range(3))
    pairs = [(a, b), (c, c), (clamped, a), (pure, b)]
    rho, sigma = (StateStack.of(*states) for states in zip(*pairs))
    qc, dc = quantum_couplings(rho, sigma), diagonal_couplings(rho, sigma)
    assert qc.epsilon[1] == 0.0
    for k, (r, s) in enumerate(pairs):
        alone = quantum_coupling(r, s)
        assert qc.epsilon[k] == alone.epsilon
        assert qc.overlap_psi[k] == alone.overlap_psi
        assert qc.overlap_phi[k] == alone.overlap_phi
        assert qc.fidelity_theta[k] == fidelity(alone.psi, alone.theta)
        vartheta, slack, delta1, delta2 = alone.theta.kron
        assert vartheta.tobytes() == qc.vartheta[k].tobytes() and slack == qc.slack[k]
        assert delta1.tobytes() == qc.deltas[0, k].tobytes()
        assert delta2.tobytes() == qc.deltas[1, k].tobytes()
        assert (alone.theta._divisor or 1.0) == qc.theta_traces[k]
        assert dc.largest_eigenvalue[k] == diagonal_coupling(r, s).largest_eigenvalue


def _coupling_pairs():
    """Random pairs of full and lower rank at d <= 8, the commuting pair
    with a degenerate spectrum, and rho = sigma."""
    rng = np.random.default_rng(21)
    pairs = []
    for _ in range(40):
        d = int(rng.integers(2, 9))
        pairs.append((sample_state(d, int(rng.integers(1, d + 1)), rng),
                      sample_state(d, int(rng.integers(1, d + 1)), rng)))
    pairs.append((DensityOperator.maximally_mixed(3), DensityOperator.diagonal([0.5, 0.25, 0.25])))
    rho = sample_state(4, 2, rng)
    return pairs + [(rho, rho)]


class TestQuantumCoupling:
    def test_theta_is_a_state_by_construction(self):
        for rho, sigma in _coupling_pairs():
            theta = quantum_coupling(rho, sigma).theta
            assert theta._eigenvalues is None  # validated without a decomposition
            assert np.linalg.eigvalsh(theta.mat)[0] >= -PSD_ATOL
            assert abs(np.trace(theta.mat).real - 1.0) <= 1e-12

    def test_identical_pair(self):
        # eps = 0 takes the general construction with omega = rho
        for rank in (1, 2, 3):
            rho = sample_state(3, rank, np.random.default_rng(5))
            qc = quantum_coupling(rho, rho)
            assert qc.epsilon == 0.0
            assert qc.overlap_psi == pytest.approx(1.0, abs=1e-10)
            assert qc.overlap_phi == pytest.approx(1.0, abs=1e-10)
            assert fidelity(qc.psi, qc.theta) >= 1.0 - 1e-9
            theta = BipartiteState(qc.theta, (3, 3))
            np.testing.assert_allclose(partial_trace(theta, "A").mat, rho.mat, atol=1e-9)
            np.testing.assert_allclose(partial_trace(theta, "B").mat, rho.mat.T, atol=1e-9)
            for op in (qc.x_op, qc.y_op):
                assert np.linalg.norm(op, 2) <= 1.0 + 1e-9

    def test_marginal_residual_is_judged_by_the_psd_rule(self, monkeypatch):
        """A residual eigenvalue of -2 PSD_ATOL is not rounding noise."""
        rng = np.random.default_rng(3)
        rho, sigma = sample_state(3, 3, rng), sample_state(3, 3, rng)

        def pushed(vec, d_a, d_b):
            marg1, marg2 = vector_marginals(vec, d_a, d_b)
            lam_min = np.linalg.eigvalsh(rho.mat - marg1)[..., :1, None]
            return marg1 + (lam_min + 2 * PSD_ATOL) * np.eye(d_a), marg2

        quantum_coupling(rho, sigma)
        monkeypatch.setattr(couplings, "vector_marginals", pushed)
        with pytest.raises(CouplingConsistencyError, match="marginal residual"):
            quantum_coupling(rho, sigma)

    def test_overlaps_read_a_renormalised_factor(self):
        # DensityOperator divides a factor's eigenvalue by a trace that is
        # off 1 by more than 1e-14; the vector the overlaps read is unchanged
        rng = np.random.default_rng(7)
        qc = quantum_coupling(sample_state(3, 3, rng), sample_state(3, 3, rng))
        v = qc.psi.factor[0][:, 0]
        psi = BipartiteState(HermitianOperator.factored(v[:, None], [1.0 + 3e-14]), (3, 3))
        assert psi.factor[1].tolist() != [1.0]
        moved = dataclasses.replace(qc, phi=psi, psi=psi)
        assert moved.overlap_psi == qc.overlap_psi
        assert moved.overlap_phi == qc.overlap_psi

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("t", [1e-11, 1e-9, 1e-7, 1e-6])
    def test_close_pairs(self, t, rank):
        # sigma = (1 - t) rho + t tau: eps is of order t, so dividing by eps
        # would scale the rounding of tr(rho - sigma) by 1/t
        rng = np.random.default_rng(rank)
        for _ in range(10):
            rho = sample_state(3, rank, rng)
            sigma = DensityOperator((1.0 - t) * rho.mat + t * sample_state(3, 3, rng).mat)
            dec = build_decomposition(rho, sigma)
            eps = dec.epsilon
            for state, part in ((sigma, dec.delta), (rho, dec.delta_prime)):
                recon = (state.mat + eps * part.mat) / (1.0 + eps)
                assert np.abs(dec.omega.mat - recon).max() <= 1e-12
            qc = quantum_coupling(rho, sigma)
            assert qc.overlap_psi >= 1.0 - eps - 1e-9
            assert qc.overlap_phi >= 1.0 - eps - 1e-9

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
    def test_largest_eigenvalue_matches_a_dense_decomposition(self):
        for rho, sigma in _coupling_pairs():
            dc = diagonal_coupling(rho, sigma)
            assert dc.omega._eigenvalues is None or dc.omega.factor is not None
            dense = np.linalg.eigvalsh(dc.omega.mat)
            assert abs(dc.largest_eigenvalue - dense[-1]) <= 1e-12
            assert dense[0] >= -PSD_ATOL

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
