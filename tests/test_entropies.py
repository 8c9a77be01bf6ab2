import math

import numpy as np
import pytest

from entrobounds.entropies import (
    LOG2_E,
    binary_entropy,
    clipped_binary,
    conditional_entropy,
    conditional_shannon,
    gibbs_entropy_g,
    relative_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from entrobounds.linalg import HermitianOperator
from entrobounds.states import (
    BipartiteState,
    DensityOperator,
    maximally_entangled_state,
    partial_trace,
    sample_pure_bipartite,
    sample_qc_state,
    sample_state,
)

# independently computed reference values (40-digit arithmetic)
H_01 = 0.46899559358928122
H_025 = 0.81127812445913286


class TestVonNeumann:
    def test_pure_state(self):
        assert von_neumann_entropy(DensityOperator.pure([1.0, 0.0])) == 0.0

    def test_maximally_mixed(self):
        for d in (2, 3, 8):
            s = von_neumann_entropy(DensityOperator.maximally_mixed(d))
            assert s == pytest.approx(math.log2(d), abs=1e-12)

    def test_diagonal(self):
        rho = DensityOperator.diagonal([0.75, 0.25])
        assert von_neumann_entropy(rho) == pytest.approx(H_025, abs=1e-14)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(0)
        rho = sample_state(4, 4, rng)
        u = np.linalg.qr(rng.standard_normal((4, 4))
                         + 1j * rng.standard_normal((4, 4)))[0]
        rotated = DensityOperator(u @ rho.mat @ u.conj().T)
        assert von_neumann_entropy(rotated) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10)

    def test_additive_under_tensor(self):
        rng = np.random.default_rng(1)
        a = sample_state(2, 2, rng)
        b = sample_state(3, 3, rng)
        joint = DensityOperator(np.kron(a.mat, b.mat))
        assert von_neumann_entropy(joint) == pytest.approx(
            von_neumann_entropy(a) + von_neumann_entropy(b), abs=1e-10)


class TestShannonAndBinary:
    def test_uniform(self):
        assert shannon_entropy(np.full(8, 0.125)) == pytest.approx(3.0, abs=1e-12)

    def test_point_mass(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_binary_values(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-14)
        assert binary_entropy(0.1) == pytest.approx(H_01, abs=1e-14)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_binary_symmetry(self):
        for x in (0.1, 0.2, 0.35):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-14)

    def test_binary_domain(self):
        with pytest.raises(ValueError, match="outside"):
            binary_entropy(1.2)

    def test_clipped_binary(self):
        assert clipped_binary(0.9) == 1.0
        assert clipped_binary(0.5) == 1.0
        assert clipped_binary(0.25) == pytest.approx(H_025, abs=1e-14)
        with pytest.raises(ValueError, match="negative"):
            clipped_binary(-0.1)

    def test_conditional_shannon_independent(self):
        joint = np.outer([0.25, 0.75], [0.4, 0.6])  # joint[x, y] = p_x q_y
        assert conditional_shannon(joint) == pytest.approx(H_025, abs=1e-12)

    def test_conditional_shannon_deterministic(self):
        assert conditional_shannon(np.diag([0.3, 0.7])) == pytest.approx(0.0, abs=1e-12)


class TestConditionalEntropy:
    def test_maximally_entangled_is_minus_one(self):
        assert conditional_entropy(maximally_entangled_state(2)) == pytest.approx(
            -1.0, abs=1e-12)

    def test_maximally_mixed(self):
        state = BipartiteState(DensityOperator.maximally_mixed(4), (2, 2))
        assert conditional_entropy(state) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        rng = np.random.default_rng(2)
        a = sample_state(3, 3, rng)
        b = sample_state(2, 2, rng)
        state = BipartiteState(DensityOperator(np.kron(a.mat, b.mat)), (3, 2))
        assert conditional_entropy(state) == pytest.approx(
            von_neumann_entropy(a), abs=1e-10)

    def test_qc_state_averages_block_entropies(self):
        rng = np.random.default_rng(3)
        state = sample_qc_state(3, 4, rng)
        m = state.mat.reshape(3, 4, 3, 4)
        expected = 0.0
        for x in range(4):
            block = m[:, x, :, x]
            p = np.real(np.trace(block))
            expected += p * von_neumann_entropy(
                DensityOperator(HermitianOperator(block / p)))
        assert conditional_entropy(state) == pytest.approx(expected, abs=1e-10)

    def test_araki_lieb(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            state = BipartiteState(sample_state(6, 6, rng), (2, 3))
            s_a = von_neumann_entropy(partial_trace(state, "A"))
            assert abs(conditional_entropy(state)) <= s_a + 1e-10


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rho = sample_state(3, 3, np.random.default_rng(5))
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_diagonal_closed_form(self):
        rho = DensityOperator.diagonal([0.5, 0.5])
        gamma = DensityOperator.diagonal([0.75, 0.25])
        # 0.5 log2(0.5/0.75) + 0.5 log2(0.5/0.25)
        assert relative_entropy(rho, gamma) == pytest.approx(
            0.20751874963942191, abs=1e-13)

    def test_support_violation_is_inf(self):
        rho = DensityOperator.diagonal([0.5, 0.5])
        gamma = DensityOperator.diagonal([1.0, 0.0])
        assert relative_entropy(rho, gamma) == math.inf

    def test_support_contained_is_finite(self):
        rho = DensityOperator.diagonal([1.0, 0.0])
        gamma = DensityOperator.diagonal([0.75, 0.25])
        assert relative_entropy(rho, gamma) == pytest.approx(
            -math.log2(0.75), abs=1e-12)

    def test_unnormalized_gamma(self):
        rho = DensityOperator.maximally_mixed(2)
        gamma = HermitianOperator(np.eye(2) * 2.0)
        # D(rho || 2*1) = -S(rho) - tr rho log2(2) = -1 - 1
        assert relative_entropy(rho, gamma) == pytest.approx(-2.0, abs=1e-12)

    def test_nonnegative_on_state_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            rho = sample_state(4, 4, rng)
            gamma = sample_state(4, 4, rng)
            assert relative_entropy(rho, gamma) >= -1e-10

    def test_against_identity_gives_negentropy(self):
        rng = np.random.default_rng(7)
        rho = sample_state(5, 3, rng)
        d = relative_entropy(rho, HermitianOperator(np.eye(5)))
        assert d == pytest.approx(-von_neumann_entropy(rho), abs=1e-10)

    def test_conditional_entropy_variational_form(self):
        # D(omega || 1 (x) omega^B) = -S(A|B)
        rng = np.random.default_rng(8)
        for _ in range(20):
            state = BipartiteState(sample_state(6, 6, rng), (2, 3))
            marg = partial_trace(state, "B")
            gamma = HermitianOperator(np.kron(np.eye(2), marg.mat))
            assert relative_entropy(state, gamma) == pytest.approx(
                -conditional_entropy(state), abs=1e-9)

    def test_concavity_sandwich(self):
        # sum p_x S(rho_x) <= S(mixture) <= sum p_x S(rho_x) + H(p)
        rng = np.random.default_rng(9)
        for _ in range(20):
            states = [sample_state(3, 3, rng) for _ in range(3)]
            p = rng.dirichlet(np.ones(3))
            mix = DensityOperator(sum(pi * s.mat for pi, s in zip(p, states)))
            avg = sum(pi * von_neumann_entropy(s) for pi, s in zip(p, states))
            s_mix = von_neumann_entropy(mix)
            assert avg - 1e-10 <= s_mix <= avg + shannon_entropy(p) + 1e-10


class TestGibbsEntropyG:
    def test_values(self):
        assert gibbs_entropy_g(0.0) == 0.0
        assert gibbs_entropy_g(1.0) == pytest.approx(2.0, abs=1e-13)
        assert gibbs_entropy_g(3.0) == pytest.approx(3.2451124978365315, abs=1e-13)
        assert gibbs_entropy_g(100.0) == pytest.approx(8.093740780458799, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            gibbs_entropy_g(-0.5)

    def test_monotone_and_concave(self):
        grid = np.linspace(0.01, 50.0, 200)
        vals = np.array([gibbs_entropy_g(x) for x in grid])
        assert (np.diff(vals) > 0).all()
        assert (np.diff(vals, 2) < 1e-12).all()

    def test_upper_estimate(self):
        # g(N) <= log2(N+1) + log2(e)
        for n in (0.1, 1.0, 7.0, 300.0):
            assert gibbs_entropy_g(n) <= math.log2(n + 1) + LOG2_E + 1e-12


class TestPurePairEntropyMatch:
    def test_marginal_entropies_agree(self):
        rng = np.random.default_rng(10)
        psi = sample_pure_bipartite(3, 5, rng)
        s_a = von_neumann_entropy(partial_trace(psi, "A"))
        s_b = von_neumann_entropy(partial_trace(psi, "B"))
        assert s_a == pytest.approx(s_b, abs=1e-10)
