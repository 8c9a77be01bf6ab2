import math

import numpy as np
import pytest

from entrobounds.bounds import (
    BoundReport,
    ConvexSetModel,
    af_bound,
    af_witness_gap,
    check_af,
    check_cor_pure,
    check_cor_pure_stack,
    check_dc,
    check_fannes,
    cor1_bounds,
    cor1_delta,
    cor2_bound,
    dc_bound,
    fannes_audenaert_bound,
    tightness_witness_af,
    tightness_witness_fannes,
)
from entrobounds import dc_optimizer
from entrobounds.dc_optimizer import dc_minimize, kappa_bracket
from entrobounds.entropies import binary_entropy, conditional_entropy, von_neumann_entropy
from entrobounds.gibbs import HamiltonianSpec, gibbs_entropy, meta6_bound, meta_delta
from entrobounds.linalg import HermitianOperator, rank_one_factor, trace_distance
from entrobounds.states import (BipartiteState, DensityOperator, PureStack, factored_traces,
                                partial_trace, sample_pure_bipartite, sample_state)

# independently computed reference values (40-digit arithmetic)
FANNES_01_4 = 0.62749184366139684
AF_01_2 = 0.68344668561366463
AF_CQ_01_2 = 0.58344668561366463
DC_02_K3 = 1.3800269059780251
COR1_DELTA_002 = 0.19899748742132399
COR1_EF_002_2 = 0.97642990933607142
COR1_EC_002_2 = 1.1754273967573954
COR2_01_3 = 0.64194293568578025
AF_GAP_8_01 = 1.0667235859392729


class TestFormulas:
    def test_fannes_values(self):
        assert fannes_audenaert_bound(0.1, 4) == pytest.approx(FANNES_01_4, abs=1e-13)

    def test_fannes_piecewise_branch(self):
        # past eps = 1 - 1/d the bound is the constant log2 d
        assert fannes_audenaert_bound(0.6, 2) == pytest.approx(1.0, abs=1e-14)
        assert fannes_audenaert_bound(0.5, 2) == pytest.approx(1.0, abs=1e-14)
        assert fannes_audenaert_bound(1.0, 4) == pytest.approx(2.0, abs=1e-14)

    def test_fannes_continuous_at_breakpoint(self):
        for d in (2, 3, 5):
            e = 1.0 - 1.0 / d
            assert fannes_audenaert_bound(e, d) == pytest.approx(
                fannes_audenaert_bound(e + 1e-12, d), abs=1e-9)

    def test_fannes_domain(self):
        with pytest.raises(ValueError, match="outside"):
            fannes_audenaert_bound(1.5, 2)
        with pytest.raises(ValueError, match="dimension"):
            fannes_audenaert_bound(0.1, 1)

    def test_corollary_domain(self):
        # a 1x1 marginal is no dimension the corollaries speak of
        for bound in (cor1_bounds, cor2_bound):
            with pytest.raises(ValueError, match="dimension must be >= 2, got 1"):
                bound(0.1, 1)
        phi = BipartiteState.pure([1.0], (1, 1))
        with pytest.raises(ValueError, match="dimension"):
            check_cor_pure(phi, phi)

    def test_af_values(self):
        assert af_bound(0.1, 2) == pytest.approx(AF_01_2, abs=1e-13)
        assert af_bound(0.1, 2, classical_b=True) == pytest.approx(AF_CQ_01_2, abs=1e-13)
        assert af_bound(1.0, 2) == pytest.approx(4.0, abs=1e-13)
        assert af_bound(0.0, 7) == 0.0

    def test_dc_value(self):
        assert dc_bound(0.2, 3.0) == pytest.approx(DC_02_K3, abs=1e-13)
        with pytest.raises(ValueError, match="kappa"):
            dc_bound(0.1, -1.0)

    def test_dc_rejects_a_nan_kappa(self):
        with pytest.raises(ValueError, match="kappa must be nonnegative, got nan"):
            dc_bound(0.1, math.nan)

    def test_dc_at_eps_0_is_0_for_an_infinite_kappa(self):
        # kappa_bracket certifies kappa = +inf where no mixture is full rank
        assert dc_bound(0.0, math.inf) == 0.0
        assert dc_bound(0.2, math.inf) == math.inf

    def test_dc_with_double_log_dim_equals_af(self):
        for eps in (0.05, 0.2, 0.7):
            for d in (2, 3, 5):
                assert dc_bound(eps, 2.0 * math.log2(d)) == pytest.approx(
                    af_bound(eps, d), abs=1e-13)

    def test_cor1_values(self):
        assert cor1_delta(0.02) == pytest.approx(COR1_DELTA_002, abs=1e-14)
        ef, ec = cor1_bounds(0.02, 2)
        assert ef == pytest.approx(COR1_EF_002_2, abs=1e-13)
        assert ec == pytest.approx(COR1_EC_002_2, abs=1e-13)

    def test_cor2_value(self):
        assert cor2_bound(0.1, 3) == pytest.approx(COR2_01_3, abs=1e-13)

    @pytest.mark.parametrize("d", [2, 3, 4, 16])
    @pytest.mark.parametrize("eps", [0.0, 1e-12, 0.05, 0.25, 0.5, 1.0])
    def test_af_shaped_bounds_keep_their_bits(self, eps, d):
        """Each bound of the shape eps c + (1+eps) h(eps/(1+eps)) equals,
        bit for bit, the expression it was written as before the shape
        had one evaluator."""
        def term(e):
            return (1.0 + e) * binary_entropy(e / (1.0 + e))
        log_d = math.log2(d)
        delta = cor1_delta(eps)
        assert af_bound(eps, d) == 2.0 * eps * log_d + term(eps)
        assert af_bound(eps, d, classical_b=True) == 1.0 * eps * log_d + term(eps)
        for kappa in (log_d, 2.0 * log_d, 0.0):
            assert dc_bound(eps, kappa) == eps * kappa + term(eps)
        assert cor1_bounds(eps, d) == (delta * log_d + term(delta),
                                       2.0 * delta * log_d + term(delta))
        assert cor2_bound(eps, d) == eps * log_d + term(eps)
        if eps > 0.0:
            h = HamiltonianSpec.oscillators([1.0], n_max=d)
            meta_d = meta_delta(0.0, eps)
            assert meta6_bound(h, 1.0, 0.0, eps) == (
                (2.0 * eps + 4.0 * meta_d) * gibbs_entropy(h, 1.0 / meta_d)
                + term(eps) + 2.0 * binary_entropy(meta_d))

    def test_monotone_in_epsilon(self):
        grid = np.linspace(1e-3, 1.0, 400)
        for f in (lambda e: fannes_audenaert_bound(e, 4),
                  lambda e: af_bound(e, 3),
                  lambda e: dc_bound(e, 2.5),
                  lambda e: cor2_bound(e, 4)):
            vals = np.array([f(e) for e in grid])
            assert (np.diff(vals) >= -1e-12).all()


class TestCheckers:
    def test_fannes_identical(self):
        rho = sample_state(3, 3, np.random.default_rng(0))
        rep = check_fannes(rho, rho)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.slack >= -1e-9

    def test_fannes_recomputes_epsilon(self):
        rng = np.random.default_rng(1)
        rho = sample_state(4, 4, rng)
        sigma = sample_state(4, 4, rng)
        rep = check_fannes(rho, sigma)
        assert rep.epsilon == pytest.approx(trace_distance(rho, sigma), abs=1e-12)
        assert rep.lhs == pytest.approx(
            abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma)), abs=1e-12)

    def test_af_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = BipartiteState(sample_state(6, 6, rng), (2, 3))
            sigma = BipartiteState(sample_state(6, 6, rng), (2, 3))
            rep = check_af(rho, sigma)
            assert rep.slack >= -1e-9
            assert rep.dim == 2

    def test_af_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        rho = BipartiteState(sample_state(6, 6, rng), (2, 3))
        sigma = BipartiteState(sample_state(6, 6, rng), (3, 2))
        with pytest.raises(ValueError, match="mismatch"):
            check_af(rho, sigma)

    def test_cor_pure_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        phi, psi = sample_pure_bipartite(2, 3, rng), sample_pure_bipartite(3, 2, rng)
        with pytest.raises(ValueError, match="bipartite dimension mismatch"):
            check_cor_pure(phi, psi)

    def test_cor_pure_variants(self):
        rng = np.random.default_rng(4)
        phi = sample_pure_bipartite(3, 3, rng)
        psi = sample_pure_bipartite(3, 3, rng)
        for which, variant in (("ef", "ef_cor1"), ("ec", "ec_cor1"), ("er", "er_cor2")):
            rep = check_cor_pure(phi, psi, which=which)
            assert rep.slack >= -1e-9
            assert rep.variant == variant
        with pytest.raises(ValueError, match="unknown"):
            check_cor_pure(phi, psi, which="xx")

    def test_cor_pure_rejects_mixed_states(self):
        """For a mixed state S(tr_B .) is not E_F: two mixed 9 x 9 states
        used to get an ef_cor1 record (lhs 0.0748 at seed 1)."""
        rng = np.random.default_rng(1)
        rho = BipartiteState(sample_state(9, 9, rng), (3, 3))
        sigma = BipartiteState(sample_state(9, 9, rng), (3, 3))
        pure = sample_pure_bipartite(3, 3, rng)
        for phi, psi in ((rho, sigma), (pure, sigma), (rho, pure)):
            with pytest.raises(ValueError, match="pure states"):
                check_cor_pure(phi, psi)

    def test_cor_pure_chunk_matches_each_pair_alone(self):
        """One chunk of a sampled pair, an identical pair (eps ~ 0) and a pure
        state whose trace the trace rule renormalized: each record of the
        stack, marginals taken from the vectors, is the record of its pair
        alone, marginals taken from the matrices, bit for bit."""
        rng = np.random.default_rng(5)
        a, b, c = (sample_pure_bipartite(3, 3, rng) for _ in range(3))
        long = rank_one_factor(c)[0] * np.sqrt(1.0 + 3e-14)
        renormalized = BipartiteState.factored(long[:, None], [1.0], 0.0, (3, 3))
        assert rank_one_factor(renormalized)[1] != 1.0
        pairs = [(a, b), (c, c), (renormalized, a)]

        def stack(states):
            # each state is the |v><v| of its factor's vector, divided by its trace
            vecs = np.stack([rank_one_factor(s)[0] for s in states])
            ones = np.ones(len(vecs))
            pure = PureStack(vecs, factored_traces(vecs[:, :, None], ones[:, None]), ones)
            assert pure.weights.tolist() == [rank_one_factor(s)[1] for s in states]
            return pure

        reports = check_cor_pure_stack(stack([p for p, _ in pairs]), stack([q for _, q in pairs]),
                                       (3, 3), which="er")
        assert reports == [check_cor_pure(p, q, which="er") for p, q in pairs]
        assert reports[1].epsilon < 1e-15 and reports[1].lhs == 0.0

    def test_cor_pure_reads_no_dense_matrix(self, solver_calls):
        """The scalar check is the stack of one of the vector kernel: at
        d = 16 neither 256 x 256 matrix is built, and the only solvers run on
        the 2 x 2 eigenproblem of eps and the 16 x 16 marginals."""
        rng = np.random.default_rng(7)
        phi, psi = sample_pure_bipartite(16, 16, rng), sample_pure_bipartite(16, 16, rng)
        check_cor_pure(phi, psi)
        assert phi._mat is None and psi._mat is None
        assert solver_calls == [("eigvalsh", (1, 2, 2)), ("eigvalsh", (2, 16, 16))]

    @pytest.mark.parametrize("weight", [1.0 + 3e-14, 1.0 + 4e-15])
    def test_cor_pure_of_a_hand_built_factor_is_the_dense_record(self, weight):
        """A pure state built from a weight that is not 1 / trace, which the
        trace rule renormalizes (1 + 3e-14) or keeps (1 + 4e-15), gets, bit
        for bit, the record of its dense marginals and trace distance."""
        rng = np.random.default_rng(6)
        a, c = sample_pure_bipartite(3, 3, rng), sample_pure_bipartite(3, 3, rng)
        v = rank_one_factor(c)[0]
        phi = BipartiteState(HermitianOperator.factored(v[:, None], [weight]), (3, 3))
        assert (rank_one_factor(phi)[1] == weight) == (weight < 1.0 + 1e-14)
        rep = check_cor_pure(phi, a, which="er")
        assert rep.lhs == abs(von_neumann_entropy(partial_trace(phi, "A"))
                              - von_neumann_entropy(partial_trace(a, "A")))
        assert rep.epsilon == min(trace_distance(phi, a), 1.0)

    def test_dc_lhs_carries_the_gaps(self):
        # both states are members of the set, so D_C = 0 for each and the
        # certified lhs is (up to the solver values, ~1e-11) the two gaps
        rng = np.random.default_rng(9)
        gens = [sample_state(3, 3, rng).mat for _ in range(3)]
        model = ConvexSetModel(generators=gens)
        rho, sigma = (DensityOperator(sum(wi * g for wi, g in zip(w, gens)))
                      for w in ([0.2, 0.5, 0.3], rng.dirichlet(np.ones(3))))
        tol = 1e-6
        rep = check_dc(rho, sigma, model)
        res_rho = dc_minimize(rho, model, tol=tol)
        res_sigma = dc_minimize(sigma, model, tol=tol)
        gaps = res_rho.gap + res_sigma.gap
        assert rep.lhs == abs(res_rho.value - res_sigma.value) + gaps
        assert rep.lhs == pytest.approx(gaps, abs=1e-10)
        assert gaps > 0.0
        assert rep.lhs <= 2 * tol

    def test_dc_rhs_uses_the_certified_upper_end(self):
        rng = np.random.default_rng(4)
        gens = [sample_state(3, 3, rng).mat for _ in range(3)]
        rho, sigma = sample_state(3, 3, rng), sample_state(3, 3, rng)
        rep = check_dc(rho, sigma, ConvexSetModel(generators=gens))
        _, hi, _ = kappa_bracket(ConvexSetModel(generators=gens))
        assert rep.rhs == dc_bound(rep.epsilon, hi)

    def test_dc_empty_bracket_raises(self, monkeypatch):
        # an upper end below the solved witness is a failed certificate
        rng = np.random.default_rng(5)
        model = ConvexSetModel(generators=[sample_state(2, 2, rng).mat for _ in range(3)])
        ascent = dc_optimizer._max_min_eigenvalue
        monkeypatch.setattr(dc_optimizer, "_max_min_eigenvalue",
                            lambda gens, scale: (1e6, ascent(gens, scale)[1]))
        with pytest.raises(ArithmeticError, match="empty kappa bracket"):
            check_dc(sample_state(2, 2, rng), sample_state(2, 2, rng), model)

    def test_report_slack_and_valid(self):
        good = BoundReport(variant="x", dim=2, lhs=1.0, rhs=1.5, epsilon=0.1)
        assert good.slack == pytest.approx(0.5)


class TestConvexSetModel:
    def test_requires_generators(self):
        with pytest.raises(ValueError, match="non-empty"):
            ConvexSetModel(generators=[])

    def test_requires_full_rank_generator(self):
        with pytest.raises(ValueError, match="full-rank"):
            ConvexSetModel(generators=[np.diag([1.0, 0.0])])

    def test_full_rank_is_judged_by_the_support_cut(self):
        # 5e-11 is inside the support (above 1e-12 max(lambda_max, 1)),
        # 5e-13 is a zero eigenvalue
        assert ConvexSetModel(generators=[np.diag([1.0, 5e-11])]).dim == 2
        with pytest.raises(ValueError, match="full-rank"):
            ConvexSetModel(generators=[np.diag([1.0, 5e-13])])

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="PSD"):
            ConvexSetModel(generators=[np.diag([1.0, -0.5])])

    def test_accepts_valid(self):
        model = ConvexSetModel(generators=[np.eye(2) / 2, np.diag([1.0, 0.0])])
        assert model.dim == 2


class TestWitnesses:
    def test_fannes_witness_saturates(self):
        for d in (2, 3, 4, 8, 16):
            for k in range(1, 20):
                eps = k / 20.0
                if eps > 1.0 - 1.0 / d:
                    break
                rho, sigma = tightness_witness_fannes(d, eps)
                rep = check_fannes(rho, sigma)
                assert abs(rep.slack) <= 1e-10
                assert rep.epsilon == pytest.approx(eps, abs=1e-12)

    def test_fannes_witness_domain(self):
        with pytest.raises(ValueError, match="epsilon"):
            tightness_witness_fannes(2, 0.75)

    def test_af_witness_trace_distance_is_eps(self):
        for d in (2, 4, 8):
            for eps in (0.05, 0.1, 0.3):
                rho, sigma = tightness_witness_af(d, eps)
                assert trace_distance(rho, sigma) == pytest.approx(eps, abs=1e-11)

    def test_af_witness_gap_closed_form(self):
        assert af_witness_gap(8, 0.1) == pytest.approx(AF_GAP_8_01, abs=1e-13)
        for d in (2, 4, 8):
            for eps in (0.05, 0.1, 0.3):
                rho, sigma = tightness_witness_af(d, eps)
                gap = abs(conditional_entropy(rho) - conditional_entropy(sigma))
                assert gap == pytest.approx(af_witness_gap(d, eps), abs=1e-9)

    def test_af_witness_nearly_tight(self):
        # the achieved gap sits within 2 h(eps) of the bound (and inside it)
        for d in (4, 8, 16):
            for eps in (0.05, 0.1, 0.2):
                rho, sigma = tightness_witness_af(d, eps)
                rep = check_af(rho, sigma)
                assert 0.0 <= rep.slack <= 2.0 * 1.0  # valid and close
                assert rep.rhs - af_witness_gap(d, eps) == pytest.approx(
                    rep.slack, abs=1e-9)
