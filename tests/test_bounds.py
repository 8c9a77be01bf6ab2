import math

import numpy as np
import pytest

from entrobounds.bounds import (
    BoundReport,
    ConvexSetModel,
    af_bound,
    af_bound_stack,
    af_witness_gap,
    check_af,
    check_cor_pure,
    check_cor_pure_stack,
    check_dc,
    check_fannes,
    cor1_bounds,
    cor1_bounds_stack,
    cor1_delta,
    cor2_bound,
    cor2_bound_stack,
    dc_bound,
    dc_bound_stack,
    fannes_audenaert_bound,
    fannes_audenaert_bound_stack,
    tightness_witness_af,
    tightness_witness_fannes,
)
from entrobounds import dc_optimizer
from entrobounds.dc_optimizer import dc_minimize, kappa_bracket
from entrobounds.entropies import (binary_entropies, binary_entropy, conditional_entropy,
                                   von_neumann_entropy)
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
        if eps > 0.0:  # Meta 6 at eps' = eps, several E and eps
            h = HamiltonianSpec.oscillators([1.0], n_max=d)
            for energy in (1e-3, 1.0, 8.0, 1e4):
                for low in (0.0, eps / 3.0, eps / 2.0):
                    meta_d = meta_delta(low, eps)
                    assert meta6_bound(h, energy, low, eps) == (
                        (2.0 * eps + 4.0 * meta_d) * gibbs_entropy(h, energy / meta_d)
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

        block = check_cor_pure_stack(stack([p for p, _ in pairs]), stack([q for _, q in pairs]),
                                     (3, 3), which="er")
        reports = [block.report(row) for row in range(len(block.case))]
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


# -- reference formulas --------------------------------------------------------
#
# The scalar formulas as they were before each became the stack of one of an
# array kernel, kept verbatim (renamed) as the references the kernels must
# match bit for bit.


def ref_h_terms(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def ref_binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x) on [0, 1]."""
    if not -1e-12 <= x <= 1 + 1e-12:
        raise ValueError(f"binary entropy argument {x!r} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    return ref_h_terms([x, 1.0 - x])


def ref_unit_interval(epsilon: float) -> None:
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon {epsilon!r} outside [0, 1]")


def ref_dimension(d: int) -> None:
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")


def ref_af_form(epsilon: float, coefficient: float) -> float:
    """eps c + (1+eps) h(eps/(1+eps)), the shape of every Alicki-Fannes-type bound."""
    return epsilon * coefficient + (1.0 + epsilon) * ref_binary_entropy(epsilon / (1.0 + epsilon))


def ref_fannes_audenaert_bound(epsilon: float, d: int) -> float:
    ref_unit_interval(epsilon)
    ref_dimension(d)
    if epsilon > 1.0 - 1.0 / d:
        return math.log2(d)
    return epsilon * math.log2(d - 1) + ref_binary_entropy(epsilon)


def ref_af_bound(epsilon: float, d_a: int, classical_b: bool = False) -> float:
    ref_unit_interval(epsilon)
    ref_dimension(d_a)
    coeff = 1.0 if classical_b else 2.0
    return ref_af_form(epsilon, coeff * math.log2(d_a))


def ref_dc_bound(epsilon: float, kappa: float) -> float:
    """eps kappa + (1+eps) h(eps/(1+eps)); 0 at eps = 0, also where the
    certified kappa is +inf."""
    if not kappa >= 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa!r}")
    ref_unit_interval(epsilon)
    return ref_af_form(epsilon, kappa) if epsilon else 0.0


def ref_cor1_delta(epsilon: float) -> float:
    return math.sqrt(epsilon * (2.0 - epsilon))


def ref_cor1_bounds(epsilon: float, d: int):
    """(E_F rhs, E_C rhs) at delta = sqrt(eps(2-eps)); d is the smaller of
    the two local dimensions."""
    ref_unit_interval(epsilon)
    ref_dimension(d)
    delta = ref_cor1_delta(epsilon)
    return ref_af_form(delta, math.log2(d)), ref_af_form(delta, 2.0 * math.log2(d))


def ref_cor2_bound(epsilon: float, d: int) -> float:
    """E_R (and regularized E_R) continuity bound."""
    ref_unit_interval(epsilon)
    ref_dimension(d)
    return ref_af_form(epsilon, math.log2(d))


def _bits(values) -> bytes:
    """The bytes of ``values`` as float64, sign of zero included."""
    return np.asarray(values, dtype=float).tobytes()


def _epsilon_grid(d: int) -> list:
    """Trace distances as a check meets them, each to be clipped by ``min(e,
    1)``: 0, 1e-300, the Fannes branch point 1 - 1/d and its neighbours,
    1, values above 1, and 10^4 seeded values in [0, 1] (a quarter of them
    log-uniform down to 1e-300)."""
    rng = np.random.default_rng(1507 + d)
    branch = 1.0 - 1.0 / d
    fixed = [0.0, -0.0, 1e-300, 5e-324, 1e-16, branch, math.nextafter(branch, 0.0),
             math.nextafter(branch, 2.0), 0.5, math.nextafter(1.0, 0.0), 1.0,
             math.nextafter(1.0, 2.0), 1.0 + 1e-12, 1.5, 2.0]
    return (fixed + rng.uniform(0.0, 1.0, 7500).tolist()
            + (10.0 ** rng.uniform(-300.0, 0.0, 2500)).tolist())


class TestBoundKernels:
    """Each bound formula is one array kernel over a stack of ``min(eps, 1)``
    whose every element has the bits of the scalar formula it replaced,
    and whose first bad argument in stack order raises that formula's
    error."""

    DIMS = (2, 3, 4, 7, 16, 1000)

    @staticmethod
    def clipped(grid):
        return np.minimum(np.array(grid), 1.0), [min(e, 1.0) for e in grid]

    @pytest.mark.parametrize("d", DIMS)
    def test_fannes_audenaert(self, d):
        eps, scalars = self.clipped(_epsilon_grid(d))
        assert 1.0 - 1.0 / d in scalars
        expected = [ref_fannes_audenaert_bound(e, d) for e in scalars]
        assert _bits(fannes_audenaert_bound_stack(eps, d)) == _bits(expected)
        assert _bits([fannes_audenaert_bound(e, d) for e in scalars[:200]]) == _bits(expected[:200])

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("classical_b", [False, True])
    def test_af(self, d, classical_b):
        eps, scalars = self.clipped(_epsilon_grid(d))
        expected = [ref_af_bound(e, d, classical_b) for e in scalars]
        assert _bits(af_bound_stack(eps, d, classical_b)) == _bits(expected)
        assert _bits([af_bound(e, d, classical_b=classical_b) for e in scalars[:200]]) == _bits(
            expected[:200])

    @pytest.mark.parametrize("d", DIMS)
    def test_cor1_and_cor2(self, d):
        eps, scalars = self.clipped(_epsilon_grid(d))
        ef, ec = zip(*(ref_cor1_bounds(e, d) for e in scalars))
        got_ef, got_ec = cor1_bounds_stack(eps, d)
        assert (_bits(got_ef), _bits(got_ec)) == (_bits(ef), _bits(ec))
        assert _bits([cor1_bounds(e, d) for e in scalars[:200]]) == _bits(
            list(zip(ef[:200], ec[:200])))
        expected = [ref_cor2_bound(e, d) for e in scalars]
        assert _bits(cor2_bound_stack(eps, d)) == _bits(expected)
        assert _bits([cor2_bound(e, d) for e in scalars[:200]]) == _bits(expected[:200])

    @pytest.mark.parametrize("kappa", [0.0, 0.7, 3.5, math.log2(3), math.inf])
    def test_dc(self, kappa):
        eps, scalars = self.clipped(_epsilon_grid(3))
        expected = [ref_dc_bound(e, kappa) for e in scalars]
        assert _bits(dc_bound_stack(eps, kappa)) == _bits(expected)
        assert _bits([dc_bound(e, kappa) for e in scalars[:200]]) == _bits(expected[:200])

    def test_binary_entropies(self):
        x = np.array([v for v in _epsilon_grid(5) if v <= 1.0 + 1e-12]
                     + [-1e-12, -1e-13, -0.0, 1.0 + 1e-13])
        expected = [ref_binary_entropy(v) for v in x.tolist()]
        assert _bits(binary_entropies(x)) == _bits(expected)
        assert _bits([binary_entropy(v) for v in x[:200].tolist()]) == _bits(expected[:200])

    @staticmethod
    def first_error(ref, args):
        """The message of the first ``ref(*a)`` of ``args`` that raises."""
        for a in args:
            try:
                ref(*a)
            except ValueError as exc:
                return str(exc)
        raise AssertionError("no argument raises")

    @pytest.mark.parametrize("grid", [[0.1, 1.5, -0.2, math.nan], [0.3, math.nan, 2.0],
                                      [-0.0, 1.0, -1e-300, 1.5], [math.inf, 0.2]])
    def test_the_first_bad_epsilon_raises_the_scalar_error(self, grid):
        cases = [(fannes_audenaert_bound_stack, ref_fannes_audenaert_bound, (3,)),
                 (af_bound_stack, ref_af_bound, (2, True)),
                 (lambda e, d: cor1_bounds_stack(e, d)[0], ref_cor1_bounds, (4,)),
                 (cor2_bound_stack, ref_cor2_bound, (4,)),
                 (dc_bound_stack, ref_dc_bound, (0.5,))]
        for kernel, ref, args in cases:
            message = self.first_error(ref, [(e, *args) for e in grid])
            with pytest.raises(ValueError) as info:
                kernel(grid, *args)
            assert str(info.value) == message

    def test_the_first_bad_binary_argument_raises_the_scalar_error(self):
        grid = [0.5, -1e-12, 1.0 + 2e-12, -0.5, math.nan]
        message = self.first_error(ref_binary_entropy, [(x,) for x in grid])
        assert message == "binary entropy argument 1.000000000002 outside [0, 1]"
        with pytest.raises(ValueError) as info:
            binary_entropies(grid)
        assert str(info.value) == message
        with pytest.raises(ValueError, match="argument nan outside"):
            binary_entropies([0.5, math.nan])

    def test_the_scalar_rules_of_the_other_arguments_keep_their_order(self):
        with pytest.raises(ValueError, match="epsilon 1.5 outside"):
            fannes_audenaert_bound_stack([0.5, 1.5], 1)
        with pytest.raises(ValueError, match="dimension must be >= 2, got 1"):
            af_bound_stack([0.5, 0.25], 1)
        with pytest.raises(ValueError, match="kappa must be nonnegative, got -1.0"):
            dc_bound_stack([1.5], -1.0)
        assert cor2_bound_stack([], 3).shape == (0,)
