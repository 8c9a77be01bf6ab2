import math

import numpy as np
import pytest

from entrobounds.bounds import (
    BoundParams,
    BoundReport,
    ConvexSetModel,
    af_bound,
    af_witness_gap,
    check_af,
    check_cor_pure,
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
from entrobounds.dc_optimizer import dc_minimize
from entrobounds.entropies import conditional_entropy, von_neumann_entropy
from entrobounds.linalg import trace_distance
from entrobounds.states import BipartiteState, DensityOperator, sample_pure_bipartite, sample_state

# independently computed reference values (40-digit arithmetic)
FANNES_01_4 = 0.62749184366139684
FANNES_SIMPL_01_4 = 0.66899559358928122
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
        assert fannes_audenaert_bound(0.1, 4, simplified=True) == pytest.approx(
            FANNES_SIMPL_01_4, abs=1e-13)

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

    def test_af_values(self):
        assert af_bound(0.1, 2) == pytest.approx(AF_01_2, abs=1e-13)
        assert af_bound(0.1, 2, classical_b=True) == pytest.approx(AF_CQ_01_2, abs=1e-13)
        assert af_bound(1.0, 2) == pytest.approx(4.0, abs=1e-13)
        assert af_bound(0.0, 7) == 0.0

    def test_dc_value(self):
        assert dc_bound(0.2, 3.0) == pytest.approx(DC_02_K3, abs=1e-13)
        with pytest.raises(ValueError, match="kappa"):
            dc_bound(0.1, -1.0)

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
        assert rep.valid

    def test_fannes_recomputes_epsilon(self):
        rng = np.random.default_rng(1)
        rho = sample_state(4, 4, rng)
        sigma = sample_state(4, 4, rng)
        rep = check_fannes(rho, sigma)
        assert rep.params.epsilon == pytest.approx(trace_distance(rho, sigma), abs=1e-12)
        assert rep.lhs == pytest.approx(
            abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma)), abs=1e-12)

    def test_af_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = BipartiteState(sample_state(6, 6, rng), (2, 3))
            sigma = BipartiteState(sample_state(6, 6, rng), (2, 3))
            rep = check_af(rho, sigma)
            assert rep.valid
            assert rep.params.dim_d == 2

    def test_af_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        rho = BipartiteState(sample_state(6, 6, rng), (2, 3))
        sigma = BipartiteState(sample_state(6, 6, rng), (3, 2))
        with pytest.raises(ValueError, match="mismatch"):
            check_af(rho, sigma)

    def test_cor_pure_variants(self):
        rng = np.random.default_rng(4)
        phi = sample_pure_bipartite(3, 3, rng)
        psi = sample_pure_bipartite(3, 3, rng)
        for which, variant in (("ef", "ef_cor1"), ("ec", "ec_cor1"), ("er", "er_cor2")):
            rep = check_cor_pure(phi, psi, which=which)
            assert rep.valid
            assert rep.params.variant == variant
        with pytest.raises(ValueError, match="unknown"):
            check_cor_pure(phi, psi, which="xx")

    def test_dc_lhs_carries_the_gaps(self):
        # both states are members of the set, so D_C = 0 for each and the
        # certified lhs is (up to the solver values, ~1e-11) the two gaps
        rng = np.random.default_rng(9)
        gens = [sample_state(3, 3, rng).mat for _ in range(3)]
        model = ConvexSetModel(generators=gens, kappa=1.0)
        rho, sigma = (DensityOperator(sum(wi * g for wi, g in zip(w, gens)))
                      for w in ([0.2, 0.5, 0.3], rng.dirichlet(np.ones(3))))
        tol = 1e-6
        rep = check_dc(rho, sigma, model, tol=tol)
        res_rho = dc_minimize(rho, model, tol=tol)
        res_sigma = dc_minimize(sigma, model, tol=tol)
        gaps = res_rho.gap + res_sigma.gap
        assert rep.lhs == abs(res_rho.value - res_sigma.value) + gaps
        assert rep.lhs == pytest.approx(gaps, abs=1e-10)
        assert gaps > 0.0
        assert rep.lhs <= 2 * tol

    def test_report_slack_and_valid(self):
        params = BoundParams(epsilon=0.1, dim_d=2, variant="x")
        good = BoundReport(lhs=1.0, rhs=1.5, params=params)
        assert good.slack == pytest.approx(0.5)
        assert good.valid
        bad = BoundReport(lhs=1.5, rhs=1.0, params=params)
        assert not bad.valid


class TestConvexSetModel:
    def test_requires_generators(self):
        with pytest.raises(ValueError, match="non-empty"):
            ConvexSetModel(generators=[])

    def test_requires_full_rank_generator(self):
        with pytest.raises(ValueError, match="full-rank"):
            ConvexSetModel(generators=[np.diag([1.0, 0.0])])

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
                assert rep.params.epsilon == pytest.approx(eps, abs=1e-12)

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
