import math

import numpy as np
import pytest

from entrobounds.entropies import (
    binary_entropy,
    conditional_entropy,
    gibbs_entropy_g,
    shannon_entropy,
    von_neumann_entropy,
)
from entrobounds.linalg import trace_distance
from entrobounds.states import BipartiteState, DensityOperator
from entrobounds.gibbs import (
    CutoffDecomposition,
    EnergyBoundParams,
    EnergyDomainError,
    HamiltonianSpec,
    cutoff_decompose,
    gibbs_entropy,
    lemma4_bound,
    lemma7_bounds,
    mean_energy,
    meta5_bound,
    meta6_bound,
    oscillator_entropy_upper,
    oscillator_tightness_witness,
    partition_function,
    sample_energy_constrained,
    solve_beta,
    truncated_trace_distance_bound,
    truncation_tail,
)

LN2 = math.log(2.0)
LN3 = math.log(3.0)

# independently computed reference values (40-digit arithmetic)
Z_TWO_MODES = 2.6366151562475281     # modes (1, 2) at beta = 0.7
LEMMA4_E1_02 = 2.2819819068434125    # E=1, eps=0.2
META5_E1_0_02 = 3.5808622232430721   # E=1, eps=0, eps'=0.2
META6_E1_0_02 = 6.4978951626894446   # E=1, eps=0, eps'=0.2
LEMMA7_ENT = 5.2206636698200054      # 1 mode, E=1, eps=0.1, alpha=0.25
LEMMA7_COND = 10.441327339640011
OSC_UPPER_2M = 5.0146730987228933    # 2 modes (1, 2), E=3


class TestHamiltonianSpec:
    def test_explicit_requires_zero_ground(self):
        with pytest.raises(ValueError, match="exactly 0"):
            HamiltonianSpec.explicit([1.0, 2.0])

    def test_explicit_requires_ascending(self):
        with pytest.raises(ValueError, match="ascending"):
            HamiltonianSpec.explicit([0.0, 2.0, 1.0])

    def test_oscillator_product_levels(self):
        h = HamiltonianSpec.oscillators([1.0, 2.0], n_max=1)
        np.testing.assert_allclose(sorted(h.levels), [0.0, 1.0, 2.0, 3.0])
        assert h.dim == 4
        assert h.n_modes == 2

    def test_max_mean_energy(self):
        assert HamiltonianSpec.explicit([0.0, 1.0]).max_mean_energy() == 0.5
        assert HamiltonianSpec.oscillators([1.0]).max_mean_energy() == math.inf


class TestPartitionFunction:
    def test_single_mode_at_ln2(self):
        h = HamiltonianSpec.oscillators([1.0])
        assert partition_function(h, LN2) == pytest.approx(2.0, abs=1e-12)

    def test_trivial_level(self):
        assert partition_function(HamiltonianSpec.explicit([0.0]), 1.0) == 1.0

    def test_two_modes(self):
        h = HamiltonianSpec.oscillators([1.0, 2.0])
        assert partition_function(h, 0.7) == pytest.approx(Z_TWO_MODES, abs=1e-12)

    def test_geometric_product_matches_truncated_sum(self):
        h = HamiltonianSpec.oscillators([1.0, 2.0], n_max=300)
        beta = 0.7
        direct = np.exp(-beta * h.levels).sum()
        assert partition_function(h, beta) == pytest.approx(direct, rel=1e-12)

    def test_beta_domain(self):
        with pytest.raises(EnergyDomainError, match="beta"):
            partition_function(HamiltonianSpec.oscillators([1.0]), 0.0)

    def test_truncation_tail_decreases_with_cutoff(self):
        t_small = truncation_tail(HamiltonianSpec.oscillators([1.0], n_max=5), 0.5)
        t_large = truncation_tail(HamiltonianSpec.oscillators([1.0], n_max=50), 0.5)
        assert 0 < t_large < t_small < 1


class TestSolveBeta:
    def test_single_mode_e1(self):
        h = HamiltonianSpec.oscillators([1.0])
        sol = solve_beta(h, 1.0)
        assert sol.beta == pytest.approx(LN2, abs=1e-10)
        assert sol.partition == pytest.approx(2.0, abs=1e-9)
        assert sol.entropy == pytest.approx(2.0, abs=1e-10)

    def test_two_level_quarter(self):
        h = HamiltonianSpec.explicit([0.0, 1.0])
        sol = solve_beta(h, 0.25)
        assert sol.beta == pytest.approx(LN3, abs=1e-10)
        assert sol.entropy == pytest.approx(binary_entropy(0.25), abs=1e-10)

    def test_two_identical_modes(self):
        h = HamiltonianSpec.oscillators([1.0, 1.0])
        sol = solve_beta(h, 2.0)
        assert sol.beta == pytest.approx(LN2, abs=1e-10)
        assert sol.entropy == pytest.approx(4.0, abs=1e-9)

    def test_energy_domain(self):
        h = HamiltonianSpec.explicit([0.0, 1.0])
        with pytest.raises(EnergyDomainError, match="attainable|interval"):
            solve_beta(h, 0.6)  # above the beta -> 0 limit of 0.5
        with pytest.raises(EnergyDomainError, match="attainable|interval"):
            solve_beta(h, 0.0)

    def test_mean_energy_roundtrip(self):
        h = HamiltonianSpec.oscillators([1.0, 2.0])
        for e in (0.3, 1.0, 5.0):
            sol = solve_beta(h, e)
            assert mean_energy(h, sol.beta) == pytest.approx(e, rel=1e-9)

    def test_entropy_formula_matches_direct_sum(self):
        h = HamiltonianSpec.oscillators([1.0], n_max=256)
        for e in (0.25, 1.0, 3.0):
            sol = solve_beta(h, e)
            direct = shannon_entropy(sol.diagonal_probabilities())
            assert sol.entropy == pytest.approx(direct, abs=1e-9)

    def test_single_mode_entropy_is_g(self):
        # at hbar omega = 1 the mean occupation equals the energy
        h = HamiltonianSpec.oscillators([1.0])
        for e in (0.5, 1.0, 4.0):
            assert gibbs_entropy(h, e) == pytest.approx(gibbs_entropy_g(e), abs=1e-9)


class TestGibbsMaximality:
    def test_gibbs_maximizes_entropy_at_fixed_energy(self):
        h = HamiltonianSpec.explicit([0.0, 1.0, 2.0])
        e = 0.8
        s_gibbs = gibbs_entropy(h, e)
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.dirichlet(np.ones(3))
            if (h.levels * p).sum() <= e:
                assert shannon_entropy(p) <= s_gibbs + 1e-9

    def test_monotone_and_concave_in_energy(self):
        h = HamiltonianSpec.oscillators([1.0, 2.0])
        grid = np.linspace(0.05, 10.0, 200)
        vals = np.array([gibbs_entropy(h, e) for e in grid])
        assert (np.diff(vals) > 0).all()
        assert (np.diff(vals, 2) < 1e-8).all()

    def test_oscillator_upper_bound(self):
        assert oscillator_entropy_upper(2, [1.0, 2.0], 3.0) == pytest.approx(
            OSC_UPPER_2M, abs=1e-12)
        h = HamiltonianSpec.oscillators([1.0, 2.0])
        for e in (0.5, 1.0, 3.0, 20.0):
            assert gibbs_entropy(h, e) <= oscillator_entropy_upper(2, [1.0, 2.0], e) + 1e-9

    def test_vanishing_energy_weighting(self):
        # delta S(gamma(E/delta)) -> 0 as delta -> 0 (log growth only)
        h = HamiltonianSpec.oscillators([1.0])
        delta = 2.0 ** -20
        assert delta * gibbs_entropy(h, 1.0 / delta) < 0.05


class TestEnergyBounds:
    def test_params_delta(self):
        p = EnergyBoundParams(energy=1.0, epsilon=0.0, epsilon_prime=0.2)
        assert p.delta == pytest.approx(0.2 / 1.2, abs=1e-14)
        with pytest.raises(ValueError, match="eps"):
            EnergyBoundParams(energy=1.0, epsilon=0.3, epsilon_prime=0.2)

    def test_lemma4_values(self):
        h = HamiltonianSpec.oscillators([1.0])
        assert lemma4_bound(h, 1.0, 0.2) == pytest.approx(LEMMA4_E1_02, abs=1e-9)
        assert lemma4_bound(h, 1.0, 0.0) == 0.0

    def test_meta5_meta6_values(self):
        h = HamiltonianSpec.oscillators([1.0])
        assert meta5_bound(h, 1.0, 0.0, 0.2) == pytest.approx(META5_E1_0_02, abs=1e-9)
        assert meta6_bound(h, 1.0, 0.0, 0.2) == pytest.approx(META6_E1_0_02, abs=1e-9)

    def test_meta5_dominates_entropy_difference(self):
        h = HamiltonianSpec.oscillators([1.0], n_max=30)
        rng = np.random.default_rng(1)
        e = 2.0
        for _ in range(25):
            rho = sample_energy_constrained(h, e, rng=rng)
            sigma = sample_energy_constrained(h, e, rng=rng)
            eps = trace_distance(rho, sigma)
            lhs = abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma))
            for ep in (min(1.0, eps + 0.05), min(1.0, eps + 0.3)):
                assert lhs <= meta5_bound(h, e, eps, ep) + 1e-9
            assert lhs <= lemma4_bound(h, e, max(eps, 1e-12)) + 1e-9

    def test_lemma7_values_and_dominance(self):
        ent, cond = lemma7_bounds(1, [1.0], 1.0, 0.1, 0.25)
        assert ent == pytest.approx(LEMMA7_ENT, abs=1e-12)
        assert cond == pytest.approx(LEMMA7_COND, abs=1e-12)
        with pytest.raises(ValueError, match="alpha"):
            lemma7_bounds(1, [1.0], 1.0, 0.1, 0.8)

    def test_lemma7_conditional_is_twice_entropy(self):
        for e in (0.5, 1.0, 4.0):
            for eps in (0.01, 0.1, 0.3):
                for alpha in (0.05, 0.25, 0.5):
                    ent, cond = lemma7_bounds(2, [1.0, 2.0], e, eps, alpha)
                    # identical structure with doubled leading terms
                    assert cond >= ent
                    assert cond <= 2.0 * ent + 1e-12

    def test_lemma7_monotone_in_epsilon(self):
        grid = np.linspace(0.0, 0.6, 100)
        vals = np.array([lemma7_bounds(1, [1.0], 1.0, e, 0.25)[0] for e in grid])
        assert (np.diff(vals) >= -1e-12).all()


class TestCutoff:
    def test_gibbs_state_tail_below_delta(self):
        h = HamiltonianSpec.oscillators([1.0], n_max=200)
        e, delta = 1.0, 0.25
        gamma = solve_beta(h, e).state()
        dec = cutoff_decompose(gamma, h, e, delta)
        assert dec.cutoff == pytest.approx(e / delta)
        assert 0.0 < dec.weight_gt <= delta + 1e-12

    def test_markov_weight_bound_on_spread_states(self):
        h = HamiltonianSpec.oscillators([1.0], n_max=60)
        e, delta = 1.0, 0.2
        gamma = solve_beta(h, e).state()
        rng = np.random.default_rng(2)
        for _ in range(10):
            low = sample_energy_constrained(h, e / 2, rng=rng)
            t = rng.uniform(0.1, 0.9)
            mixed = DensityOperator(
                (1 - t) * low.mat + t * solve_beta(h, e / 2).state().mat)
            dec = cutoff_decompose(mixed, h, e, delta)
            assert dec.weight_gt <= delta + 1e-10
            if dec.state_gt is not None:
                # above-cutoff weight times above-cutoff energy is within E
                e_gt = float(np.real(
                    (h.levels * np.diag(dec.state_gt.mat)).sum()))
                assert dec.weight_gt * e_gt <= e + 1e-9

    def test_fully_supported_below_cutoff(self):
        h = HamiltonianSpec.oscillators([1.0], n_max=20)
        rho = sample_energy_constrained(h, 1.0, rng=np.random.default_rng(3))
        dec = cutoff_decompose(rho, h, 1.0, 0.25)
        assert dec.weight_gt == 0.0
        assert dec.state_gt is None
        np.testing.assert_allclose(dec.state_le.mat, rho.mat, atol=1e-12)

    def test_energy_constraint_enforced(self):
        h = HamiltonianSpec.explicit([0.0, 1.0, 2.0])
        hot = DensityOperator.diagonal([0.0, 0.0, 1.0])
        with pytest.raises(EnergyDomainError, match="exceeds"):
            cutoff_decompose(hot, h, 1.0, 0.5)

    def test_bipartite_cutoff_keeps_structure(self):
        h = HamiltonianSpec.oscillators([1.0], n_max=10)
        state = sample_energy_constrained(h, 2.0, d_b=2, rng=np.random.default_rng(4))
        dec = cutoff_decompose(state, h, 2.0, 0.5)
        assert isinstance(dec, CutoffDecomposition)
        assert isinstance(dec.state_le, BipartiteState)
        assert dec.state_le.dims == (11, 2)

    def test_truncated_trace_distance_bound(self):
        assert truncated_trace_distance_bound(0.1, 0.2) == pytest.approx(0.375)

    def test_truncated_states_within_bound(self):
        h = HamiltonianSpec.oscillators([1.0], n_max=60)
        e, delta = 1.0, 0.2
        rng = np.random.default_rng(5)
        gamma_half = solve_beta(h, e / 2).state()
        for _ in range(10):
            states = []
            for _k in range(2):
                low = sample_energy_constrained(h, e / 2, rng=rng)
                t = rng.uniform(0.0, 0.9)
                states.append(DensityOperator(
                    (1 - t) * low.mat + t * gamma_half.mat))
            rho, sigma = states
            eps = trace_distance(rho, sigma)
            dr = cutoff_decompose(rho, h, e, delta)
            ds = cutoff_decompose(sigma, h, e, delta)
            td = trace_distance(dr.state_le, ds.state_le)
            assert td <= truncated_trace_distance_bound(eps, delta) + 1e-9


class TestSampler:
    def test_support_respects_energy(self):
        h = HamiltonianSpec.oscillators([1.0], n_max=20)
        rng = np.random.default_rng(6)
        for e in (0.5, 3.2, 10.0):
            rho = sample_energy_constrained(h, e, rng=rng)
            diag = np.real(np.diag(rho.mat))
            assert diag[h.levels > e].max(initial=0.0) < 1e-14
            assert (h.levels * diag).sum() <= e + 1e-9

    def test_tiny_energy_gives_ground_state(self):
        h = HamiltonianSpec.oscillators([1.0], n_max=5)
        rho = sample_energy_constrained(h, 0.5, rng=np.random.default_rng(7))
        assert np.real(rho.mat[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_no_levels_error(self):
        h = HamiltonianSpec.explicit([0.0, 1.0])
        with pytest.raises(EnergyDomainError, match="no levels"):
            sample_energy_constrained(h, -1.0, rng=0)

    def test_bipartite_extension(self):
        h = HamiltonianSpec.oscillators([1.0], n_max=8)
        state = sample_energy_constrained(h, 3.0, d_b=3, rng=np.random.default_rng(8))
        assert state.dims == (9, 3)
        # A-marginal energy within the constraint
        diag = np.real(np.diag(state.mat)).reshape(9, 3).sum(axis=1)
        assert (h.levels * diag).sum() <= 3.0 + 1e-9


class TestWitnesses:
    def test_entropy_witness_full_mixing(self):
        # eps = 1: the gap is exactly S(gamma(E))
        p, q = oscillator_tightness_witness(2.0, 1.0)
        gap = abs(shannon_entropy(p) - shannon_entropy(q))
        assert gap == pytest.approx(gibbs_entropy_g(2.0), abs=1e-8)

    def test_entropy_witness_within_lemma4(self):
        for e in (1.0, 10.0):
            for eps in (0.1, 0.5):
                p, q = oscillator_tightness_witness(e, eps)
                gap = abs(shannon_entropy(p) - shannon_entropy(q))
                h = HamiltonianSpec.oscillators([1.0], n_max=len(p) - 1)
                assert gap <= lemma4_bound(h, e, eps) + 1e-9
                assert 0.5 * np.abs(p - q).sum() <= eps + 1e-10

    def test_conditional_witness_within_meta6(self):
        e, eps = 1.0, 0.2
        rho, sigma = oscillator_tightness_witness(e, eps, conditional=True, n_max=30)
        gap = abs(conditional_entropy(rho) - conditional_entropy(sigma))
        h = HamiltonianSpec.oscillators([1.0])
        eps_actual = trace_distance(rho, sigma)
        ep = min(1.0, eps_actual + 0.05)
        assert gap <= meta6_bound(h, e, eps_actual, ep) + 1e-9
        # the purification makes the gap large (order of 2 eps S(gamma))
        assert gap >= eps_actual * gibbs_entropy_g(e)

    def test_witness_domain(self):
        with pytest.raises(ValueError, match="epsilon"):
            oscillator_tightness_witness(1.0, 0.0)
