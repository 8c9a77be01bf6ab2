import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from entrobounds import gibbs
from entrobounds.entropies import (
    binary_entropy,
    conditional_entropy,
    gibbs_entropy_g,
    shannon_entropy,
    von_neumann_entropy,
)
from entrobounds.harness import _case_energy_bounds
from entrobounds.linalg import HermitianOperator, trace_distance
from entrobounds.states import BipartiteState, DensityOperator, partial_trace, sample_state
from entrobounds.gibbs import (
    CutoffDecomposition,
    EnergyDomainError,
    HamiltonianSpec,
    cutoff_decompose,
    entropy_check,
    gibbs_entropy,
    lemma4_bound,
    lemma7_bounds,
    log2_partition_function,
    mean_energy,
    meta5_bound,
    meta6_bound,
    meta_delta,
    oscillator_entropy_upper,
    oscillator_tightness_witness,
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

    @pytest.mark.parametrize("levels", [[0.0, math.nan], [0.0, math.inf], [math.nan, 1.0]])
    def test_explicit_requires_finite_levels(self, levels):
        with pytest.raises(ValueError, match="finite"):
            HamiltonianSpec.explicit(levels)

    @pytest.mark.parametrize("levels, named", [([0.0, 1e-320, 1e-320], "1e-320"),
                                               ([0.0, 5e-324, 1.0], "5e-324")])
    def test_explicit_rejects_a_subnormal_level(self, levels, named):
        with pytest.raises(ValueError, match=f"level {named} is positive but below"):
            HamiltonianSpec.explicit(levels)

    def test_explicit_takes_the_smallest_normal_level(self):
        tiny = float(np.finfo(float).tiny)
        assert HamiltonianSpec.explicit([0.0, 0.0, tiny, 1e300]).levels[2] == tiny

    @pytest.mark.parametrize("modes", [[math.nan], [math.inf], [1.0, math.nan], [0.0], [-1.0]])
    def test_oscillator_requires_positive_finite_modes(self, modes):
        with pytest.raises(ValueError, match="positive and finite"):
            HamiltonianSpec.oscillators(modes, n_max=2)

    def test_oscillator_product_levels(self):
        h = HamiltonianSpec.oscillators([1.0, 2.0], n_max=1)
        np.testing.assert_allclose(sorted(h.levels), [0.0, 1.0, 2.0, 3.0])
        assert h.dim == 4
        assert h.n_modes == 2

    def test_product_levels_above_the_dense_limit_raise_before_allocating(self):
        h = HamiltonianSpec.oscillators([1.0] * 4, n_max=512)
        assert h.dim == 513 ** 4
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dense limit"):
                h.levels
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("kwargs", [
        {}, {"levels": [0.0, 1.0], "hbar_omegas": [1.0], "n_max": 2}, {"hbar_omegas": [1.0]}])
    def test_constructor_takes_levels_or_modes_with_a_cutoff(self, kwargs):
        with pytest.raises(ValueError, match="levels or hbar_omegas|n_max"):
            HamiltonianSpec(**kwargs)

    def test_max_mean_energy(self):
        assert HamiltonianSpec.explicit([0.0, 1.0]).max_mean_energy() == 0.5
        assert HamiltonianSpec.oscillators([1.0]).max_mean_energy() == math.inf


class TestPartitionFunction:
    def test_single_mode_at_ln2(self):
        h = HamiltonianSpec.oscillators([1.0])
        assert 2.0 ** log2_partition_function(h, LN2) == pytest.approx(2.0, abs=1e-12)

    def test_trivial_level(self):
        assert log2_partition_function(HamiltonianSpec.explicit([0.0]), 1.0) == 0.0

    def test_two_modes(self):
        h = HamiltonianSpec.oscillators([1.0, 2.0])
        assert 2.0 ** log2_partition_function(h, 0.7) == pytest.approx(Z_TWO_MODES, abs=1e-12)

    def test_geometric_product_matches_truncated_sum(self):
        h = HamiltonianSpec.oscillators([1.0, 2.0], n_max=300)
        beta = 0.7
        direct = np.exp(-beta * h.levels).sum()
        assert 2.0 ** log2_partition_function(h, beta) == pytest.approx(direct, rel=1e-12)

    def test_beta_domain(self):
        with pytest.raises(EnergyDomainError, match="beta"):
            log2_partition_function(HamiltonianSpec.oscillators([1.0]), 0.0)

    def test_truncation_tail_decreases_with_cutoff(self):
        t_small = truncation_tail(HamiltonianSpec.oscillators([1.0], n_max=5), 0.5)
        t_large = truncation_tail(HamiltonianSpec.oscillators([1.0], n_max=50), 0.5)
        assert 0 < t_large < t_small < 1

    def test_truncation_tail_keeps_its_digits(self):
        """1 - (1 - q^41) rounds to 0 where the tail q^41 is 6.2e-55."""
        h = HamiltonianSpec.oscillators([1.0], n_max=40)
        beta = solve_beta(h, 0.05).beta
        tail = np.exp(-beta) ** 41
        assert tail == pytest.approx(6.2e-55, rel=1e-2)
        assert truncation_tail(h, beta) == pytest.approx(tail, rel=1e-15)

    def test_log2_partition_function_is_finite_where_z_overflows(self):
        h = HamiltonianSpec.oscillators([1.0, 2.0])
        beta = 2e-200  # Z = 1/(beta^2 * 2), about 2^1325
        expected = -math.log2(beta) - math.log2(2.0 * beta)
        assert log2_partition_function(h, beta) == pytest.approx(expected, rel=1e-15)


class TestSolveBeta:
    def test_single_mode_e1(self):
        h = HamiltonianSpec.oscillators([1.0])
        sol = solve_beta(h, 1.0)
        assert sol.beta == pytest.approx(LN2, abs=1e-10)
        assert 2.0 ** sol.log2_partition == pytest.approx(2.0, abs=1e-9)
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
        modes = HamiltonianSpec.oscillators([1.0, 2.0])
        levels = HamiltonianSpec.explicit([0.0, 1.0, 3.0])  # e_max = 4/3
        for h, e in [*[(modes, e) for e in (-1.0, math.nan, math.inf)],
                     *[(levels, e) for e in (-1.0, math.nan, math.inf, 4.0 / 3.0, 2.0)]]:
            with pytest.raises(EnergyDomainError, match="outside the attainable open interval"):
                solve_beta(h, e)

    @staticmethod
    def _unscaled(levels, beta, energy):
        """The explicit-level (U, beta dU/dbeta) and start beta, summed over
        the levels as given: the reference for levels whose squares are normal."""
        lv = np.asarray(levels, dtype=float)
        w = np.exp(-beta * lv)
        z = w.sum()
        u = float((lv * w).sum() / z)
        g, e_max = float(lv[lv > 0][0]), float(lv.mean())
        ratio = g * e_max * (e_max - energy) / float(lv.var()) / energy
        return (u, -beta * float((w * (lv - u) ** 2).sum() / z)), math.log1p(ratio) / g

    @pytest.mark.parametrize("levels", [[0, 1], [0, 1, 3], list(range(11)), [0, 0.3, 0.3, 7.5]])
    def test_scaled_levels_keep_every_bit(self, levels):
        """Scaling the levels by a power of two changes no bit where their
        squares neither overflow nor underflow."""
        h = HamiltonianSpec.explicit(levels)
        for beta in (1e-3, 0.25, 1.0, 7.0):
            energy = 0.3 * h.max_mean_energy()
            slope, start = self._unscaled(levels, beta, energy)
            assert gibbs._energy_and_slope(h, beta) == slope
            assert gibbs._start_beta(h, energy) == start

    @pytest.mark.parametrize("levels, energy, beta", [
        ([0.0, 1e-300], 1e-301, math.log(9.0) / 1e-300),  # Var_0 underflowed to 0
        ([0.0, 1e-160], 1e-161, math.log(9.0) / 1e-160),  # Var_0 underflowed
        ([0.0, 1.0, 1e300], 1.0, 300 * math.log(10.0) / 1e300),  # (1e300)^2 overflowed
        # the level sum of the mean overflowed
        ([0.0, 1.7e308, 1.7e308], 1.0, (math.log(2.0) + math.log(1.7e308)) / 1.7e308),
    ])
    def test_explicit_levels_at_any_scale(self, levels, energy, beta):
        h = HamiltonianSpec.explicit(levels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_beta(h, energy)
            _, gap = entropy_check(sol)
        assert sol.beta == pytest.approx(beta, rel=1e-12)
        assert abs(sol.residual) <= 1e-12 * energy
        assert gap <= 1e-12

    def test_a_solve_that_spends_its_evaluations_raises(self, monkeypatch):
        # from beta = 0.41 the [0, 1, 1e300] solve needs 26 evaluations at E = 1
        h = HamiltonianSpec.explicit([0.0, 1.0, 1e300])
        monkeypatch.setattr(gibbs, "_MAX_EVALUATIONS", 10)
        with pytest.raises(EnergyDomainError, match="beta not found in 10 evaluations"):
            solve_beta(h, 1.0)

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

    def test_direct_entropy_adds_the_exact_tail(self):
        """At n_max=256 the cutoff sum plus its closed-form tail matches a
        plain Shannon sum of the geometric weights to n = 20,000."""
        h = HamiltonianSpec.oscillators([1.0], n_max=256)
        for e in (1.0, 11.0, 20.0):
            sol = solve_beta(h, e)
            q = math.exp(-sol.beta)
            plain = shannon_entropy((1.0 - q) * q ** np.arange(20001))
            direct, _ = entropy_check(sol)
            assert abs(direct - plain) <= 1e-12
        # at E = 1e-300 the second mode's q = exp(-2 beta) underflows to 0
        sol = solve_beta(HamiltonianSpec.oscillators([1.0, 2.0], n_max=512), 1e-300)
        assert math.exp(-2.0 * sol.beta) == 0.0
        assert entropy_check(sol)[1] <= 1e-9 * sol.entropy

    def test_closed_forms_keep_their_digits_at_large_energy(self):
        """S(gamma(E)) of one mode and g(N) match log2(E+1) + E log1p(1/E) log2 e,
        where 1 - e^{-beta hbar omega} and (N+1) log2(N+1) - N log2 N cancel."""
        h = HamiltonianSpec.oscillators([1.0])
        for e in (1e6, 1e8, 1e10, 1e12, 1e14):
            exact = math.log2(e + 1.0) + e * math.log1p(1.0 / e) / math.log(2.0)
            assert solve_beta(h, e).entropy == pytest.approx(exact, rel=1e-12, abs=0.0)
            assert gibbs_entropy_g(e) == pytest.approx(exact, rel=1e-12, abs=0.0)

    @staticmethod
    def _log_slope(h, beta):
        """|d log U / d log beta| = beta Var_beta(H) / U, from the plain
        sums: the factor by which a rounding of beta moves U."""
        if h.hbar_omegas is None:
            w = np.exp(-beta * h.levels)
            p = w / w.sum()
            u = (p * h.levels).sum()
            return beta * (p * (h.levels - u) ** 2).sum() / u
        hw = h.hbar_omegas
        with np.errstate(over="ignore"):
            n = hw / np.expm1(beta * hw)
        return beta * (n * (n + hw)).sum() / n.sum()

    @staticmethod
    def _energies(h):
        e_max = h.max_mean_energy()
        if e_max == math.inf:
            return [10.0 ** k for k in range(-300, 18)] + [0.5 * k for k in range(1, 41)]
        return ([e_max * 10.0 ** k for k in range(-300, 0)]
                + [e_max * k / 20 for k in range(1, 20)]
                + [e_max - 1e-12, math.nextafter(e_max, 0.0)])

    @pytest.mark.parametrize("h", [
        HamiltonianSpec.oscillators([1.0]),
        HamiltonianSpec.oscillators([1.0, 2.0]),
        HamiltonianSpec.explicit([0.0, 1.0]),
        HamiltonianSpec.explicit([0.0, 1.0, 3.0]),
    ], ids=["one-mode", "modes-1-2", "levels-0-1", "levels-0-1-3"])
    def test_residual_is_rounding(self, h, monkeypatch):
        """|U(beta) - E| <= 8 ulp(E) max(1, kappa), kappa = |d log U / d log
        beta|: a rounding of beta alone moves U by kappa/2 ulp, and kappa
        reaches log(1/E) ~ 690 at E = 1e-300 (near e_max it tends to 0, so
        there the bound is 8 ulp(E) itself).  At most 1 evaluation for one
        mode (the start is its closed-form inverse), 30 for any solve."""
        evals = []
        evaluate = gibbs._energy_and_slope
        monkeypatch.setattr(gibbs, "_energy_and_slope",
                            lambda *a: evals.append(1) or evaluate(*a))
        for e in self._energies(h):
            evals.clear()
            sol = solve_beta(h, e)
            assert len(evals) <= (1 if h.n_modes == 1 else 30), e
            u = mean_energy(h, sol.beta)
            assert sol.residual == u - e
            kappa = max(1.0, self._log_slope(h, sol.beta))
            assert abs(u - e) <= 8 * math.ulp(e) * kappa, e
            if h.n_modes == 1:
                assert abs(sol.beta - math.log1p(1.0 / e)) <= 2 * math.ulp(sol.beta), e

    def test_entropy_check_charges_the_residual(self):
        """The formula takes E, the weights have mean U(beta): entropy_check
        adds beta |U(beta) - E| log2 e to the gap."""
        sol = solve_beta(HamiltonianSpec.oscillators([1.0], n_max=256), 3.0)
        off = dataclasses.replace(sol, residual=1e-6)
        assert entropy_check(off)[0] == entropy_check(sol)[0]
        assert entropy_check(off)[1] - entropy_check(sol)[1] == pytest.approx(
            sol.beta * (1e-6 - abs(sol.residual)) / LN2, rel=1e-6)

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
        assert oscillator_entropy_upper([1.0, 2.0], 3.0) == pytest.approx(
            OSC_UPPER_2M, abs=1e-12)
        h = HamiltonianSpec.oscillators([1.0, 2.0])
        for e in (0.5, 1.0, 3.0, 20.0):
            assert gibbs_entropy(h, e) <= oscillator_entropy_upper([1.0, 2.0], e) + 1e-9

    def test_vanishing_energy_weighting(self):
        # delta S(gamma(E/delta)) -> 0 as delta -> 0 (log growth only)
        h = HamiltonianSpec.oscillators([1.0])
        delta = 2.0 ** -20
        assert delta * gibbs_entropy(h, 1.0 / delta) < 0.05


class TestEnergyBounds:
    def test_params_delta(self):
        assert meta_delta(0.0, 0.2) == pytest.approx(0.2 / 1.2, abs=1e-14)
        with pytest.raises(ValueError, match="eps"):
            meta_delta(0.3, 0.2)

    def test_lemma4_values(self):
        h = HamiltonianSpec.oscillators([1.0])
        assert lemma4_bound(h, 1.0, 0.2) == pytest.approx(LEMMA4_E1_02, abs=1e-9)
        assert lemma4_bound(h, 1.0, 0.0) == 0.0
        for eps in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                lemma4_bound(h, 1.0, eps)

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
        ent, cond = lemma7_bounds([1.0], 1.0, 0.1, 0.25)
        assert ent == pytest.approx(LEMMA7_ENT, abs=1e-12)
        assert cond == pytest.approx(LEMMA7_COND, abs=1e-12)
        with pytest.raises(ValueError, match="alpha"):
            lemma7_bounds([1.0], 1.0, 0.1, 0.8)

    def test_lemma7_conditional_is_twice_entropy(self):
        for e in (0.5, 1.0, 4.0):
            for eps in (0.01, 0.1, 0.3):
                for alpha in (0.05, 0.25, 0.5):
                    ent, cond = lemma7_bounds([1.0, 2.0], e, eps, alpha)
                    # identical structure with doubled leading terms
                    assert cond >= ent
                    assert cond <= 2.0 * ent + 1e-12

    def test_lemma7_monotone_in_epsilon(self):
        grid = np.linspace(0.0, 0.6, 100)
        vals = np.array([lemma7_bounds([1.0], 1.0, e, 0.25)[0] for e in grid])
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

    def test_diagonal_state_split(self):
        h = HamiltonianSpec.explicit([0.0, 1.0, 2.0])
        rho = DensityOperator.diagonal([0.5, 0.3, 0.2])
        dec = cutoff_decompose(rho, h, 0.7, 0.5)
        assert dec.weight_gt == pytest.approx(0.2, abs=1e-14)
        np.testing.assert_allclose(np.diag(dec.state_le.mat).real,
                                   [0.625, 0.375, 0.0], atol=1e-12)
        np.testing.assert_allclose(np.diag(dec.state_gt.mat).real,
                                   [0.0, 0.0, 1.0], atol=1e-12)

    def test_reconstruction_matches_pinched_state(self):
        h = HamiltonianSpec.explicit([0.0, 1.0, 4.0, 5.0])
        rho = sample_state(4, 4, np.random.default_rng(4))
        dec = cutoff_decompose(rho, h, 3.5, 0.9)
        p = np.diag([1.0, 1.0, 0.0, 0.0])
        q = np.eye(4) - p
        recon = (1 - dec.weight_gt) * dec.state_le.mat + dec.weight_gt * dec.state_gt.mat
        np.testing.assert_allclose(recon, p @ rho.mat @ p + q @ rho.mat @ q, atol=1e-12)

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

    @pytest.mark.parametrize("energy", [1.0, 8.0])
    def test_energy_bounds_decompose_no_padded_state(self, energy, solver_calls):
        """The states live on the k <= 9 levels at or below E of 41: only
        k d_b x k d_b matrices are decomposed, and the entropies and trace
        distances are those of the unpadded blocks."""
        h = HamiltonianSpec.oscillators([1.0], n_max=40)
        idx = np.flatnonzero(h.levels <= energy)
        k = len(idx)
        (lemma4, _), = _case_energy_bounds([np.random.default_rng(9)], h, energy)
        assert max(shape[-1] for _, shape in solver_calls) <= k
        for d_b in (None, 2):
            d = 1 if d_b is None else d_b
            rows = (idx[:, None] * d + np.arange(d)).ravel()
            rng = np.random.default_rng(9)
            rho, sigma = (sample_energy_constrained(h, energy, d_b, rng) for _ in range(2))
            s_rho, s_sigma = von_neumann_entropy(rho), von_neumann_entropy(sigma)
            eps = trace_distance(rho, sigma)
            assert max(shape[-1] for _, shape in solver_calls) <= k * d
            small = [HermitianOperator(x.mat[np.ix_(rows, rows)]) for x in (rho, sigma)]
            for s_full, op in zip((s_rho, s_sigma), small):
                assert s_full == pytest.approx(shannon_entropy(np.linalg.eigvalsh(op.mat)), abs=1e-14)
            assert eps == trace_distance(*small)
            if d_b is None:
                assert lemma4.epsilon == eps and lemma4.lhs == abs(s_rho - s_sigma)

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

    @pytest.mark.parametrize("e", [0.5, 1.0])
    def test_conditional_witness_purifies_gamma(self, e):
        """rho is the pure state (sqrt(gamma) (x) 1)|Phi>: its A marginal is
        the Gibbs state and its B marginal gamma^T = gamma, up to the
        weights below the support cut of the square root."""
        rho, _ = oscillator_tightness_witness(e, 0.2, conditional=True, n_max=30)
        gamma = solve_beta(HamiltonianSpec.oscillators([1.0], n_max=30), e).state()
        assert rho.eigenvalues[0] == 1.0
        for keep in ("A", "B"):
            np.testing.assert_allclose(partial_trace(rho, keep).mat, gamma.mat, rtol=0, atol=1e-10)

    def test_witness_domain(self):
        with pytest.raises(ValueError, match="epsilon"):
            oscillator_tightness_witness(1.0, 0.0)
        for energy in (0.0, -1.0):
            for conditional in (False, True):
                with pytest.raises(EnergyDomainError, match="energy must be positive"):
                    oscillator_tightness_witness(energy, 0.25, conditional=conditional)

    @pytest.mark.parametrize("energy", [math.nan, math.inf])
    def test_witness_energy_must_be_finite(self, energy):
        for conditional in (False, True):
            with pytest.raises(EnergyDomainError, match="positive and finite"):
                oscillator_tightness_witness(energy, 0.25, conditional=conditional)
