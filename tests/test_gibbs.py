import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from entrobounds import gibbs
from entrobounds.bounds import check_af_witnesses, tightness_witness_af
from entrobounds.entropies import (
    binary_entropies,
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
    TruncationError,
    cutoff_decompose,
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

    @pytest.mark.parametrize("levels", [[], [[0.0, 1.0]]])
    def test_explicit_requires_a_1d_level_list(self, levels):
        with pytest.raises(ValueError, match="need a 1-D level list"):
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

    @pytest.mark.parametrize("modes", [[], [[1.0]], 1.0])
    def test_oscillator_requires_a_list_of_modes(self, modes):
        with pytest.raises(ValueError, match=r"at least one mode energy, got"):
            HamiltonianSpec.oscillators(modes, n_max=3)

    def test_oscillator_requires_a_cutoff_of_at_least_0(self):
        with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
            HamiltonianSpec.oscillators([1.0], n_max=-1)
        assert HamiltonianSpec.oscillators([1.0], n_max=0).dim == 1

    @pytest.mark.parametrize("n_max", [2.7, 3.0, True, False, "3", np.float64(2.0)])
    def test_oscillator_cutoff_that_is_not_an_integer_raises(self, n_max):
        """No cutoff is truncated or coerced: 2.7 would certify the tail of 2."""
        message = f"n_max must be an integer, got {re.escape(repr(n_max))}"
        with pytest.raises(ValueError, match=message):
            HamiltonianSpec.oscillators([1.0], n_max=n_max)

    @pytest.mark.parametrize("n_max", [5, np.int64(5)])
    def test_oscillator_cutoff_takes_any_integer(self, n_max):
        h = HamiltonianSpec.oscillators([1.0], n_max=n_max)
        assert h.n_max == 5 and type(h.n_max) is int and h.dim == 6

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
        with pytest.raises(EnergyDomainError, match="beta must be positive and finite, got 0.0"):
            mean_energy(HamiltonianSpec.explicit([0.0, 1.0]), 0.0)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("h", [HamiltonianSpec.oscillators([1.0, 2.0]),
                                   HamiltonianSpec.explicit([0.0, 1.0, 3.0])],
                             ids=["oscillators", "explicit"])
    @pytest.mark.parametrize("f", [log2_partition_function, mean_energy, truncation_tail])
    def test_every_beta_function_takes_beta_positive_and_finite(self, f, h, beta):
        """One rule, 0 < beta < inf, with one message, on both kinds of
        Hamiltonian; NaN and inf fail it rather than give nan or a numpy
        warning."""
        with pytest.raises(EnergyDomainError,
                           match=f"^beta must be positive and finite, got {beta!r}$"):
            f(h, beta)

    @pytest.mark.parametrize("beta", [1e-300, 1e-17])
    def test_truncation_tail_is_1_where_q_rounds_to_1(self, beta):
        """exp(-beta hbar omega) rounds to 1: the tail is its limit 1, with
        no divide-by-zero warning from log1p(-1)."""
        assert truncation_tail(HamiltonianSpec.oscillators([1.0, 2.0]), beta) == 1.0

    def test_explicit_levels_have_no_truncation_tail(self):
        assert truncation_tail(HamiltonianSpec.explicit([0, 1]), 1.0) == 0.0

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
            u, beta_slope = gibbs._energies_and_slopes(h, np.array([beta]))
            assert (float(u[0]), float(beta_slope[0])) == slope
            assert gibbs._start_betas(h, np.array([energy]))[0] == start

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
            _, gap = _entropy_check(gibbs.solve_betas(h, [energy]))
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
            direct, _ = _entropy_check(gibbs.solve_betas(h, [e]))
            assert abs(direct - plain) <= 1e-12
        # at E = 1e-300 the second mode's q = exp(-2 beta) underflows to 0
        sols = gibbs.solve_betas(HamiltonianSpec.oscillators([1.0, 2.0], n_max=512), [1e-300])
        sol = sols.solution(0)
        assert math.exp(-2.0 * sol.beta) == 0.0
        assert _entropy_check(sols)[1] <= 1e-9 * sol.entropy

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
        evaluate = gibbs._energies_and_slopes
        monkeypatch.setattr(gibbs, "_energies_and_slopes",
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
        """The formula takes E, the weights have mean U(beta): entropy_checks
        adds beta |U(beta) - E| log2 e to the gap."""
        sols = gibbs.solve_betas(HamiltonianSpec.oscillators([1.0], n_max=256), [3.0])
        sol = sols.solution(0)
        off = sols._replace(residual=np.array([1e-6]))
        assert _entropy_check(off)[0] == _entropy_check(sols)[0]
        assert _entropy_check(off)[1] - _entropy_check(sols)[1] == pytest.approx(
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
        with pytest.raises(ValueError, match=r"epsilon 1.0 outside \[0, 1\)"):
            lemma7_bounds([1.0], 1.0, 1.0, 0.5)

    def test_lemma7_conditional_is_twice_entropy(self):
        for e in (0.5, 1.0, 4.0):
            for eps in (0.01, 0.1, 0.3):
                for alpha in (0.05, 0.25, 0.5):
                    ent, cond = lemma7_bounds([1.0, 2.0], e, eps, alpha)
                    # identical structure with doubled leading terms
                    assert cond >= ent
                    assert cond <= 2.0 * ent + 1e-12

    @pytest.mark.parametrize("modes, energy, match", [
        ([1.0], -5.0, "energy must be positive and finite, got -5.0"),
        ([1.0], 0.0, "energy must be positive and finite, got 0.0"),
        ([1.0], math.nan, "energy must be positive and finite, got nan"),
        ([1.0], math.inf, "energy must be positive and finite, got inf"),
        ([0.0], 1.0, r"mode energies must be positive and finite, got \[0.0\]"),
        ([-1.0], 1.0, r"mode energies must be positive and finite, got \[-1.0\]"),
        ([1.0, math.nan], 1.0, r"positive and finite, got \[1.0, nan\]"),
        ([], 1.0, r"at least one mode energy, got \[\]"),
    ], ids=["E<0", "E=0", "E=nan", "E=inf", "mode-0", "mode<0", "mode-nan", "no-modes"])
    def test_equal_split_forms_reject_bad_modes_and_energies(self, modes, energy, match):
        with pytest.raises(ValueError, match=match):
            oscillator_entropy_upper(modes, energy)
        with pytest.raises(ValueError, match=match):
            lemma7_bounds(modes, energy, 0.1, 0.5)

    def test_equal_split_forms_keep_their_bits(self):
        for modes in ([1.0], [1.0, 2.0], [0.3, 7.0, 0.3]):
            hw = np.array(modes)
            for e in (1e-300, 0.25, 1.0, 3.0, 1e200):
                split = float(np.log2(e / len(hw) / hw + 1.0).sum())
                assert oscillator_entropy_upper(modes, e) == len(hw) * gibbs.LOG2_E + split
                ratio = 1.25 / 0.75
                bracket = split + len(hw) * math.log2(math.e / (0.25 * 0.9))
                h_term = gibbs.clipped_binary(ratio * 0.1)
                assert lemma7_bounds(modes, e, 0.1, 0.25)[0] == (
                    0.1 * (ratio + 0.5) * bracket + (len(hw) + 2) * (ratio + 0.5) * h_term)

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
        with pytest.raises(ValueError, match=r"delta 0.0 outside \(0, 1\]"):
            cutoff_decompose(DensityOperator.maximally_mixed(3), h, 2.0, 0.0)

    def test_bipartite_cutoff_keeps_structure(self):
        h = HamiltonianSpec.oscillators([1.0], n_max=10)
        state = sample_energy_constrained(h, 2.0, d_b=2, rng=np.random.default_rng(4))
        dec = cutoff_decompose(state, h, 2.0, 0.5)
        assert isinstance(dec, CutoffDecomposition)
        assert isinstance(dec.state_le, BipartiteState)
        assert dec.state_le.dims == (11, 2)

    def test_truncated_trace_distance_bound(self):
        assert truncated_trace_distance_bound(0.1, 0.2) == pytest.approx(0.375)
        # delta = 1 divided by zero, and delta > 1 or eps < 0 gave a negative bound
        for delta in (0.0, 1.0, 2.0, math.nan):
            with pytest.raises(ValueError, match=rf"delta {delta!r} outside \(0, 1\)$"):
                truncated_trace_distance_bound(0.1, delta)
        with pytest.raises(ValueError, match=r"epsilon -0.5 outside \[0, 1\]"):
            truncated_trace_distance_bound(-0.5, 0.2)

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

    def test_a_bad_energy_draws_nothing(self, monkeypatch):
        """E <= 0, which no level but the ground one lies below, and a
        non-finite E fail the energy rule before any draw."""
        def refuse(*args):
            raise AssertionError("a state was drawn")
        monkeypatch.setattr(gibbs, "draw_state_matrices", refuse)
        h = HamiltonianSpec.explicit([0.0, 1.0])
        for energy in (-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(EnergyDomainError) as raised:
                sample_energy_constrained(h, energy, rng=0)
            assert str(raised.value) == f"energy must be positive and finite, got {energy!r}"

    @pytest.mark.parametrize("energy", [1.0, 8.0])
    def test_energy_bounds_decompose_no_padded_state(self, energy, solver_calls):
        """The states live on the k <= 9 levels at or below E of 41: only
        k d_b x k d_b matrices are decomposed, and the entropies and trace
        distances are those of the unpadded blocks."""
        h = HamiltonianSpec.oscillators([1.0], n_max=40)
        idx = np.flatnonzero(h.levels <= energy)
        k = len(idx)
        lemma4 = _case_energy_bounds([np.random.default_rng(9)], h, [energy]).report(0)
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


@pytest.mark.parametrize("energy", [0.0, -1.0, math.nan, math.inf, 0, -1])
def test_each_energy_entry_point_rejects_a_bad_energy(energy, monkeypatch):
    """The cutoff, the sampler (and its draw), the oscillator witnesses and
    the energy bounds, stacked or scalar, hold E to the energy rule, naming
    the E given as a float (an int -1 as -1.0), before any draw or solve:
    an infinite E is not read as no constraint, nor a NaN E as a cutoff at
    NaN."""
    def refuse(*args):
        raise AssertionError("a state was drawn or a beta solved")
    monkeypatch.setattr(gibbs, "draw_state_matrices", refuse)
    monkeypatch.setattr(gibbs, "solve_betas", refuse)
    h = HamiltonianSpec.oscillators([1.0], n_max=20)
    ground = DensityOperator.diagonal([1.0] + [0.0] * 20)
    calls = [lambda: cutoff_decompose(ground, h, energy, 0.5),
             lambda: cutoff_decompose(ground, h, energy, 2.0),  # before delta's rule
             lambda: sample_energy_constrained(h, energy, rng=0),
             lambda: sample_energy_constrained(h, energy, d_b=2, rng=0),
             lambda: gibbs.draw_energy_block(h, energy, [0]),
             lambda: gibbs.check_oscillator_witnesses(energy, [0.25, 1.0]),
             lambda: oscillator_tightness_witness(energy, 0.25, conditional=True),
             lambda: gibbs.energy_bound_stack(h, ["lemma4", "meta5"], energy, 0.25, 0.5),
             lambda: lemma4_bound(h, energy, 0.25),
             lambda: meta5_bound(h, energy, 0.1, 0.3),
             lambda: meta6_bound(h, energy, 0.1, 0.3)]
    for call in calls:
        with pytest.raises(EnergyDomainError) as raised:
            call()
        assert str(raised.value) == f"energy must be positive and finite, got {float(energy)!r}"


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

    @pytest.mark.parametrize("conditional", [False, True])
    def test_witness_cutoff_below_the_tail_raises(self, conditional):
        # at E = 100 the thermal tail beyond n = 10 is (100/101)^11 ~ 0.9
        with pytest.raises(TruncationError, match=r"^truncation tail 8\.96\de-01 exceeds 1e-9$"):
            oscillator_tightness_witness(100.0, 0.25, conditional=conditional, n_max=10)

    @pytest.mark.parametrize("energy", [math.nan, math.inf])
    def test_witness_energy_must_be_finite(self, energy):
        for conditional in (False, True):
            with pytest.raises(EnergyDomainError, match="positive and finite"):
                oscillator_tightness_witness(energy, 0.25, conditional=conditional)

    @pytest.mark.parametrize("eps", [0.0, 1.5, math.nan])
    def test_every_witness_raises_the_one_eps_error(self, eps):
        """The AF and oscillator witnesses, alone and as a grid, read eps
        through one rule: outside (0, 1], NaN included, each raises the same
        text; the oscillator witness raises the energy's error before any
        bad eps, alone and as a grid, wherever the eps stands."""
        message = f"epsilon {eps!r} outside (0, 1]"
        calls = [lambda: tightness_witness_af(3, eps),
                 lambda: check_af_witnesses(3, [0.5, eps]),
                 lambda: oscillator_tightness_witness(1.0, eps),
                 lambda: gibbs.check_oscillator_witnesses(1.0, [0.5, eps])]
        for call in calls:
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == message
        for call in (lambda: oscillator_tightness_witness(-1.0, eps),
                     lambda: gibbs.check_oscillator_witnesses(-1.0, [0.5, eps]),
                     lambda: gibbs.check_oscillator_witnesses(-1.0, [eps, 0.5])):
            with pytest.raises(EnergyDomainError) as raised:
                call()
            assert str(raised.value) == "energy must be positive and finite, got -1.0"


def _reference_solve(h, energy, branches):
    """The scalar beta(E) iteration that ``solve_betas`` runs in lockstep,
    one energy at a time and in Python floats, as ``(beta, residual)`` or
    the text of its error; ``branches`` counts the safeguard steps taken."""
    e_max = h.max_mean_energy()
    if not 0.0 < energy < e_max:
        return f"energy {energy!r} outside the attainable open interval (0, {e_max!r})"
    if h.hbar_omegas is not None:
        hw = h.hbar_omegas
        g = float(hw.min())
        ratio = h.n_modes * g / energy
    else:
        lv, k = gibbs._scaled_levels(h)
        g = float(h.levels[lv > 0][0])
        e_mean = float(lv.mean())
        ratio = g * e_mean * (e_mean - math.ldexp(energy, -k)) / float(lv.var()) / energy
    b = min(math.log1p(min(ratio, 1.7976931348623157e308)) / g, 1.7976931348623157e308)
    lo, hi, jump = 0.0, math.inf, 1.0
    beta, residual = math.nan, math.inf
    for _ in range(gibbs._MAX_EVALUATIONS):
        if h.hbar_omegas is None:
            w = np.exp(-b * h.levels)
            z = w.sum()
            u = float((lv * w).sum() / z)
            var = float((w * (lv - u) ** 2).sum() / z)
            u, slope = math.ldexp(u, k), math.ldexp(-b * math.ldexp(var, k), k)
        else:
            x = b * hw
            with np.errstate(over="ignore"):
                n = hw / np.expm1(x)
            u, slope = float(n.sum()), float((n * x / np.expm1(-x)).sum())
        r = u - energy
        if abs(r) < abs(residual):
            beta, residual = b, r
        dlog = slope / u if u > 0 else 0.0
        if abs(r) <= 8.0 * math.ulp(energy) * max(1.0, -dlog):
            break
        if r > 0:
            lo = b
        else:
            hi = b
        step = -math.log1p(r / energy) / dlog if dlog < 0 and r > -energy else math.nan
        nxt = b * math.exp(min(step, 709.0))
        if nxt == b:
            break
        if not lo < nxt < hi:
            if lo > 0.0 and hi < math.inf:
                branches["midpoint"] += 1
                nxt = lo * math.sqrt(hi / lo)
                if nxt in (lo, hi):
                    break
            else:
                branches["jump"] += 1
                nxt = b * math.exp(jump) if r > 0 else b / math.exp(jump)
                nxt = min(max(nxt, math.ulp(0.0)), 1.7976931348623157e308)
                jump = min(2.0 * jump, 709.0)
        b = nxt
    else:
        return (f"energy {energy!r}: beta not found in {gibbs._MAX_EVALUATIONS} "
                f"evaluations (U - E = {residual!r} at beta = {beta!r})")
    if not 0.0 < beta < math.inf:
        return f"energy {energy!r} not attainable (beta -> {'0' if beta == 0.0 else 'inf'})"
    return beta, residual


def _grid(h):
    """Energies across the scales: tiny, huge, near e_max and outside the
    attainable interval."""
    e_max = h.max_mean_energy()
    grid = [0.0, -1.0, math.nan, math.inf, 1e-301, 3e-321]
    if e_max == math.inf:
        return grid + [10.0 ** k for k in range(-300, 308, 11)] + [0.5 * k for k in range(1, 41)]
    return grid + [e_max * 10.0 ** k for k in range(-300, 0, 7)] + [
        e_max * k / 20 for k in range(1, 21)] + [
        e_max - 1e-12 * e_max, math.nextafter(e_max, 0.0), e_max * (1 - 1e-15), 2 * e_max]


def _entropy_check(sols):
    """(S_direct, gap) of the one solution of a stack of one, from
    ``entropy_checks``."""
    direct, gap = gibbs.entropy_checks(sols)
    return float(direct[0]), float(gap[0])


def _reference_check(sol):
    """``entropy_checks`` of one solution as a scalar sum: the Shannon sum of
    each mode's geometric weights to the cutoff plus its exact tail."""
    h = sol.hamiltonian
    if h.hbar_omegas is None:
        direct = shannon_entropy(sol.diagonal_probabilities())
    else:
        direct = 0
        for hw in h.hbar_omegas:
            x = float(sol.beta * hw)
            q, one_minus_q = math.exp(-x), -math.expm1(-x)
            body = shannon_entropy(one_minus_q * q ** np.arange(h.n_max + 1))
            tail = q ** (h.n_max + 1)
            direct += body if tail == 0.0 else body - tail * (
                math.log2(one_minus_q) - (h.n_max + 1 + q / one_minus_q) * x * gibbs.LOG2_E)
    return direct, abs(sol.entropy - direct) + sol.beta * abs(sol.residual) * gibbs.LOG2_E


STACK_HAMILTONIANS = {
    "one-mode": HamiltonianSpec.oscillators([1.0], n_max=256),
    "modes-1-2": HamiltonianSpec.oscillators([1.0, 2.0], n_max=512),
    "modes-1-2-3": HamiltonianSpec.oscillators([1.0, 2.0, 3.0], n_max=20),
    "modes-0.3-7-0.3": HamiltonianSpec.oscillators([0.3, 7.0, 0.3], n_max=64),
    "levels-0-1": HamiltonianSpec.explicit([0.0, 1.0]),
    "levels-0-1-3": HamiltonianSpec.explicit([0.0, 1.0, 3.0]),
    "levels-0-1e-300": HamiltonianSpec.explicit([0.0, 1e-300]),
    "levels-0-1-1e300": HamiltonianSpec.explicit([0.0, 1.0, 1e300]),
    "levels-0-10": HamiltonianSpec.explicit(list(range(11))),
    "levels-0-0.3-0.3-7.5": HamiltonianSpec.explicit([0.0, 0.3, 0.3, 7.5]),
}


class TestSolveBetas:
    """The lockstep solver against the scalar iteration, element by element."""

    @pytest.mark.parametrize("name", STACK_HAMILTONIANS)
    def test_each_energy_takes_its_scalar_iterates(self, name):
        h = STACK_HAMILTONIANS[name]
        energies = _grid(h)
        sols = gibbs.solve_betas(h, energies)
        assert sols.energies == energies
        for i, e in enumerate(energies):
            expected = _reference_solve(h, e, {"midpoint": 0, "jump": 0})
            if isinstance(expected, str):
                assert str(sols.errors[i]) == expected
                with pytest.raises(EnergyDomainError) as exc:
                    solve_beta(h, e)
                assert str(exc.value) == expected
                continue
            assert sols.errors[i] is None
            one = solve_beta(h, e)
            assert sols.solution(i) == one
            assert (one.beta, one.residual) == expected
            assert one.log2_partition == log2_partition_function(h, one.beta)
            assert one.entropy == one.log2_partition + one.beta * e * gibbs.LOG2_E

    def test_the_grids_reach_every_safeguard(self):
        """The grids above run the bracket midpoint and the e^j jump."""
        branches = {"midpoint": 0, "jump": 0}
        for h in STACK_HAMILTONIANS.values():
            for e in _grid(h):
                _reference_solve(h, e, branches)
        assert branches["midpoint"] > 0 and branches["jump"] > 0

    def test_a_stack_of_any_order_and_length_is_element_by_element(self):
        h = STACK_HAMILTONIANS["modes-1-2"]
        energies = [16.0, 0.25, 1e-300, 3.0, 1e200, 0.5]
        whole = gibbs.solve_betas(h, np.array(energies))
        for i, e in enumerate(energies):
            assert whole.solution(i) == gibbs.solve_betas(h, [e]).solution(0)
        assert gibbs.solve_betas(h, []).energies == []

    def test_each_energy_keeps_its_own_error(self):
        h = HamiltonianSpec.explicit([0.0, 1.0, 3.0])
        energies = [0.25, 4.0 / 3.0, -1.0, 0.5, math.nan, 2.0]
        sols = gibbs.solve_betas(h, energies)
        for i, e in enumerate(energies):
            if sols.errors[i] is None:
                assert sols.solution(i) == solve_beta(h, e)
                continue
            with pytest.raises(EnergyDomainError) as exc:
                solve_beta(h, e)
            assert str(sols.errors[i]) == str(exc.value)
            with pytest.raises(EnergyDomainError, match="outside the attainable"):
                sols.solution(i)
        assert [err is None for err in sols.errors] == [True, False, False, True, False, False]

    def test_the_evaluation_limit_is_read_at_call_time(self, monkeypatch):
        # E = 1 needs 26 evaluations from its start, E = 0.5 fewer than 10
        h = HamiltonianSpec.explicit([0.0, 1.0, 1e300])
        monkeypatch.setattr(gibbs, "_MAX_EVALUATIONS", 10)
        sols = gibbs.solve_betas(h, [1.0, 0.5])
        assert str(sols.errors[0]).startswith("energy 1.0: beta not found in 10 evaluations")
        assert sols.errors[1] is None
        assert sols.solution(1) == solve_beta(h, 0.5)

    @pytest.mark.parametrize("name", ["one-mode", "modes-1-2", "modes-1-2-3", "levels-0-1-3",
                                      "levels-0-1e-300"])
    def test_entropy_checks_are_the_scalar_checks(self, name):
        h = STACK_HAMILTONIANS[name]
        energies = [e for e in _grid(h) if e > 1e-200]
        sols = gibbs.solve_betas(h, energies)
        direct, gap = gibbs.entropy_checks(sols)
        for i, e in enumerate(energies):
            if sols.errors[i] is not None:
                assert math.isnan(direct[i]) and math.isnan(gap[i])
                continue
            one = solve_beta(h, e)
            assert ((float(direct[i]), float(gap[i])) == _entropy_check(gibbs.solve_betas(h, [e]))
                    == _reference_check(one))

    def test_stacked_bounds_are_the_scalar_bounds(self):
        h = HamiltonianSpec.oscillators([1.0], n_max=40)
        rng = np.random.default_rng(4)
        eps = [0.0, 1e-12, 1.0, *rng.uniform(0.0, 1.0, 12).tolist()]
        primes = [min(1.0, x + 0.1) if x < 1.0 else 1.0 for x in eps]
        pairs = [(x, p) for x, p in zip(eps, primes) if x < p]
        for energy in (1e-3, 0.5, 2.0, 8.0, 1e6):
            lemma4 = [lemma4_bound(h, energy, x) for x in eps]
            assert _stacked(h, energy, eps, (), ())[0].tolist() == lemma4
            assert lemma4 == [0.0 if x == 0.0 else 2.0 * x * gibbs_entropy(h, energy / x)
                              + binary_entropy(x) for x in eps]
            meta5 = [meta5_bound(h, energy, x, p) for x, p in pairs]
            assert _stacked(h, energy, (), *zip(*pairs))[1].tolist() == meta5
            deltas = [meta_delta(x, p) for x, p in pairs]
            assert meta5 == [(p + 2.0 * d) * gibbs_entropy(h, energy / d) + binary_entropy(p)
                             + binary_entropy(d) for (_, p), d in zip(pairs, deltas)]
        assert gibbs.solve_betas(h, [0.5, 2.0]).entropy.tolist() == [
            gibbs_entropy(h, 0.5), gibbs_entropy(h, 2.0)]

    def test_stacked_binary_entropies_are_binary_entropy(self):
        x = np.concatenate([[0.0, 1.0, 0.5, 1e-300, 1 - 1e-16],
                            np.random.default_rng(5).uniform(0, 1, 200)])
        assert binary_entropies(x).tolist() == [binary_entropy(v) for v in x.tolist()]

    def test_the_first_bad_argument_raises_in_case_order(self):
        h = HamiltonianSpec.oscillators([1.0], n_max=40)
        # case 1's Meta 5 pair comes before case 2's Lemma 4 argument
        with pytest.raises(ValueError, match=r"need 0 <= eps < eps' <= 1, got \(1.0, 1.0\)"):
            _stacked(h, 1.0, [0.5, 1.0, 1.5], [0.5, 1.0, 0.2], [0.6, 1.0, 0.3])
        with pytest.raises(ValueError, match=r"epsilon 1.5 outside \[0, 1\]"):
            _stacked(h, 1.0, [0.5, 1.5, 0.5], [0.5, 1.0, 0.2], [0.6, 1.0, 0.3])
        # E < 0 fails the energy rule at row 0, case 0's Lemma 4 at eps = 0,
        # which solves nothing; the error names E itself
        bad_energy = "energy must be positive and finite, got -1.0"
        with pytest.raises(EnergyDomainError) as first:
            meta5_bound(h, -1.0, 0.0, 0.2)
        with pytest.raises(EnergyDomainError) as stacked:
            _stacked(h, -1.0, [0.0, 0.5], [0.0, 0.5], [0.2, 0.6])
        assert str(stacked.value) == str(first.value) == bad_energy
        # within a row its energy comes before its eps; an earlier row's eps first
        with pytest.raises(EnergyDomainError, match=f"^{bad_energy}$"):
            _stacked(h, [-1.0, 1.0], [1.5, 1.5], [0.5, 0.2], [0.6, 0.3])
        with pytest.raises(ValueError, match=r"^epsilon 1.5 outside \[0, 1\]$"):
            _stacked(h, [1.0, -1.0], [1.5, 0.5], [0.5, 0.2], [0.6, 0.3])
        # past the rules, the energies E/x are solved in row order: on levels
        # (0, 1, 3), whose largest mean energy is 4/3, neither E/delta = 3 nor
        # E/eps = 2 has a solution, and the earlier row's solve error raises
        h3 = HamiltonianSpec.explicit([0.0, 1.0, 3.0])
        unsolved = {}
        for e in (1.0 / meta_delta(0.0, 0.5), 2.0):
            with pytest.raises(EnergyDomainError) as alone:
                solve_beta(h3, e)
            unsolved[e] = str(alone.value)
        assert list(unsolved.values()) == [
            f"energy {e!r} outside the attainable open interval (0, {4 / 3!r})" for e in unsolved]
        meta5_first, lemma4_first = unsolved.values()
        # case 0's Lemma 4 at eps = 0 solves nothing; its Meta 5 comes
        # before case 1's Lemma 4, and in a stack of two the earlier row
        with pytest.raises(EnergyDomainError, match=f"^{re.escape(meta5_first)}$"):
            _stacked(h3, 1.0, [0.0, 0.5], [0.0, 0.5], [0.5, 0.6])
        for variants, eps, primes, message in (
                (["meta5", "lemma4"], [0.0, 0.5], [0.5, None], meta5_first),
                (["lemma4", "meta5"], [0.5, 0.0], [None, 0.5], lemma4_first)):
            with pytest.raises(EnergyDomainError, match=f"^{re.escape(message)}$"):
                gibbs.energy_bound_stack(h3, variants, 1.0, eps, primes)

    def test_the_mask_rules_are_the_case_walk(self):
        h = HamiltonianSpec.oscillators([1.0], n_max=40)
        rng = np.random.default_rng(41)
        values = [0.0, 1e-12, 0.3, 1.0, -0.1, 1.5, math.nan]
        for trial in range(300):
            n4, n5 = rng.integers(0, 6, 2)
            pick = (lambda n: rng.choice(values, n).tolist()) if trial % 3 == 0 else (
                lambda n: rng.uniform(0.0, 1.0, n).tolist())
            eps4, eps5 = pick(n4), pick(n5)
            primes = [min(1.0, x + 0.1) if trial % 2 else x + 0.2 for x in eps5]
            args = (h, 2.0, eps4, eps5, primes)
            try:
                expected = ref_lemma4_meta5_bounds(*args)
            except ValueError as exc:
                with pytest.raises(ValueError) as info:
                    _stacked(*args)
                assert type(info.value) is type(exc) and str(info.value) == str(exc)
            else:
                got = _stacked(*args)
                assert [x.tobytes() for x in got] == [x.tobytes() for x in expected]

    @pytest.mark.parametrize("levels", [None, [0.0, 1.0, 3.0]])
    def test_per_case_energies_are_the_per_energy_calls(self, levels):
        """One energy per case gives each case the bits of its energy's own
        call, and the error of the case walk: the first bad argument of any
        case (its energy's, by the energy rule, before its eps'), else that
        of the first case whose solve fails, as each case alone gives it
        through the energy rule and ``ref_lemma4_meta5_bounds``.  On the
        levels (0, 1, 3), whose largest mean energy is 4/3, some of the
        valid energies have no solution, so that the solve errors meet."""
        h = (HamiltonianSpec.oscillators([1.0], n_max=40) if levels is None
             else HamiltonianSpec.explicit(levels))
        solve_errors_first = 0
        rng = np.random.default_rng(45)
        good_energies, bad_energies = [1e-3, 0.5, 2.0, 8.0], [0.0, -1.0, math.nan, math.inf]
        values = [0.0, 1e-12, 0.3, 1.0, -0.1, 1.5, math.nan]
        for trial in range(300):
            n = int(rng.integers(1, 7))
            energies = rng.choice(good_energies + bad_energies * (trial % 2), n).tolist()
            eps = (rng.choice(values, n) if trial % 3 == 0 else rng.uniform(0.0, 1.0, n)).tolist()
            eps4 = [max(x, 1e-12) if trial % 5 else x for x in eps]
            primes = [min(1.0, x + 0.1) if trial % 2 else x + 0.2 for x in eps]
            alone, bad_arguments = [], []
            for i in range(n):
                try:
                    gibbs._positive_finite("energy", energies[i])
                except EnergyDomainError as exc:
                    alone.append(exc)
                    bad_arguments.append(exc)
                    continue
                try:
                    alone.append(ref_lemma4_meta5_bounds(h, energies[i], eps4[i:i + 1],
                                                         eps[i:i + 1], primes[i:i + 1]))
                except EnergyDomainError as exc:  # its solve's
                    alone.append(exc)
                except ValueError as exc:
                    alone.append(exc)
                    bad_arguments.append(exc)
            errors = [x for x in alone if isinstance(x, ValueError)]
            if errors:
                # any case's bad argument raises before every solve
                expected = (bad_arguments or errors)[0]
                solve_errors_first += not bad_arguments
                with pytest.raises(ValueError) as info:
                    _stacked(h, energies, eps4, eps, primes)
                assert type(info.value) is type(expected) and str(info.value) == str(expected)
                continue
            got = _stacked(h, energies, eps4, eps, primes)
            for k in range(2):
                assert got[k].tobytes() == np.concatenate([x[k] for x in alone]).tobytes()
            for energy in set(energies):
                cases = [i for i, e in enumerate(energies) if e == energy]
                own = _stacked(h, energy, *([x[i] for i in cases] for x in (eps4, eps, primes)))
                assert [x[cases].tobytes() for x in got] == [x.tobytes() for x in own]
        assert (solve_errors_first > 0) == (levels is not None)

    def test_energy_bound_columns_are_the_per_record_lists(self, monkeypatch):
        seen = []
        bounds = gibbs.energy_bound_stack
        monkeypatch.setattr(gibbs, "energy_bound_stack",
                            lambda *args: seen.append(args) or bounds(*args))
        h = HamiltonianSpec.oscillators([1.0], n_max=40)
        block = _case_energy_bounds([np.random.default_rng(k) for k in range(6)], h, [2.0] * 6)
        # one row per record, Lemma 4 before Meta 5 of each case
        reports = [block.report(k) for k in range(12)]
        (_, variants, energy, floors, primes), = seen
        assert block.case.tolist() == [k // 2 for k in range(12)]
        assert [r.variant for r in reports] == variants.tolist() == ["lemma4", "meta5"] * 6
        assert energy.tolist() == [r.energy for r in reports] == [2.0] * 12
        eps = [r.epsilon for r in reports[0::2]]
        assert [r.epsilon for r in reports[1::2]] == eps
        assert floors.tolist() == [f for x in eps for f in (max(x, 1e-12), x)]
        assert primes.tolist() == [p for x in eps for p in (None, min(1.0, x + 0.1))]
        assert [r.epsilon_prime for r in reports] == primes.tolist()

    def test_mixed_rows_are_their_scalar_bounds_from_one_solve(self, monkeypatch):
        """Lemma 4, Meta 5 and Meta 6 rows at their own energies take one
        ``solve_betas`` call, each row the bits of its scalar bound; a bad
        Meta 6 pair raises ``meta_delta``'s error at its row, before any
        solve and before a later bad row."""
        h = HamiltonianSpec.oscillators([1.0], n_max=40)
        variants = ["meta6", "lemma4", "meta5", "lemma4", "meta6", "meta5", "lemma4", "meta6"]
        energies = [0.5, 2.0, 8.0, 1.0, 1e-3, 3.0, 2.0, 1e4]
        eps = [0.0, 0.3, 0.1, 0.0, 0.25, 0.0, 1.0, 0.5]
        primes = [0.2, None, 0.4, None, 1.0, 1e-3, math.nan, 0.75]
        meta = {"meta5": meta5_bound, "meta6": meta6_bound}
        expected = [lemma4_bound(h, e, x) if v == "lemma4" else meta[v](h, e, x, p)
                    for v, e, x, p in zip(variants, energies, eps, primes)]
        calls = []
        solve = gibbs.solve_betas
        monkeypatch.setattr(gibbs, "solve_betas",
                            lambda h, e: calls.append(e.tolist()) or solve(h, e))
        got = gibbs.energy_bound_stack(h, variants, energies, eps, primes)
        assert got.tobytes() == np.array(expected).tobytes()
        # every row but Lemma 4 at eps = 0, in row order
        assert calls == [[0.5 / meta_delta(0.0, 0.2), 2.0 / 0.3, 8.0 / meta_delta(0.1, 0.4),
                          1e-3 / meta_delta(0.25, 1.0), 3.0 / meta_delta(0.0, 1e-3), 2.0,
                          1e4 / meta_delta(0.5, 0.75)]]
        calls.clear()
        bad_eps, bad_primes = [*eps[:6], 1.5, 0.5], [*primes[:4], 0.2, *primes[5:]]
        with pytest.raises(ValueError, match=re.escape("need 0 <= eps < eps' <= 1, "
                                                       "got (0.25, 0.2)")):
            gibbs.energy_bound_stack(h, variants, energies, bad_eps, bad_primes)
        with pytest.raises(ValueError, match=r"epsilon 1.5 outside \[0, 1\]"):
            gibbs.energy_bound_stack(h, variants, energies, bad_eps, primes)
        with pytest.raises(ValueError, match="no energy bound 'lemma7'"):
            gibbs.energy_bound_stack(h, [*variants[:3], "lemma7", *variants[4:]], energies,
                                     bad_eps, bad_primes)
        assert calls == []

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_a_bad_energy_at_any_row_raises_before_any_solve(self, bad, monkeypatch):
        """A bad E at any row position raises the energy rule's error for
        that E, though an earlier row at eps = 0 solves nothing and a later
        row has a bad eps, with no ``solve_betas`` call; the scalar bounds
        raise it too."""
        calls = []
        monkeypatch.setattr(gibbs, "solve_betas", lambda h, e: calls.append(e))
        h = HamiltonianSpec.oscillators([1.0], n_max=40)
        message = f"^energy must be positive and finite, got {bad!r}$"
        variants = ["lemma4", "meta5", "meta6", "lemma4", "meta6"]
        eps, primes = [0.0, 0.1, 0.25, 0.5, 0.0], [None, 0.4, 1.0, None, 0.2]
        for j in range(len(variants)):
            energies = [2.0] * len(variants)
            energies[j] = bad
            with pytest.raises(EnergyDomainError, match=message):
                gibbs.energy_bound_stack(h, variants, energies, eps, primes)
            # a later row's bad eps does not come first
            later_bad = eps[:j + 1] + [1.5] * (len(eps) - j - 1)
            with pytest.raises(EnergyDomainError, match=message):
                gibbs.energy_bound_stack(h, variants, energies, later_bad, primes)
        for call in (lambda: lemma4_bound(h, bad, 0.25), lambda: lemma4_bound(h, bad, 0.0),
                     lambda: meta5_bound(h, bad, 0.1, 0.3), lambda: meta6_bound(h, bad, 0.1, 0.3)):
            with pytest.raises(EnergyDomainError, match=message):
                call()
        assert calls == []

    def test_a_one_mode_stack_takes_one_evaluation(self, monkeypatch):
        evals = []
        evaluate = gibbs._energies_and_slopes
        monkeypatch.setattr(gibbs, "_energies_and_slopes",
                            lambda h, b: evals.append(len(b)) or evaluate(h, b))
        gibbs.solve_betas(HamiltonianSpec.oscillators([1.0], n_max=256),
                          [0.5 * k for k in range(1, 41)])
        assert evals == [40]


def test_hamiltonian_repr_lists_python_floats():
    assert repr(HamiltonianSpec.oscillators([1.0, 2.0])) == (
        "HamiltonianSpec(oscillators=[1.0, 2.0], n_max=64)")


def test_conditional_witness_builds_no_product_space_matrix(monkeypatch):
    """At E = 2 the default cutoff is 57, so d^2 = 3,364: sigma is held as
    rank_one_kron parts, and no matrix of that size is read."""
    reads = []
    mat = HermitianOperator.mat
    monkeypatch.setattr(HermitianOperator, "mat",
                        property(lambda op: reads.append(op.dim) or mat.fget(op)))
    start = time.perf_counter()
    rho, sigma = oscillator_tightness_witness(2.0, 0.25, conditional=True)
    assert time.perf_counter() - start < 1.0
    assert rho.dims == sigma.dims == (58, 58)
    assert max(reads) == 58
    assert sigma.trace() == pytest.approx(1.0, abs=1e-12)


def _stacked(hamiltonian, energy, lemma4_epsilons, epsilons, epsilon_primes):
    """``gibbs.energy_bound_stack`` over the rows of the case walk of
    ``ref_lemma4_meta5_bounds`` (Lemma 4 before Meta 5 of case i, case i
    before case i + 1, each at its case's energy), its rhs split into the
    Lemma 4 and the Meta 5 rows as that reference returns them."""
    per_case = np.ndim(energy) > 0
    rows = []
    for i in range(max(len(lemma4_epsilons), len(epsilons))):
        e = energy[i] if per_case else energy
        if i < len(lemma4_epsilons):
            rows.append(("lemma4", e, lemma4_epsilons[i], None))
        if i < len(epsilons):
            rows.append(("meta5", e, epsilons[i], epsilon_primes[i]))
    variants, energies, eps, primes = (list(x) for x in zip(*rows)) if rows else ([],) * 4
    rhs = gibbs.energy_bound_stack(hamiltonian, variants, energies if per_case else energy,
                                   eps, primes)
    is4 = np.array([v == "lemma4" for v in variants], dtype=bool)
    return rhs[is4], rhs[~is4]


def ref_lemma4_meta5_bounds(hamiltonian, energy, lemma4_epsilons, epsilons, epsilon_primes):
    """``lemma4_meta5_bounds`` as it was before its argument rules became
    masks, kept verbatim (renamed) as the reference of its bits and errors:
    one walk over the cases in Python."""
    from entrobounds.bounds import _unit_interval
    eps4, eps5, ep5 = (np.asarray(x, dtype=float).reshape(-1).tolist()
                       for x in (lemma4_epsilons, epsilons, epsilon_primes))
    cases, xs = [], []
    for i in range(max(len(eps4), len(eps5))):
        if i < len(eps4):
            _unit_interval(eps4[i])
            if eps4[i] != 0.0:
                cases.append(i)
                xs.append(eps4[i])
        if i < len(eps5):
            cases.append(-1)
            xs.append(meta_delta(eps5[i], ep5[i]))
    x, case = np.array(xs, dtype=float), np.array(cases, dtype=int)
    with np.errstate(over="ignore"):
        sols = gibbs.solve_betas(hamiltonian, energy / x)
    for err in sols.errors:
        if err is not None:
            raise err
    is4 = case >= 0
    e4, d, ep = x[is4], x[~is4], np.array(ep5, dtype=float)
    h4, h_ep, h_d = np.split(binary_entropies(np.concatenate([e4, ep, d])),
                             [len(e4), len(e4) + len(ep)])
    lemma4 = np.zeros(len(eps4))
    lemma4[case[is4]] = 2.0 * e4 * sols.entropy[is4] + h4
    return lemma4, (ep + 2.0 * d) * sols.entropy[~is4] + h_ep + h_d
