import math

import numpy as np
import pytest

from entrobounds import dc_optimizer
from entrobounds.bounds import ConvexSetModel
from entrobounds.dc_optimizer import (
    OptimizerResult,
    SimplexPoint,
    SingularMixtureError,
    dc_gradient,
    dc_minimize,
    dc_minimize_stack,
    dc_objective,
    estimate_kappa,
    kappa_bracket,
)
from entrobounds.entropies import (
    conditional_entropy,
    relative_entropies,
    relative_entropy,
    von_neumann_entropies,
    von_neumann_entropy,
)
from entrobounds.harness import CampaignConfig, run_campaign
from entrobounds.linalg import (
    OUTSIDE_SUPPORT_ATOL,
    HermitianOperator,
    descending_eigh,
    row_dots,
    support_mask,
)
from entrobounds.states import (
    BipartiteState,
    DensityOperator,
    partial_trace,
    sample_pure_state,
    sample_state,
)


def grid_oracle(rho, model, coarse=0.01, fine=0.001):
    """Independent minimizer: evaluate the objective on a full simplex grid
    (batched eigendecompositions), then refine around the best point."""
    m = len(model.generators)
    gens = np.stack([g.mat for g in model.generators])

    def batch_eval(weights):
        gammas = np.einsum("ki,ijl->kjl", weights, gens)
        lam, u = np.linalg.eigh(gammas)
        lam = np.clip(lam, 0.0, None)
        # q[k, a] = <u_a| rho |u_a> for mixture k
        q = np.real(np.einsum("kia,ij,kja->ka", u.conj(), rho.mat, u))
        out = np.full(len(weights), np.inf)
        neg_s = -von_neumann_entropy(rho)
        for k in range(len(weights)):
            supp = lam[k] > 1e-12
            if q[k][~supp].sum() > 1e-10:
                continue
            out[k] = neg_s - (q[k][supp] * np.log2(lam[k][supp])).sum()
        return out

    def simplex_grid(center, radius, step):
        # enumerate the first m-1 coordinates, last is the remainder
        axes = [np.arange(max(0.0, c - radius), min(1.0, c + radius) + step / 2, step)
                for c in center[:-1]]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m - 1)
        last = 1.0 - mesh.sum(axis=1)
        ok = last >= -1e-12
        return np.column_stack([mesh[ok], np.clip(last[ok], 0.0, None)])

    pts = simplex_grid(np.full(m, 0.5), 0.5, coarse)
    vals = batch_eval(pts)
    best = pts[int(np.argmin(vals))]
    pts2 = simplex_grid(best, coarse, fine)
    vals2 = batch_eval(pts2)
    k = int(np.argmin(vals2))
    return float(vals2[k]), pts2[k]


def finite_diff_gradient(rho, w, model, h=1e-6):
    """Central differences along simplex-tangent directions e_i - e_m."""
    m = len(model.generators)
    grad = np.zeros(m)
    base = dc_objective(rho, model, w)
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        up = dc_objective(rho, model, w + h * e)
        dn = dc_objective(rho, model, w - h * e)
        grad[i] = (up - dn) / (2 * h)
    return grad


def mixture(model, w):
    """The mixture sum_i w_i gamma_i, as a stack of one."""
    return dc_optimizer._mixtures(dc_optimizer._generators(model), np.asarray(w, float)[None])


def slope(rho, mix, d_mix):
    """The minimizer's directional derivative at a stack-of-one mixture."""
    return float(dc_optimizer._slopes(rho.mat[None], mix, d_mix)[0])


def segment_search(rho, model, w, direction, t_max):
    """The minimizer's line search along w + t direction, t in [0, t_max]."""
    mix = mixture(model, w)
    d_mix = mixture(model, direction)
    slope0 = float(dc_gradient(rho, w, model) @ direction)
    return float(dc_optimizer._line_search(
        rho.mat[None], mix, d_mix, np.array([slope0]), np.array([float(t_max)]))[0])


def segment_scan(rho, model, w, direction, t_max, levels=3, points=1001):
    """Independent line minimizer: the objective on a dense t grid (batched
    eigendecompositions), refined twice around the best point."""
    gens = np.stack([g.mat for g in model.generators])
    neg_s = -von_neumann_entropy(rho)

    def batch_eval(ts):
        gammas = np.einsum("ki,ijl->kjl", w + ts[:, None] * direction, gens)
        lam, u = np.linalg.eigh(gammas)
        q = np.real(np.einsum("kia,ij,kja->ka", u.conj(), rho.mat, u))
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(q > 1e-14, q * np.log2(np.clip(lam, 1e-300, None)), 0.0)
        return neg_s - terms.sum(axis=1)

    lo, hi = 0.0, t_max
    for _ in range(levels):
        ts = np.linspace(lo, hi, points)
        best = ts[int(np.argmin(batch_eval(ts)))]
        step = ts[1] - ts[0]
        lo, hi = max(0.0, best - step), min(t_max, best + step)
    return best


class TestSimplexPoint:
    def test_valid(self):
        p = SimplexPoint(np.array([0.25, 0.75]))
        np.testing.assert_allclose(p.weights, [0.25, 0.75])

    def test_invalid(self):
        with pytest.raises(ValueError, match="simplex"):
            SimplexPoint(np.array([0.5, 0.6]))

    def test_clipped_weights_sum_to_one(self):
        p = SimplexPoint(np.array([1.0 + 5e-13, 0.0, -5e-13]))
        assert abs(p.weights.sum() - 1.0) <= 1e-15
        assert (p.weights >= 0.0).all()


class TestModelDimension:
    def test_generators_of_mixed_dimension_are_rejected(self):
        with pytest.raises(ValueError, match=r"mixed dimension \[2, 3\]"):
            ConvexSetModel([np.eye(2) / 2, np.eye(3) / 3])

    def test_a_state_of_another_dimension_is_rejected_at_the_entry(self):
        model = ConvexSetModel([np.eye(3) / 3])
        rhos = [DensityOperator.maximally_mixed(3), DensityOperator.maximally_mixed(2)]
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
            dc_minimize_stack(rhos, model)

    def test_a_start_count_other_than_the_state_count_is_rejected(self):
        model = ConvexSetModel([np.eye(2) / 2])
        with pytest.raises(ValueError, match="0 starts for 1 states"):
            dc_minimize_stack([DensityOperator.maximally_mixed(2)], model, starts=[])


class TestObjectiveAndGradient:
    def test_member_state_gives_zero(self):
        rng = np.random.default_rng(0)
        gens = [sample_state(3, 3, rng).mat for _ in range(3)]
        model = ConvexSetModel(generators=gens)
        w = np.array([0.2, 0.5, 0.3])
        rho = DensityOperator(sum(wi * g for wi, g in zip(w, gens)))
        assert dc_objective(rho, model, w) == pytest.approx(0.0, abs=1e-10)
        res = dc_minimize(rho, model)
        assert res.converged
        assert res.value <= 1e-6

    def test_objective_matches_relative_entropy(self):
        rng = np.random.default_rng(1)
        gens = [sample_state(3, 3, rng).mat for _ in range(2)]
        model = ConvexSetModel(generators=gens)
        rho = sample_state(3, 3, rng)
        w = np.array([0.4, 0.6])
        mix = HermitianOperator(0.4 * gens[0] + 0.6 * gens[1])
        assert dc_objective(rho, model, w) == pytest.approx(
            relative_entropy(rho, mix), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            gens = [sample_state(3, 3, rng).mat for _ in range(3)]
            model = ConvexSetModel(generators=gens)
            rho = sample_state(3, 3, rng)
            w = rng.dirichlet(np.ones(3))
            g_exact = dc_gradient(rho, w, model)
            g_num = finite_diff_gradient(rho, w, model)
            rel = np.abs(g_exact - g_num).max() / max(np.abs(g_num).max(), 1.0)
            assert rel < 1e-6

    def test_gradient_certifies_convexity(self):
        # f(v) >= f(w) + grad(w) . (v - w) for the convex objective
        rng = np.random.default_rng(3)
        gens = [sample_state(3, 3, rng).mat for _ in range(3)]
        model = ConvexSetModel(generators=gens)
        rho = sample_state(3, 3, rng)
        w = rng.dirichlet(np.ones(3))
        fw = dc_objective(rho, model, w)
        g = dc_gradient(rho, w, model)
        for _ in range(20):
            v = rng.dirichlet(np.ones(3))
            assert dc_objective(rho, model, v) >= fw + g @ (v - w) - 1e-9

    def test_singular_mixture_raises(self):
        model = ConvexSetModel(generators=[np.diag([1.0, 0.0]), np.eye(2) / 2])
        rho = DensityOperator.diagonal([0.0, 1.0])
        with pytest.raises(SingularMixtureError, match="support"):
            dc_gradient(rho, np.array([1.0, 0.0]), model)

    def test_objective_and_gradient_share_one_support(self):
        # 7e-13 is below 1e-12 max(lambda_max, 1) but above 1e-12 lambda_max:
        # outside the support for the objective, hence for the gradient and
        # for relative_entropy
        model = ConvexSetModel(generators=[np.diag([0.5, 7e-13]), np.eye(2) / 2])
        rho = DensityOperator.maximally_mixed(2)
        w = np.array([1.0, 0.0])
        assert dc_objective(rho, model, w) == math.inf
        assert relative_entropy(rho, np.diag([0.5, 7e-13])) == math.inf
        with pytest.raises(SingularMixtureError, match="support"):
            dc_gradient(rho, w, model)


class TestMinimizer:
    def test_qubit_closed_form(self):
        # C = conv{|0><0|, 1/2}: for rho = |0><0| the optimum is the vertex
        # |0><0| itself, value 0; for rho = |1><1| the segment is
        # gamma(t) = diag(1 - t/2, t/2), minimized at t = 1 with value 1.
        model = ConvexSetModel(generators=[np.diag([1.0, 0.0]), np.eye(2) / 2])
        res0 = dc_minimize(DensityOperator.diagonal([1.0, 0.0]), model)
        assert res0.value == pytest.approx(0.0, abs=1e-6)
        res1 = dc_minimize(DensityOperator.diagonal([0.0, 1.0]), model)
        assert res1.value == pytest.approx(1.0, abs=1e-6)
        assert res1.weights.weights[1] == pytest.approx(1.0, abs=1e-6)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            gens = [sample_state(3, 3, rng).mat for _ in range(3)]
            model = ConvexSetModel(generators=gens)
            rho = sample_state(3, 3, rng)
            res = dc_minimize(rho, model)
            oracle_val, _ = grid_oracle(rho, model)
            assert res.converged
            assert res.value <= oracle_val + 1e-6
            assert res.value >= oracle_val - 1e-5

    def test_multistart_agrees(self):
        rng = np.random.default_rng(5)
        gens = [sample_state(4, 4, rng).mat for _ in range(4)]
        model = ConvexSetModel(generators=gens)
        rho = sample_state(4, 4, rng)
        base = dc_minimize(rho, model).value
        for _ in range(5):
            start = rng.dirichlet(np.ones(4))
            other = dc_minimize(rho, model, start=start).value
            assert abs(other - base) < 1e-6

    @pytest.mark.parametrize("start, match", [
        ([0.5, 0.5], "3 generators"),
        ([0.7, 0.7, 0.7], "simplex"),
        ([np.nan, 0.5, 0.5], "simplex"),
    ])
    def test_invalid_start_raises_before_any_eigendecomposition(self, solver_calls, start, match):
        rng = np.random.default_rng(9)
        model = ConvexSetModel(generators=[sample_state(3, 3, rng).mat for _ in range(3)])
        rho = sample_state(3, 3, rng)
        solver_calls.clear()
        with pytest.raises(ValueError, match=match):
            dc_minimize(rho, model, start=start)
        assert solver_calls == [], "eigendecomposition before the start was checked"

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_a_tolerance_the_solve_cannot_meet_is_rejected(self, solver_calls, tol):
        # a NaN tolerance stopped a solve after one iteration, unconverged;
        # an infinite one certified the uniform start; a negative one ran
        # every solve to its stall limit
        rng = np.random.default_rng(9)
        model = ConvexSetModel(generators=[sample_state(3, 3, rng).mat for _ in range(3)])
        rho = sample_state(3, 3, rng)
        solver_calls.clear()
        for solve in (lambda: dc_minimize(rho, model, tol=tol),
                      lambda: dc_minimize_stack([rho, rho], model, tol=tol)):
            with pytest.raises(ValueError, match=f"finite number >= 0, got {tol!r}$"):
                solve()
        assert solver_calls == []

    def test_a_zero_tolerance_is_met_by_a_zero_gap(self):
        res = dc_minimize(sample_state(2, 2, np.random.default_rng(0)),
                          ConvexSetModel(generators=[np.eye(2) / 2]), tol=0.0)
        assert (res.converged, res.gap, res.iterations) == (True, 0.0, 1)

    def test_gap_bounds_suboptimality(self):
        rng = np.random.default_rng(6)
        gens = [sample_state(3, 3, rng).mat for _ in range(3)]
        model = ConvexSetModel(generators=gens)
        rho = sample_state(3, 3, rng)
        rough = dc_minimize(rho, model, tol=1e-3)
        tight = dc_minimize(rho, model)
        assert rough.value - tight.value <= rough.gap + 1e-6

    def test_product_set_closed_form(self):
        # C = {all 1/d_A (x) omega_B}: D_C(rho) over the B-marginal point
        # {1/d_A (x) rho_B} equals log2 d_A - S(A|B) via the identity
        # D(rho || 1/d_A (x) rho_B) = log2 d_A - S(A|B).
        rng = np.random.default_rng(7)
        state = BipartiteState(sample_state(6, 6, rng), (2, 3))
        marg = partial_trace(state, "B")
        model = ConvexSetModel(generators=[np.kron(np.eye(2) / 2, marg.mat)])
        res = dc_minimize(state, model)
        expected = 1.0 - conditional_entropy(state)
        assert res.value == pytest.approx(expected, abs=1e-8)


class TestLineSearch:
    QUBIT = ConvexSetModel(generators=[np.diag([1.0, 0.0]), np.eye(2) / 2])

    def test_returns_t_max_when_slope_never_positive(self):
        # rho = |1><1|: along w = (1 - s, s) the objective -log2(s/2)
        # decreases all the way to the vertex 1/2
        rho = DensityOperator.diagonal([0.0, 1.0])
        w = np.array([0.5, 0.5])
        direction = np.array([-0.5, 0.5])
        mix = mixture(self.QUBIT, w)
        d_mix = mixture(self.QUBIT, direction)
        for t in np.linspace(0.0, 1.0, 11):
            assert slope(rho, mix + t * d_mix, d_mix) < 0.0
        assert segment_search(rho, self.QUBIT, w, direction, 1.0) == 1.0
        res = dc_minimize(rho, self.QUBIT)
        assert res.weights.weights.tolist() == [0.0, 1.0]
        assert res.iterations == 2

    def test_matches_dense_scan(self):
        rng = np.random.default_rng(10)
        for i in range(20):
            gens = [sample_state(3, 3, rng).mat for _ in range(3)]
            model = ConvexSetModel(generators=gens)
            rho = sample_state(3, 3, rng)
            w = rng.dirichlet(np.ones(3))
            grad = dc_gradient(rho, w, model)
            if i % 2 == 0:
                # Frank-Wolfe segment towards the best vertex
                direction = -w.copy()
                direction[int(np.argmin(grad))] += 1.0
                t_max = 1.0
            else:
                # away segment off the worst vertex
                k = int(np.argmax(grad))
                direction = w.copy()
                direction[k] -= 1.0
                t_max = w[k] / (1.0 - w[k])
            t = segment_search(rho, model, w, direction, t_max)
            assert 0.0 <= t <= t_max
            assert abs(t - segment_scan(rho, model, w, direction, t_max)) <= 1e-6 * t_max

    def test_away_step_to_singular_mixture(self):
        # rho = diag(0.9, 0.1) = 0.8 |0><0| + 0.2 (1/2); the away step off
        # 1/2 from w = (0.3, 0.7) ends at |0><0|, which misses supp(rho)
        rho = DensityOperator.diagonal([0.9, 0.1])
        w = np.array([0.3, 0.7])
        direction = np.array([0.3, -0.3])
        t_max = 0.7 / 0.3
        assert slope(rho, mixture(self.QUBIT, w + t_max * direction),
                     mixture(self.QUBIT, direction)) == math.inf
        t = segment_search(rho, self.QUBIT, w, direction, t_max)
        assert 0.0 < t < t_max
        assert t == pytest.approx(5.0 / 3.0, abs=1e-9)
        res = dc_minimize(rho, self.QUBIT, start=w)
        assert res.converged
        assert res.value == pytest.approx(0.0, abs=1e-6)

    def test_every_criterion_12_minimization_converges(self, monkeypatch):
        # every minimisation runs through the stacked entry point: rho,
        # sigma and the kappa witness, one stack of 3 per case
        results = []
        inner = dc_optimizer.dc_minimize_stack

        def recording(*args, **kwargs):
            res = inner(*args, **kwargs)
            results.extend(res)
            return res

        monkeypatch.setattr(dc_optimizer, "dc_minimize_stack", recording)
        run_campaign(CampaignConfig(suite="dc", dims=(2, 3), samples=3, seed=12))
        assert len(results) == 18
        assert all(r.converged for r in results)


class TestLockstep:
    """A stack runs every state exactly as a stack of one does."""

    def test_an_empty_stack_has_no_results_after_the_tolerance_rule(self):
        model = ConvexSetModel([np.eye(2) / 2])
        assert dc_minimize_stack([], model) == []
        with pytest.raises(ValueError, match="solver tolerance must be a finite number >= 0"):
            dc_minimize_stack([], model, tol=-1.0)

    @staticmethod
    def assert_matches_solo(rhos, model, stacked):
        for rho, res in zip(rhos, stacked, strict=True):
            solo = dc_minimize(rho, model)
            assert res.iterations == solo.iterations
            assert res.converged == solo.converged
            assert abs(res.value - solo.value) <= 1e-12
            assert abs(res.gap - solo.gap) <= 1e-12
            np.testing.assert_allclose(res.weights.weights, solo.weights.weights, rtol=0, atol=1e-12)

    def test_fast_and_slow_probes(self):
        rng = np.random.default_rng(3)
        gens = [sample_state(3, 3, rng).mat for _ in range(3)]
        model = ConvexSetModel(generators=gens)
        rhos = ([sample_pure_state(3, rng) for _ in range(8)]
                + [sample_state(3, 3, rng) for _ in range(4)]
                + [DensityOperator(g / np.trace(g).real) for g in gens])
        stacked = dc_minimize_stack(rhos, model)
        iterations = [r.iterations for r in stacked]
        assert min(iterations) == 2 and max(iterations) >= 20
        self.assert_matches_solo(rhos, model, stacked)

    def test_rank_deficient_model_with_singular_endpoints(self, monkeypatch):
        # away steps off 1/3 head for the rank-one vertices, where the
        # mixture misses part of supp(rho)
        model = ConvexSetModel(generators=[np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]),
                                           np.eye(3) / 3])
        rng = np.random.default_rng(0)
        rhos = [DensityOperator.diagonal([0.9, 0.1, 0.0]), DensityOperator.diagonal([0.0, 0.0, 1.0]),
                DensityOperator.diagonal([0.5, 0.3, 0.2]), sample_pure_state(3, rng),
                sample_state(3, 2, rng)]
        singular = []
        inner = dc_optimizer._slopes

        def recording(*args):
            slopes = inner(*args)
            singular.extend(slopes[np.isinf(slopes)])
            return slopes

        monkeypatch.setattr(dc_optimizer, "_slopes", recording)
        stacked = dc_minimize_stack(rhos, model)
        assert singular
        assert all(r.converged for r in stacked)
        self.assert_matches_solo(rhos, model, stacked)


class TestEigendecompositions:
    def test_one_per_derivative_evaluation_and_per_accepted_point(self, monkeypatch,
                                                                  solver_calls):
        counts = dict.fromkeys(("_slopes", "_spectra"), 0)
        for name in counts:
            inner = getattr(dc_optimizer, name)

            def counted(*args, _name=name, _inner=inner):
                counts[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(dc_optimizer, name, counted)
        model, rng = _campaign_model(0, 1, 3)
        rhos = [sample_state(3, 3, rng), sample_state(3, 3, rng), sample_pure_state(3, rng)]
        solver_calls.clear()
        dc_minimize_stack(rhos, model)
        assert counts["_slopes"] > counts["_spectra"] > 0
        assert sum(name == "eigh" for name, _ in solver_calls) == sum(counts.values())


class TestKappaEstimate:
    def test_a_negative_probe_count_raises_and_names_it(self):
        model = ConvexSetModel([np.eye(2) / 2])
        with pytest.raises(ValueError, match="n_probes must be >= 0, got -3"):
            estimate_kappa(model, n_probes=-3)
        # no random probe: the basis vectors alone, D_C = 1 bit on each
        assert estimate_kappa(model, n_probes=0) == pytest.approx(1.0, abs=1e-5)

    def test_singleton_maximally_mixed(self):
        # C = {1/d}: D_C(rho) = log2 d - S(rho), so kappa = log2 d exactly
        for d in (2, 3):
            model = ConvexSetModel(generators=[np.eye(d) / d])
            est = estimate_kappa(model, rng=np.random.default_rng(0), n_probes=20)
            assert est == pytest.approx(math.log2(d), abs=1e-5)

    def test_estimate_never_negative(self):
        rng = np.random.default_rng(8)
        gens = [sample_state(3, 3, rng).mat for _ in range(3)]
        model = ConvexSetModel(generators=gens)
        assert estimate_kappa(model, rng=rng, n_probes=10) >= 0.0

    def test_matches_probe_by_probe_minimisation(self):
        # the stacked estimate equals the max/min over one dc_minimize per
        # probe on the same RNG stream
        rng = np.random.default_rng(11)
        gens = [sample_state(3, 3, rng).mat for _ in range(3)]
        model = ConvexSetModel(generators=gens)
        est = estimate_kappa(model, rng=np.random.default_rng(5), n_probes=15)
        probe_rng = np.random.default_rng(5)
        probes = ([sample_pure_state(3, probe_rng) for _ in range(15)]
                  + [DensityOperator.pure(e) for e in np.eye(3)])
        lows = [DensityOperator.maximally_mixed(3)] + [DensityOperator(g / np.trace(g).real)
                                                       for g in gens]
        high = [dc_minimize(p, model, tol=1e-7).value for p in probes]
        low = [dc_minimize(p, model, tol=1e-7).value for p in lows]
        assert est == pytest.approx(max(high) - min(high + low), abs=1e-12)


def _campaign_model(seed, case, d):
    """The set of ``verify dc`` case ``case`` at ``--seed seed``, drawn as
    ``harness._case_dc`` draws it, with the RNG left where the case's
    states end."""
    rng = np.random.default_rng([seed, case])
    model = ConvexSetModel(generators=[sample_state(d, d, rng).mat for _ in range(3)])
    sample_state(d, d, rng), sample_state(d, d, rng)
    return model, rng


class TestKappaBracket:
    """lo <= kappa <= hi from one ascent and one solve.  lo carries the
    solver's rounding, so where lo meets kappa exactly it may pass it by a
    few ulps; hi carries its own rounding allowance."""

    def test_singleton_maximally_mixed(self):
        # C = {1/d}: D_C(rho) = log2 d - S(rho), so kappa = log2 d exactly
        for d in (2, 3):
            lo, hi, _ = kappa_bracket(ConvexSetModel(generators=[np.eye(d) / d]))
            assert lo <= math.log2(d) + 1e-14
            assert math.log2(d) <= hi <= math.log2(d) + 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_commuting_bipartite_set(self, d):
        # C = {1_A (x) |j><j|_B} and 1_A (x) 1_B/d_B, the finite form of
        # criterion 7's set {1_A (x) xi}: Phi attains max D_C = log2 d_B
        # and the Klein minimum is -log2 d_A (every generator has trace
        # d_A), so kappa = log2 d_A + log2 d_B
        eye = np.eye(d)
        gens = [np.kron(eye, np.outer(e, e)) for e in eye] + [np.eye(d * d) / d]
        model = ConvexSetModel(generators=gens)
        kappa = 2.0 * math.log2(d)
        lo, hi, _ = kappa_bracket(model)
        assert lo <= kappa <= hi <= kappa + 1e-12
        phi = DensityOperator.pure(np.eye(d).reshape(-1))
        assert dc_minimize(phi, model).value == pytest.approx(math.log2(d), abs=1e-6)

    def test_random_models(self):
        # rank-deficient generators of traces other than 1, beside one
        # full-rank state; the sampled estimate, a lower end of kappa up to
        # its solver tolerance, stays below hi
        rng = np.random.default_rng(31)
        for _ in range(30):
            d, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            gens = [sample_state(d, int(rng.integers(1, d + 1)), rng).mat * rng.uniform(0.2, 3.0)
                    for _ in range(m)]
            gens.append(sample_state(d, d, rng).mat)
            model = ConvexSetModel(generators=gens)
            lo, hi, _ = kappa_bracket(model)
            assert lo <= hi
            assert estimate_kappa(model, rng=rng, n_probes=10) <= hi + 1e-6

    def test_sampled_estimate_of_the_campaign_falls_below_lo(self):
        # dc_campaign's two cases; check_dc used to put estimate_kappa with
        # 50 probes on the case's RNG stream into the rhs
        for case, d in enumerate((2, 3)):
            model, rng = _campaign_model(0, case, d)
            lo, _, _ = kappa_bracket(model)
            assert estimate_kappa(model, rng=rng, n_probes=50) < lo

    @pytest.mark.parametrize("seed, case, d", [(0, 0, 2), (0, 1, 3)]
                             + [(12, k, 2 + k // 3) for k in range(6)])
    def test_campaign_brackets_are_tight(self, seed, case, d):
        # dc_campaign (seed 0) and the criterion-12 dc suite (seed 12)
        lo, hi, _ = kappa_bracket(_campaign_model(seed, case, d)[0])
        assert lo <= hi
        assert (hi - lo) / hi <= 0.01

    def test_states_share_the_witness_stack(self):
        # the bracket does not depend on the states solved beside its
        # witness, and each of them is solved as it is alone
        model, rng = _campaign_model(12, 4, 3)
        rhos = [sample_state(3, 3, rng), sample_state(3, 3, rng)]
        lo, hi, results = kappa_bracket(model, rhos)
        lo_alone, hi_alone, none = kappa_bracket(model)
        assert none == []
        assert hi == hi_alone
        assert abs(lo - lo_alone) <= 1e-12
        TestLockstep.assert_matches_solo(rhos, model, results)

    def test_empty_bracket_raises(self, monkeypatch):
        # an ascent claiming too large a lambda_min puts hi below lo
        model = _campaign_model(0, 0, 2)[0]
        ascent = dc_optimizer._max_min_eigenvalue
        monkeypatch.setattr(dc_optimizer, "_max_min_eigenvalue",
                            lambda gens, scale: (1e6, ascent(gens, scale)[1]))
        with pytest.raises(ArithmeticError, match="empty kappa bracket"):
            kappa_bracket(model)


# -- reference kernels ---------------------------------------------------------
#
# The solver's kernels as they were before their rounds were leaned, kept
# verbatim (renamed) as the references the lean ones must match bit for bit.


def ref_adjoint(a):
    return a.conj().swapaxes(-1, -2)


def ref_spectra(rho, mix):
    lam, u = descending_eigh(mix)
    left = ref_adjoint(u) @ rho
    q = np.real(np.einsum("kij,kji->ki", left, u))
    return lam, u, left @ u, q


def ref_log2_divided_differences(lam, q):
    support = support_mask(lam)
    outside = np.where(support, 0.0, q).sum(axis=1)
    # rows/cols outside the support never couple to rho when outside ~ 0;
    # safe is positive and a - b is nonzero off ``close``, so nothing here
    # divides by zero
    safe = np.where(support, lam, 1.0)
    a = safe[:, :, None]
    b = safe[:, None, :]
    log_safe = np.log2(safe)
    close = np.abs(a - b) <= 1e-10 * np.maximum(a, b)
    dd = np.where(close,
                  1.0 / (np.maximum(a, b) * math.log(2.0)),
                  (log_safe[:, :, None] - log_safe[:, None, :]) / np.where(close, 1.0, a - b))
    dd = np.where(support[:, :, None] & support[:, None, :], dd, 0.0)
    return dd, outside


def ref_contract(rho_tilde, dd, x_tilde):
    return -np.real(np.sum(rho_tilde.swapaxes(-1, -2) * (dd * x_tilde), axis=(-2, -1)))


def ref_gradients(gens, lam, u, rho_tilde, q):
    dd, outside = ref_log2_divided_differences(lam, q)
    if (outside > OUTSIDE_SUPPORT_ATOL).any():
        raise SingularMixtureError(
            f"rho has weight {outside.max():.3e} outside the mixture support"
        )
    g_tilde = ref_adjoint(u)[:, None] @ gens @ u[:, None]
    return ref_contract(rho_tilde[:, None], dd[:, None], g_tilde)


def ref_slopes(rho, mix, d_mix):
    lam, u, rho_tilde, q = ref_spectra(rho, mix)
    dd, outside = ref_log2_divided_differences(lam, q)
    slopes = ref_contract(rho_tilde, dd, ref_adjoint(u) @ d_mix @ u)
    slopes[outside > OUTSIDE_SUPPORT_ATOL] = math.inf
    return slopes


def ref_line_search(rho, mix, d_mix, slope0, t_max):
    t = t_max.copy()
    hi, s_hi = t_max.copy(), ref_slopes(rho, mix + t_max[:, None, None] * d_mix, d_mix)
    lo, s_lo = np.zeros_like(t_max), slope0.copy()
    kept = np.zeros(len(t), dtype=int)  # +1: hi survived the last step, -1: lo did
    run = np.flatnonzero(s_hi > 0.0)
    for _ in range(dc_optimizer._LINE_SEARCH_ITERS):
        if not run.size:
            break
        l, h, sl, sh = lo[run], hi[run], s_lo[run], s_hi[run]
        t[run] = np.where(np.isinf(sh), 0.5 * (l + h), l - sl * (h - l) / (sh - sl))
        s = ref_slopes(rho[run], mix[run] + t[run, None, None] * d_mix[run], d_mix[run])
        moving = np.abs(s) > dc_optimizer._SLOPE_RTOL * -slope0[run]
        # Illinois: halve the slope of an end kept twice in a row, so that
        # both ends of the bracket keep moving
        up = moving & (s < 0.0)
        down = moving & ~up
        i_up, i_down = run[up], run[down]
        s_hi[i_up[kept[i_up] > 0]] *= 0.5
        s_lo[i_down[kept[i_down] < 0]] *= 0.5
        lo[i_up], s_lo[i_up], kept[i_up] = t[i_up], s[up], 1
        hi[i_down], s_hi[i_down], kept[i_down] = t[i_down], s[down], -1
        run = run[moving]
        run = run[hi[run] - lo[run] > dc_optimizer._STEP_RTOL * t_max[run]]
    return t


def ref_minimize_stack(rhos, model, tol=1e-6, starts=None):
    rhos = [dc_optimizer._model_state(r, model) for r in rhos]
    gens = dc_optimizer._generators(model)
    n, m = len(rhos), len(gens)
    if starts is None:
        w = np.full((n, m), 1.0 / m)
    else:
        if len(starts) != n:
            raise ValueError(f"{len(starts)} starts for {n} states")
        w = np.array([dc_optimizer._start_weights(s, m) for s in starts])
    rho = np.stack([r.mat for r in rhos])
    neg_s = -von_neumann_entropies(np.stack([r.eigenvalues for r in rhos]))
    mix = dc_optimizer._mixtures(gens, w)
    lam, u, rho_tilde, q = ref_spectra(rho, mix)
    value = relative_entropies(neg_s, lam, q)
    gap = np.full(n, math.inf)
    iterations = np.zeros(n, dtype=int)
    stalled = np.zeros(n, dtype=int)
    live = np.arange(n)
    for it in range(1, dc_optimizer._MAX_ITERS + 1):
        if not live.size:
            break
        iterations[live] = it
        grad = ref_gradients(gens, lam[live], u[live], rho_tilde[live], q[live])
        rows = np.arange(live.size)
        fw_dir = -w[live]
        fw_dir[rows, grad.argmin(axis=1)] += 1.0
        gap[live] = -row_dots(grad, fw_dir)
        searching = gap[live] > tol
        live, grad, fw_dir = live[searching], grad[searching], fw_dir[searching]
        if not live.size:
            break
        # away direction: push mass off the worst active vertex; weights
        # below 1e-12 are numerical dust, not candidates
        rows = np.arange(live.size)
        w_live = w[live]
        away_vertex = np.where(w_live > 1e-12, grad, -math.inf).argmax(axis=1)
        away_dir = w_live.copy()
        away_dir[rows, away_vertex] -= 1.0
        away_gap = -row_dots(grad, away_dir)
        w_away = w_live[rows, away_vertex]
        away = (away_gap > gap[live]) & (w_away < 1.0 - 1e-15)
        direction = np.where(away[:, None], away_dir, fw_dir)
        slope0 = -np.where(away, away_gap, gap[live])
        t_max = np.ones(live.size)
        t_max[away] = w_away[away] / (1.0 - w_away[away])
        t = ref_line_search(rho[live], mix[live], dc_optimizer._mixtures(gens, direction), slope0,
                            t_max)
        # drop step: by convexity the search returns t_max exactly when the
        # full away step is no worse; zero the vertex exactly, otherwise its
        # residual weight stalls future away steps
        w_new = np.clip(w_live + t[:, None] * direction, 0.0, None)
        drop = away & (t == t_max)
        w_new[rows[drop], away_vertex[drop]] = 0.0
        w_new[w_new < 1e-12] = 0.0
        w_new /= w_new.sum(axis=1, keepdims=True)
        # the eigen-data of an accepted point also serve its next gradient
        mix_new = dc_optimizer._mixtures(gens, w_new)
        lam_new, u_new, rho_tilde_new, q_new = ref_spectra(rho[live], mix_new)
        value_new = relative_entropies(neg_s[live], lam_new, q_new)
        better = value_new < value[live]
        acc = live[better]
        w[acc], value[acc], mix[acc] = w_new[better], value_new[better], mix_new[better]
        lam[acc], u[acc] = lam_new[better], u_new[better]
        rho_tilde[acc], q[acc] = rho_tilde_new[better], q_new[better]
        stalled[acc] = 0
        stalled[live[~better]] += 1
        live = live[stalled[live] < 100]
    return [OptimizerResult(value=float(value[k]), weights=SimplexPoint(w[k]),
                            iterations=int(iterations[k]), converged=bool(gap[k] <= tol),
                            gap=float(gap[k]))
            for k in range(n)]


def _unitary(d, rng):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _kernel_element(kind, d, rng):
    """A (rho, mix, d_mix) triple of one of four kinds: 0 a generic mixture;
    1 a mixture singular on the support of rho (slope +inf, the ``outside``
    branch); 2 an exactly diagonal mixture with repeated eigenvalues; 3 a
    rotated one, whose eigenvalues meet to rounding (the ``close`` branch)."""
    rho = sample_state(d, d, rng).mat
    mix = sample_state(d, d, rng).mat
    if kind == 1:
        mix = sample_state(d, max(d - 1 - int(rng.integers(0, 2)), 1), rng).mat
    elif kind >= 2:
        lam = np.repeat(rng.dirichlet(np.ones((d + 1) // 2)), 2)[:d]
        mix = np.diag(lam / lam.sum()).astype(complex)
        if kind == 3:
            v = _unitary(d, rng)
            mix = v @ mix @ v.conj().T
            mix = 0.5 * (mix + mix.conj().T)
    d_mix = sample_state(d, d, rng).mat - sample_state(d, d, rng).mat
    return rho, mix, d_mix


def _kernel_stacks():
    """Seeded stacks of n in {1, 3, 32} elements at d in {2, 3, 4, 16}, each
    cycling through the four kinds of ``_kernel_element`` from every offset."""
    for n in (1, 3, 32):
        for d in (2, 3, 4, 16):
            rng = np.random.default_rng([n, d])
            for offset in range(4):
                parts = [_kernel_element((offset + k) % 4, d, rng) for k in range(n)]
                yield n, d, offset, *(np.stack(p) for p in zip(*parts))


def _segments(model, rhos, rng):
    """The line-search inputs of a Frank-Wolfe or an away segment from a
    random interior point for each state of ``rhos``, the way the solver
    sets them up."""
    gens = dc_optimizer._generators(model)
    m = len(gens)
    stack = {key: [] for key in ("rho", "mix", "d_mix", "slope0", "t_max")}
    for i, rho in enumerate(rhos):
        w = rng.dirichlet(np.ones(m))
        grad = dc_gradient(rho, w, model)
        if i % 2 == 0:
            direction = -w
            direction[int(np.argmin(grad))] += 1.0
            t_max = 1.0
        else:
            k = int(np.argmax(grad))
            direction = w.copy()
            direction[k] -= 1.0
            t_max = w[k] / (1.0 - w[k])
        slope0 = float(grad @ direction)
        if not slope0 < 0.0:
            continue
        stack["rho"].append(rho.mat)
        stack["mix"].append(dc_optimizer._mixtures(gens, w[None])[0])
        stack["d_mix"].append(dc_optimizer._mixtures(gens, direction[None])[0])
        stack["slope0"].append(slope0)
        stack["t_max"].append(t_max)
    return tuple(np.array(v) for v in stack.values())


RANK_DEFICIENT = ConvexSetModel(generators=[np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]),
                                            np.eye(3) / 3])


class TestLeanKernels:
    """The lean kernels against the references above, bit for bit."""

    @pytest.mark.parametrize("n, d, offset, rho, mix, d_mix", list(_kernel_stacks()))
    def test_slopes_and_divided_differences(self, n, d, offset, rho, mix, d_mix):
        lam, u, rho_tilde, q = ref_spectra(rho, mix)
        assert lam.strides[-1] < 0  # eigh's ascending output, read reversed
        for spectrum in (lam, np.ascontiguousarray(lam)):
            dd, outside = dc_optimizer._log2_divided_differences(spectrum, q)
            ref_dd, ref_outside = ref_log2_divided_differences(spectrum, q)
            assert np.array_equal(dd, ref_dd)
            assert np.array_equal(outside, ref_outside)
        slopes = dc_optimizer._slopes(rho, mix, d_mix)
        assert np.array_equal(slopes, ref_slopes(rho, mix, d_mix))
        if n > 1 and offset == 0:
            assert np.isinf(slopes).any() and np.isfinite(slopes).any()

    def test_log2_reads_a_contiguous_spectrum(self):
        # eigenvalues at which numpy's strided log2 loop and its vectorised
        # one round a last bit apart (seen on an AVX-512 build), passed as
        # eigh's ascending spectrum read reversed
        lam = np.sort([float.fromhex(h) for h in (
            "0x1.1457cbb568bccp-8", "0x1.0c5b724b30654p-1", "0x1.1be8a4343e8f1p-1",
            "0x1.ea47930762f58p-3", "0x1.9564cae08c9d9p-2", "0x1.ae150201c1e5ap-2",
            "0x1.013fef94a59d1p-5", "0x1.252057864e609p-10")])[None]
        view = lam[:, ::-1]
        for got, want in zip(dc_optimizer._log2_divided_differences(view, np.zeros_like(view)),
                             ref_log2_divided_differences(view, np.zeros_like(view))):
            assert np.array_equal(got, want)

    def test_the_stacks_reach_every_branch(self):
        close = outside = 0
        for *_, rho, mix, _ in _kernel_stacks():
            lam, _, _, q = ref_spectra(rho, mix)
            ties = np.abs(np.diff(lam, axis=1)) <= 1e-10 * lam[:, :-1]
            close += int(ties.any())
            outside += int((ref_log2_divided_differences(lam, q)[1] > OUTSIDE_SUPPORT_ATOL).any())
        assert close and outside

    @pytest.mark.parametrize("d", [2, 3, 4, 16])
    @pytest.mark.parametrize("n", [1, 3, 32])
    def test_line_search(self, n, d):
        rng = np.random.default_rng([n, d, 1])
        model = ConvexSetModel(generators=[sample_state(d, int(rng.integers(1, d + 1)), rng).mat
                                           for _ in range(2)] + [sample_state(d, d, rng).mat])
        rhos = [sample_state(d, int(rng.integers(1, d + 1)), rng) for _ in range(n)]
        args = _segments(model, rhos, rng)
        assert np.array_equal(dc_optimizer._line_search(*args), ref_line_search(*args))

    def test_line_search_to_singular_endpoints(self):
        rng = np.random.default_rng(5)
        rhos = [sample_state(3, 3, rng) for _ in range(16)]
        args = _segments(RANK_DEFICIENT, rhos, rng)
        singular = ref_slopes(args[0], args[1] + args[4][:, None, None] * args[2], args[2])
        assert np.isinf(singular).any()
        assert np.array_equal(dc_optimizer._line_search(*args), ref_line_search(*args))

    @pytest.mark.parametrize("case", range(4))
    def test_minimize_stack(self, case):
        rng = np.random.default_rng([7, case])
        d, tol = [(3, 1e-6), (2, 1e-9), (4, 1e-3), (3, 1e-6)][case]
        model = (RANK_DEFICIENT if case == 3 else
                 ConvexSetModel(generators=[sample_state(d, int(rng.integers(1, d + 1)), rng).mat
                                            for _ in range(3)] + [sample_state(d, d, rng).mat]))
        rhos = ([sample_pure_state(d, rng) for _ in range(4)]
                + [sample_state(d, int(rng.integers(1, d + 1)), rng) for _ in range(4)])
        if case == 3:
            rhos += [DensityOperator.diagonal([0.9, 0.1, 0.0]),
                     DensityOperator.diagonal([0.0, 0.0, 1.0])]
        starts = [rng.dirichlet(np.ones(len(model.generators))) for _ in rhos] if case else None
        lean = dc_minimize_stack(rhos, model, tol=tol, starts=starts)
        ref = ref_minimize_stack(rhos, model, tol=tol, starts=starts)
        for a, b in zip(lean, ref, strict=True):
            assert (a.value, a.gap, a.iterations, a.converged) == (b.value, b.gap, b.iterations,
                                                                   b.converged)
            assert np.array_equal(a.weights.weights, b.weights.weights)
