import math

import numpy as np
import pytest

from entrobounds import dc_optimizer
from entrobounds.bounds import ConvexSetModel
from entrobounds.dc_optimizer import (
    SimplexPoint,
    SingularMixtureError,
    dc_gradient,
    dc_minimize,
    dc_minimize_stack,
    dc_objective,
    estimate_kappa,
)
from entrobounds.entropies import conditional_entropy, relative_entropy, von_neumann_entropy
from entrobounds.harness import CampaignConfig, run_campaign
from entrobounds.linalg import HermitianOperator
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
    def test_invalid_start_raises_before_any_eigendecomposition(self, monkeypatch, start, match):
        rng = np.random.default_rng(9)
        model = ConvexSetModel(generators=[sample_state(3, 3, rng).mat for _ in range(3)])
        rho = sample_state(3, 3, rng)

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigendecomposition before the start was checked")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        with pytest.raises(ValueError, match=match):
            dc_minimize(rho, model, start=start)

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
        # every minimisation, estimate_kappa's probes included, runs
        # through the stacked entry point
        results = []
        inner = dc_optimizer.dc_minimize_stack

        def recording(*args, **kwargs):
            res = inner(*args, **kwargs)
            results.extend(res)
            return res

        monkeypatch.setattr(dc_optimizer, "dc_minimize_stack", recording)
        run_campaign(CampaignConfig(suite="dc", dims=(2, 3), samples=3, seed=12))
        assert len(results) == 351
        assert all(r.converged for r in results)


class TestLockstep:
    """A stack runs every state exactly as a stack of one does."""

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


class TestKappaEstimate:
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
