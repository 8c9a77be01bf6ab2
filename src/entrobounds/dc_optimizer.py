"""Frank-Wolfe minimization of D(rho || sum_i w_i gamma_i) over the simplex.

The objective is jointly convex in the mixture, the linear subproblem
over the simplex is an argmin over the m vertices, and the Frank-Wolfe
duality gap certifies suboptimality, so the returned value is within
``gap`` (at most ``tol`` whenever ``converged`` is set) of the true
minimum.

Gradient: d/dw_i [-tr rho log2 gamma(w)] = -tr[rho Dlog_gamma[gamma_i]],
assembled in the eigenbasis of gamma(w) with first divided differences
of log2: (log2 a - log2 b)/(a - b) off the diagonal, 1/(a ln 2) on it.
The derivative along a direction d is the same contraction with the one
operator sum_i d_i gamma_i, so each line-search step costs one
eigendecomposition.

The solver runs a stack of states against one set in lockstep: each
step is one batched eigendecomposition of the ``(n, d, d)`` mixtures of
the states that still need it, and a state drops out of every later
eigendecomposition once it has finished.  ``dc_minimize`` is the stack
of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import ConvexSetModel
from .entropies import _EIG_FLOOR, von_neumann_entropy
from .linalg import ZERO_EIGENVALUE_RTOL
from .states import DensityOperator, sample_pure_state, _as_rng

# The line search stops once |f'(t)| <= _SLOPE_RTOL |f'(0)|, or once its
# bracket is narrower than _STEP_RTOL t_max, or after _LINE_SEARCH_ITERS
# derivative evaluations.
_SLOPE_RTOL = 1e-10
_STEP_RTOL = 1e-12
_LINE_SEARCH_ITERS = 100
# Weight of rho outside the mixture support above which D is +inf.
_OUTSIDE_TOL = 1e-10


class SingularMixtureError(RuntimeError):
    """Mixture singular on the support of rho; restrict the support or
    start from an interior point."""


@dataclass(frozen=True)
class SimplexPoint:
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if not ((w >= -1e-12).all() and abs(w.sum() - 1.0) <= 1e-12):
            raise ValueError(f"not a simplex point: {w!r}")
        w = np.clip(w, 0.0, None)
        object.__setattr__(self, "weights", w / w.sum())


@dataclass(frozen=True)
class OptimizerResult:
    value: float
    weights: SimplexPoint
    iterations: int
    converged: bool
    gap: float


def _generators(model: ConvexSetModel) -> np.ndarray:
    return np.stack([g.mat for g in model.generators])


def _mixtures(gens: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The mixtures sum_i w[k, i] gens[i] for a stack of weights (n, m)."""
    return np.einsum("ki,ijl->kjl", w, gens)


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _spectra(rho: np.ndarray, mix: np.ndarray):
    """Eigen-data of a stack of mixtures, as ``HermitianOperator`` takes it.

    Returns ``(lam, u, rho_tilde, q)``: eigenvalues in non-increasing
    order, the eigenvectors, rho in that eigenbasis and its diagonal.
    """
    lam, u = np.linalg.eigh((mix + _adjoint(mix)) / 2)
    lam, u = lam[:, ::-1], u[:, :, ::-1]
    left = _adjoint(u) @ rho
    q = np.real(np.einsum("kij,kji->ki", left, u))
    return lam, u, left @ u, q


def _values(neg_s: np.ndarray, lam: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(rho || mixture) in bits from ``_spectra``; +inf outside the support."""
    if (lam[:, -1] < -1e-10).any():
        raise ValueError("gamma is not positive semidefinite")
    lam0 = lam[:, :1]
    thr = np.maximum(ZERO_EIGENVALUE_RTOL * np.maximum(lam0, 0.0),
                     _EIG_FLOOR * np.maximum(np.abs(lam0), 1.0))
    keep = lam > thr
    log_terms = np.where(keep, q * np.log2(np.where(keep, lam, 1.0)), 0.0)
    values = neg_s - log_terms.sum(axis=1)
    values[np.where(keep, 0.0, q).sum(axis=1) > _OUTSIDE_TOL] = math.inf
    return values


def _log2_divided_differences(lam: np.ndarray, q: np.ndarray):
    """First divided differences of log2 at the eigenvalues ``lam``.

    Returns ``(dd, outside)``: the (n, d, d) divided differences, zero on
    rows and columns outside the support, and the weight ``q`` of rho
    outside the support.
    """
    thr = np.maximum(ZERO_EIGENVALUE_RTOL * np.maximum(lam[:, :1], 0.0), 1e-14)
    support = lam > thr
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


def _contract(rho_tilde: np.ndarray, dd: np.ndarray, x_tilde: np.ndarray) -> np.ndarray:
    """-tr[rho Dlog2[x]] over the last two axes, all in the mixture eigenbasis."""
    return -np.real(np.sum(rho_tilde.swapaxes(-1, -2) * (dd * x_tilde), axis=(-2, -1)))


def _gradients(gens, lam, u, rho_tilde, q) -> np.ndarray:
    """Gradients (n, m) of w -> D(rho || gamma(w)) from ``_spectra``."""
    dd, outside = _log2_divided_differences(lam, q)
    if (outside > _OUTSIDE_TOL).any():
        raise SingularMixtureError(
            f"rho has weight {outside.max():.3e} outside the mixture support"
        )
    g_tilde = _adjoint(u)[:, None] @ gens @ u[:, None]
    return _contract(rho_tilde[:, None], dd[:, None], g_tilde)


def _slopes(rho: np.ndarray, mix: np.ndarray, d_mix: np.ndarray) -> np.ndarray:
    """Derivatives of the objective at the mixtures ``mix`` along the
    operator directions ``d_mix`` = sum_i d_i gamma_i; +inf where ``mix``
    is singular on the support of rho (the objective is +inf there)."""
    lam, u, rho_tilde, q = _spectra(rho, mix)
    dd, outside = _log2_divided_differences(lam, q)
    slopes = _contract(rho_tilde, dd, _adjoint(u) @ d_mix @ u)
    slopes[outside > _OUTSIDE_TOL] = math.inf
    return slopes


def _line_search(rho, mix, d_mix, slope0, t_max) -> np.ndarray:
    """Exact line minimizers over [0, t_max] along the segments
    ``mix + t d_mix`` of a function convex in t.

    ``slope0 < 0`` is the derivative at t = 0.  An element gets ``t_max``
    when its derivative there is <= 0; otherwise its root is found by
    Illinois regula falsi, bisecting while the upper end of its bracket has
    derivative +inf.  Each round evaluates the derivatives of all segments
    still searching in one stack.
    """
    t = t_max.copy()
    hi, s_hi = t_max.copy(), _slopes(rho, mix + t_max[:, None, None] * d_mix, d_mix)
    lo, s_lo = np.zeros_like(t_max), slope0.copy()
    kept = np.zeros(len(t), dtype=int)  # +1: hi survived the last step, -1: lo did
    run = np.flatnonzero(s_hi > 0.0)
    for _ in range(_LINE_SEARCH_ITERS):
        if not run.size:
            break
        l, h, sl, sh = lo[run], hi[run], s_lo[run], s_hi[run]
        t[run] = np.where(np.isinf(sh), 0.5 * (l + h), l - sl * (h - l) / (sh - sl))
        s = _slopes(rho[run], mix[run] + t[run, None, None] * d_mix[run], d_mix[run])
        moving = np.abs(s) > _SLOPE_RTOL * -slope0[run]
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
        run = run[hi[run] - lo[run] > _STEP_RTOL * t_max[run]]
    return t


def _start_weights(start, m: int) -> np.ndarray:
    w = np.asarray(start, dtype=float)
    if w.shape != (m,):
        raise ValueError(f"start has shape {w.shape}, the model has {m} generators")
    return SimplexPoint(w).weights


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (n, m) stacks, rounded as a 1-D
    ``a[k] @ b[k]`` is."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def dc_minimize_stack(rhos, model: ConvexSetModel, tol: float = 1e-6,
                      max_iters: int = 2000, starts=None) -> list[OptimizerResult]:
    """``dc_minimize`` for each state of ``rhos``, run in lockstep.

    Every element follows exactly the iterations it would follow alone;
    the stack only shares the eigendecompositions of each round.
    ``starts``, if given, holds one simplex point per state.
    """
    gens = _generators(model)
    n, m = len(rhos), len(gens)
    if starts is None:
        w = np.full((n, m), 1.0 / m)
    else:
        if len(starts) != n:
            raise ValueError(f"{len(starts)} starts for {n} states")
        w = np.array([_start_weights(s, m) for s in starts])
    rho = np.stack([r.mat for r in rhos])
    neg_s = np.array([-von_neumann_entropy(r) for r in rhos])
    mix = _mixtures(gens, w)
    lam, u, rho_tilde, q = _spectra(rho, mix)
    value = _values(neg_s, lam, q)
    gap = np.full(n, math.inf)
    iterations = np.zeros(n, dtype=int)
    stalled = np.zeros(n, dtype=int)
    live = np.arange(n)
    for it in range(1, max_iters + 1):
        if not live.size:
            break
        iterations[live] = it
        grad = _gradients(gens, lam[live], u[live], rho_tilde[live], q[live])
        rows = np.arange(live.size)
        fw_dir = -w[live]
        fw_dir[rows, grad.argmin(axis=1)] += 1.0
        gap[live] = -_dot(grad, fw_dir)
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
        away_gap = -_dot(grad, away_dir)
        w_away = w_live[rows, away_vertex]
        away = (away_gap > gap[live]) & (w_away < 1.0 - 1e-15)
        direction = np.where(away[:, None], away_dir, fw_dir)
        slope0 = -np.where(away, away_gap, gap[live])
        t_max = np.ones(live.size)
        t_max[away] = w_away[away] / (1.0 - w_away[away])
        t = _line_search(rho[live], mix[live], _mixtures(gens, direction), slope0, t_max)
        # drop step: by convexity the search returns t_max exactly when the
        # full away step is no worse; zero the vertex exactly, otherwise its
        # residual weight stalls future away steps
        w_new = np.clip(w_live + t[:, None] * direction, 0.0, None)
        drop = away & (t == t_max)
        w_new[rows[drop], away_vertex[drop]] = 0.0
        w_new[w_new < 1e-12] = 0.0
        w_new /= w_new.sum(axis=1, keepdims=True)
        # the eigen-data of an accepted point also serve its next gradient
        mix_new = _mixtures(gens, w_new)
        lam_new, u_new, rho_tilde_new, q_new = _spectra(rho[live], mix_new)
        value_new = _values(neg_s[live], lam_new, q_new)
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


def dc_objective(rho: DensityOperator, model: ConvexSetModel, w) -> float:
    """D(rho || gamma(w)) in bits; +inf outside the support."""
    mix = _mixtures(_generators(model), np.asarray(w, dtype=float)[None])
    lam, _, _, q = _spectra(rho.mat[None], mix)
    return float(_values(np.array([-von_neumann_entropy(rho)]), lam, q)[0])


def dc_gradient(rho: DensityOperator, weights, model: ConvexSetModel) -> np.ndarray:
    """Gradient of w -> D(rho || gamma(w)) via divided differences of log2."""
    gens = _generators(model)
    mix = _mixtures(gens, np.asarray(weights, dtype=float)[None])
    return _gradients(gens, *_spectra(rho.mat[None], mix))[0]


def dc_minimize(rho: DensityOperator, model: ConvexSetModel,
                tol: float = 1e-6, max_iters: int = 2000,
                start=None) -> OptimizerResult:
    """Away-step Frank-Wolfe with an exact derivative line search.

    Away steps restore linear convergence on the simplex (plain
    Frank-Wolfe zigzags near non-vertex boundary optima).  Each step
    minimizes the objective along its segment [0, t_max] by a root-find
    on the directional derivative (Illinois regula falsi): the step is
    t_max when the derivative is still <= 0 there, which for an away
    step drops the vertex from the active set, and a mixture singular on
    the support of rho counts as derivative +inf.  Converged when the
    Frank-Wolfe duality gap <= tol (bits).  ``gap`` bounds the distance
    of ``value`` from the true minimum whether or not the run converged.
    Iteration stops early when 100 consecutive steps fail to improve the
    value.  ``start`` (default: the uniform weights) must be a point of
    the simplex over the generators; anything else raises ``ValueError``.
    This is ``dc_minimize_stack`` on a stack of one.
    """
    starts = None if start is None else [start]
    return dc_minimize_stack([rho], model, tol=tol, max_iters=max_iters, starts=starts)[0]


def estimate_kappa(model: ConvexSetModel, rng=None, n_probes: int = 200,
                   tol: float = 1e-7) -> float:
    """Sampled estimate of the largest variation of D_C over states.

    D_C is convex, hence maximized on pure states; the max is probed over
    random pure states plus basis vectors, the min over those probes, the
    normalized generators and the maximally mixed state.  All of them are
    minimized in one lockstep stack.  Being a max and a min over finitely
    many points, the estimate can only fall short of the true variation
    (up to ``tol``): an underestimate, not a certificate; callers flag it
    as such.
    """
    rng = _as_rng(rng if rng is not None else 0)
    d = model.dim
    probes = [sample_pure_state(d, rng) for _ in range(n_probes)]
    probes += [DensityOperator.pure(e) for e in np.eye(d)]
    lo_candidates = [DensityOperator.maximally_mixed(d)]
    for g in model.generators:
        tr = g.trace()
        if tr > 1e-12:
            lo_candidates.append(DensityOperator(g.mat / tr))
    values = [r.value for r in dc_minimize_stack(probes + lo_candidates, model, tol=tol)]
    return max(values[:len(probes)]) - min(values)
