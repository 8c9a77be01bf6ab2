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

Kernel rule: a solve makes one ``eigh`` per derivative evaluation
(``_slopes``) and one per accepted point (``_spectra``), whose eigen-data
also serve the next gradient, and no other.  ``np.log2`` reads a
contiguous array: on the flipped view that ``descending_eigh`` returns,
its strided loop can round a last bit apart from the vectorised one.

kappa, the largest variation of D_C over states, has one certified
bracket, ``kappa_bracket``.  Its low end is exact: by Klein's inequality
D(rho||gamma) >= -log2 tr gamma, so min_rho D_C(rho) = -log2 T with
T = max_i tr gamma_i, attained at gamma_i / tr gamma_i.  For every
simplex point w, max_rho D_C(rho) <= max_rho D(rho||gamma(w)) =
-log2 lambda_min(gamma(w)), and lambda_min(gamma(w)) is concave in w.  A
projected Newton ascent maximises it; hi = -log2 lambda_min + log2 T at
the best point, and the solve of its minimum eigenvector |v*> gives
lo = D_C(v*) - gap + log2 T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropies import relative_entropies, relative_entropy, von_neumann_entropies
from .linalg import (OUTSIDE_SUPPORT_ATOL, PSD_ATOL, as_operator, descending_eigh, row_dots,
                     support_mask)
from .states import DensityOperator, as_state, sample_pure_state

# The line search stops once |f'(t)| <= _SLOPE_RTOL |f'(0)|, or once its
# bracket is narrower than _STEP_RTOL t_max, or after _LINE_SEARCH_ITERS
# derivative evaluations.
_SLOPE_RTOL = 1e-10
_STEP_RTOL = 1e-12
_LINE_SEARCH_ITERS = 100
# Frank-Wolfe iterations after which a solve stops unconverged.
_MAX_ITERS = 2000
# The ascent of lambda_min smooths it at a temperature that starts at
# _SMOOTHING[0] times the largest generator eigenvalue and falls with the
# ascent's gap, down to _SMOOTHING[1] times it.  The ascent stops once its
# gap is at most _ASCENT_RTOL lambda_min, or after _ASCENT_EIGH
# eigendecompositions.
_SMOOTHING = (1e-2, 1e-6)
_ASCENT_RTOL = 1e-6
_ASCENT_EIGH = 100
# The duality gap to which ``estimate_kappa`` solves each of its probes.
_KAPPA_TOL = 1e-7
_LN2 = math.log(2.0)


class SingularMixtureError(RuntimeError):
    """Mixture singular on the support of rho; restrict the support or
    start from an interior point."""


@dataclass(frozen=True)
class ConvexSetModel:
    """Finitely generated convex set of PSD operators.

    At least one generator must be full rank (keeps the relative-entropy
    distance finite).  kappa, the largest variation of D_C over states,
    is not a setting of the model: ``kappa_bracket`` certifies it from
    the generators alone.
    """

    generators: list

    def __post_init__(self):
        if not self.generators:
            raise ValueError("generator list must be non-empty")
        gens = [as_operator(g) for g in self.generators]
        dims = sorted({g.dim for g in gens})
        if len(dims) > 1:
            raise ValueError(f"generators of mixed dimension {dims}")
        object.__setattr__(self, "generators", gens)
        if any(g.eigenvalues[-1] < -PSD_ATOL for g in gens):
            raise ValueError("generators must be PSD")
        if not any(support_mask(g.eigenvalues).all() for g in gens):
            raise ValueError("need at least one full-rank generator")

    @property
    def dim(self) -> int:
        return self.generators[0].dim


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


def _model_state(rho, model: ConvexSetModel) -> DensityOperator:
    """``rho`` as a state on the model's space."""
    rho = as_state(rho)
    if rho.dim != model.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {model.dim}")
    return rho


def _mixtures(gens: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The mixtures sum_i w[k, i] gens[i] for a stack of weights (n, m)."""
    return np.einsum("ki,ijl->kjl", w, gens)


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _spectra(rho: np.ndarray, mix: np.ndarray):
    """Eigen-data of a stack of mixtures, from one ``descending_eigh``.

    Returns ``(lam, u, rho_tilde, q)``: its eigenvalues (non-increasing)
    and eigenvectors, which pair in the objective and the divided
    differences, rho in that eigenbasis and its diagonal.  A
    mixture needs no symmetrising: a real-weighted sum of symmetrised
    generators is exactly Hermitian, and eigh reads one triangle anyway.
    """
    lam, u = descending_eigh(mix)
    left = _adjoint(u) @ rho
    return lam, u, left @ u, _diagonals(left, u)


def _diagonals(left: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The diagonals (n, d) of ``left @ u``, real part."""
    return np.real(np.einsum("kij,kji->ki", left, u))


def _outside(support: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The weight of each diagonal ``q`` off its ``support_mask``."""
    return np.where(support, 0.0, q).sum(axis=1)


def _divided_differences(lam: np.ndarray, support) -> np.ndarray:
    """First divided differences (n, d, d) of log2 at the eigenvalues
    ``lam``, zero on the rows and columns off ``support`` (None: the whole
    stack is inside it).

    Off the support the eigenvalue is replaced by 1, so nothing here
    divides by zero: the replaced values are positive and a - b is nonzero
    off ``close``.  log2 reads a contiguous copy: on a strided view its
    vector loop can round differently.
    """
    safe = np.ascontiguousarray(lam) if support is None else np.where(support, lam, 1.0)
    a, b = safe[:, :, None], safe[:, None, :]
    diff = a - b
    larger = np.maximum(a, b)
    close = np.abs(diff) <= 1e-10 * larger
    log_safe = np.log2(safe)
    np.copyto(diff, 1.0, where=close)
    dd = (log_safe[:, :, None] - log_safe[:, None, :]) / diff
    larger *= _LN2
    np.divide(1.0, larger, out=dd, where=close)
    if support is not None:
        dd = np.where(support[:, :, None] & support[:, None, :], dd, 0.0)
    return dd


def _log2_divided_differences(lam: np.ndarray, q: np.ndarray):
    """First divided differences of log2 at the eigenvalues ``lam``.

    Returns ``(dd, outside)``: the (n, d, d) divided differences, zero on
    rows and columns outside the support, and the weight ``q`` of rho
    outside the support (exactly 0 where every eigenvalue is inside it).
    """
    support = support_mask(lam)
    if support.all():
        return _divided_differences(lam, None), np.zeros(len(lam))
    return _divided_differences(lam, support), _outside(support, q)


def _contract(rho_tilde: np.ndarray, dd: np.ndarray, x_tilde: np.ndarray) -> np.ndarray:
    """-tr[rho Dlog2[x]] over the last two axes, all in the mixture eigenbasis."""
    return -(rho_tilde.swapaxes(-1, -2) * (dd * x_tilde)).sum(axis=(-2, -1)).real


def _gradients(gens, lam, u, rho_tilde, q) -> np.ndarray:
    """Gradients (n, m) of w -> D(rho || gamma(w)) from ``_spectra``."""
    dd, outside = _log2_divided_differences(lam, q)
    if (outside > OUTSIDE_SUPPORT_ATOL).any():
        raise SingularMixtureError(
            f"rho has weight {outside.max():.3e} outside the mixture support"
        )
    g_tilde = _adjoint(u)[:, None] @ gens @ u[:, None]
    return _contract(rho_tilde[:, None], dd[:, None], g_tilde)


def _slopes(rho: np.ndarray, mix: np.ndarray, d_mix: np.ndarray) -> np.ndarray:
    """Derivatives of the objective at the mixtures ``mix`` along the
    operator directions ``d_mix`` = sum_i d_i gamma_i; +inf where ``mix``
    is singular on the support of rho (the objective is +inf there).
    One ``descending_eigh``; the diagonal of rho in its basis is read only
    where an eigenvalue is outside the support."""
    lam, u = descending_eigh(mix)
    u_h = _adjoint(u)
    left = u_h @ rho
    support = support_mask(lam)
    inside = support.all()
    dd = _divided_differences(lam, None if inside else support)
    slopes = _contract(left @ u, dd, u_h @ d_mix @ u)
    if not inside:
        slopes[_outside(support, _diagonals(left, u)) > OUTSIDE_SUPPORT_ATOL] = math.inf
    return slopes


def _line_search(rho, mix, d_mix, slope0, t_max) -> np.ndarray:
    """Exact line minimizers over [0, t_max] along the segments
    ``mix + t d_mix`` of a function convex in t.

    ``slope0 < 0`` is the derivative at t = 0.  An element gets ``t_max``
    when its derivative there is <= 0; otherwise its root is found by
    Illinois regula falsi, bisecting while the upper end of its bracket has
    derivative +inf.  Each round evaluates the derivatives of all segments
    still searching in one stack.  The bracket is held for those segments
    alone, in the order of ``run``, and is compressed only in a round
    after which one of them stops.
    """
    t = t_max.copy()
    s_hi = _slopes(rho, mix + t_max[:, None, None] * d_mix, d_mix)
    run = np.flatnonzero(s_hi > 0.0)
    rho, mix, d_mix = rho[run], mix[run], d_mix[run]
    lo, hi, s_lo, s_hi = np.zeros(run.size), t_max[run], slope0[run], s_hi[run]
    flat, narrow = _SLOPE_RTOL * -slope0[run], _STEP_RTOL * t_max[run]
    # Illinois: an end kept twice in a row has its slope halved, so that
    # both ends of the bracket keep moving; a factor is 0.5 where the end
    # was kept in the last round
    f_lo = f_hi = np.ones(run.size)
    for _ in range(_LINE_SEARCH_ITERS):
        if not run.size:
            break
        t_run = np.where(np.isinf(s_hi), 0.5 * (lo + hi), lo - s_lo * (hi - lo) / (s_hi - s_lo))
        t[run] = t_run
        s = _slopes(rho, mix + t_run[:, None, None] * d_mix, d_mix)
        up = s < 0.0
        lo, s_lo = np.where(up, t_run, lo), np.where(up, s, s_lo * f_lo)
        hi, s_hi = np.where(up, hi, t_run), np.where(up, s_hi * f_hi, s)
        f_hi = np.where(up, 0.5, 1.0)
        f_lo = 1.5 - f_hi
        going = (np.abs(s) > flat) & (hi - lo > narrow)
        if not going.all():
            run, rho, mix, d_mix, lo, hi, s_lo, s_hi, flat, narrow, f_lo, f_hi = (
                a[going] for a in (run, rho, mix, d_mix, lo, hi, s_lo, s_hi, flat, narrow,
                                   f_lo, f_hi))
    return t


def _start_weights(start, m: int) -> np.ndarray:
    w = np.asarray(start, dtype=float)
    if w.shape != (m,):
        raise ValueError(f"start has shape {w.shape}, the model has {m} generators")
    return SimplexPoint(w).weights


def _check_tolerance(tol) -> None:
    """A solver tolerance is a duality gap the solve can reach: finite, >= 0."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"solver tolerance must be a finite number >= 0, got {tol!r}")


def _finish(results, live, done, it, value, w, gap, tol) -> None:
    """The results of the elements ``done`` of ``live``, which finish at
    iteration ``it``."""
    for k, v, wk, g in zip(live[done].tolist(), value[done].tolist(), w[done],
                           gap[done].tolist()):
        results[k] = OptimizerResult(value=v, weights=SimplexPoint(wk), iterations=it,
                                     converged=bool(g <= tol), gap=g)


def dc_minimize_stack(rhos, model: ConvexSetModel, tol: float = 1e-6,
                      starts=None) -> list[OptimizerResult]:
    """``dc_minimize`` for each state of ``rhos``, run in lockstep.

    Every element follows exactly the iterations it would follow alone;
    the stack only shares the eigendecompositions of each round.
    ``starts``, if given, holds one simplex point per state.  The solve
    holds the state of its live elements alone, in the order of ``live``,
    and compresses it only at an iteration at which one of them finishes.
    """
    _check_tolerance(tol)
    rhos = [_model_state(r, model) for r in rhos]
    gens = _generators(model)
    n, m = len(rhos), len(gens)
    if starts is None:
        w = np.full((n, m), 1.0 / m)
    else:
        if len(starts) != n:
            raise ValueError(f"{len(starts)} starts for {n} states")
        w = np.array([_start_weights(s, m) for s in starts])
    if not n:
        return []
    rho = np.stack([r.mat for r in rhos])
    neg_s = -von_neumann_entropies(np.stack([r.eigenvalues for r in rhos]))
    mix = _mixtures(gens, w)
    lam, u, rho_tilde, q = _spectra(rho, mix)
    value = relative_entropies(neg_s, lam, q)
    # a gradient reads its eigenvectors contiguous, so that its products go
    # through BLAS whatever layout eigh leaves: on the flipped view they
    # would take numpy's own loop, whose rounding need not match
    u = np.ascontiguousarray(u)
    results = [None] * n
    live, stalled = np.arange(n), np.zeros(n, dtype=int)
    for it in range(1, _MAX_ITERS + 1):
        if not live.size:
            break
        grad = _gradients(gens, lam, u, rho_tilde, q)
        rows = np.arange(live.size)
        fw_dir = -w
        fw_dir[rows, grad.argmin(axis=1)] += 1.0
        gap = -row_dots(grad, fw_dir)
        searching = gap > tol
        if not searching.all():
            _finish(results, live, ~searching, it, value, w, gap, tol)
            live, rho, neg_s, w, value, mix, lam, u, rho_tilde, q, stalled, gap, grad, fw_dir = (
                a[searching] for a in (live, rho, neg_s, w, value, mix, lam, u, rho_tilde, q,
                                       stalled, gap, grad, fw_dir))
            if not live.size:
                break
            rows = np.arange(live.size)
        # away direction: push mass off the worst active vertex; weights
        # below 1e-12 are numerical dust, not candidates
        away_vertex = np.where(w > 1e-12, grad, -math.inf).argmax(axis=1)
        away_dir = w.copy()
        away_dir[rows, away_vertex] -= 1.0
        away_gap = -row_dots(grad, away_dir)
        w_away = w[rows, away_vertex]
        away = (away_gap > gap) & (w_away < 1.0 - 1e-15)
        direction = np.where(away[:, None], away_dir, fw_dir)
        slope0 = -np.where(away, away_gap, gap)
        t_max = np.ones(live.size)
        np.divide(w_away, 1.0 - w_away, out=t_max, where=away)
        t = _line_search(rho, mix, _mixtures(gens, direction), slope0, t_max)
        # drop step: by convexity the search returns t_max exactly when the
        # full away step is no worse; zero the vertex exactly, otherwise its
        # residual weight stalls future away steps
        w_new = np.maximum(w + t[:, None] * direction, 0.0)
        drop = away & (t == t_max)
        w_new[rows[drop], away_vertex[drop]] = 0.0
        w_new[w_new < 1e-12] = 0.0
        w_new /= w_new.sum(axis=1, keepdims=True)
        # the eigen-data of an accepted point also serve its next gradient
        mix_new = _mixtures(gens, w_new)
        lam_new, u_new, rho_tilde_new, q_new = _spectra(rho, mix_new)
        value_new = relative_entropies(neg_s, lam_new, q_new)
        better = value_new < value
        new = (w_new, value_new, mix_new, lam_new, np.ascontiguousarray(u_new), rho_tilde_new,
               q_new)
        if better.all():
            w, value, mix, lam, u, rho_tilde, q = new
        else:
            for old, part in zip((w, value, mix, lam, u, rho_tilde, q), new):
                old[better] = part[better]
        stalled = np.where(better, 0, stalled + 1)
        going = stalled < 100
        if not going.all():
            _finish(results, live, ~going, it, value, w, gap, tol)
            live, rho, neg_s, w, value, mix, lam, u, rho_tilde, q, stalled, gap = (
                a[going] for a in (live, rho, neg_s, w, value, mix, lam, u, rho_tilde, q,
                                   stalled, gap))
    _finish(results, live, slice(None), _MAX_ITERS, value, w, gap, tol)
    return results


def dc_objective(rho: DensityOperator, model: ConvexSetModel, w) -> float:
    """D(rho || gamma(w)) in bits; +inf outside the support."""
    mix = _mixtures(_generators(model), np.asarray(w, dtype=float)[None])[0]
    return relative_entropy(rho, mix)


def dc_gradient(rho: DensityOperator, weights, model: ConvexSetModel) -> np.ndarray:
    """Gradient of w -> D(rho || gamma(w)) via divided differences of log2."""
    rho = _model_state(rho, model)
    gens = _generators(model)
    mix = _mixtures(gens, np.asarray(weights, dtype=float)[None])
    return _gradients(gens, *_spectra(rho.mat[None], mix))[0]


def dc_minimize(rho: DensityOperator, model: ConvexSetModel,
                tol: float = 1e-6, start=None) -> OptimizerResult:
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
    the simplex over the generators, and ``tol`` a finite number >= 0;
    anything else raises ``ValueError``.
    This is ``dc_minimize_stack`` on a stack of one.
    """
    starts = None if start is None else [start]
    return dc_minimize_stack([rho], model, tol=tol, starts=starts)[0]


def _soft_min(lam: np.ndarray, mu: float):
    """The soft minimum f = -mu ln sum_j exp(-lam_j/mu) of an ascending
    spectrum, which lies between lam[0] - mu ln d and lam[0], and its Gibbs
    weights p = exp(-lam/mu)/Z."""
    e = np.exp((lam[0] - lam) / mu)
    total = e.sum()
    return lam[0] - mu * math.log(total), e / total


def _soft_min_derivatives(gens, lam, u, p, mu):
    """Gradient (m,) and Hessian (m, m) in w of the soft minimum f.

    The gradient is g_i = tr[P gamma_i] for the Gibbs state
    P = sum_j p_j |u_j><u_j|.  The Hessian pairs the generators in the
    eigenbasis: off the diagonal with the divided differences
    (p_j - p_k)/(lam_j - lam_k) of p, written with expm1 so that close
    eigenvalues lose no digits; on it with -1/mu times the p-covariance of
    their diagonals, a sum of squares in which nothing cancels.
    """
    g_tilde = _adjoint(u)[None] @ gens @ u[None]
    diag = g_tilde.diagonal(axis1=1, axis2=2).real
    grad = diag @ p
    # lam is ascending, so p[min(j, k)] is the larger weight of a pair
    index = np.arange(len(lam))
    p_low = p[np.minimum.outer(index, index)]
    spread = np.abs(lam[:, None] - lam[None, :])
    apart = spread > 0.0
    dd = np.where(apart, p_low * np.expm1(-spread / mu) / np.where(apart, spread, 1.0),
                  -p_low / mu)
    dd.flat[::len(lam) + 1] = 0.0
    centred = diag - grad[:, None]
    hess = (np.real(np.einsum("ijk,jk,ljk->il", g_tilde, dd, g_tilde.conj()))
            - (centred * p) @ centred.T / mu)
    return grad, hess


def _newton_step(grad, hess, w):
    """Maximiser of grad.s + s.hess.s/2 over sum(s) = 0, with s zero off
    the face spanned by the support of ``w`` and the vertex of largest
    gradient.  That vertex leaves the face again when the step would take
    its weight below zero.  A tiny ridge keeps flat directions finite: the
    step then runs to the boundary, where the caller's ratio test stops it.
    """
    face = w > 0.0
    face[grad.argmax()] = True
    while True:
        idx = np.flatnonzero(face)
        n = len(idx)
        curvature = -hess[idx[:, None], idx]
        ridge = 1e-12 * (np.abs(grad).max() + max(curvature.diagonal().max(), 0.0))
        kkt = np.ones((n + 1, n + 1))
        kkt[:n, :n] = curvature + ridge * np.eye(n)
        kkt[n, n] = 0.0
        rhs = np.zeros(n + 1)
        rhs[:n] = grad[idx]
        step = np.zeros_like(w)
        step[idx] = np.linalg.solve(kkt, rhs)[:n]
        blocked = (w == 0.0) & (step < 0.0)
        if not blocked.any():
            return step
        face &= ~blocked


def _max_min_eigenvalue(gens: np.ndarray, scale: float):
    """Approach max_w lambda_min(gamma(w)) over the simplex from below.

    Projected Newton ascent on the soft minimum f of the spectrum of
    gamma(w), from the uniform weights, with an Armijo backtracking search
    whose longest step ends on the boundary of the simplex (the weights
    that reach it drop to zero).  For every state P, lambda_min(gamma(w))
    <= tr[P gamma(w)] <= max_i tr[P gamma_i], so the Gibbs state behind
    each gradient bounds the optimum from above.  The temperature falls to
    a quarter of the gap between that bound and the best lambda_min over
    max(ln d, 1), so that smoothing never costs more than a quarter of the
    gap.  The ascent stops once the gap is within _ASCENT_RTOL of the best
    lambda_min, when a step makes no progress, or when its budget of
    eigendecompositions is spent.  ``scale`` bounds the generators' norms.
    Returns the largest lambda_min seen and its eigenvector.
    """
    log_d = max(math.log(gens.shape[-1]), 1.0)
    mu, mu_min = _SMOOTHING[0] * scale, _SMOOTHING[1] * scale
    w = np.full(len(gens), 1.0 / len(gens))
    lam, u = np.linalg.eigh(_mixtures(gens, w[None])[0])
    best, upper = (lam[0], u[:, 0]), math.inf
    budget = _ASCENT_EIGH - 1
    while budget:
        f, p = _soft_min(lam, mu)
        grad, hess = _soft_min_derivatives(gens, lam, u, p, mu)
        upper = min(upper, grad.max())
        if upper - best[0] <= _ASCENT_RTOL * best[0]:
            break
        step = _newton_step(grad, hess, w)
        slope = grad @ step
        if not slope > 0.0:
            break
        shrinking = step < 0.0
        ratios = np.where(shrinking, w / np.where(shrinking, -step, 1.0), math.inf)
        t = min(1.0, ratios.min())
        while budget:
            budget -= 1
            w_new = np.maximum(w + t * step, 0.0)
            w_new[ratios <= t] = 0.0
            w_new /= w_new.sum()
            lam_new, u_new = np.linalg.eigh(_mixtures(gens, w_new[None])[0])
            if lam_new[0] > best[0]:
                best = (lam_new[0], u_new[:, 0])
            if _soft_min(lam_new, mu)[0] >= f + 1e-4 * t * slope:
                w, lam, u = w_new, lam_new, u_new
                break
            t *= 0.5
        mu = max(mu_min, min(mu, (upper - best[0]) / (4.0 * log_d)))
    return best


def kappa_bracket(model: ConvexSetModel,
                  states=()) -> tuple[float, float, list[OptimizerResult]]:
    """``(lo, hi, results)`` with lo <= kappa <= hi, certified.

    hi = -log2 lambda_min(gamma(w)) + log2 T at the best point w of the
    ascent, with lambda_min first lowered by a rounding allowance: eigh is
    backward stable, so the computed eigenvalue is that of a matrix within
    a small multiple of d eps ||gamma(w)|| of the mixture, and forming the
    mixture in floating point adds at most m d eps max_i ||gamma_i||.  hi
    is +inf when no mixture is certifiably full rank.  lo = value - gap +
    log2 T from the solve of |v*><v*|, v* the minimum eigenvector at w:
    D_C there is at least value - gap, and min D_C = -log2 T.  That solve
    runs in one ``dc_minimize_stack`` after ``states``, whose results come
    back in order.  An empty bracket (lo > hi) means a rounding error
    beyond the allowance of hi and raises ``ArithmeticError``.
    """
    states = [_model_state(s, model) for s in states]
    gens = _generators(model)
    m, d = gens.shape[:2]
    scale = max(g.eigenvalues[0] for g in model.generators)
    lam_min, v = _max_min_eigenvalue(gens, scale)
    lam_min -= 8 * d * (m + 1) * np.finfo(float).eps * scale
    log2_t = math.log2(max(g.trace() for g in model.generators))
    hi = -math.log2(lam_min) + log2_t if lam_min > 0.0 else math.inf
    *results, witness = dc_minimize_stack([*states, DensityOperator.pure(v)], model)
    lo = witness.value - witness.gap + log2_t
    if lo > hi:
        raise ArithmeticError(f"empty kappa bracket [{lo!r}, {hi!r}]")
    return lo, hi, results


def estimate_kappa(model: ConvexSetModel, rng=None, n_probes: int = 200) -> float:
    """Sampled estimate of the largest variation of D_C over states.

    D_C is convex, hence maximized on pure states; the max is probed over
    random pure states plus basis vectors, the min over those probes, the
    normalized generators and the maximally mixed state.  All of them are
    minimized in one lockstep stack.  Being a max and a min over finitely
    many points, the estimate can only fall short of the true variation
    (up to ``_KAPPA_TOL``): an underestimate, not a certificate; callers flag it
    as such.  ``kappa_bracket`` certifies kappa from both sides.
    """
    if n_probes < 0:
        raise ValueError(f"n_probes must be >= 0, got {n_probes}")
    rng = np.random.default_rng(rng if rng is not None else 0)
    d = model.dim
    probes = [sample_pure_state(d, rng) for _ in range(n_probes)]
    probes += [DensityOperator.pure(e) for e in np.eye(d)]
    lo_candidates = [DensityOperator.maximally_mixed(d)]
    for g in model.generators:
        tr = g.trace()
        if tr > 1e-12:
            lo_candidates.append(DensityOperator(g.mat / tr))
    values = [r.value for r in dc_minimize_stack(probes + lo_candidates, model, tol=_KAPPA_TOL)]
    return max(values[:len(probes)]) - min(values)
