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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import ConvexSetModel
from .entropies import relative_entropy
from .linalg import HermitianOperator
from .states import DensityOperator, sample_pure_state, _as_rng

# The line search stops once |f'(t)| <= _SLOPE_RTOL |f'(0)|, or once its
# bracket is narrower than _STEP_RTOL t_max, or after _LINE_SEARCH_ITERS
# derivative evaluations.
_SLOPE_RTOL = 1e-10
_STEP_RTOL = 1e-12
_LINE_SEARCH_ITERS = 100


class SingularMixtureError(RuntimeError):
    """Mixture singular on the support of rho; restrict the support or
    start from an interior point."""


@dataclass(frozen=True)
class SimplexPoint:
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if (w < -1e-12).any() or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"not a simplex point: {w!r}")
        object.__setattr__(self, "weights", np.clip(w, 0.0, None) / w.sum())


@dataclass(frozen=True)
class OptimizerResult:
    value: float
    weights: SimplexPoint
    iterations: int
    converged: bool
    gap: float


def _mixture(model: ConvexSetModel, w: np.ndarray) -> np.ndarray:
    out = np.zeros((model.dim, model.dim), dtype=complex)
    for wi, g in zip(w, model.generators):
        if wi != 0.0:
            out += wi * g.mat
    return out


def dc_objective(rho: DensityOperator, model: ConvexSetModel, w) -> float:
    """D(rho || gamma(w)) in bits; +inf outside the support."""
    return relative_entropy(rho, HermitianOperator(_mixture(model, np.asarray(w, float))))


def _eigenbasis_terms(rho: DensityOperator, mix: np.ndarray):
    """Spectral data of the mixture ``mix`` that its log2 derivatives need.

    Returns ``(u, rho_tilde, dd, outside)``: the eigenvectors of the
    mixture, rho in that eigenbasis, the first divided differences of log2
    of the eigenvalues (zero on rows and columns outside the support), and
    the weight of rho outside the support.
    """
    gamma = HermitianOperator(mix)
    lam = gamma.eigenvalues
    u = gamma.eigenvectors
    thr = max(gamma.zero_threshold(), 1e-14)
    support = lam > thr
    rho_tilde = u.conj().T @ rho.mat @ u
    outside = float(np.real(np.trace(rho_tilde[~support][:, ~support])))
    # rows/cols outside the support never couple to rho when outside ~ 0;
    # safe is positive and a - b is nonzero off ``close``, so nothing here
    # divides by zero
    safe = np.where(support, lam, 1.0)
    a = safe[:, None]
    b = safe[None, :]
    log_safe = np.log2(safe)
    close = np.abs(a - b) <= 1e-10 * np.maximum(a, b)
    dd = np.where(close,
                  1.0 / (np.maximum(a, b) * math.log(2.0)),
                  (log_safe[:, None] - log_safe[None, :]) / np.where(close, 1.0, a - b))
    dd[~support] = 0.0
    dd[:, ~support] = 0.0
    return u, rho_tilde, dd, outside


def dc_gradient(rho: DensityOperator, weights, model: ConvexSetModel) -> np.ndarray:
    """Gradient of w -> D(rho || gamma(w)) via divided differences of log2."""
    w = np.asarray(weights, dtype=float)
    u, rho_tilde, dd, outside = _eigenbasis_terms(rho, _mixture(model, w))
    if outside > 1e-10:
        raise SingularMixtureError(
            f"rho has weight {outside:.3e} outside the mixture support"
        )
    grad = np.empty(len(w))
    for i, g in enumerate(model.generators):
        g_tilde = u.conj().T @ g.mat @ u
        grad[i] = -float(np.real(np.sum(rho_tilde.T * (dd * g_tilde))))
    return grad


def _slope(rho: DensityOperator, mix: np.ndarray, d_mix: np.ndarray) -> float:
    """Derivative of the objective at the mixture ``mix`` along the
    operator direction ``d_mix`` = sum_i d_i gamma_i; +inf when ``mix`` is
    singular on the support of rho (the objective is +inf there)."""
    u, rho_tilde, dd, outside = _eigenbasis_terms(rho, mix)
    if outside > 1e-10:
        return math.inf
    d_tilde = u.conj().T @ d_mix @ u
    return -float(np.real(np.sum(rho_tilde.T * (dd * d_tilde))))


def _line_search(slope, slope0: float, t_max: float) -> float:
    """Exact line minimizer over [0, t_max] of a function convex in t.

    ``slope(t)`` is its derivative and ``slope0 = slope(0) < 0``.  Returns
    ``t_max`` when ``slope(t_max) <= 0``; otherwise finds the root of the
    slope by Illinois regula falsi, bisecting while the upper end of the
    bracket has slope +inf.
    """
    hi, s_hi = t_max, slope(t_max)
    if s_hi <= 0.0:
        return t_max
    lo, s_lo = 0.0, slope0
    kept = 0  # +1: hi survived the last step, -1: lo did
    for _ in range(_LINE_SEARCH_ITERS):
        if math.isinf(s_hi):
            t = 0.5 * (lo + hi)
        else:
            t = lo - s_lo * (hi - lo) / (s_hi - s_lo)
        s = slope(t)
        if abs(s) <= _SLOPE_RTOL * -slope0:
            break
        # Illinois: halve the slope of an end kept twice in a row, so
        # that both ends of the bracket keep moving
        if s < 0.0:
            lo, s_lo = t, s
            if kept > 0:
                s_hi *= 0.5
            kept = 1
        else:
            hi, s_hi = t, s
            if kept < 0:
                s_lo *= 0.5
            kept = -1
        if hi - lo <= _STEP_RTOL * t_max:
            break
    return t


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
    value.
    """
    m = len(model.generators)
    w = np.full(m, 1.0 / m) if start is None else np.asarray(start, float)
    value = dc_objective(rho, model, w)
    gap = math.inf
    it = 0
    stalled = 0
    for it in range(1, max_iters + 1):
        grad = dc_gradient(rho, w, model)
        fw_vertex = int(np.argmin(grad))
        fw_dir = -w.copy()
        fw_dir[fw_vertex] += 1.0
        gap = float(-(grad @ fw_dir))
        if gap <= tol:
            break
        # away direction: push mass off the worst active vertex; weights
        # below 1e-12 are numerical dust, not candidates
        active = np.where(w > 1e-12)[0]
        away_vertex = int(active[np.argmax(grad[active])])
        away_dir = w.copy()
        away_dir[away_vertex] -= 1.0
        away_gap = float(-(grad @ away_dir))
        drop_vertex = None
        if away_gap > gap and w[away_vertex] < 1.0 - 1e-15:
            direction, slope0 = away_dir, -away_gap
            t_max = w[away_vertex] / (1.0 - w[away_vertex])
            drop_vertex = away_vertex
        else:
            direction, slope0 = fw_dir, -gap
            t_max = 1.0
        mix, d_mix = _mixture(model, w), _mixture(model, direction)
        t = _line_search(lambda t: _slope(rho, mix + t * d_mix, d_mix), slope0, t_max)
        # drop step: by convexity the search returns t_max exactly when the
        # full away step is no worse; zero the vertex exactly, otherwise its
        # residual weight stalls future away steps
        w_new = np.clip(w + t * direction, 0.0, None)
        if drop_vertex is not None and t == t_max:
            w_new[drop_vertex] = 0.0
        w_new[w_new < 1e-12] = 0.0
        w_new /= w_new.sum()
        new_value = dc_objective(rho, model, w_new)
        if new_value < value:
            w, value = w_new, new_value
            stalled = 0
        else:
            stalled += 1
            if stalled >= 100:
                break
    return OptimizerResult(
        value=value,
        weights=SimplexPoint(w),
        iterations=it,
        converged=gap <= tol,
        gap=gap,
    )


def estimate_kappa(model: ConvexSetModel, rng=None, n_probes: int = 200,
                   tol: float = 1e-7) -> float:
    """Sampled estimate of the largest variation of D_C over states.

    D_C is convex, hence maximized on pure states; the max is probed over
    random pure states plus basis vectors, the min over those probes, the
    normalized generators and the maximally mixed state.  An estimate,
    not a certificate; callers flag it as such.
    """
    rng = _as_rng(rng if rng is not None else 0)
    d = model.dim
    probes = [sample_pure_state(d, rng) for _ in range(n_probes)]
    for k in range(d):
        e = np.zeros(d)
        e[k] = 1.0
        probes.append(DensityOperator.pure(e))
    values = [dc_minimize(p, model, tol=tol).value for p in probes]
    lo_candidates = [DensityOperator.maximally_mixed(d)]
    for g in model.generators:
        tr = g.trace()
        if tr > 1e-12:
            lo_candidates.append(DensityOperator(g.mat / tr))
    lo = min(dc_minimize(p, model, tol=tol).value for p in lo_candidates)
    return max(values) - min(lo, min(values))
