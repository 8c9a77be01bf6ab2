"""Frank-Wolfe minimization of D(rho || sum_i w_i gamma_i) over the simplex.

The objective is jointly convex in the mixture, the linear subproblem
over the simplex is an argmin over the m vertices, and the Frank-Wolfe
duality gap certifies suboptimality, so the returned value is within
``tol`` of the true minimum whenever ``converged`` is set.

Gradient: d/dw_i [-tr rho log2 gamma(w)] = -tr[rho Dlog_gamma[gamma_i]],
assembled in the eigenbasis of gamma(w) with first divided differences
of log2: (log2 a - log2 b)/(a - b) off the diagonal, 1/(a ln 2) on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import ConvexSetModel
from .entropies import relative_entropy
from .linalg import HermitianOperator
from .states import DensityOperator, sample_pure_state, _as_rng

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_LINE_SEARCH_ITERS = 60


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


def dc_gradient(rho: DensityOperator, weights, model: ConvexSetModel) -> np.ndarray:
    """Gradient of w -> D(rho || gamma(w)) via divided differences of log2."""
    w = np.asarray(weights, dtype=float)
    gamma = HermitianOperator(_mixture(model, w))
    lam = gamma.eigenvalues
    u = gamma.eigenvectors
    thr = max(gamma.zero_threshold(), 1e-14)
    support = lam > thr
    rho_tilde = u.conj().T @ rho.mat @ u
    if not support.all():
        outside = float(np.real(np.trace(rho_tilde[~support][:, ~support])))
        if outside > 1e-10:
            raise SingularMixtureError(
                f"rho has weight {outside:.3e} outside the mixture support"
            )
    # first divided differences of log2 on the support; rows/cols outside
    # the support never couple to rho (checked above)
    safe = np.where(support, lam, 1.0)
    a = safe[:, None]
    b = safe[None, :]
    close = np.abs(a - b) <= 1e-10 * np.maximum(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        dd = np.where(close,
                      1.0 / (np.maximum(a, b) * math.log(2.0)),
                      (np.log2(a) - np.log2(b)) / np.where(close, 1.0, a - b))
    dd = np.where(np.outer(support, support), dd, 0.0)
    grad = np.empty(len(w))
    for i, g in enumerate(model.generators):
        g_tilde = u.conj().T @ g.mat @ u
        grad[i] = -float(np.real(np.sum(rho_tilde.T * (dd * g_tilde))))
    return grad


def _golden_section(f, lo: float = 0.0, hi: float = 1.0) -> float:
    """Minimize a unimodal function on [lo, hi] with a fixed iteration count."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_LINE_SEARCH_ITERS):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def dc_minimize(rho: DensityOperator, model: ConvexSetModel,
                tol: float = 1e-6, max_iters: int = 2000,
                start=None) -> OptimizerResult:
    """Away-step Frank-Wolfe with golden-section line search.

    Away steps restore linear convergence on the simplex (plain
    Frank-Wolfe zigzags near non-vertex boundary optima).  Converged when
    the Frank-Wolfe duality gap <= tol (bits); the gap bounds the
    distance of ``value`` from the true minimum.  The gap certificate
    bottoms out around 1e-8: the line search cannot resolve objective
    differences below the eigensolver noise floor, even though the value
    itself converges much further.  Iteration stops early when 100
    consecutive steps fail to improve the value.
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
            direction = away_dir
            t_max = w[away_vertex] / (1.0 - w[away_vertex])
            drop_vertex = away_vertex
        else:
            direction = fw_dir
            t_max = 1.0
        t = _golden_section(lambda t: dc_objective(rho, model, w + t * direction),
                            0.0, t_max)
        # drop step: taking the full away step zeroes the vertex exactly,
        # otherwise its residual weight stalls future away steps
        if drop_vertex is not None and \
                dc_objective(rho, model, w + t_max * direction) <= \
                dc_objective(rho, model, w + t * direction):
            t = t_max
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
