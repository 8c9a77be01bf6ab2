"""Entropy functionals, all in bits (base-2 logarithms).

Natural-log constants appearing in closed-form bounds are carried as
explicit ``LOG2_E`` factors.  Eigenvalues below 1e-12 are treated as
exact zeros inside entropy sums (0 log 0 = 0).
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import as_operator
from .states import BipartiteState, ClassicalDistribution, DensityOperator, partial_trace

LOG2_E = math.log2(math.e)

_EIG_FLOOR = 1e-12


def _h_terms(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > _EIG_FLOOR]
    return float(-(p * np.log2(p)).sum())


def von_neumann_entropy(rho) -> float:
    """S(rho) = -tr rho log2 rho."""
    return _h_terms(as_operator(rho).eigenvalues)


def shannon_entropy(p) -> float:
    probs = p.probs if isinstance(p, ClassicalDistribution) else np.asarray(p, float)
    return _h_terms(probs)


def conditional_shannon(joint) -> float:
    """H(X|Y) = H(XY) - H(Y) for a joint probability matrix joint[x, y]."""
    joint = np.asarray(joint, dtype=float)
    return _h_terms(joint.reshape(-1)) - _h_terms(joint.sum(axis=0))


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x) on [0, 1]."""
    if not -1e-12 <= x <= 1 + 1e-12:
        raise ValueError(f"binary entropy argument {x!r} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    return _h_terms([x, 1.0 - x])


def clipped_binary(x: float) -> float:
    """h~(x): the binary entropy for x <= 1/2, constant 1 beyond."""
    if x < 0:
        raise ValueError(f"clipped binary entropy argument {x!r} negative")
    return 1.0 if x >= 0.5 else binary_entropy(x)


def conditional_entropy(state: BipartiteState) -> float:
    """S(A|B) = S(AB) - S(B)."""
    return von_neumann_entropy(state) - von_neumann_entropy(partial_trace(state, "B"))


def relative_entropy(rho: DensityOperator, gamma) -> float:
    """D(rho || gamma) = tr rho (log2 rho - log2 gamma), gamma PSD.

    gamma need not be normalized.  Returns ``math.inf`` when the support
    of rho is not contained in the support of gamma (never raises for
    support violations).
    """
    gamma_op = as_operator(gamma)
    rho_op = as_operator(rho)
    lam = gamma_op.eigenvalues
    u = gamma_op.eigenvectors
    thr = max(gamma_op.zero_threshold(), _EIG_FLOOR * max(abs(lam[0]), 1.0))
    if lam[-1] < -1e-10:
        raise ValueError("gamma is not positive semidefinite")
    keep = lam > thr
    # weight of rho outside supp(gamma) decides finiteness
    rho_diag = np.real(np.einsum("ij,ji->i", u.conj().T @ rho_op.mat, u))
    outside = rho_diag[~keep].sum()
    if outside > 1e-10:
        return math.inf
    log_gamma_term = float((rho_diag[keep] * np.log2(lam[keep])).sum())
    return -von_neumann_entropy(rho_op) - log_gamma_term


def gibbs_entropy_g(n: float) -> float:
    """g(N) = (N+1) log2(N+1) - N log2 N, the single-mode thermal entropy
    at mean occupation N."""
    if n < 0:
        raise ValueError(f"mean occupation must be nonnegative, got {n!r}")
    if n < 1e-300:
        return 0.0
    return (n + 1) * math.log2(n + 1) - n * math.log2(n)
