"""Entropy functionals, all in bits (base-2 logarithms).

Natural-log constants appearing in closed-form bounds are carried as
explicit ``LOG2_E`` factors.  Entropy sums keep every positive weight:
0 log 0 = 0 is a definition, not a tolerance, and ``linalg.support_mask``
is the one rule that cuts small eigenvalues to zero.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import OUTSIDE_SUPPORT_ATOL, PSD_ATOL, _operator_pair, support_mask
from .states import BipartiteState, DensityOperator, as_state, density_stack, marginal_of

LOG2_E = math.log2(math.e)


def _h_terms(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def von_neumann_entropies(spectra: np.ndarray) -> np.ndarray:
    """S(rho) = -tr rho log2 rho of each state of a stack from its spectrum
    (a row of the (n, d) ``spectra``): ``_h_terms`` of each row, bit for
    bit.  The rows with the same number k of positive entries are compacted
    to one (m, k) stack and summed along its rows, so each row's terms are
    grouped as in the sum of that row alone; a row summed with zeros in
    place of its nonpositive entries would be grouped differently."""
    pos = spectra > 0.0
    if pos.all():  # one group: every row as it is
        return -(spectra * np.log2(spectra)).sum(axis=1)
    counts = np.count_nonzero(pos, axis=1)
    out = np.empty(len(spectra))
    for k in set(counts.tolist()):
        rows = counts == k
        q = spectra[pos & rows[:, None]].reshape(np.count_nonzero(rows), k)
        out[rows] = -(q * np.log2(q)).sum(axis=1)
    return out


def conditional_entropies(spectra: np.ndarray, marginals: np.ndarray) -> np.ndarray:
    """S(A|B) = S(AB) - S(B) of each state of a stack on ``A (x) B`` from its
    spectrum (of the (n, D) ``spectra``) and unvalidated B marginal (of the
    (n, d_B, d_B) ``marginals``), the marginals validated as one stack."""
    s_b = von_neumann_entropies(density_stack(marginals).eigenvalues)
    return von_neumann_entropies(spectra) - s_b


def von_neumann_entropy(rho) -> float:
    """S(rho) of a state, the stack of one of ``von_neumann_entropies``."""
    return float(von_neumann_entropies(as_state(rho).eigenvalues[None])[0])


def shannon_entropy(p) -> float:
    return _h_terms(p)


def binary_entropies(x) -> np.ndarray:
    """h(x) = -x log2 x - (1-x) log2(1-x) at each x of a stack, as the
    entropies of the rows (x, 1 - x); the one home of h.  The first x (in
    stack order) outside [0, 1] by more than 1e-12, or NaN, raises; the
    others are clamped to [0, 1]."""
    x = np.asarray(x, dtype=float)
    bad = ~((x >= -1e-12) & (x <= 1 + 1e-12))
    if bad.any():
        raise ValueError(f"binary entropy argument {x[bad][0].item()!r} outside [0, 1]")
    x = np.minimum(np.maximum(x, 0.0), 1.0)
    return von_neumann_entropies(np.stack([x, 1.0 - x], axis=1))


def binary_entropy(x: float) -> float:
    """h(x) on [0, 1], the stack of one of ``binary_entropies``."""
    return float(binary_entropies([x])[0])


def clipped_binary(x: float) -> float:
    """h~(x): the binary entropy for x <= 1/2, constant 1 beyond."""
    if x < 0:
        raise ValueError(f"clipped binary entropy argument {x!r} negative")
    return 1.0 if x >= 0.5 else binary_entropy(x)


def conditional_entropy(state: BipartiteState) -> float:
    """S(A|B) of a bipartite state, the stack of one of ``conditional_entropies``."""
    return float(conditional_entropies(state.eigenvalues[None], marginal_of(state, "B")[None])[0])


def relative_entropies(neg_s: np.ndarray, lam: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(rho_k || gamma_k) in bits for a stack: ``neg_s`` holds -S(rho_k),
    ``lam`` the non-increasing spectra of the gamma_k and ``q`` the
    diagonals of rho_k in their eigenbases; +inf outside the support."""
    if (lam[:, -1] < -PSD_ATOL).any():
        raise ValueError("gamma is not positive semidefinite")
    keep = support_mask(lam)
    log_terms = np.where(keep, q * np.log2(np.where(keep, lam, 1.0)), 0.0)
    values = neg_s - log_terms.sum(axis=1)
    values[np.where(keep, 0.0, q).sum(axis=1) > OUTSIDE_SUPPORT_ATOL] = math.inf
    return values


def relative_entropy(rho: DensityOperator, gamma) -> float:
    """D(rho || gamma) = tr rho (log2 rho - log2 gamma), gamma PSD.

    gamma need not be normalized.  Returns ``math.inf`` when the support
    of rho is not contained in the support of gamma (never raises for
    support violations).  The stack of one of ``relative_entropies``.
    """
    rho_op, gamma_op = _operator_pair(as_state(rho), gamma)
    u = gamma_op.eigenvectors
    q = np.real(np.einsum("ij,ji->i", u.conj().T @ rho_op.mat, u))
    neg_s = -von_neumann_entropies(rho_op.eigenvalues[None])
    return float(relative_entropies(neg_s, gamma_op.eigenvalues[None], q[None])[0])


def gibbs_entropy_g(n: float) -> float:
    """g(N) = (N+1) log2(N+1) - N log2 N, the single-mode thermal entropy
    at mean occupation N, evaluated as log2(N+1) + N log1p(1/N) log2 e so
    that nothing cancels at large N."""
    if not 0 <= n < math.inf:
        raise ValueError(f"mean occupation must be nonnegative and finite, got {n!r}")
    if n < 1e-300:
        return 0.0
    return math.log2(n + 1) + n * math.log1p(1.0 / n) * LOG2_E
