"""Constructive couplings of probability distributions and density operators.

Four devices:

* the maximal classical coupling with Pr{X = Y = x} = min(p_x, q_x);
* the two-way convex decomposition omega of a state pair, with
  eps * Delta = (rho - sigma)_+;
* the quantum coupling (phi, psi, vartheta, X, Y, Theta) built from the
  pretty good purifications and omega;
* the diagonal coupling assembled from sorted spectra (Mirsky route),
  whose largest eigenvalue witnesses 1 - trace distance.

The quantum coupling is one construction for every pair; only the
decomposition special-cases eps < 1e-12, where Delta is 0/0 and
omega = rho.

Each constructor takes its pair through ``states.state_pair``.  Every
Delta is a normalised positive part, a state by construction, and is
held to the trace rule only, never decomposed.  Theta and the diagonal
coupling's omega are dense d^2 x d^2 states, but each is a rank-one term
plus a nonnegative multiple of Delta1 (x) Delta2, so each is PSD by
construction and built the same way.  Omega's largest eigenvalue is read
off its structure.  The decomposition's omega is validated, because
omega^{-1/2} reads its spectrum and the validation reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (PSD_ATOL, HermitianOperator, check_dense_dim, positive_part, rank_one_factor,
                     trace_norm)
from .states import BipartiteState, DensityOperator, state_pair, vector_marginals

_DEGENERATE_EPS = 1e-12


class CouplingConsistencyError(RuntimeError):
    """Internal reconstruction failed beyond tolerance (indicates a
    support-handling bug, not a valid outcome)."""


@dataclass(frozen=True)
class ClassicalCoupling:
    joint: np.ndarray

    @property
    def mismatch_probability(self) -> float:
        return float(1.0 - np.trace(self.joint))


@dataclass(frozen=True)
class CouplingDecomposition:
    """omega = sigma/(1+eps) + eps Delta/(1+eps) = rho/(1+eps) + eps Delta'/(1+eps)."""

    epsilon: float
    delta: DensityOperator
    delta_prime: DensityOperator
    omega: DensityOperator


@dataclass(frozen=True)
class QuantumCoupling:
    phi: BipartiteState
    psi: BipartiteState
    vartheta: np.ndarray  # sub-normalized vector on A (x) A
    x_op: np.ndarray
    y_op: np.ndarray
    theta: DensityOperator
    epsilon: float

    @property
    def overlap_psi(self) -> float:
        return float(abs(np.vdot(rank_one_factor(self.psi)[0], self.vartheta)))

    @property
    def overlap_phi(self) -> float:
        return float(abs(np.vdot(rank_one_factor(self.phi)[0], self.vartheta)))


@dataclass(frozen=True)
class DiagonalCoupling:
    """omega = |phi><phi| + eps Delta1 (x) Delta2 and its largest eigenvalue,
    known from the construction (see ``diagonal_coupling``), not from a
    decomposition of omega."""

    omega: BipartiteState
    phi_vector: np.ndarray
    epsilon_mirsky: float
    largest_eigenvalue: float


# ---------------------------------------------------------------------------


def maximal_classical_coupling(p, q) -> ClassicalCoupling:
    """Joint distribution with diagonal min(p, q) and the residual mass
    distributed as the product of the normalized residuals.

    Achieves Pr{X != Y} = 0.5 * ||p - q||_1, the minimum over all
    couplings of p and q.
    """
    pv, qv = np.asarray(p, float), np.asarray(q, float)
    if pv.shape != qv.shape:
        raise ValueError("distributions must have equal length")
    m = np.minimum(pv, qv)
    eps = 1.0 - m.sum()
    joint = np.diag(m)
    if eps > _DEGENERATE_EPS:
        joint = joint + np.outer(pv - m, qv - m) / eps
    return ClassicalCoupling(joint=joint)


def _unit_trace(op: HermitianOperator) -> DensityOperator:
    """``op / tr op`` for a positive part ``op``, a state by construction;
    dividing by eps would scale rounding by 1/eps."""
    return DensityOperator._built(op.mat / op.trace())


def build_decomposition(rho: DensityOperator, sigma: DensityOperator) -> CouplingDecomposition:
    """The eps/Delta/Delta'/omega bundle with eps Delta = (rho - sigma)_+
    and eps Delta' = (sigma - rho)_+."""
    rho, sigma = state_pair(rho, sigma)
    diff = rho - sigma
    eps = 0.5 * trace_norm(diff)
    if eps < _DEGENERATE_EPS:
        mm = DensityOperator.maximally_mixed(rho.dim)
        return CouplingDecomposition(epsilon=0.0, delta=mm, delta_prime=mm, omega=rho)
    eps_delta = positive_part(diff)
    omega = DensityOperator((sigma.mat + eps_delta.mat) / (1.0 + eps))
    delta = _unit_trace(eps_delta)
    delta_prime = _unit_trace(diff.apply_function(lambda lam: np.where(lam < 0, -lam, 0.0)))
    return CouplingDecomposition(
        epsilon=eps, delta=delta, delta_prime=delta_prime, omega=omega
    )


def quantum_coupling(rho: DensityOperator, sigma: DensityOperator) -> QuantumCoupling:
    """Quantum coupling with contraction operators X, Y and extension Theta.

    vartheta = (rho^{1/2} omega^{-1/2} sigma^{1/2} / sqrt(1+eps) (x) 1)|Phi>,
    Theta = |vartheta><vartheta| + (1 - <vartheta|vartheta>) Delta1 (x) Delta2,
    where Delta1, Delta2 normalize the marginal residuals.  Guarantees
    |<psi|vartheta>|, |<phi|vartheta>| >= 1 - eps and Theta marginals
    (rho, sigma^T).
    """
    rho, sigma = state_pair(rho, sigma)
    d = rho.dim
    check_dense_dim(d * d)
    # sqrt(rho), flattened row-major, is the pretty good purification of rho
    sqrt_rho = rho.sqrt().mat
    sqrt_sigma = sigma.sqrt().mat
    phi = BipartiteState.pure(sqrt_rho.reshape(-1), (d, d))
    psi = BipartiteState.pure(sqrt_sigma.reshape(-1), (d, d))

    dec = build_decomposition(rho, sigma)
    eps = dec.epsilon
    omega_isq = dec.omega.apply_function(lambda x: 1.0 / np.sqrt(x), support_only=True).mat
    scale = 1.0 / np.sqrt(1.0 + eps)
    x_op = scale * (sqrt_rho @ omega_isq)
    y_op = scale * (sqrt_sigma.T @ omega_isq.T)  # (sigma^T)^{1/2} (omega^T)^{-1/2}
    vartheta = (scale * (sqrt_rho @ omega_isq @ sqrt_sigma)).reshape(-1)

    norm_sq = float(np.real(np.vdot(vartheta, vartheta)))
    marg1, marg2 = vector_marginals(vartheta, d, d)
    res1 = HermitianOperator._built(rho.mat - marg1)
    res2 = HermitianOperator._built(sigma.mat.T - marg2)
    slack = 1.0 - norm_sq
    if slack > _DEGENERATE_EPS:
        for res in (res1, res2):
            if res.eigenvalues[-1] < -PSD_ATOL:
                raise CouplingConsistencyError(
                    f"marginal residual has eigenvalue {res.eigenvalues[-1]:.3e}"
                )
        d1, d2 = _unit_trace(positive_part(res1)), _unit_trace(positive_part(res2))
        theta_mat = np.outer(vartheta, vartheta.conj()) + slack * np.kron(d1.mat, d2.mat)
    else:
        theta_mat = np.outer(vartheta, vartheta.conj()) / norm_sq
    theta = DensityOperator._built(theta_mat)
    return QuantumCoupling(
        phi=phi, psi=psi, vartheta=vartheta, x_op=x_op, y_op=y_op,
        theta=theta, epsilon=eps,
    )


def _phase_fixed_eigenbasis(op: HermitianOperator):
    """Eigenpairs in non-increasing order with each eigenvector's
    largest-magnitude component made real positive.  Determinism aid for
    degenerate spectra; the coupling bounds hold for any tie-breaking."""
    lam = op.eigenvalues
    vecs = op.eigenvectors.copy()
    for k in range(op.dim):
        j = int(np.argmax(np.abs(vecs[:, k])))
        ph = vecs[j, k]
        vecs[:, k] *= np.conj(ph) / abs(ph)
    return lam, vecs


def diagonal_coupling(rho: DensityOperator, sigma: DensityOperator) -> DiagonalCoupling:
    """Coupling from sorted spectra: |phi> = sum_i sqrt(min(r_i, s_i)) |e_i>|f_i>,
    omega = |phi><phi| + eps Delta1 (x) Delta2 with eps = 1 - <phi|phi>.

    Delta1 and Delta2 normalize the residuals ``rho - tr_B |phi><phi|`` and
    ``sigma - tr_A |phi><phi|``, which are diagonal in the same bases:
    Delta1 has eigenvalues proportional to ``(r_i - s_i)_+`` on ``e_i``
    and Delta2 to ``(s_i - r_i)_+`` on ``f_i``.  Their product vanishes at
    every ``i``, so in the basis ``e_k (x) f_l`` phi lives on the pairs
    ``(i, i)``, where ``eps Delta1 (x) Delta2`` is exactly 0: the secular
    equation of this rank-one update is fully deflated, and the spectrum
    of omega is ``<phi|phi>`` beside ``eps m1_k m2_l``.  Its largest
    eigenvalue is at least 1 - trace distance, and eps equals half the l1
    distance of the sorted spectra (Mirsky).
    """
    rho, sigma = state_pair(rho, sigma)
    d = rho.dim
    check_dense_dim(d * d)
    r, e = _phase_fixed_eigenbasis(rho)
    s, f = _phase_fixed_eigenbasis(sigma)
    c = np.sqrt(np.minimum(r, s))
    # V = sum_i c_i e_i f_i^T  ->  flat vector in the A-major convention
    v_mat = (e * c) @ f.T
    phi_vec = v_mat.reshape(-1)
    eps = float(0.5 * np.abs(r - s).sum())
    if eps > _DEGENERATE_EPS:
        # each residual over its own sum: dividing by eps would scale the
        # rounding of that sum by 1/eps
        m1, m2 = np.maximum(r - s, 0.0), np.maximum(s - r, 0.0)
        d1 = DensityOperator.factored(e, m1 / m1.sum())
        d2 = DensityOperator.factored(f, m2 / m2.sum())
        omega = BipartiteState._built(
            np.outer(phi_vec, phi_vec.conj()) + eps * np.kron(d1.mat, d2.mat), (d, d))
        largest = float(max(np.vdot(phi_vec, phi_vec).real,
                            eps * d1.eigenvalues[0] * d2.eigenvalues[0]))
    else:
        omega = BipartiteState.pure(phi_vec, (d, d))
        largest = float(omega.eigenvalues[0])
        eps = 0.0
    return DiagonalCoupling(
        omega=omega,
        phi_vector=phi_vec,
        epsilon_mirsky=eps,
        largest_eigenvalue=largest,
    )
