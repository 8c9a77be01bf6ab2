"""Constructive couplings of probability distributions and density operators.

Four devices:

* the maximal classical coupling with Pr{X = Y = x} = min(p_x, q_x);
* the two-way convex decomposition omega of a state pair, with
  eps * Delta = (rho - sigma)_+;
* the quantum coupling (phi, psi, vartheta, X, Y, Theta) built from the
  pretty good purifications and omega;
* the diagonal coupling assembled from sorted spectra (Mirsky route),
  whose largest eigenvalue witnesses 1 - trace distance.

Degenerate inputs (rho == sigma up to 1e-12) return flagged trivial
couplings instead of dividing by zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import HermitianOperator, positive_part, trace_norm
from .states import (
    BipartiteState,
    ClassicalDistribution,
    DensityOperator,
    vector_marginals,
)

_DEGENERATE_EPS = 1e-12


class CouplingConsistencyError(RuntimeError):
    """Internal reconstruction failed beyond tolerance (indicates a
    support-handling bug, not a valid outcome)."""


@dataclass(frozen=True)
class ClassicalCoupling:
    joint: np.ndarray
    p: np.ndarray
    q: np.ndarray

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
    degenerate: bool = False


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
        u = self.psi.eigenvectors
        return float(abs(np.vdot(u[:, 0], self.vartheta)))

    @property
    def overlap_phi(self) -> float:
        u = self.phi.eigenvectors
        return float(abs(np.vdot(u[:, 0], self.vartheta)))


@dataclass(frozen=True)
class DiagonalCoupling:
    omega: BipartiteState
    phi_vector: np.ndarray
    epsilon_mirsky: float

    @property
    def largest_eigenvalue(self) -> float:
        return float(self.omega.eigenvalues[0])


# ---------------------------------------------------------------------------


def maximal_classical_coupling(p, q) -> ClassicalCoupling:
    """Joint distribution with diagonal min(p, q) and the residual mass
    distributed as the product of the normalized residuals.

    Achieves Pr{X != Y} = 0.5 * ||p - q||_1, the minimum over all
    couplings of p and q.
    """
    pv = p.probs if isinstance(p, ClassicalDistribution) else np.asarray(p, float)
    qv = q.probs if isinstance(q, ClassicalDistribution) else np.asarray(q, float)
    if pv.shape != qv.shape:
        raise ValueError("distributions must have equal length")
    m = np.minimum(pv, qv)
    eps = 1.0 - m.sum()
    joint = np.diag(m)
    if eps > _DEGENERATE_EPS:
        joint = joint + np.outer(pv - m, qv - m) / eps
    return ClassicalCoupling(joint=joint, p=pv, q=qv)


def build_decomposition(rho: DensityOperator, sigma: DensityOperator) -> CouplingDecomposition:
    """The eps/Delta/Delta'/omega bundle with eps Delta = (rho - sigma)_+."""
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    diff = HermitianOperator(rho.mat - sigma.mat)
    eps = 0.5 * trace_norm(diff)
    if eps < _DEGENERATE_EPS:
        mm = DensityOperator.maximally_mixed(rho.dim)
        return CouplingDecomposition(
            epsilon=0.0, delta=mm, delta_prime=mm, omega=rho, degenerate=True
        )
    eps_delta = positive_part(diff).mat
    delta = DensityOperator(eps_delta / eps)
    omega = DensityOperator((sigma.mat + eps_delta) / (1.0 + eps))
    delta_prime = DensityOperator(((1.0 + eps) * omega.mat - rho.mat) / eps)
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
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    d = rho.dim
    # sqrt(rho), flattened row-major, is the pretty good purification of rho
    sqrt_rho = rho.sqrt().mat
    sqrt_sigma = sigma.sqrt().mat
    psi_vec = sqrt_sigma.reshape(-1)
    phi = BipartiteState.pure(sqrt_rho.reshape(-1), (d, d))
    psi = BipartiteState.pure(psi_vec, (d, d))

    dec = build_decomposition(rho, sigma)
    eps = dec.epsilon
    if dec.degenerate:
        rho_isq = rho.inv_sqrt_support().mat
        return QuantumCoupling(
            phi=phi, psi=psi, vartheta=psi_vec,
            x_op=sqrt_rho @ rho_isq,
            y_op=sqrt_rho.T @ rho_isq.T,
            theta=psi, epsilon=0.0,
        )

    omega_isq = dec.omega.inv_sqrt_support().mat
    scale = 1.0 / np.sqrt(1.0 + eps)
    x_op = scale * (sqrt_rho @ omega_isq)
    y_op = scale * (sqrt_sigma.T @ omega_isq.T)  # (sigma^T)^{1/2} (omega^T)^{-1/2}
    vartheta = (scale * (sqrt_rho @ omega_isq @ sqrt_sigma)).reshape(-1)

    norm_sq = float(np.real(np.vdot(vartheta, vartheta)))
    marg1, marg2 = vector_marginals(vartheta, d, d)
    res1 = HermitianOperator(rho.mat - marg1)
    res2 = HermitianOperator(sigma.mat.T - marg2)
    slack = 1.0 - norm_sq
    if slack > 1e-12:
        for res in (res1, res2):
            if res.eigenvalues[-1] < -1e-8:
                raise CouplingConsistencyError(
                    f"marginal residual has eigenvalue {res.eigenvalues[-1]:.3e}"
                )
        d1 = DensityOperator(positive_part(res1).mat / max(res1.trace(), 1e-300))
        d2 = DensityOperator(positive_part(res2).mat / max(res2.trace(), 1e-300))
        theta_mat = np.outer(vartheta, vartheta.conj()) + slack * np.kron(d1.mat, d2.mat)
    else:
        theta_mat = np.outer(vartheta, vartheta.conj()) / norm_sq
    theta = DensityOperator(theta_mat)
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
        if abs(ph) > 0:
            vecs[:, k] *= np.conj(ph) / abs(ph)
    return lam, vecs


def diagonal_coupling(rho: DensityOperator, sigma: DensityOperator) -> DiagonalCoupling:
    """Coupling from sorted spectra: |phi> = sum_i sqrt(min(r_i, s_i)) |e_i>|f_i>,
    omega = |phi><phi| + eps Delta1 (x) Delta2 with eps = 1 - <phi|phi>.

    The largest eigenvalue of omega is at least 1 - trace distance, and
    eps equals half the l1 distance of the sorted spectra (Mirsky).
    """
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    d = rho.dim
    r, e = _phase_fixed_eigenbasis(rho)
    s, f = _phase_fixed_eigenbasis(sigma)
    r = np.clip(r, 0.0, None)
    s = np.clip(s, 0.0, None)
    c = np.sqrt(np.minimum(r, s))
    # V = sum_i c_i e_i f_i^T  ->  flat vector in the A-major convention
    v_mat = (e * c) @ f.T
    phi_vec = v_mat.reshape(-1)
    eps = float(0.5 * np.abs(r - s).sum())
    overlap = float(np.minimum(r, s).sum())  # = 1 - eps
    marg1, marg2 = vector_marginals(phi_vec, d, d)
    if eps > _DEGENERATE_EPS:
        d1 = (rho.mat - marg1) / eps
        d2 = (sigma.mat - marg2) / eps
        omega_mat = np.outer(phi_vec, phi_vec.conj()) + eps * np.kron(d1, d2)
    else:
        omega_mat = np.outer(phi_vec, phi_vec.conj()) / max(overlap, 1e-300)
        eps = 0.0
    return DiagonalCoupling(
        omega=BipartiteState(omega_mat, (d, d)),
        phi_vector=phi_vec,
        epsilon_mirsky=eps,
    )
