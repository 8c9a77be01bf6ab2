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

Stacks: ``quantum_couplings`` and ``diagonal_couplings`` build the
couplings of every pair of two ``states.StateStack``s in one batched pass
and return what the ``couplings`` records read (eps, the overlaps, the
fidelity of psi and Theta, the largest eigenvalue of the diagonal
omega), and the parts of Theta.  They read the eigenpairs each
validated state carries, so no state is decomposed twice.  Each matrix
is formed as the scalar construction forms it, so every value is the one
it would have alone.
``build_decomposition``, ``quantum_coupling`` and ``diagonal_coupling``
are their stacks of one: they take a pair through ``states.state_pair``
and add the objects no record reads (Delta and Delta', X and Y, the
states phi and psi, the diagonal omega).

Every Delta is a normalised positive part, a state by construction, and
is held to the trace rule only, never decomposed.  Theta and the
diagonal coupling's omega are d^2 x d^2 states, each a rank-one term plus
a nonnegative multiple of Delta1 (x) Delta2, so each is PSD by
construction.  Each is held as those parts
(``HermitianOperator.rank_one_kron``): no d^2 x d^2 matrix is built
unless its ``mat`` is read.  Omega's largest eigenvalue is read off its
structure, and the fidelity of the pure psi with Theta is
``sqrt(w <psi|Theta|psi>)``, from the parts in O(d^3):
``<psi|Theta|psi> = (|<psi|vartheta>|^2 + s tr(Psi^dagger Delta1 Psi
Delta2^T)) / t`` for the d x d reshape Psi of psi and the trace t Theta
is divided by (1 if the trace rule leaves it).  The decomposition's
omega is validated, because omega^{-1/2} reads its spectrum and the
validation reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (PSD_ATOL, HermitianOperator, _symmetrized, eigenpairs, function_stack,
                     kron_diagonals, kron_expectations, pure_fidelities, rank_one_factor, row_dots)
from .states import (TRACE_ATOL, BipartiteState, DensityOperator, StateStack, built_stack,
                     density_stack, divisors, factored_traces, pure_stack, state_pair,
                     vector_marginals)

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


class Decompositions(NamedTuple):
    """The decomposition of each pair of two state stacks: eps, the positive
    parts ``eps Delta = (rho - sigma)_+`` (symmetrized), the eigenpairs of
    ``rho - sigma`` and the validated omegas (rho where eps < 1e-12)."""

    epsilon: np.ndarray  # (n,)
    eps_delta: np.ndarray  # (n, d, d)
    diff: tuple  # (lam, u) of rho - sigma
    omega: StateStack


class QuantumCouplings(NamedTuple):
    """The quantum coupling of each pair of two state stacks: what the
    records read, and the parts ``quantum_coupling`` assembles."""

    epsilon: np.ndarray  # (n,)
    overlap_psi: np.ndarray  # (n,) |<psi|vartheta>|
    overlap_phi: np.ndarray  # (n,) |<phi|vartheta>|
    fidelity_theta: np.ndarray  # (n,) F(psi, Theta)
    sqrt_rho: np.ndarray  # (n, d, d)
    sqrt_sigma: np.ndarray  # (n, d, d)
    omega_isq: np.ndarray  # (n, d, d) omega^{-1/2} on its support
    scale: np.ndarray  # (n,) 1 / sqrt(1 + eps)
    vartheta: np.ndarray  # (n, d^2)
    slack: np.ndarray  # (n,) 1 - <vartheta|vartheta>, 0 where the Kronecker term is dropped
    deltas: np.ndarray  # (2, n, d, d) Delta1 and Delta2, 0 where dropped
    theta_traces: np.ndarray  # (n,) the trace each Theta is divided by (1 if none)


class DiagonalCouplings(NamedTuple):
    """The diagonal coupling of each pair of two state stacks."""

    largest_eigenvalue: np.ndarray  # (n,)
    epsilon_mirsky: np.ndarray  # (n,), 0 where below 1e-12
    phi_vectors: np.ndarray  # (n, d^2)
    bases: tuple  # the phase-fixed eigenbases (e, f), (n, d, d) each
    residuals: tuple  # (m1, m2), the spectra (r - s)_+ and (s - r)_+ of the residuals


# ---------------------------------------------------------------------------


def _distribution(p) -> np.ndarray:
    """``p`` as a probability vector: finite entries >= 0 that sum to 1
    within ``TRACE_ATOL``."""
    v = np.asarray(p, float)
    bad = v[~(np.isfinite(v) & (v >= 0.0))]
    if bad.size:
        raise ValueError(f"probability {float(bad[0])!r} is not finite and >= 0")
    if not abs(v.sum() - 1.0) <= TRACE_ATOL:
        raise ValueError(f"probabilities sum to {float(v.sum())!r}, not 1")
    return v


def maximal_classical_coupling(p, q) -> ClassicalCoupling:
    """Joint distribution with diagonal min(p, q) and the residual mass
    distributed as the product of the normalized residuals.

    Achieves Pr{X != Y} = 0.5 * ||p - q||_1, the minimum over all
    couplings of p and q.
    """
    pv, qv = _distribution(p), _distribution(q)
    if pv.shape != qv.shape:
        raise ValueError("distributions must have equal length")
    m = np.minimum(pv, qv)
    eps = 1.0 - m.sum()
    joint = np.diag(m)
    if eps > _DEGENERATE_EPS:
        joint = joint + np.outer(pv - m, qv - m) / eps
    return ClassicalCoupling(joint=joint)


def _stack_pair(rho, sigma):
    """A pair of states as two stacks of one."""
    rho, sigma = state_pair(rho, sigma)
    return StateStack.of(rho), StateStack.of(sigma)


def _positive(lam):
    return np.where(lam > 0, lam, 0.0)


def _overlaps(a, b) -> np.ndarray:
    """|<a|b>| of each pair of rows of two (n, D) stacks, as ``abs(np.vdot)``."""
    z = row_dots(a, b)
    return np.hypot(z.real, z.imag)


def _unit_trace(mats) -> np.ndarray:
    """``op / tr op`` of each of a stack of positive parts, states by
    construction; dividing by eps would scale rounding by 1/eps."""
    return built_stack(mats / np.trace(mats, axis1=1, axis2=2).real[:, None, None])


def decompositions(rho: StateStack, sigma: StateStack) -> Decompositions:
    """The eps/(rho - sigma)_+/omega of each pair of two stacks of states."""
    diff = eigenpairs(_symmetrized(rho.mats - sigma.mats))
    eps = 0.5 * np.abs(diff[0]).sum(axis=1)
    apart = eps >= _DEGENERATE_EPS
    eps[~apart] = 0.0
    eps_delta = _symmetrized(function_stack(*diff, _positive))
    omega = StateStack(*(a.copy() for a in rho))
    if apart.any():
        mats = (sigma.mats[apart] + eps_delta[apart]) / (1.0 + eps[apart, None, None])
        for part, validated in zip(omega, density_stack(mats, vectors=True)):
            part[apart] = validated
    return Decompositions(eps, eps_delta, diff, omega)


def build_decomposition(rho: DensityOperator, sigma: DensityOperator) -> CouplingDecomposition:
    """The eps/Delta/Delta'/omega bundle with eps Delta = (rho - sigma)_+
    and eps Delta' = (sigma - rho)_+; the stack of one of ``decompositions``."""
    dec = decompositions(*_stack_pair(rho, sigma))
    eps, omega = float(dec.epsilon[0]), DensityOperator._trusted(*(a[0] for a in dec.omega))
    if eps == 0.0:
        mm = DensityOperator.maximally_mixed(omega.dim)
        return CouplingDecomposition(epsilon=0.0, delta=mm, delta_prime=mm, omega=omega)
    negative = function_stack(*dec.diff, lambda lam: np.where(lam < 0, -lam, 0.0))
    delta, delta_prime = _unit_trace(np.concatenate([dec.eps_delta, _symmetrized(negative)]))
    return CouplingDecomposition(epsilon=eps, delta=DensityOperator._trusted(delta),
                                 delta_prime=DensityOperator._trusted(delta_prime), omega=omega)


def quantum_couplings(rho: StateStack, sigma: StateStack) -> QuantumCouplings:
    """The quantum coupling of each pair of two stacks of states (see
    ``quantum_coupling``), with Theta held as its parts and none of phi,
    psi, X, Y or Delta' built."""
    n, d = rho.eigenvalues.shape
    sqrt_rho, sqrt_sigma = (_symmetrized(function_stack(s.eigenvalues, s.eigenvectors, np.sqrt,
                                                         support_only=True))
                            for s in (rho, sigma))
    dec = decompositions(rho, sigma)
    omega_isq = _symmetrized(function_stack(dec.omega.eigenvalues, dec.omega.eigenvectors,
                                            lambda x: 1.0 / np.sqrt(x), support_only=True))
    scale = 1.0 / np.sqrt(1.0 + dec.epsilon)
    vartheta = (scale[:, None, None] * (sqrt_rho @ omega_isq @ sqrt_sigma)).reshape(n, d * d)
    norm_sq = row_dots(vartheta, vartheta).real
    marg1, marg2 = vector_marginals(vartheta, d, d)
    slack = 1.0 - norm_sq
    full = slack > _DEGENERATE_EPS
    slack[~full] = 0.0
    deltas = np.zeros((2, n, d, d), dtype=complex)
    if full.any():
        res = np.stack([rho.mats[full] - marg1[full],
                        sigma.mats[full].swapaxes(1, 2) - marg2[full]], axis=1)
        lam, u = eigenpairs(_symmetrized(res.reshape(-1, d, d)))
        for lam_min in lam[:, -1].tolist():
            if lam_min < -PSD_ATOL:
                raise CouplingConsistencyError(f"marginal residual has eigenvalue {lam_min:.3e}")
        deltas[:, full] = _unit_trace(_symmetrized(function_stack(lam, u, _positive))
                                      ).reshape(-1, 2, d, d).swapaxes(0, 1)
    traces = divisors(kron_diagonals(vartheta, slack, *deltas))
    psi, phi = (pure_stack(s.reshape(n, d * d)) for s in (sqrt_sigma, sqrt_rho))
    overlaps = kron_expectations(psi.vectors, vartheta, slack, *deltas) / traces
    return QuantumCouplings(
        epsilon=dec.epsilon, overlap_psi=_overlaps(psi.vectors, vartheta),
        overlap_phi=_overlaps(phi.vectors, vartheta),
        fidelity_theta=pure_fidelities(psi.weights, overlaps),
        sqrt_rho=sqrt_rho, sqrt_sigma=sqrt_sigma, omega_isq=omega_isq, scale=scale,
        vartheta=vartheta, slack=slack, deltas=deltas, theta_traces=traces)


def quantum_coupling(rho: DensityOperator, sigma: DensityOperator) -> QuantumCoupling:
    """Quantum coupling with contraction operators X, Y and extension Theta.

    vartheta = (rho^{1/2} omega^{-1/2} sigma^{1/2} / sqrt(1+eps) (x) 1)|Phi>,
    Theta = |vartheta><vartheta| + (1 - <vartheta|vartheta>) Delta1 (x) Delta2,
    where Delta1, Delta2 normalize the marginal residuals; at a slack of
    at most 1e-12 the Kronecker term is dropped and Theta is held to the
    trace rule alone.  Guarantees |<psi|vartheta>|, |<phi|vartheta>| >=
    1 - eps and Theta marginals (rho, sigma^T).  Theta is a
    ``rank_one_kron`` state: no d^2 x d^2 matrix is built unless its
    ``mat`` is read.  The stack of one of ``quantum_couplings``.
    """
    qc = quantum_couplings(*_stack_pair(rho, sigma))
    sqrt_rho, sqrt_sigma, omega_isq, scale = (qc.sqrt_rho[0], qc.sqrt_sigma[0],
                                              qc.omega_isq[0], qc.scale[0])
    d = len(sqrt_rho)
    # sqrt(rho), flattened row-major, is the pretty good purification of rho
    phi, psi = (BipartiteState.pure(m.reshape(-1), (d, d)) for m in (sqrt_rho, sqrt_sigma))
    theta = DensityOperator._built(HermitianOperator.rank_one_kron(
        qc.vartheta[0], qc.slack[0], qc.deltas[0, 0], qc.deltas[1, 0]))
    return QuantumCoupling(
        phi=phi, psi=psi, vartheta=qc.vartheta[0], x_op=scale * (sqrt_rho @ omega_isq),
        # (sigma^T)^{1/2} (omega^T)^{-1/2}
        y_op=scale * (sqrt_sigma.T @ omega_isq.T),
        theta=theta, epsilon=float(qc.epsilon[0]),
    )


def _phase_fixed(u) -> np.ndarray:
    """Each stack of eigenvectors with each column's largest-magnitude
    component made real positive.  Determinism aid for degenerate spectra;
    the coupling bounds hold for any tie-breaking."""
    top = np.take_along_axis(u, np.argmax(np.abs(u), axis=1)[:, None, :], axis=1)
    return u * (np.conj(top) / np.hypot(top.real, top.imag))


def diagonal_couplings(rho: StateStack, sigma: StateStack) -> DiagonalCouplings:
    """The diagonal coupling of each pair of two stacks of states (see
    ``diagonal_coupling``), with no omega built."""
    n, d = rho.eigenvalues.shape
    (r, e), (s, f) = ((x.eigenvalues, _phase_fixed(x.eigenvectors)) for x in (rho, sigma))
    c = np.sqrt(np.minimum(r, s))
    # V = sum_i c_i e_i f_i^T  ->  flat vector in the A-major convention
    phi = ((e * c[:, None, :]) @ f.swapaxes(1, 2)).reshape(n, d * d)
    eps = 0.5 * np.abs(r - s).sum(axis=1)
    apart = eps > _DEGENERATE_EPS
    eps[~apart] = 0.0
    # each residual over its own sum: dividing by eps would scale the
    # rounding of that sum by 1/eps
    m1, m2 = np.maximum(r - s, 0.0), np.maximum(s - r, 0.0)
    largest = np.ones(n)
    if apart.any():
        deltas = [(b[apart], m[apart] / m[apart].sum(axis=1)[:, None])
                  for b, m in ((e, m1), (f, m2))]
        # the eigenvalues of Delta1 and Delta2, as DensityOperator.factored keeps them
        w1, w2 = (lam / factored_traces(b, lam)[:, None] for b, lam in deltas)
        norm_sq = row_dots(phi[apart], phi[apart]).real
        product = eps[apart] * w1.max(axis=1) * w2.max(axis=1)
        largest[apart] = np.where(product > norm_sq, product, norm_sq)
    if not apart.all():
        largest[~apart] = pure_stack(phi[~apart]).weights
    return DiagonalCouplings(largest, eps, phi, (e, f), (m1, m2))


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
    distance of the sorted spectra (Mirsky).  The stack of one of
    ``diagonal_couplings``.
    """
    dc = diagonal_couplings(*_stack_pair(rho, sigma))
    phi_vec, eps = dc.phi_vectors[0], float(dc.epsilon_mirsky[0])
    d = dc.bases[0].shape[-1]
    if eps > 0.0:
        d1, d2 = (DensityOperator.factored(b[0], m[0] / m[0].sum())
                  for b, m in zip(dc.bases, dc.residuals))
        omega = BipartiteState._built(
            HermitianOperator.rank_one_kron(phi_vec, eps, d1.mat, d2.mat), (d, d))
    else:
        omega = BipartiteState.pure(phi_vec, (d, d))
    return DiagonalCoupling(omega=omega, phi_vector=phi_vec, epsilon_mirsky=eps,
                            largest_eigenvalue=float(dc.largest_eigenvalue[0]))
