"""Density operators, bipartite structure, channels and state sampling.

A state is its operator: :class:`DensityOperator` subclasses
:class:`~entrobounds.linalg.HermitianOperator` and
:class:`BipartiteState` subclasses :class:`DensityOperator`.

Index convention: the product basis vector ``|i>_A |j>_B`` maps to the
flat index ``i * d_B + j`` (A-major, row-major).  Every partial trace,
purification and maximally-entangled-vector construction below uses it.
Transposes are always taken in this fixed computational basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import HermitianOperator, trace_norm


class StateValidationError(ValueError):
    pass


class DensityOperator(HermitianOperator):
    """Positive unit-trace operator.

    A state is its operator: every member of :class:`HermitianOperator`
    (``mat``, ``dim``, the lazy spectrum, matrix functions) applies to it
    directly.

    Built from an array or a plain :class:`HermitianOperator`, the input
    is validated.  Eigenvalues are clamped at 0 (sampling and arithmetic
    produce -1e-14-scale noise) and the trace renormalized.  Eigenvalues
    below -1e-10, or a trace off from 1 by more than 1e-8, are rejected
    as genuinely invalid input.  An operator's cached spectrum is kept,
    so a projector is never decomposed.  A ``DensityOperator`` passed in
    is already valid and is taken over with no second validation.
    """

    __slots__ = ()

    def __init__(self, mat_or_op):
        if not isinstance(mat_or_op, HermitianOperator):
            super().__init__(mat_or_op)
        else:
            self.mat = mat_or_op.mat
            self.dim = mat_or_op.dim
            self._eigenvalues = mat_or_op._eigenvalues
            self._eigenvectors = mat_or_op._eigenvectors
            self._top_vector = mat_or_op._top_vector
            if isinstance(mat_or_op, DensityOperator):
                return
        if self.eigenvalues[-1] < -1e-10:
            raise StateValidationError(
                f"negative eigenvalue {self.eigenvalues[-1]:.3e} beyond tolerance"
            )
        tr = self.trace()
        if abs(tr - 1.0) > 1e-8:
            raise StateValidationError(f"trace {tr!r} is not 1")
        if self.eigenvalues[-1] < 0.0:
            lam = np.clip(self.eigenvalues, 0.0, None)
            u = self.eigenvectors
            super().__init__((u * (lam / lam.sum())) @ u.conj().T)
        elif abs(tr - 1.0) > 1e-14:
            super().__init__(self.mat / tr)

    @classmethod
    def pure(cls, vec) -> "DensityOperator":
        """``|v><v|`` for ``v = vec / ||vec||``; its spectrum is known, so
        no eigendecomposition is made."""
        return cls(HermitianOperator.projector(vec))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim) / dim)

    def __repr__(self):
        return f"DensityOperator(dim={self.dim})"


class BipartiteState(DensityOperator):
    """A density operator on ``A (x) B`` with an explicit factorization."""

    __slots__ = ("dims",)

    def __init__(self, state, dims):
        super().__init__(state)
        d_a, d_b = int(dims[0]), int(dims[1])
        if d_a * d_b != self.dim:
            raise StateValidationError(
                f"dims {d_a}x{d_b} do not match operator dimension {self.dim}"
            )
        self.dims = (d_a, d_b)

    @classmethod
    def pure(cls, vec, dims) -> "BipartiteState":
        return cls(HermitianOperator.projector(vec), dims)

    def __repr__(self):
        return f"BipartiteState(dims={self.dims})"


@dataclass(frozen=True)
class ClassicalDistribution:
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if (p < -1e-12).any():
            raise StateValidationError("negative probability")
        s = p.sum()
        if abs(s - 1.0) > 1e-9:
            raise StateValidationError(f"probabilities sum to {s!r}")
        object.__setattr__(self, "probs", np.clip(p, 0.0, None) / max(s, 1e-300))

    def __len__(self):
        return len(self.probs)


@dataclass(frozen=True)
class SteeringPOVM:
    """POVM (M_x) on the purifying system realizing a convex decomposition."""

    elements: list
    weights: np.ndarray


@dataclass(frozen=True)
class PinchingDecomposition:
    """Result of the pinching channel T(rho) = P rho P + Q rho Q.

    ``weight_gt`` is the probability mass on the upper block; absent
    components (weight 0 or 1) are ``None`` rather than fabricated.
    """

    weight_gt: float
    state_le: DensityOperator | None
    state_gt: DensityOperator | None

    def reconstruct(self, dim: int) -> np.ndarray:
        out = np.zeros((dim, dim), dtype=complex)
        if self.state_le is not None:
            out += (1.0 - self.weight_gt) * self.state_le.mat
        if self.state_gt is not None:
            out += self.weight_gt * self.state_gt.mat
        return out


# -- structural operations -------------------------------------------------


def partial_trace(state: BipartiteState, keep: str) -> DensityOperator:
    """Marginal on subsystem ``keep`` ('A' or 'B')."""
    d_a, d_b = state.dims
    t = state.mat.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        return DensityOperator(np.einsum("ijkj->ik", t))
    if keep == "B":
        return DensityOperator(np.einsum("ijik->jk", t))
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def vector_marginals(vec, d_a: int, d_b: int):
    """Marginal matrices (unnormalized) of a possibly sub-normalized vector."""
    v = np.asarray(vec, dtype=complex).reshape(d_a, d_b)
    return v @ v.conj().T, (v.conj().T @ v).T


def maximally_entangled_vector(dim: int, normalized: bool = True) -> np.ndarray:
    """|Phi> = sum_i |i>|i>, optionally divided by sqrt(dim)."""
    v = np.eye(dim, dtype=complex).reshape(-1)
    return v / np.sqrt(dim) if normalized else v


def maximally_entangled_state(dim: int) -> BipartiteState:
    return BipartiteState.pure(maximally_entangled_vector(dim), (dim, dim))


def pretty_good_purification(rho: DensityOperator) -> BipartiteState:
    """|phi> = (sqrt(rho) (x) 1)|Phi> on A (x) A.

    The A1 marginal is rho; the A2 marginal is rho^T.
    """
    vec = rho.sqrt().mat.reshape(-1)  # row-major flatten == (sqrt(rho) (x) 1)|Phi>
    return BipartiteState.pure(vec, (rho.dim, rho.dim))


def purification_vector(rho: DensityOperator) -> np.ndarray:
    return rho.sqrt().mat.reshape(-1)


def dephase_in_eigenbasis(rho: DensityOperator, sigma: DensityOperator):
    """Dephasing channel in the eigenbasis of rho.

    Returns (p, q): p is the spectrum of rho, q the diagonal of sigma in
    rho's eigenbasis.  The map is CPTP, so ||p - q||_1 <= ||rho - sigma||_1.
    """
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    u = rho.eigenvectors
    p = ClassicalDistribution(rho.eigenvalues)
    q = ClassicalDistribution(np.real(np.diag(u.conj().T @ sigma.mat @ u)))
    return p, q


def pinching(state: DensityOperator, projector: HermitianOperator) -> PinchingDecomposition:
    """Apply the pinching map of an (energy-cutoff) projector.

    T(rho) = P rho P + (1-P) rho (1-P), returned as the convex split
    (1 - lambda) rho_le + lambda rho_gt with normalized block states.
    """
    p = projector.mat
    if np.abs(p @ p - p).max() > 1e-10:
        raise ValueError("projector is not idempotent")
    q = np.eye(state.dim) - p
    low = p @ state.mat @ p
    high = q @ state.mat @ q
    lam = float(np.real(np.trace(high)))
    lam = min(max(lam, 0.0), 1.0)
    state_le = DensityOperator(low / (1.0 - lam)) if lam < 1.0 - 1e-12 else None
    state_gt = DensityOperator(high / lam) if lam > 1e-12 else None
    if state_le is None:
        lam = 1.0
    if state_gt is None:
        lam = 0.0
    return PinchingDecomposition(weight_gt=lam, state_le=state_le, state_gt=state_gt)


def steering_povm(psi: BipartiteState, decomposition) -> SteeringPOVM:
    """POVM on the purifying factor steering to a given decomposition.

    ``psi`` is a pure state on A (x) R whose A-marginal is sigma, and
    ``decomposition`` a list of (p_x, sigma_x DensityOperator) with
    sum_x p_x sigma_x = sigma.  Elements are
    M_x = (sigma^T)^{-1/2} p_x sigma_x^T (sigma^T)^{-1/2}
    with support-restricted inverses; they satisfy
    p_x sigma_x = tr_R psi (1 (x) M_x) and sum to the support projector
    of sigma^T.
    """
    sigma = partial_trace(psi, "A")
    mix = sum(p * s.mat for p, s in decomposition)
    resid = trace_norm(HermitianOperator(mix - sigma.mat))
    if resid > 1e-9:
        raise StateValidationError(
            f"decomposition does not average to sigma (residual {resid:.3e})"
        )
    sigma_t = HermitianOperator(sigma.mat.T)
    isq = sigma_t.inv_sqrt_support().mat
    elements = []
    weights = []
    for p, s in decomposition:
        elements.append(HermitianOperator(isq @ (p * s.mat.T) @ isq))
        weights.append(float(p))
    return SteeringPOVM(elements=elements, weights=np.asarray(weights))


def steer(psi: BipartiteState, element: HermitianOperator) -> np.ndarray:
    """tr_R [ psi (1 (x) M) ] as a raw (sub-normalized) matrix."""
    d_a, d_r = psi.dims
    # psi is pure: extract its vector as the dominant eigenvector
    lam, u = psi.eigenvalues, psi.eigenvectors
    if lam[0] < 1.0 - 1e-9:
        raise StateValidationError("steer() requires a pure bipartite state")
    v = u[:, 0].reshape(d_a, d_r)
    return v @ element.mat.T @ v.conj().T


# -- sampling ----------------------------------------------------------------


def _as_rng(rng) -> np.random.Generator:
    return rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)


def _ginibre(rng, n, m):
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)


def sample_state(dim: int, rank: int, rng) -> DensityOperator:
    """Hilbert-Schmidt-induced random mixed state of the given rank
    (partial trace of a Haar pure state on dim x rank)."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    rng = _as_rng(rng)
    g = _ginibre(rng, dim, rank)
    m = g @ g.conj().T
    return DensityOperator(m / np.real(np.trace(m)))


def sample_pure_state(dim: int, rng) -> DensityOperator:
    rng = _as_rng(rng)
    v = _ginibre(rng, dim, 1)[:, 0]
    return DensityOperator.pure(v)


def sample_pure_bipartite(d_a: int, d_b: int, rng) -> BipartiteState:
    rng = _as_rng(rng)
    v = _ginibre(rng, d_a * d_b, 1)[:, 0]
    return BipartiteState.pure(v, (d_a, d_b))


def sample_qc_state(d_a: int, d_x: int, rng) -> BipartiteState:
    """Random qc-state sum_x p_x rho_x^A (x) |x><x|^B with Dirichlet(1,..,1)
    weights and independent full-rank blocks."""
    rng = _as_rng(rng)
    p = rng.dirichlet(np.ones(d_x))
    out = np.zeros((d_a * d_x, d_a * d_x), dtype=complex)
    for x in range(d_x):
        block = sample_state(d_a, d_a, rng).mat
        proj = np.zeros((d_x, d_x))
        proj[x, x] = 1.0
        out += p[x] * np.kron(block, proj)
    return BipartiteState(out, (d_a, d_x))
