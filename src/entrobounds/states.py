"""Density operators, bipartite structure and state sampling.

A state is its operator: :class:`DensityOperator` subclasses
:class:`~entrobounds.linalg.HermitianOperator` and
:class:`BipartiteState` subclasses :class:`DensityOperator`.

Index convention: the product basis vector ``|i>_A |j>_B`` maps to the
flat index ``i * d_B + j`` (A-major, row-major).  Every partial trace,
purification and maximally-entangled-vector construction below uses it.
Transposes are always taken in this fixed computational basis.
"""

from __future__ import annotations

import numpy as np

from .linalg import PSD_ATOL, HermitianOperator, _frozen, _operator_pair, check_dense_dim


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
    below ``-PSD_ATOL``, or a trace off from 1 by more than 1e-8, are rejected
    as genuinely invalid input.  An operator's factor, block and known
    spectrum are kept (a renormalized trace scales them alike), and a
    repaired state keeps the eigenpairs its validation read, so no state
    is decomposed twice.  A ``DensityOperator`` passed
    in is already valid and is taken over with no second validation.
    ``_built`` takes a matrix that is PSD by construction (nonnegative
    weights of validated states) and checks only its trace, with no
    ``eigh``.
    """

    __slots__ = ()

    def __init__(self, mat_or_op):
        if not isinstance(mat_or_op, HermitianOperator):
            super().__init__(mat_or_op)
        else:
            for name in HermitianOperator.__slots__:
                setattr(self, name, getattr(mat_or_op, name))
            if isinstance(mat_or_op, DensityOperator):
                return
        lam = self.eigenvalues
        if lam[-1] < -PSD_ATOL:
            raise StateValidationError(f"negative eigenvalue {lam[-1]:.3e} beyond tolerance")
        tr = self._checked_trace()
        if lam[-1] < 0.0:
            lam = np.clip(lam, 0.0, None)
            scale, u = lam.sum(), self.eigenvectors
            self._set_matrix((u * (lam / scale)) @ u.conj().T)
        elif abs(tr - 1.0) > 1e-14:
            scale, u, factor, block = tr, self._eigenvectors, self.factor, self.block
            self._set_matrix(self.mat / tr)
            if factor is not None:
                self.factor = (factor[0], _frozen(factor[1] / tr), factor[2] / tr)
            if block is not None:
                self.block = (block[0], HermitianOperator._built(block[1].mat / tr))
        else:
            return
        self._eigenvalues, self._eigenvectors = _frozen(lam / scale), u

    def _checked_trace(self) -> float:
        tr = self.trace()
        if abs(tr - 1.0) > 1e-8:
            raise StateValidationError(f"trace {tr!r} is not 1")
        return tr

    @classmethod
    def _built(cls, mat, *args) -> "DensityOperator":
        """A state that is PSD by construction, such as a nonnegative
        combination of validated states: symmetrized, held to the trace
        rule and renormalized like any input, but never decomposed."""
        state = DensityOperator.__new__(DensityOperator)
        state._set_matrix(mat)
        tr = state._checked_trace()
        if abs(tr - 1.0) > 1e-14:
            state._set_matrix(state.mat / tr)
        return state if cls is DensityOperator else cls(state, *args)

    @classmethod
    def maximally_mixed(cls, dim: int, *args) -> "DensityOperator":
        return cls.diagonal(np.full(dim, 1.0 / dim), *args)

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

    def __repr__(self):
        return f"BipartiteState(dims={self.dims})"


def as_state(x) -> DensityOperator:
    """``x`` as a validated state; a :class:`DensityOperator` as it is.

    The one way a public function takes a state argument: it validates
    where the state enters the library, and nothing inside validates it
    again."""
    return x if isinstance(x, DensityOperator) else DensityOperator(x)


def state_pair(rho, sigma):
    """``(as_state(rho), as_state(sigma))``, of equal dimension."""
    return _operator_pair(as_state(rho), as_state(sigma))


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


def maximally_entangled_vector(dim: int) -> np.ndarray:
    """|Phi> = sum_i |i>|i> / sqrt(dim)."""
    return np.eye(dim, dtype=complex).reshape(-1) / np.sqrt(dim)


def maximally_entangled_state(dim: int) -> BipartiteState:
    return BipartiteState.pure(maximally_entangled_vector(dim), (dim, dim))


def pretty_good_purification(rho) -> BipartiteState:
    """|phi> = (sqrt(rho) (x) 1)|Phi> on A (x) A.

    The A1 marginal is rho; the A2 marginal is rho^T.
    """
    rho = as_state(rho)
    vec = rho.sqrt().mat.reshape(-1)  # row-major flatten == (sqrt(rho) (x) 1)|Phi>
    return BipartiteState.pure(vec, (rho.dim, rho.dim))


# -- sampling ----------------------------------------------------------------


def _ginibre(rng, n, m):
    check_dense_dim(n)
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)


def sample_state(dim: int, rank: int, rng) -> DensityOperator:
    """Hilbert-Schmidt-induced random mixed state of the given rank
    (partial trace of a Haar pure state on dim x rank)."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    g = _ginibre(np.random.default_rng(rng), dim, rank)
    m = g @ g.conj().T
    return DensityOperator(m / np.real(np.trace(m)))


def sample_pure_state(dim: int, rng) -> DensityOperator:
    v = _ginibre(np.random.default_rng(rng), dim, 1)[:, 0]
    return DensityOperator.pure(v)


def sample_pure_bipartite(d_a: int, d_b: int, rng) -> BipartiteState:
    v = _ginibre(np.random.default_rng(rng), d_a * d_b, 1)[:, 0]
    return BipartiteState.pure(v, (d_a, d_b))


def sample_qc_state(d_a: int, d_x: int, rng) -> BipartiteState:
    """Random qc-state sum_x p_x rho_x^A (x) |x><x|^B with Dirichlet(1,..,1)
    weights and independent full-rank blocks."""
    rng = np.random.default_rng(rng)
    p = rng.dirichlet(np.ones(d_x))
    out = np.zeros((d_a * d_x, d_a * d_x), dtype=complex)
    for x in range(d_x):
        out[x::d_x, x::d_x] = p[x] * sample_state(d_a, d_a, rng).mat
    return BipartiteState(out, (d_a, d_x))
