"""Density operators, bipartite structure and state sampling.

A state is its operator: :class:`DensityOperator` subclasses
:class:`~entrobounds.linalg.HermitianOperator` and
:class:`BipartiteState` subclasses :class:`DensityOperator`.

Index convention: the product basis vector ``|i>_A |j>_B`` maps to the
flat index ``i * d_B + j`` (A-major, row-major).  Every partial trace,
purification and maximally-entangled-vector construction below uses it.
Transposes are always taken in this fixed computational basis.

Stacks
------
``density_stack`` is ``DensityOperator`` for an (n, d, d) stack of
matrices: ``linalg.hermitian_stack`` followed by the state rules
(``_check_state``) and repairs (``_clamped``, the renormalisation by
``RENORM_ATOL``) that the constructor applies, element by element and
bit for bit, with no object built.  It returns a :class:`StateStack`.
The sampling functions draw their unvalidated matrices through
``draw_state_matrices`` and ``draw_qc``, so a stacked campaign draws each
case from its generator exactly as ``sample_state`` and
``sample_qc_state`` do.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import (PSD_ATOL, HermitianOperator, _frozen, _operator_pair, _symmetrized,
                     check_dense_dim, hermitian_stack)

# A state's trace may be off from 1 by TRACE_ATOL, and is renormalized when
# it is off by more than RENORM_ATOL.
TRACE_ATOL = 1e-8
RENORM_ATOL = 1e-14


class StateValidationError(ValueError):
    pass


def _check_state(lam_min: float, tr: float) -> None:
    """The two rules of a state with smallest eigenvalue ``lam_min`` and
    trace ``tr``: raise ``StateValidationError`` below ``-PSD_ATOL`` or off
    from 1 by more than ``TRACE_ATOL``."""
    if lam_min < -PSD_ATOL:
        raise StateValidationError(f"negative eigenvalue {lam_min:.3e} beyond tolerance")
    if abs(tr - 1.0) > TRACE_ATOL:
        raise StateValidationError(f"trace {tr!r} is not 1")


def _clamped(lam, u):
    """The state of eigenpairs ``(lam, u)`` with its eigenvalues clamped at 0
    and renormalized: its matrix (unsymmetrized) and eigenvalues."""
    lam = np.clip(lam, 0.0, None)
    lam = lam / lam.sum()
    return (u * lam) @ u.conj().T, lam


class DensityOperator(HermitianOperator):
    """Positive unit-trace operator.

    A state is its operator: every member of :class:`HermitianOperator`
    (``mat``, ``dim``, the lazy spectrum, matrix functions) applies to it
    directly.

    Built from an array or a plain :class:`HermitianOperator`, the input
    is validated.  Eigenvalues are clamped at 0 (sampling and arithmetic
    produce -1e-14-scale noise) and the trace renormalized beyond
    ``RENORM_ATOL``.  Eigenvalues below ``-PSD_ATOL``, or a trace off from 1
    by more than ``TRACE_ATOL`` (``_check_state``), are rejected as genuinely
    invalid input; ``density_stack`` applies the same rules and repairs to a
    stack of arrays.  An operator's factor, block and known
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
        lam, tr = self.eigenvalues, self.trace()
        _check_state(lam[-1], tr)
        if lam[-1] < 0.0:
            u = self.eigenvectors
            mat, lam = _clamped(lam, u)
            self._set_matrix(mat)
        elif abs(tr - 1.0) > RENORM_ATOL:
            u, factor, block = self._eigenvectors, self.factor, self.block
            self._set_matrix(self.mat / tr)
            lam = lam / tr
            if factor is not None:
                self.factor = (factor[0], _frozen(factor[1] / tr), factor[2] / tr)
            if block is not None:
                self.block = (block[0], HermitianOperator._built(block[1].mat / tr))
        else:
            return
        self._eigenvalues, self._eigenvectors = _frozen(lam), u

    @classmethod
    def _built(cls, mat, *args) -> "DensityOperator":
        """A state that is PSD by construction, such as a nonnegative
        combination of validated states: symmetrized, held to the trace
        rule and renormalized like any input, but never decomposed."""
        state = DensityOperator.__new__(DensityOperator)
        state._set_matrix(mat)
        tr = state.trace()
        _check_state(0.0, tr)  # PSD by construction: only the trace rule applies
        if abs(tr - 1.0) > RENORM_ATOL:
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


class StateStack(NamedTuple):
    """n validated states of one dimension d, as ``density_stack`` leaves
    them: their symmetrized (and repaired) matrices and their non-increasing
    spectra."""

    mats: np.ndarray  # (n, d, d) complex
    eigenvalues: np.ndarray  # (n, d) real

    def split(self):
        """The stacks of the even and of the odd states: the rho and the
        sigma of each pair drawn rho first."""
        return (StateStack(self.mats[0::2], self.eigenvalues[0::2]),
                StateStack(self.mats[1::2], self.eigenvalues[1::2]))


def density_stack(mats) -> StateStack:
    """``DensityOperator(m)`` for each matrix ``m`` of an (n, d, d) stack, in
    one pass and bit for bit: the scans, symmetrization and decomposition of
    ``linalg.hermitian_stack``, then the state rules and the clamp or
    renormalization, element by element.  The first matrix (in stack
    order) that the constructor rejects raises its error."""
    mats, lam, u = hermitian_stack(mats)
    tr = np.trace(mats, axis1=1, axis2=2).real
    for lam_min, t in zip(lam[:, -1].tolist(), tr.tolist()):
        _check_state(lam_min, t)
    clamp = lam[:, -1] < 0.0
    for j in np.flatnonzero(clamp):
        mat, lam[j] = _clamped(lam[j], np.ascontiguousarray(u[j]))
        mats[j] = _symmetrized(mat)
    _renormalize(mats, lam, tr, ~clamp)
    return StateStack(mats, lam)


def _renormalize(mats, lam, tr, among):
    """Divide, in place, the matrices (symmetrized again) and spectra of the
    states ``among`` whose traces ``tr`` are off from 1 by more than
    ``RENORM_ATOL``, as the constructor renormalizes a state."""
    rows = np.flatnonzero(among & (np.abs(tr - 1.0) > RENORM_ATOL))
    mats[rows] = _symmetrized(mats[rows] / tr[rows, None, None])
    lam[rows] /= tr[rows, None]


def embedded_stack(index, blocks: StateStack, dim: int) -> StateStack:
    """The blocks of ``DensityOperator.embedded(index, b, dim)`` for each
    validated block ``b`` of ``blocks``, with no ``dim x dim`` matrix built.

    The padded state is validated again, as the constructor does: its trace
    sums all ``dim`` diagonal entries, and one off from 1 by more than
    ``RENORM_ATOL`` renormalizes the block's matrix and spectrum.  A padded
    spectrum is the block's and ``dim - k`` zeros; a validated block has no
    negative eigenvalue, so no padded state is clamped."""
    diag = np.zeros((len(blocks.mats), dim), dtype=complex)
    diag[:, index] = np.diagonal(blocks.mats, axis1=1, axis2=2)
    tr = diag.sum(axis=1).real
    lam_min = blocks.eigenvalues[:, -1]
    if len(index) < dim:
        lam_min = np.minimum(lam_min, 0.0)
    for m, t in zip(lam_min.tolist(), tr.tolist()):
        _check_state(m, t)
    mats, lam = blocks.mats.copy(), blocks.eigenvalues.copy()
    _renormalize(mats, lam, tr, True)
    return StateStack(mats, lam)


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
    return DensityOperator(partial_traces(state.mat, state.dims, keep))


def partial_traces(mats, dims, keep: str) -> np.ndarray:
    """The marginal matrices on ``keep`` ('A' or 'B') of a matrix or a stack
    of matrices on ``A (x) B`` (last two axes), unvalidated."""
    d_a, d_b = dims
    t = mats.reshape(*mats.shape[:-2], d_a, d_b, d_a, d_b)
    if keep == "A":
        return np.einsum("...ijkj->...ik", t)
    if keep == "B":
        return np.einsum("...ijik->...jk", t)
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


def _ginibre(rngs, n, m) -> np.ndarray:
    """One n x m complex Ginibre matrix from each generator of ``rngs`` in
    turn (real parts, then imaginary parts), as an (len(rngs), n, m) stack."""
    check_dense_dim(n)
    parts = np.empty((len(rngs), 2, n, m))
    for part, rng in zip(parts, rngs):
        rng = np.random.default_rng(rng)
        rng.standard_normal(out=part[0])
        rng.standard_normal(out=part[1])
    return (parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2)


def draw_state_matrices(dim: int, rank: int, rngs) -> np.ndarray:
    """The unvalidated matrices of ``sample_state``, one drawn from each
    generator of ``rngs`` in turn, as an (len(rngs), dim, dim) stack."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    g = _ginibre(rngs, dim, rank)
    m = g @ g.conj().swapaxes(1, 2)
    return m / np.trace(m, axis1=1, axis2=2).real[:, None, None]


def sample_state(dim: int, rank: int, rng) -> DensityOperator:
    """Hilbert-Schmidt-induced random mixed state of the given rank
    (partial trace of a Haar pure state on dim x rank)."""
    return DensityOperator(draw_state_matrices(dim, rank, [rng])[0])


def sample_pure_state(dim: int, rng) -> DensityOperator:
    v = _ginibre([rng], dim, 1)[0, :, 0]
    return DensityOperator.pure(v)


def sample_pure_bipartite(d_a: int, d_b: int, rng) -> BipartiteState:
    v = _ginibre([rng], d_a * d_b, 1)[0, :, 0]
    return BipartiteState.pure(v, (d_a, d_b))


def draw_qc(d_a: int, d_x: int, rng):
    """The draw of ``sample_qc_state``: the Dirichlet(1,..,1) weights (d_x,)
    and then the unvalidated full-rank blocks (d_x, d_a, d_a)."""
    rng = np.random.default_rng(rng)
    p = rng.dirichlet(np.ones(d_x))
    return p, draw_state_matrices(d_a, d_a, [rng] * d_x)


def qc_matrices(p, blocks) -> np.ndarray:
    """sum_x p_x rho_x (x) |x><x| for the weights ``p`` (..., d_x) and the
    validated blocks ``blocks`` (..., d_x, d_a, d_a) of one qc-state or a
    stack of them."""
    *lead, d_x, d_a, _ = blocks.shape
    out = np.zeros((*lead, d_a * d_x, d_a * d_x), dtype=complex)
    for x in range(d_x):
        out[..., x::d_x, x::d_x] = p[..., x, None, None] * blocks[..., x, :, :]
    return out


def sample_qc_state(d_a: int, d_x: int, rng) -> BipartiteState:
    """Random qc-state sum_x p_x rho_x^A (x) |x><x|^B with Dirichlet(1,..,1)
    weights and independent full-rank blocks."""
    p, blocks = draw_qc(d_a, d_x, rng)
    return BipartiteState(qc_matrices(p, density_stack(blocks).mats), (d_a, d_x))
