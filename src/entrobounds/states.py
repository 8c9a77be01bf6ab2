"""Density operators, bipartite structure and state sampling.

A state is its operator: :class:`DensityOperator` subclasses
:class:`~entrobounds.linalg.HermitianOperator` and
:class:`BipartiteState` subclasses :class:`DensityOperator`.

Index convention: the product basis vector ``|i>_A |j>_B`` maps to the
flat index ``i * d_B + j`` (A-major, row-major).  Every partial trace,
block index set and maximally-entangled vector below uses it.
Transposes are always taken in this fixed computational basis.

Stacks
------
``density_stack`` is ``DensityOperator`` for an (n, d, d) stack of
matrices: ``linalg.hermitian_stack`` followed by the state rules
(``_state_rules``, through which every state goes, stacked or as a stack
of one) and the repairs (``_clamped``, the renormalisation by
``RENORM_ATOL``) that the constructor applies, element by element and
bit for bit, with no object built.  It returns a :class:`StateStack` of
the ``eigvalsh`` spectra, with the ``eigh`` eigenvectors on request, so
that the couplings decompose no state twice and a check that reads
spectra alone runs no vector solver.  ``DensityOperator._built`` of a
matrix is the stack of one of ``built_stack``.  ``divisors`` is the trace
rule of structured states (PSD by construction) for a stack of their
diagonals, and ``factored_traces`` that of ``DensityOperator.factored``
for a stack of bases, with no D x D matrix built, and ``pure_stack`` is
``DensityOperator.pure`` for an (n, D) stack of vectors: a
:class:`PureStack` of unit vectors and the traces their matrices are
divided by.  ``embedded_stack`` is the state rule of block states
(energy-constrained states, and qc states of ``qc_blocks``) for a stack
of their blocks, and ``block_marginals`` gives their B marginals;
``factored_marginals`` gives the marginals on either side of a stack of
factored states (a pure stack, too, as its factors) by their Gram form,
equal to ``partial_traces`` of their matrices to rounding.
``marginal_of`` a state is the stack of one of the kernel of its kind
and side, with the dense ``partial_traces`` for the rest.
The sampling functions draw through ``draw_state_matrices``,
``draw_pure_vectors`` and ``draw_qc``, one case per generator in turn;
``sample_state``, ``sample_pure_state``, ``sample_pure_bipartite`` and
``sample_qc_state`` are their stacks of one, so a stacked campaign draws
each case exactly as the scalar samplers do.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import (PSD_ATOL, HermitianOperator, _divided, _frozen,
                     _operator_pair, _symmetrized, check_dense_dim, diagonal_traces, eigenpairs,
                     factored_diagonals, hermitian_stack, unit_vectors)

# A state's trace may be off from 1 by TRACE_ATOL, and is renormalized when
# it is off by more than RENORM_ATOL.
TRACE_ATOL = 1e-8
RENORM_ATOL = 1e-14
# The most bytes of dense matrices a stack holds: a chunk of blocks or of cases
CHUNK_BYTES = 2**18


class StateValidationError(ValueError):
    pass


def _state_rule(lam_min: float, tr: float):
    """The rules of a state of smallest eigenvalue ``lam_min`` (0 for a
    state PSD by construction) and trace ``tr``: raise
    ``StateValidationError`` below ``-PSD_ATOL`` or off from 1 by more than
    ``TRACE_ATOL``.  ``_state_rules`` applies it to a stack as masks, and
    raises through it."""
    if not lam_min >= -PSD_ATOL:  # NaN fails too
        raise StateValidationError(f"negative eigenvalue {lam_min:.3e} beyond tolerance")
    if not abs(tr - 1.0) <= TRACE_ATOL:
        raise StateValidationError(f"trace {tr!r} is not 1")


def _state_rules(lam_min, tr) -> np.ndarray:
    """``_state_rule`` of each state of a stack, as masks over the stack:
    its smallest eigenvalue (one for all, if a scalar) and its trace (a
    scalar for a state alone).  The first state (in stack order) that the
    rule rejects raises its error; returns whether each is renormalized,
    its trace off from 1 by more than ``RENORM_ATOL``.  Every state, built
    alone or stacked, goes through it."""
    dev = np.abs(tr - 1.0)
    bad = ~((lam_min >= -PSD_ATOL) & (dev <= TRACE_ATOL))
    if bad.any():
        j = np.flatnonzero(bad)[0]
        _state_rule(*(np.broadcast_to(x, dev.shape).flat[j].item() for x in (lam_min, tr)))
    return dev > RENORM_ATOL


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
    by more than ``TRACE_ATOL``, are rejected as genuinely invalid input
    (``_state_rules``); ``density_stack`` applies the same rules and
    repairs to a stack of arrays.  Validation reads the eigenvalues
    alone; the clamp also reads the eigenvectors.  An operator's
    structure and known spectrum are kept (a renormalized trace scales
    them alike: ``_renormalize``), and a repaired state keeps what its
    validation read, so no state is decomposed twice.  A
    ``DensityOperator`` passed in is taken over with no second validation.
    ``_built`` takes a matrix or a structured operator that is PSD by
    construction (nonnegative weights of validated states) and checks
    only its trace, with no decomposition.
    """

    __slots__ = ()

    def __init__(self, mat_or_op):
        if not isinstance(mat_or_op, HermitianOperator):
            super().__init__(mat_or_op)
        else:
            self._take(mat_or_op)
            if isinstance(mat_or_op, DensityOperator):
                return
        lam, tr = self.eigenvalues, self.trace()
        renormalized = _state_rules(lam[-1], tr)
        if lam[-1] < 0.0:
            u = self.eigenvectors
            mat, lam = _clamped(lam, u)
            self._set_matrix(_symmetrized(mat))
            self._eigenvalues, self._eigenvectors = _frozen(lam), u
        elif renormalized:
            self._renormalize(tr)

    def _take(self, op):
        for name in HermitianOperator.__slots__:
            setattr(self, name, getattr(op, name))

    def _renormalize(self, tr):
        """Divide the state by its trace ``tr``, as the state rule does: its
        matrix, if built, and its blocks (as ``embedded_stack``), or else a
        record of ``tr`` that ``mat`` divides by; the factor and spectrum."""
        if self._parts is None or self._mat is not None:
            self._mat = _frozen(_divided(self.mat, tr))
        if self.block is not None:
            index, mats, spectra = self.block
            self._parts = ("block", index, _frozen(_divided(mats, tr)), _frozen(spectra / tr))
            self.block = self._parts[1:]
        elif self._parts is not None:
            self._divisor = tr
        if self.factor is not None:
            self.factor = (self.factor[0], _frozen(self.factor[1] / tr), self.factor[2] / tr)
        if self._eigenvalues is not None:
            self._eigenvalues = _frozen(self._eigenvalues / tr)

    @classmethod
    def _built(cls, mat, *args) -> "DensityOperator":
        """A state that is PSD by construction, such as a nonnegative
        combination of validated states: symmetrized, held to the trace
        rule and renormalized like any input, but never decomposed.  For a
        matrix, the stack of one of ``built_stack``; a structured operator
        is held to the rule through its trace from the parts, with no
        matrix built."""
        if isinstance(mat, HermitianOperator):
            state = DensityOperator.__new__(DensityOperator)
            state._take(mat)
            tr = state.trace()
            if _state_rules(0.0, tr):
                state._renormalize(tr)
        else:
            state = DensityOperator._trusted(built_stack(np.asarray(mat)[None])[0])
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
    them: their symmetrized (and repaired) matrices, their non-increasing
    spectra (``eigvalsh``) and, if kept, their eigenvectors (``eigh``):
    the eigenpairs a ``DensityOperator`` keeps."""

    mats: np.ndarray  # (n, d, d) complex
    eigenvalues: np.ndarray  # (n, d) real
    eigenvectors: np.ndarray | None = None  # (n, d, d) complex

    @classmethod
    def of(cls, *states) -> "StateStack":
        """The stack of validated states of one dimension."""
        return cls(*(np.stack([getattr(s, f) for s in states])
                     for f in ("mat", "eigenvalues", "eigenvectors")))

    def split(self):
        """The stacks of the even and of the odd states: the rho and the
        sigma of each pair drawn rho first."""
        return tuple(type(self)(*(None if a is None else a[k::2] for a in self)) for k in (0, 1))


def density_stack(mats, vectors: bool = False) -> StateStack:
    """``DensityOperator(m)`` for each matrix ``m`` of an (n, d, d) stack, in
    one pass and bit for bit: the scans, symmetrization and spectra of
    ``linalg.hermitian_stack``, then the state rules and the clamp or
    renormalization, element by element.  The first matrix (in stack
    order) that the constructor rejects raises its error.  Only with
    ``vectors`` does the stack run ``eigh`` and keep the eigenvectors, so
    that a check that reads spectra alone computes and holds no d x d
    basis per state.  Without them, a clamped state alone is decomposed
    with ``eigh``, as the constructor decomposes it, and its ``eigvalsh``
    spectrum is clamped with those vectors.  ``mats`` is only read: the
    clamp and the renormalization write into the new symmetrized stack of
    ``hermitian_stack``, by the constructor's formulas, so with its bits."""
    mats, lam, u = hermitian_stack(mats, vectors)
    tr = np.trace(mats, axis1=1, axis2=2).real
    renormalized = _state_rules(lam[:, -1], tr)
    clamp = lam[:, -1] < 0.0
    for j in np.flatnonzero(clamp):
        # without the stack's vectors, those of this state alone, as the constructor
        vecs = eigenpairs(mats[j])[1] if u is None else np.ascontiguousarray(u[j])
        mat, lam[j] = _clamped(lam[j], vecs)
        mats[j] = _symmetrized(mat)
    _renormalize(mats, lam, tr, renormalized & ~clamp)
    return StateStack(mats, lam, u)


def built_stack(mats) -> np.ndarray:
    """The matrix of ``DensityOperator._built(m)`` for each matrix ``m`` of
    an (n, d, d) stack that is PSD by construction: symmetrized, held to
    the trace rule and renormalized, never decomposed."""
    mats = _symmetrized(mats)
    tr = np.trace(mats, axis1=1, axis2=2).real
    _renormalize(mats, None, tr, _state_rules(0.0, tr))
    return mats


def _renormalize(mats, lam, tr, which):
    """Divide, in place, the matrices or blocks (symmetrized again,
    ``linalg._divided``) and spectra (if any) of the states ``which`` by
    their traces ``tr``, as the constructor renormalizes a state."""
    rows = np.flatnonzero(which)
    if not rows.size:
        return
    mats[rows] = _divided(mats[rows], tr[rows])
    if lam is not None:
        lam[rows] /= tr[rows].reshape(-1, *(1,) * (lam.ndim - 1))


def divisors(diags) -> np.ndarray:
    """The trace by which the state rule divides each structured state,
    PSD by construction, of the unsymmetrized diagonals ``diags`` (n, D):
    its trace (``linalg.diagonal_traces``) where ``_state_rules``
    renormalizes it, else 1.  No D x D matrix is built."""
    tr = diagonal_traces(diags)
    return np.where(_state_rules(0.0, tr), tr, 1.0)


def factored_traces(vecs, lam, c=None) -> np.ndarray:
    """The trace by which ``DensityOperator.factored(v, l, c)`` divides its
    matrix, for each basis ``v`` of an (n, D, k) stack with its weights
    ``l`` (n, k) and complement eigenvalue ``c`` (n,; 0 by default), so
    that ``l`` and ``c`` over it are the eigenvalues the state keeps:
    ``divisors`` of ``linalg.factored_diagonals``."""
    return divisors(factored_diagonals(vecs, lam, np.zeros(len(lam)) if c is None else c))


class PureStack(NamedTuple):
    """n pure states of one dimension D, as a factor ``(v, [l], 0)`` leaves
    each: its vector ``v``, the trace its matrix ``l |v><v|`` was divided by
    (``factored_traces``; 1 where the trace rule left it) and ``l`` (1 for
    ``DensityOperator.pure``)."""

    vectors: np.ndarray  # (n, D) complex
    traces: np.ndarray  # (n,) real
    scales: np.ndarray  # (n,) real

    @property
    def weights(self) -> np.ndarray:
        """The weight ``w`` of each state ``w |v><v|``, as its factor holds it."""
        return self.scales / self.traces

    @classmethod
    def of(cls, *states) -> "PureStack":
        """The stack of states held as a rank-one factor ``(v, [l], 0)``, as
        their construction left each: ``v``, its recorded trace and ``l``."""
        return cls(np.stack([s.factor[0][:, 0] for s in states]),
                   np.array([s._divisor or 1.0 for s in states]),
                   np.array([s._parts[2][0] for s in states]))

    split = StateStack.split


def pure_stack(vecs) -> PureStack:
    """``DensityOperator.pure(v)`` for each row ``v`` of an (n, D) stack, with
    no D x D matrix built: the unit vectors of ``linalg.unit_vectors`` and
    the traces of the trace rule."""
    v = unit_vectors(np.asarray(vecs, dtype=complex))
    return PureStack(v, factored_traces(v[:, :, None], np.ones((len(v), 1))), np.ones(len(v)))


def embedded_stack(index, blocks: StateStack, dim: int) -> StateStack:
    """The blocks and their spectra, as ``DensityOperator._block_diagonal(
    dim, index, b, lam)`` holds them, of each PSD stack ``b`` (n, m, k, k) of
    blocks on the index sets ``index`` (m, k) with spectra ``lam`` (n, m,
    k): held to the state rule by their trace, all ``dim`` diagonal
    entries summed in index order, and smallest eigenvalue (0 if
    ``m k < dim``), and renormalized alike.  No state is clamped."""
    diag = np.zeros((len(blocks.mats), dim), dtype=complex)
    diag[:, index] = np.diagonal(blocks.mats, axis1=2, axis2=3)
    tr = diagonal_traces(diag)
    lam_min = blocks.eigenvalues[:, :, -1].min(axis=1)
    if index.size < dim:
        lam_min = np.minimum(lam_min, 0.0)
    renormalized = _state_rules(lam_min, tr)
    mats, lam = blocks.mats.copy(), blocks.eigenvalues.copy()
    _renormalize(mats, lam, tr, renormalized)
    return StateStack(mats, lam)


def qc_blocks(p, states: StateStack):
    """The index sets (d_x, d_a) of ``sum_x p_x rho_x (x) |x><x|``, the rows
    ``i d_x + x`` of each x, and the blocks ``p_x rho_x`` with their spectra
    ``p_x spec(rho_x)`` of n such states from the weights ``p`` (n, d_x) and
    the validated ``rho_x`` (n d_x of d_a x d_a, in the order of p)."""
    (n, d_x), d_a = p.shape, states.mats.shape[-1]
    return np.arange(d_a * d_x).reshape(d_a, d_x).T, StateStack(
        p[:, :, None, None] * states.mats.reshape(n, d_x, d_a, d_a),
        p[:, :, None] * states.eigenvalues.reshape(n, d_x, d_a))


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
    """Marginal on subsystem ``keep`` ('A' or 'B'), validated."""
    return DensityOperator(marginal_of(state, keep))


def marginal_of(state: BipartiteState, keep: str) -> np.ndarray:
    """The unvalidated marginal ``partial_traces(state.mat, state.dims, keep)``.
    A factored state on either side (``factored_marginals``, to rounding)
    and a block state's B side (``block_marginals``, bit for bit) build no
    matrix.  A bad ``keep`` raises the error of ``partial_traces`` before
    any kernel runs."""
    if keep not in ("A", "B"):
        partial_traces(np.empty((0, 1, 1)), (1, 1), keep)  # raises its error
    if state.factor is not None:
        return factored_marginals(*(np.array([x]) for x in state._parts[1:]),
                                  np.array([state._divisor or 1.0]), state.dims, keep)[0]
    if state.block is not None and keep == "B":
        return block_marginals(state.block[0], state.block[1][None], state.dims)[0]
    return partial_traces(state.mat, state.dims, keep)


def factored_marginals(vecs, lam, c, traces, dims, keep: str) -> np.ndarray:
    """``marginal_of`` on ``keep`` ('A' or 'B'), with no D x D matrix built, of
    each state ``DensityOperator.factored(V, lam, c)`` on ``A (x) B`` of
    stacks ``V`` (n, D, k), ``lam`` (n, k) and ``c`` (n,), with the traces
    ``traces`` (n,) its trace rule divides it by (1 where it left it): the
    Gram form ``c d_B 1 + sum_k (lam_k - c) X_k X_k^dagger`` on A, or
    ``c d_A 1 + sum_k (lam_k - c) X_k^T X_k^*`` on B, X_k the d_A x d_B
    reshape of column k of V, of one batched product over the stack,
    symmetrized and divided by the trace as the state rule divides a
    state.  It sums in another order than the einsum over ``mat``, so it
    agrees with ``partial_traces`` of ``mat`` to rounding, not bit for bit;
    a state gets the same bits in any stack."""
    x = vecs.reshape(len(vecs), *dims, -1)
    if keep == "B":
        x = x.swapaxes(1, 2)
    n, d, rest = x.shape[:3]  # d the kept dimension, rest the traced-out one
    # each operand written once, in C order, so that its reshape copies nothing
    out = (np.multiply(x, (lam - c[:, None])[:, None, None], order="C").reshape(n, d, -1)
           @ np.conjugate(x, order="C").reshape(n, d, -1).swapaxes(1, 2))
    out[:, np.arange(d), np.arange(d)] += (c * rest)[:, None]
    out = _symmetrized(out)
    _renormalize(out, None, traces, traces != 1.0)
    return out


def block_marginals(index, mats, dims) -> np.ndarray:
    """``partial_traces(m, dims, "B")``, bit for bit, of the matrix ``m`` of
    each block operator of an (n, m, k, k) stack of blocks on the index sets
    ``index`` (m, k), with no D x D matrix built: the block entries whose
    row and column share their A index i, added in the order of i."""
    d_b = dims[1]
    a, b = np.divmod(index, d_b)
    blk, r, c = np.nonzero(a[:, :, None] == a[:, None, :])
    order = np.argsort(a[blk, r], kind="stable")
    blk, r, c = blk[order], r[order], c[order]
    out = np.zeros((len(mats), d_b, d_b), dtype=complex)
    np.add.at(out, (slice(None), b[blk, r], b[blk, c]), mats[:, blk, r, c])
    return out


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
    """Marginal matrices (unnormalized) of a possibly sub-normalized vector,
    or of each of a stack of them (last axis)."""
    v = np.asarray(vec, dtype=complex)
    v = v.reshape(*v.shape[:-1], d_a, d_b)
    vh = v.conj().swapaxes(-1, -2)
    return v @ vh, (vh @ v).swapaxes(-1, -2)


def maximally_entangled_vector(dim: int) -> np.ndarray:
    """|Phi> = sum_i |i>|i> / sqrt(dim)."""
    return np.eye(dim, dtype=complex).reshape(-1) / np.sqrt(dim)


def maximally_entangled_state(dim: int) -> BipartiteState:
    return BipartiteState.pure(maximally_entangled_vector(dim), (dim, dim))


# -- sampling ----------------------------------------------------------------


def _ginibre(rngs, n, m) -> np.ndarray:
    """One n x m complex Ginibre matrix from each generator of ``rngs`` in
    turn, as an (len(rngs), n, m) stack: ``(p0 + 1j p1) / sqrt(2)`` of one
    C-order fill of its (2, n, m) normals ``(p0, p1)``, real parts first.
    Each matrix is written once, into the stack, with the bits of that
    division (``_complex_normals``)."""
    check_dense_dim(n)
    parts = np.empty((len(rngs), 2, n, m))
    for part, rng in zip(parts, rngs):
        np.random.default_rng(rng).standard_normal(out=part)
    return _complex_normals(parts)


def _complex_normals(normals) -> np.ndarray:
    """``(p0 + 1j p1) / sqrt(2)`` of the real parts ``p0`` and imaginary parts
    ``p1`` of normals (..., 2, n, m), as a new complex (..., n, m) array.
    Each part is written once, as ``x * fl(1/sqrt(2))``, into the real and
    imaginary views of the result: the bits of the complex division, as
    numpy divides a complex by a real ``t`` as ``x * fl(1/t)``."""
    g = np.empty(normals.shape[:-3] + normals.shape[-2:], dtype=complex)
    np.multiply(normals[..., 0, :, :], 1.0 / np.sqrt(2), out=g.real)
    np.multiply(normals[..., 1, :, :], 1.0 / np.sqrt(2), out=g.imag)
    return g


def _hs_matrices(g) -> np.ndarray:
    """``g g^dagger / tr(g g^dagger)`` of each matrix of an (n, dim, rank)
    stack: the product multiplied by ``fl(1/tr)`` in place, the bits of the
    division, as numpy divides a complex by a real ``t`` as ``x * fl(1/t)``
    for each real and imaginary part ``x``."""
    m = g @ g.conj().swapaxes(1, 2)
    m *= (1.0 / np.trace(m, axis1=1, axis2=2).real)[:, None, None]
    return m


def draw_state_matrices(dim: int, rank: int, rngs) -> np.ndarray:
    """The unvalidated matrices of ``sample_state``, one drawn from each
    generator of ``rngs`` in turn, as an (len(rngs), dim, dim) stack."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    return _hs_matrices(_ginibre(rngs, dim, rank))


def sample_state(dim: int, rank: int, rng) -> DensityOperator:
    """Hilbert-Schmidt-induced random mixed state of the given rank
    (partial trace of a Haar pure state on dim x rank)."""
    return DensityOperator(draw_state_matrices(dim, rank, [rng])[0])


def draw_pure_vectors(dim: int, rngs) -> np.ndarray:
    """The unnormalized vectors of ``sample_pure_state``, one drawn from each
    generator of ``rngs`` in turn, as an (len(rngs), dim) stack."""
    return _ginibre(rngs, dim, 1)[:, :, 0]


def sample_pure_state(dim: int, rng) -> DensityOperator:
    return DensityOperator.pure(draw_pure_vectors(dim, [rng])[0])


def sample_pure_bipartite(d_a: int, d_b: int, rng) -> BipartiteState:
    return BipartiteState.pure(draw_pure_vectors(d_a * d_b, [rng])[0], (d_a, d_b))


def draw_qc(d_a: int, d_x: int, rngs):
    """The draws of ``sample_qc_state``, one from each generator of ``rngs``
    in turn: its Dirichlet(1,..,1) weights and then the normals of its
    full-rank blocks (each block's real parts, then its imaginary parts, in
    one C-order fill of the case's (d_x, 2, d_a, d_a) normals).  Returns the
    weights (n, d_x) and the unvalidated blocks (n, d_x, d_a, d_a), all
    formed in one batched product.

    The weights are numpy's own ``dirichlet`` at alpha >= 0.1, bit for bit:
    d_x standard exponentials (the gamma(1) variates) per case, each row
    times the reciprocal of its sequential sum, normalized for the whole
    chunk at once."""
    check_dense_dim(d_a)
    weights = np.empty((len(rngs), d_x))
    parts = np.empty((len(rngs), d_x, 2, d_a, d_a))
    for p, part, rng in zip(weights, parts, rngs):
        rng = np.random.default_rng(rng)
        rng.standard_exponential(out=p)
        rng.standard_normal(out=part)
    weights *= 1.0 / np.cumsum(weights, axis=1)[:, -1:]
    blocks = _hs_matrices(_complex_normals(parts).reshape(-1, d_a, d_a))
    return weights, blocks.reshape(len(rngs), d_x, d_a, d_a)


def sample_qc_state(d_a: int, d_x: int, rng) -> BipartiteState:
    """Random qc-state sum_x p_x rho_x^A (x) |x><x|^B with Dirichlet(1,..,1)
    weights and independent full-rank blocks, held as its blocks."""
    p, blocks = draw_qc(d_a, d_x, [rng])
    index, blocks = qc_blocks(p, density_stack(blocks[0]))
    return BipartiteState._block_diagonal(d_a * d_x, index, blocks.mats[0],
                                          blocks.eigenvalues[0], (d_a, d_x))
