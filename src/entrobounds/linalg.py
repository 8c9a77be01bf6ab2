"""Dense complex Hermitian linear algebra.

Spectral decompositions, matrix functions, Schatten norms and fidelity.
Everything downstream (states, entropies, couplings, Gibbs machinery)
is built on :class:`HermitianOperator`; density operators and bipartite
states are subclasses of it.

Conventions
-----------
* Eigenvalues are stored in non-increasing order.
* Each spectral question has one solver.  Eigenvalues, of an operator or
  of a stack, always come from ``descending_eigvalsh``.  ``descending_eigh``
  runs only where eigenvectors are read, and its own eigenvalues are
  discarded.  The decomposition is lazy: ``eigenvalues`` and
  ``eigenvectors`` are each computed on their first read and cached, so
  the eigenvalues have the same bits whichever is read first, and an
  operator whose spectrum is never read is never decomposed.
* An operator with a thin factor (``HermitianOperator.factor``), such as
  a projector, and a diagonal operator know their spectrum and never call
  a solver.  The trace distance of two factored operators comes from a
  2k x 2k eigenproblem, in O(d k^2) instead of O(d^3).
* An operator with a block (``HermitianOperator.block``) is a k x k
  operator on a set of rows and columns and zero elsewhere, such as an
  energy-constrained state padded to its level space.  Its spectrum is
  the block's plus zeros, and the trace distance of two blocks on the
  same index set decomposes only their k x k difference.
* ``support_mask`` is the one support cut (eigenvalues at or below
  ``ZERO_EIGENVALUE_RTOL * max(|lambda_max|, 1)`` are exact zeros), for
  support-restricted functions such as ``sqrt`` and for D(rho || gamma).
* All values are immutable after construction; operations are pure.

Stacks
------
``hermitian_stack`` is ``HermitianOperator`` for an (n, d, d) stack of
matrices in one pass: the same scans, judged by the same rules
(``_check_hermitian``), the same symmetrization (``_symmetrized``) and
one batched ``descending_eigvalsh``, plus one batched ``descending_eigh``
only when the eigenvectors are asked for; every matrix gets the bits it
would get alone.
``trace_distance`` is the stack of one of ``trace_distances`` (of
matrices, or of blocks on one index set) or ``factored_trace_distances``,
``function_stack`` is ``apply_function`` over a stack of eigenpairs,
``unit_vectors`` is the normalization of ``pure`` and ``pure_fidelities``
the rank-one branch of ``fidelity``, each over a stack.  No operator
object is built; ``states.density_stack`` adds the state rules.
"""

from __future__ import annotations

import numpy as np

# Relative threshold below which eigenvalues count as zero.  All bound
# checks run at 1e-9 tolerances, leaving three orders of headroom.
ZERO_EIGENVALUE_RTOL = 1e-12

HERMITICITY_ATOL = 1e-11

# Eigenvalues down to -PSD_ATOL are rounding noise of a PSD operator.
PSD_ATOL = 1e-10
# Weight of rho outside supp(gamma) above which D(rho || gamma) = +inf.
OUTSIDE_SUPPORT_ATOL = 1e-10
# Largest dimension of a dense operator: a 256 MiB complex matrix.
DENSE_DIM_LIMIT = 4096


class MatrixFunctionDomainError(ValueError):
    """Scalar function undefined at a retained eigenvalue."""


def check_dense_dim(dim, limit=DENSE_DIM_LIMIT):
    """Raise ``ValueError`` before a dense allocation of dimension ``dim``
    above ``limit``."""
    if dim > limit:
        raise ValueError(f"dimension {dim} is above the dense limit {limit}")


def _check_finite(*parts):
    """Raise ``ValueError`` when any of the arrays or scalars ``parts`` has a
    non-finite entry."""
    for part in parts:
        if not np.isfinite(part).all():
            raise ValueError("operator parts have non-finite entries")


def _frozen(a):
    a.setflags(write=False)
    return a


def _symmetrized(mats):
    """``(m + m^dagger) / 2`` of a matrix or of each matrix of a stack."""
    return (mats + mats.conj().swapaxes(-1, -2)) / 2


def _check_hermitian(mat, largest, dev):
    """The two rules of a matrix ``mat`` with largest entry magnitude
    ``largest`` and deviation from Hermiticity ``dev``: raise ``ValueError``
    for a non-finite entry, or for ``dev`` above ``HERMITICITY_ATOL`` times
    ``max(1, largest)``."""
    # NaN or inf anywhere makes the largest magnitude non-finite
    if not largest < np.inf:
        bad = np.argwhere(~np.isfinite(mat))
        raise ValueError(f"matrix has {len(bad)} non-finite entries, "
                         f"the first at {tuple(int(i) for i in bad[0])}")
    if dev > HERMITICITY_ATOL * max(1.0, largest):
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")


class HermitianOperator:
    """A dense complex Hermitian matrix with a lazily cached spectral
    decomposition, and optionally a thin factor or a block that fixes its
    spectrum.

    The input is symmetrized on construction; a non-finite entry, or a
    deviation from Hermiticity larger than ``HERMITICITY_ATOL`` (relative
    to the largest entry), raises.  Operators the library builds from
    validated parts (``diagonal``, ``factored``, ``embedded`` and
    ``apply_function``) go through ``_built``, which symmetrizes alike
    but skips both O(d^2) scans; ``diagonal`` and ``factored`` check their
    parts for non-finite entries instead, and ``embedded`` takes a
    validated operator as its block.

    Attributes
    ----------
    mat : (d, d) complex ndarray
        The (symmetrized) matrix.  Do not mutate.
    dim : int
    factor : tuple ``(V, lam, c)`` or None
        ``mat = c 1 + V diag(lam - c) V^dagger``: ``V`` (d, k) has
        orthonormal columns with eigenvalues ``lam``, and ``c`` is the
        eigenvalue on their complement.  A projector is ``(v, [1], 0)``.
    block : tuple ``(index, B)`` or None
        ``mat`` is the validated k x k operator ``B`` on the rows and
        columns ``index`` (an int array) and zero elsewhere.  The
        eigenvalues are ``B``'s and ``dim - k`` zeros; the eigenvectors
        are ``B``'s embedded at ``index`` and identity columns on the
        complement.
    eigenvalues : (d,) real ndarray, non-increasing
        Computed on first read, by ``descending_eigvalsh`` for a dense
        operator.
    eigenvectors : (d, d) complex ndarray
        Columns are the eigenvectors matching ``eigenvalues``.  Computed
        on first read, by ``descending_eigh`` for a dense operator (its
        eigenvalues are discarded); for a factor, ``V`` completed to a
        unitary.
    """

    __slots__ = ("mat", "dim", "factor", "block", "_eigenvalues", "_eigenvectors")

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
            raise ValueError(f"expected a non-empty square matrix, got shape {mat.shape}")
        largest = np.abs(mat).max()
        # the deviation of a matrix with a non-finite entry is never read
        dev = np.abs(mat - mat.conj().T).max() if largest < np.inf else np.nan
        _check_hermitian(mat, largest, dev)
        self._set_matrix(mat)

    def _set_matrix(self, mat):
        """Store ``(mat + mat^dagger) / 2``, frozen, with no factor, block
        or spectrum."""
        mat = _symmetrized(mat)
        mat.setflags(write=False)
        self.mat = mat
        self.dim = mat.shape[0]
        self.factor = self.block = self._eigenvalues = self._eigenvectors = None

    @classmethod
    def _built(cls, mat) -> "HermitianOperator":
        """An operator the library built from validated parts: symmetrized
        as on construction, with no scan for non-finite entries or for
        deviation from Hermiticity.  ``mat`` must be a complex square array.
        ``DensityOperator._built`` is the state form."""
        op = HermitianOperator.__new__(HermitianOperator)
        op._set_matrix(mat)
        return op

    # each structured constructor passes further arguments (``dims``) on to cls
    @classmethod
    def diagonal(cls, values, *args) -> "HermitianOperator":
        """``diag(values)`` with its spectrum known: the values in
        non-increasing order, the matching identity columns as
        eigenvectors."""
        values = np.asarray(values, dtype=float)
        _check_finite(values)
        check_dense_dim(len(values))
        op = HermitianOperator._built(np.diag(values.astype(complex)))
        order = np.argsort(-values, kind="stable")
        op._eigenvalues = _frozen(values[order])
        op._eigenvectors = _frozen(np.eye(op.dim, dtype=complex)[:, order])
        return op if cls is HermitianOperator else cls(op, *args)

    @classmethod
    def factored(cls, vecs, lam, c=0.0, *args) -> "HermitianOperator":
        """``c 1 + V diag(lam - c) V^dagger`` carrying ``(V, lam, c)`` as its
        factor.  The columns of ``vecs`` must be orthonormal (unchecked)."""
        vecs = _frozen(np.array(vecs, dtype=complex))
        lam = _frozen(np.array(lam, dtype=float))
        _check_finite(vecs, lam, c)
        # outer products, not a BLAS product: a projector is exactly
        # np.outer(v, v^*), whatever the BLAS build or thread count
        check_dense_dim(len(vecs))
        mat = np.diag(np.full(len(vecs), c, dtype=complex))
        for a, b in zip((vecs * (lam - c)).T, vecs.conj().T):
            mat += np.outer(a, b)
        op = HermitianOperator._built(mat)
        op.factor = (vecs, lam, float(c))
        return op if cls is HermitianOperator else cls(op, *args)

    @classmethod
    def embedded(cls, index, block, dim, *args) -> "HermitianOperator":
        """The k x k operator ``block`` on the rows and columns ``index`` of
        a ``dim``-dimensional space and zero elsewhere, carrying
        ``(index, block)`` as its block.  ``index`` holds k distinct
        indices below ``dim``."""
        block = as_operator(block)
        index = _frozen(np.array(index, dtype=int))
        if (index.shape != (block.dim,) or len(set(index.tolist())) != block.dim
                or index.min() < 0 or index.max() >= dim):
            raise ValueError(f"index must hold {block.dim} distinct indices below {dim}")
        check_dense_dim(dim)
        mat = np.zeros((dim, dim), dtype=complex)
        mat[np.ix_(index, index)] = block.mat
        op = HermitianOperator._built(mat)
        op.block = (index, block)
        return op if cls is HermitianOperator else cls(op, *args)

    @classmethod
    def pure(cls, vec, *args) -> "HermitianOperator":
        """``|v><v|`` for ``v = vec / ||vec||``: the factor ``(v, [1], 0)``."""
        v = unit_vectors(np.asarray(vec, dtype=complex)[None])[0]
        return cls.factored(v[:, None], [1.0], 0.0, *args)

    @property
    def eigenvalues(self) -> np.ndarray:
        if self._eigenvalues is None:
            self._decompose()
        return self._eigenvalues

    @property
    def eigenvectors(self) -> np.ndarray:
        if self._eigenvectors is None:
            self._decompose(vectors=True)
        return self._eigenvectors

    def _decompose(self, vectors=False):
        if self.factor is None and self.block is None:
            # eigh's own values are discarded: the values have one source
            if vectors:
                self._eigenvectors = _frozen(eigenpairs(self.mat)[1])
            else:
                self._eigenvalues = _frozen(descending_eigvalsh(self.mat))
            return
        # one stable sort of [lam, c, ..., c]; the basis of V (or of the
        # block) and of its complement follows it
        if self.factor is not None:
            vecs, lam, c = self.factor
        else:
            index, b = self.block
            lam, c = b.eigenvalues, 0.0
        k = len(lam)
        values = np.concatenate([lam, np.full(self.dim - k, c)])
        order = np.argsort(-values, kind="stable")
        self._eigenvalues = _frozen(values[order])
        if not vectors:
            return
        if self.factor is not None:
            basis = np.hstack([vecs, np.linalg.qr(vecs, mode="complete")[0][:, k:]])
        else:
            basis = np.zeros((self.dim, self.dim), dtype=complex)
            basis[index, :k] = b.eigenvectors
            rest = np.ones(self.dim, dtype=bool)
            rest[index] = False
            basis[np.flatnonzero(rest), np.arange(k, self.dim)] = 1.0
        self._eigenvectors = _frozen(basis[:, order])

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"

    # -- derived quantities ------------------------------------------------

    def trace(self) -> float:
        return float(np.real(np.trace(self.mat)))

    def apply_function(self, f, support_only: bool = False) -> "HermitianOperator":
        """Return ``U f(Lambda) U^dagger``.

        ``f`` is called once, on the array of retained eigenvalues, and
        acts elementwise.  With ``support_only``, only the eigenvalues in
        ``support_mask`` are retained; the rest map to 0 (support-restricted
        convention, e.g. ``omega^{-1/2}``).
        """
        return HermitianOperator._built(
            function_stack(self.eigenvalues[None], self.eigenvectors[None], f, support_only)[0])

    def sqrt(self) -> "HermitianOperator":
        """The square root of the support; an eigenvalue below ``-PSD_ATOL``
        raises, and rounding noise on either side of 0 maps to 0."""
        if self.eigenvalues[-1] < -PSD_ATOL:
            raise MatrixFunctionDomainError(
                f"square root of operator with eigenvalue {self.eigenvalues[-1]!r}"
            )
        return self.apply_function(np.sqrt, support_only=True)


def descending_eigh(mats):
    """``np.linalg.eigh`` of a matrix or a stack (last two axes), as views
    flipped to non-increasing order; it reads the lower triangle only."""
    lam, u = np.linalg.eigh(mats)
    return lam[..., ::-1], u[..., ::-1]


def descending_eigvalsh(mats):
    """The eigenvalues alone of a matrix or a stack (last two axes), by
    ``np.linalg.eigvalsh``, in non-increasing order and contiguous; it
    reads the lower triangle only."""
    return np.ascontiguousarray(np.linalg.eigvalsh(mats)[..., ::-1])


def eigenpairs(mats):
    """``descending_eigh`` of a matrix or a stack, both parts contiguous, as
    an operator caches them (a matrix product of a flipped view would not
    go through BLAS)."""
    lam, u = descending_eigh(mats)
    return np.ascontiguousarray(lam), np.ascontiguousarray(u)


def function_stack(lam, u, f, support_only: bool = False):
    """``U f(Lambda) U^dagger`` of each of a stack of eigenpairs ``(lam, u)``
    (non-increasing), unsymmetrized: ``apply_function`` of each operator,
    bit for bit, since ``u`` is multiplied in the contiguous layout an
    operator caches.  ``f`` acts elementwise on the retained
    eigenvalues, all of them or, with ``support_only``, those in
    ``support_mask`` (the rest map to 0); a non-finite value raises."""
    keep = support_mask(lam) if support_only else np.ones(lam.shape, dtype=bool)
    out = np.zeros_like(lam)
    with np.errstate(all="ignore"):
        out[keep] = f(lam[keep])
    bad = ~np.isfinite(out)
    if bad.any():
        raise MatrixFunctionDomainError(
            f"function undefined at retained eigenvalue {lam[bad][0]!r}"
        )
    u = np.ascontiguousarray(u)
    return (u * out[:, None, :]) @ u.conj().swapaxes(1, 2)


def unit_vectors(vecs):
    """Each row of an (n, D) complex stack over its Euclidean norm, the norm
    summed as ``np.linalg.norm`` sums it; a norm that is 0 or not finite
    raises ``ValueError``."""
    re, im = vecs.real, vecs.imag
    norms = np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0]
    for norm in norms.tolist():
        if not 0.0 < norm < np.inf:
            raise ValueError(f"cannot normalize a vector of norm {norm:g}")
    return vecs / norms[:, None]


def pure_fidelities(vecs, weights, mats) -> np.ndarray:
    """``fidelity(w |v><v|, M)`` of each unit vector ``v`` of an (n, D) stack
    with its weight ``w`` and the matrix ``M`` of an (n, D, D) stack:
    ``sqrt(w <v|M|v>)``, clipped to [0, 1]."""
    mv = mats @ vecs[:, :, None]
    overlap = (vecs.conj()[:, None, :] @ mv)[:, 0, 0].real
    return np.minimum(np.sqrt(np.maximum(weights * overlap, 0.0)), 1.0)


def hermitian_stack(mats, vectors: bool = False):
    """``HermitianOperator(m)`` and its spectrum for each matrix ``m`` of an
    (n, d, d) stack, in one pass: ``(mats, lam, u)``, the symmetrized
    matrices, their non-increasing spectra (``descending_eigvalsh``,
    contiguous) and, with ``vectors``, the eigenvectors of one batched
    ``descending_eigh`` (views), else None.  The first matrix that the
    constructor rejects raises its error."""
    mats = np.asarray(mats, dtype=complex)
    largest = np.abs(mats).max(axis=(1, 2))
    with np.errstate(invalid="ignore"):
        dev = np.abs(mats - mats.conj().swapaxes(1, 2)).max(axis=(1, 2))
    for mat, top, skew in zip(mats, largest.tolist(), dev.tolist()):
        _check_hermitian(mat, top, skew)
    mats = _symmetrized(mats)
    return mats, descending_eigvalsh(mats), descending_eigh(mats)[1] if vectors else None


def as_operator(x) -> HermitianOperator:
    """A square array as a :class:`HermitianOperator`; an operator,
    states included (a state is its operator), is returned as it is."""
    return x if isinstance(x, HermitianOperator) else HermitianOperator(x)


def trace_norm(op) -> float:
    """Schatten-1 norm.  Accepts a HermitianOperator or a raw ndarray;
    general (non-Hermitian) matrices go through singular values."""
    if isinstance(op, HermitianOperator):
        return float(np.abs(op.eigenvalues).sum())
    return float(np.linalg.svd(np.asarray(op, dtype=complex), compute_uv=False).sum())


def operator_norm(op: HermitianOperator) -> float:
    return float(np.abs(op.eigenvalues).max())


def support_mask(lam: np.ndarray) -> np.ndarray:
    """Which eigenvalues of non-increasing spectra (last axis) are inside
    the support: those above ``ZERO_EIGENVALUE_RTOL max(|lambda_max|, 1)``."""
    return lam > ZERO_EIGENVALUE_RTOL * np.maximum(np.abs(lam[..., :1]), 1.0)


def _operator_pair(rho, sigma):
    rho_op, sigma_op = as_operator(rho), as_operator(sigma)
    if rho_op.dim != sigma_op.dim:
        raise ValueError(f"dimension mismatch: {rho_op.dim} vs {sigma_op.dim}")
    return rho_op, sigma_op


def rank_one_factor(op: HermitianOperator):
    """``(v, w)`` when ``op = w |v><v|`` by a rank-one factor ``(v, [w], 0)``
    with ``w > 0`` (any renormalised pure state), else None."""
    if op.factor is None:
        return None
    vecs, lam, c = op.factor
    return (vecs[:, 0], float(lam[0])) if len(lam) == 1 and c == 0.0 and lam[0] > 0 else None


def fidelity(rho, sigma) -> float:
    """F(rho, sigma) = || sqrt(rho) sqrt(sigma) ||_1, in [0, 1].

    When either operand is ``w |v><v|`` by its factor (``rank_one_factor``),
    F = sqrt(w <v|other|v>), with no decomposition.
    """
    rho_op, sigma_op = _operator_pair(rho, sigma)
    for pure, other in ((rho_op, sigma_op), (sigma_op, rho_op)):
        pair = rank_one_factor(pure)
        if pair is not None:
            v, w = pair
            return float(pure_fidelities(v[None], np.array([w]), other.mat[None])[0])
    prod = rho_op.sqrt().mat @ sigma_op.sqrt().mat
    f = trace_norm(prod)
    return float(min(max(f, 0.0), 1.0))


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of ``rho - sigma``: the stack of one of
    ``trace_distances`` of two blocks on one index set, of
    ``factored_trace_distances`` of two factors, else of the matrices."""
    a, b = _operator_pair(rho, sigma)
    if a.block is not None and b.block is not None and np.array_equal(a.block[0], b.block[0]):
        return float(trace_distances(a.block[1].mat[None], b.block[1].mat[None], a.dim)[0])
    if a.factor is not None and b.factor is not None:
        return float(factored_trace_distances(*(np.array([x]) for x in a.factor + b.factor))[0])
    return float(trace_distances(a.mat[None], b.mat[None])[0])


def _half_trace_norms(lam, fill, dim):
    """Half the trace norm of each spectrum made of a row of ``lam`` (n, k) and
    ``dim - k`` copies of its ``fill`` (n,), summed in non-increasing order
    as ``HermitianOperator`` sorts a factored or block spectrum."""
    padded = np.concatenate([lam, np.repeat(fill[:, None], dim - lam.shape[1], axis=1)], axis=1)
    return 0.5 * np.abs(np.sort(padded, axis=1)[:, ::-1]).sum(axis=1)


def factored_trace_distances(va, la, ca, vb, lb, cb) -> np.ndarray:
    """``trace_distance`` of each pair of factored operators ``c 1 + V
    diag(lam - c) V^dagger`` of two stacks (``V`` (n, D, k) with orthonormal
    columns, ``lam`` (n, k), ``c`` (n,)), with no D x D matrix built.  With
    ``Q R = [V_a V_b]`` the difference is ``(c_a - c_b) 1 + Q R diag(lam_a -
    c_a, c_b - lam_b) R^dagger Q^dagger``: the eigenvalues of one small eigvalsh
    plus ``c_a - c_b``, and ``c_a - c_b`` on the rest of the D dimensions.
    Coinciding columns (a singular ``R``) stay exact."""
    r = np.linalg.qr(np.concatenate([va, vb], axis=2), mode="r")
    weights = np.concatenate([la - ca[:, None], cb[:, None] - lb], axis=1)
    mu = np.linalg.eigvalsh((r * weights[:, None, :]) @ r.conj().swapaxes(1, 2))
    return _half_trace_norms(mu + (ca - cb)[:, None], ca - cb, va.shape[1])


def trace_distances(a, b, dim=None) -> np.ndarray:
    """``trace_distance`` of each pair of two (n, k, k) stacks of symmetrized
    matrices, as for dense operators.  With ``dim``, each pair are the blocks
    of two ``dim``-dimensional operators on one index set
    (``HermitianOperator.block``): their difference has the block's spectrum
    and ``dim - k`` zeros."""
    lam = descending_eigvalsh(_symmetrized(a - b))
    return _half_trace_norms(lam, np.zeros(len(lam)), dim or lam.shape[1])
