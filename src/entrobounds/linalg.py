"""Complex Hermitian linear algebra, dense or held as structured parts.

Spectral decompositions, matrix functions, Schatten norms and fidelity.
Everything downstream (states, entropies, couplings, Gibbs machinery)
is built on :class:`HermitianOperator`; density operators and bipartite
states are subclasses of it.

Conventions
-----------
* Eigenvalues are stored in non-increasing order.
* Each spectral question has one solver.  The eigenvalues an operator or
  a stack keeps always come from ``descending_eigvalsh``; ``eigh`` runs
  only where eigenvectors are read.  Its own eigenvalues are read only
  with its vectors, in functions of matrices no operator holds: eps and
  ``(rho - sigma)_+`` and the marginal residuals in ``couplings``, the
  objective, divided differences and lambda_min in ``dc_optimizer``.
  The decomposition is lazy: ``eigenvalues`` and ``eigenvectors`` are
  each computed on their first read and cached, so the eigenvalues have
  the same bits whichever is read first, and an operator whose spectrum
  is never read is never decomposed.
* A structured operator keeps its parts and builds no matrix: ``mat`` is
  a property, built on its first read (by the operations of the dense
  construction, so with its bits) and cached, and the dense limit
  (``check_dense_dim``) is checked there.  The trace comes from the
  parts' diagonal (``diagonal_traces``), so a state built from parts is
  validated and renormalized with no matrix.  There are three kinds:
  - a thin factor (``HermitianOperator.factor``), such as a projector,
    with a known spectrum and the trace distance of two factors from a
    2k x 2k eigenproblem, in O(d k^2) instead of O(d^3);
  - m k x k blocks on disjoint index sets (``HermitianOperator.block``):
    a diagonal (k = 1), an energy-constrained state padded to its level
    space (m = 1) or a qc state ``sum_x p_x rho_x (x) |x><x|``.  The
    spectrum is the blocks' and zeros (``block_spectra``), and the trace
    distance of two of them on the same index sets decomposes only the
    k x k differences; a 1 x 1 block calls no solver;
  - ``|v><v| + s A (x) B`` (``HermitianOperator.kron``), the couplings'
    Theta and omega, whose overlap with a pure state, and so
    ``fidelity`` with one, comes from the parts in O(d^3).
* ``support_mask`` is the one support cut (eigenvalues at or below
  ``ZERO_EIGENVALUE_RTOL * max(|lambda_max|, 1)`` are exact zeros), for
  support-restricted functions such as ``sqrt`` and for D(rho || gamma).
* All values are immutable after construction; operations are pure.

Stacks
------
``hermitian_stack`` is ``HermitianOperator`` for an (n, d, d) stack of
matrices in one pass: the same scans and symmetrization
(``_check_hermitian``, which the constructor runs on its stack of one)
and one batched ``descending_eigvalsh``, plus one batched
``descending_eigh`` only when the eigenvectors are asked for; every
matrix gets the bits it would get alone.  The scans and the
symmetrization share one adjoint, written once, and each stage writes
its output once, into an array the stage allocated itself: the input is
only read.  The bits are those of the plain formulas ``m - m^dagger`` and
``(m + m^dagger) / 2``, since halving in place is exact (``x * 0.5`` is
``x / 2``); only the sign of an exactly zero part may differ, which no
sampled matrix has.
``trace_distance`` is the stack of one of ``trace_distances`` (of
matrices, or of blocks) or ``factored_trace_distances``,
``function_stack`` is ``apply_function`` over a stack of eigenpairs,
``unit_vectors`` is the normalization of ``pure``, ``pure_fidelities`` the
rank-one branch of ``fidelity`` (with ``expectations`` of dense operands
and ``kron_expectations`` of Kronecker parts), ``row_dots`` the row-wise
inner product, and ``factored_diagonals`` and ``kron_diagonals`` the
diagonals the trace rule sums, each over a stack.  No operator object is
built; ``states.density_stack`` adds the state rules.
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
    """``(m + m^dagger) / 2`` of a matrix or of each matrix of a stack, as a
    new array: the sum, halved in place (``x * 0.5`` is ``x / 2``)."""
    out = mats + mats.conj().swapaxes(-1, -2)
    out *= 0.5
    return out


def _divided(mats, tr):
    """``_symmetrized(m / t)`` of a matrix by a real ``t``, or of each matrix
    of a stack by its own (``tr`` of shape ``mats.shape[:k]``): a state
    renormalized by its trace."""
    tr = np.asarray(tr)
    return _symmetrized(mats / tr.reshape(tr.shape + (1,) * (mats.ndim - tr.ndim)))


def _check_hermitian(mats):
    """Scan an (n, d, d) complex stack as one, and return its symmetrized
    matrices (``_symmetrized``) as a new array: raise ``ValueError`` for the
    first matrix (in stack order) with a non-finite entry, or with a
    deviation from Hermiticity above ``HERMITICITY_ATOL max(1, largest
    |entry|)``.  The deviation ``m - m^dagger`` and the symmetrization read
    one adjoint, written once, whose array then holds the result (the sum
    in place, halved in place), and the deviation's magnitudes overwrite
    those of the entries; ``mats`` is only read."""
    adj = np.conjugate(mats.swapaxes(1, 2), out=np.empty(mats.shape, dtype=complex))
    mag = np.abs(mats)
    largest = mag.max(axis=(1, 2))
    with np.errstate(invalid="ignore"):  # inf - inf; the deviation is then never read
        dev = np.abs(np.subtract(mats, adj), out=mag).max(axis=(1, 2))
    # NaN or inf anywhere makes the largest magnitude non-finite
    finite = largest < np.inf
    bad = ~finite | (dev > HERMITICITY_ATOL * np.maximum(1.0, largest))
    if bad.any():
        j = np.flatnonzero(bad)[0]
        if not finite[j]:
            at = np.argwhere(~np.isfinite(mats[j]))
            raise ValueError(f"matrix has {len(at)} non-finite entries, "
                             f"the first at {tuple(int(i) for i in at[0])}")
        raise ValueError(f"matrix is not Hermitian (max deviation {dev[j].item():.3e})")
    np.add(mats, adj, out=adj)
    adj *= 0.5
    return adj


class HermitianOperator:
    """A complex Hermitian matrix with a lazily cached spectral
    decomposition, given densely or by a structure that fixes its parts.

    The input is symmetrized on construction; a non-finite entry, or a
    deviation from Hermiticity larger than ``HERMITICITY_ATOL`` (relative
    to the largest entry), raises.  Operators the library builds from
    validated parts go through ``_trusted`` (a dense matrix, as
    ``apply_function`` gives, or a state the stacked rules validated, as
    ``DensityOperator._trusted``) or through a structured constructor,
    which skip both O(d^2) scans; ``diagonal``, ``factored`` and
    ``rank_one_kron`` check their parts for non-finite entries instead,
    ``embedded`` takes validated operators as its blocks and
    ``_block_diagonal`` validated blocks with their spectra.

    A structured operator keeps its parts, of one of three kinds, and
    builds ``mat`` from them on its first read, by the operations and in
    the order of the dense construction; ``check_dense_dim`` runs there.
    A renormalized block state holds its blocks divided by the trace; any
    other structured state records its trace, and ``mat`` is then
    ``sym(sym(M) / tr)``, as a dense state's.  The module's conventions
    list what each kind answers from its parts.

    Attributes
    ----------
    mat : (d, d) complex ndarray
        The (symmetrized) matrix, built on first read.  Do not mutate.
    dim : int
    factor : tuple ``(V, lam, c)`` or None
        ``mat = c 1 + V diag(lam - c) V^dagger``: ``V`` (d, k) has
        orthonormal columns with eigenvalues ``lam``, and ``c`` is the
        eigenvalue on their complement.  A projector is ``(v, [1], 0)``.
    block : tuple ``(index, B, lam)`` or None
        The symmetrized k x k blocks ``B`` (m, k, k) on the disjoint index
        sets ``index`` (m, k), zero elsewhere, and their spectra ``lam``
        (m, k).  The eigenvectors are the blocks' on their index sets and
        identity columns on the complement.
    kron : tuple ``(v, s, A, B)`` or None
        ``mat = |v><v| + s A (x) B`` for a vector ``v`` of ``A (x) B``,
        divided by the trace its state renormalization recorded, if any.
    eigenvalues : (d,) real ndarray, non-increasing
        Computed on first read, by ``descending_eigvalsh`` for a dense
        or ``kron`` operator, and sorted from the parts for the others.
    eigenvectors : (d, d) complex ndarray
        Columns are the eigenvectors matching ``eigenvalues``.  Computed
        on first read, by ``descending_eigh`` for a dense operator (its
        eigenvalues are discarded); for a factor, ``V`` completed to a
        unitary.
    """

    __slots__ = ("_mat", "dim", "factor", "block", "kron", "_parts", "_divisor",
                 "_eigenvalues", "_eigenvectors")

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
            raise ValueError(f"expected a non-empty square matrix, got shape {mat.shape}")
        self._set_matrix(_check_hermitian(mat[None])[0])

    def _set_matrix(self, mat):
        """Store the symmetrized matrix ``mat``, frozen, with no structure or
        spectrum."""
        self._mat = _frozen(mat)
        self.dim = mat.shape[0]
        self.factor = self.block = self.kron = self._parts = self._divisor = None
        self._eigenvalues = self._eigenvectors = None

    @classmethod
    def _trusted(cls, mat, eigenvalues=None, eigenvectors=None) -> "HermitianOperator":
        """A ``cls`` of a complex square matrix built from validated parts,
        or left by the stacked rules (``states.density_stack``), with each part
        of its eigenpairs that is known (the rest decomposed on first read):
        symmetrized, and no rule applied again."""
        op = cls.__new__(cls)
        # symmetrizing again changes no value, at most the sign of an exactly
        # zero part, which no sampled state has
        op._set_matrix(_symmetrized(mat))
        if eigenvalues is not None:
            op._eigenvalues = _frozen(np.array(eigenvalues))
        if eigenvectors is not None:
            op._eigenvectors = _frozen(np.array(eigenvectors))
        return op

    # each structured constructor passes further arguments (``dims``) on to cls
    @classmethod
    def _structured(cls, dim, kind, parts, args) -> "HermitianOperator":
        """The operator of dimension ``dim`` held as the ``parts`` that
        ``_dense`` builds it from, in the attribute ``kind`` (``factor``,
        ``block`` or ``kron``), with no matrix built; ``cls(op, *args)``."""
        op = HermitianOperator.__new__(HermitianOperator)
        op._mat = op.factor = op.block = op.kron = op._divisor = None
        op._eigenvalues = op._eigenvectors = None
        op.dim, op._parts = dim, (kind, *parts)
        setattr(op, kind, op._parts[1:])
        return op if cls is HermitianOperator else cls(op, *args)

    @classmethod
    def diagonal(cls, values, *args) -> "HermitianOperator":
        """``diag(values)``, the block operator of its 1 x 1 blocks."""
        values = np.array(values, dtype=float)
        _check_finite(values)
        return cls._block_diagonal(len(values), np.arange(len(values))[:, None],
                                   values.astype(complex)[:, None, None], values[:, None], *args)

    @classmethod
    def factored(cls, vecs, lam, c=0.0, *args) -> "HermitianOperator":
        """``c 1 + V diag(lam - c) V^dagger`` carrying ``(V, lam, c)`` as its
        factor.  The columns of ``vecs`` must be orthonormal (unchecked)."""
        vecs = _frozen(np.array(vecs, dtype=complex))
        lam = _frozen(np.array(lam, dtype=float))
        _check_finite(vecs, lam, c)
        return cls._structured(len(vecs), "factor", (vecs, lam, float(c)), args)

    @classmethod
    def embedded(cls, index, blocks, dim, *args) -> "HermitianOperator":
        """The block operator of the k x k operators ``blocks`` (one, or a
        list of m) on the index sets ``index`` ((k,), or (m, k)) of m k
        distinct indices below ``dim``, and zero elsewhere."""
        ops = [as_operator(b) for b in (blocks if isinstance(blocks, list) else [blocks])]
        index = np.array(index, dtype=int).reshape(len(ops), -1)
        flat = index.ravel().tolist()  # a set: np.unique would import numpy.ma
        if ({op.dim for op in ops} != {index.shape[1]} or len(set(flat)) != len(flat)
                or min(flat) < 0 or max(flat) >= dim):
            raise ValueError(f"index must hold sets of {ops[0].dim} distinct indices below {dim}")
        return cls._block_diagonal(dim, index, np.stack([op.mat for op in ops]),
                                   np.stack([op.eigenvalues for op in ops]), *args)

    @classmethod
    def _block_diagonal(cls, dim, index, mats, spectra, *args) -> "HermitianOperator":
        """The block operator of the index sets, blocks and spectra of
        ``block``, validated and taken as they are."""
        parts = [_frozen(np.array(x)) for x in (index, mats, spectra)]
        return cls._structured(dim, "block", parts, args)

    @classmethod
    def pure(cls, vec, *args) -> "HermitianOperator":
        """``|v><v|`` for ``v = vec / ||vec||``: the factor ``(v, [1], 0)``."""
        v = unit_vectors(np.asarray(vec, dtype=complex)[None])[0]
        return cls.factored(v[:, None], [1.0], 0.0, *args)

    @classmethod
    def rank_one_kron(cls, vec, s, a, b, *args) -> "HermitianOperator":
        """``|v><v| + s A (x) B`` for a vector ``v`` of length ``d_A d_B``, a
        real ``s`` and square ``A`` (d_A) and ``B`` (d_B), Hermitian
        (unchecked), carrying ``(v, s, A, B)`` as its kron."""
        vec, a, b = (_frozen(np.array(x, dtype=complex)) for x in (vec, a, b))
        _check_finite(vec, s, a, b)
        if len(vec) != len(a) * len(b):
            raise ValueError(f"vector of length {len(vec)} is not on {len(a)} x {len(b)}")
        return cls._structured(len(vec), "kron", (vec, float(s), a, b), args)

    @property
    def mat(self) -> np.ndarray:
        if self._mat is None:
            check_dense_dim(self.dim)
            # divided by the recorded trace and symmetrized again, as a
            # renormalized state
            mat = _symmetrized(self._dense())
            self._mat = _frozen(mat if self._divisor is None else _divided(mat, self._divisor))
        return self._mat

    def _dense(self) -> np.ndarray:
        """The unsymmetrized matrix of a structured operator, as its dense
        construction forms it."""
        kind, *parts = self._parts
        if kind == "factor":
            # c on the diagonal, then the outer products of contiguous columns
            # in column order, as np.outer takes them, not a BLAS product: a
            # projector is exactly np.outer(v, v^*) on any BLAS build
            vecs, lam, c = parts
            mat = np.diag(np.full(self.dim, c, dtype=complex))
            for a, b in zip((vecs * (lam - c)).T, vecs.conj().T):
                mat += np.outer(a, b)
            return mat
        if kind == "block":
            index, mats = parts[:2]
            mat = np.zeros((self.dim, self.dim), dtype=complex)
            mat[index[:, :, None], index[:, None, :]] = mats
            return mat
        vec, s, a, b = parts
        mat = np.kron(a, b)
        mat *= s
        mat += np.outer(vec, vec.conj())
        return mat

    def _diagonal(self) -> np.ndarray:
        """The diagonal of ``_dense()``, entry by entry as it forms it."""
        kind, *parts = self._parts
        if kind == "factor":
            return factored_diagonals(*(np.array([x]) for x in parts))[0]
        if kind == "block":
            index, mats = parts[:2]
            diag = np.zeros(self.dim, dtype=complex)
            diag[index] = np.diagonal(mats, axis1=1, axis2=2)
            return diag
        return kron_diagonals(*(np.array([x]) for x in parts))[0]

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
        kind = self._parts[0] if self._parts else None
        if kind in (None, "kron"):
            # eigh's own values are discarded: the values have one source
            if vectors:
                self._eigenvectors = _frozen(eigenpairs(self.mat)[1])
            else:
                self._eigenvalues = _frozen(descending_eigvalsh(self.mat))
            return
        # one stable sort of [lam, c, ..., c] or of the blocks' spectra and
        # zeros; the basis (V, or the blocks') and its complement follow it
        if kind == "factor":
            vecs, lam, c = self.factor
            spectra = np.concatenate([lam, np.full(self.dim - len(lam), c)])
        else:
            index, mats, spectra = self.block
        values, order = (x[0] for x in block_spectra(spectra[None], self.dim))
        if self._eigenvalues is None:
            self._eigenvalues = _frozen(values)
        if not vectors:
            return
        check_dense_dim(self.dim)
        if kind == "factor":
            basis = np.hstack([vecs, np.linalg.qr(vecs, mode="complete")[0][:, vecs.shape[1]:]])
        else:
            m, k = index.shape
            basis = np.zeros((self.dim, self.dim), dtype=complex)
            vecs = 1.0 if k == 1 else eigenpairs(mats)[1]  # a 1 x 1 block's is 1
            basis[index[:, :, None], np.arange(m * k).reshape(m, 1, k)] = vecs
            rest = np.ones(self.dim, dtype=bool)
            rest[index.ravel()] = False
            basis[np.flatnonzero(rest), np.arange(m * k, self.dim)] = 1.0
        self._eigenvectors = _frozen(basis[:, order])

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"

    # -- derived quantities ------------------------------------------------

    def trace(self) -> float:
        """``np.trace`` of ``mat``, read from the diagonal of a structured
        operator's parts (``diagonal_traces``) with no matrix built."""
        if self._parts is None:
            return float(np.real(np.trace(self._mat)))
        diag = self._diagonal()
        if self._divisor is not None:  # the diagonal of sym(M) / tr, as mat holds it
            diag = (diag + diag.conj()) / 2 / self._divisor
        return float(diagonal_traces(diag[None])[0])

    def apply_function(self, f, support_only: bool = False) -> "HermitianOperator":
        """Return ``U f(Lambda) U^dagger``.

        ``f`` is called once, on the array of retained eigenvalues, and
        acts elementwise.  With ``support_only``, only the eigenvalues in
        ``support_mask`` are retained; the rest map to 0 (support-restricted
        convention, e.g. ``omega^{-1/2}``).
        """
        return HermitianOperator._trusted(
            function_stack(self.eigenvalues[None], self.eigenvectors[None], f, support_only)[0])

    def sqrt(self) -> "HermitianOperator":
        """The square root of the support; an eigenvalue below ``-PSD_ATOL``
        raises, and rounding noise on either side of 0 maps to 0."""
        if self.eigenvalues[-1] < -PSD_ATOL:
            raise MatrixFunctionDomainError(
                f"square root of operator with eigenvalue {self.eigenvalues[-1]!r}"
            )
        return self.apply_function(np.sqrt, support_only=True)


def block_spectra(spectra, dim):
    """The spectrum of each block operator of dimension ``dim`` of a stack
    from its blocks' spectra (n, m, k): those and ``dim - m k`` zeros, sorted
    stably to non-increasing, and the order, which the eigenvectors follow."""
    flat = spectra.reshape(len(spectra), -1)
    values = np.concatenate([flat, np.zeros((len(flat), dim - flat.shape[1]))], axis=1)
    order = np.argsort(-values, axis=1, kind="stable")
    return np.take_along_axis(values, order, axis=1), order


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


def pure_fidelities(weights, overlaps) -> np.ndarray:
    """``fidelity(w |v><v|, M)`` from each weight ``w`` and overlap ``<v|M|v>``
    of two (n,) stacks: ``sqrt(w <v|M|v>)``, clipped to [0, 1]."""
    return np.minimum(np.sqrt(np.maximum(weights * overlaps, 0.0)), 1.0)


def row_dots(a, b) -> np.ndarray:
    """``<a_k|b_k>``, the inner product conjugating ``a``, of each pair of
    rows of two (n, D) stacks, as one batched product; on real stacks the
    conjugate changes no value."""
    return (a.conj()[:, None, :] @ b[:, :, None])[:, 0, 0]


def expectations(vecs, mats) -> np.ndarray:
    """``<v|M|v>`` (real part) of each vector ``v`` of an (n, D) stack with
    the matrix ``M`` of an (n, D, D) stack."""
    mv = mats @ vecs[:, :, None]
    return (vecs.conj()[:, None, :] @ mv)[:, 0, 0].real


def kron_expectations(vecs, v, s, a, b) -> np.ndarray:
    """``<x|(|v><v| + s A (x) B)|x>`` of each vector ``x`` of an (n, D) stack
    with the parts of ``HermitianOperator.rank_one_kron`` (stacks ``v`` (n,
    D), ``s`` (n,), ``A`` (n, d_A, d_A) and ``B`` (n, d_B, d_B)), in
    O(d_A d_B (d_A + d_B)): ``|<x|v>|^2 + s tr(X^dagger A X B^T)`` for the
    d_A x d_B reshape ``X`` of ``x``."""
    z = row_dots(vecs, v)
    x = vecs.reshape(len(vecs), a.shape[-1], b.shape[-1])
    q = (x.conj() * (a @ x @ b.swapaxes(1, 2))).sum(axis=(1, 2)).real
    return (z.real * z.real + z.imag * z.imag) + s * q


def factored_diagonals(vecs, lam, c) -> np.ndarray:
    """The diagonal of the unsymmetrized matrix of ``HermitianOperator.
    factored(V, lam, c)`` for each of stacks ``V`` (n, D, k), ``lam`` (n, k)
    and ``c`` (n,), term by term as that matrix sums its outer products."""
    diag = np.repeat(c.astype(complex)[:, None], vecs.shape[1], axis=1)
    for k in range(lam.shape[1]):
        diag = diag + (vecs[:, :, k] * (lam[:, k, None] - c[:, None])) * vecs[:, :, k].conj()
    return diag


def kron_diagonals(v, s, a, b) -> np.ndarray:
    """The diagonal of the unsymmetrized matrix of ``HermitianOperator.
    rank_one_kron(v, s, A, B)`` for each of the stacks of
    ``kron_expectations``, entry by entry as that matrix forms it."""
    ab = np.diagonal(a, axis1=1, axis2=2)[:, :, None] * np.diagonal(b, axis1=1, axis2=2)[:, None, :]
    return ab.reshape(len(v), -1) * s[:, None] + v * v.conj()


def diagonal_traces(diags) -> np.ndarray:
    """The trace rule of a structured operator: ``np.trace(m).real`` of the
    symmetrized matrix ``m`` of each unsymmetrized diagonal of an (n, D)
    stack, with no matrix built.  Symmetrizing changes no real part of a
    diagonal entry, and the complex entries are summed as ``np.trace`` sums
    them."""
    return diags.sum(axis=-1).real


def hermitian_stack(mats, vectors: bool = False):
    """``HermitianOperator(m)`` and its spectrum for each matrix ``m`` of an
    (n, d, d) stack, in one pass: ``(mats, lam, u)``, the symmetrized
    matrices, their non-increasing spectra (``descending_eigvalsh``,
    contiguous) and, with ``vectors``, the eigenvectors of one batched
    ``descending_eigh`` (views), else None.  The first matrix that the
    constructor rejects raises its error.  ``mats`` is only read:
    ``_check_hermitian`` forms one adjoint for the scans and the
    symmetrization and writes the symmetrized matrices over it, with the
    bits of ``(m + m^dagger) / 2``."""
    mats = _check_hermitian(np.asarray(mats, dtype=complex))
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
    F = sqrt(w <v|other|v>), with no decomposition, and with no matrix
    built when the other is ``rank_one_kron`` (``kron_expectations``).
    """
    rho_op, sigma_op = _operator_pair(rho, sigma)
    for pure, other in ((rho_op, sigma_op), (sigma_op, rho_op)):
        pair = rank_one_factor(pure)
        if pair is not None:
            v, w = pair
            if other.kron is None:
                overlap = expectations(v[None], other.mat[None])
            else:  # from the parts, over the trace a renormalization recorded
                overlap = (kron_expectations(v[None], *(np.array([x]) for x in other.kron))
                           / (other._divisor or 1.0))
            return float(pure_fidelities(np.array([w]), overlap)[0])
    prod = rho_op.sqrt().mat @ sigma_op.sqrt().mat
    f = trace_norm(prod)
    return float(min(max(f, 0.0), 1.0))


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of ``rho - sigma``: the stack of one of
    ``trace_distances`` of two block operators on the same index sets, of
    ``factored_trace_distances`` of two factors, else of the matrices."""
    a, b = _operator_pair(rho, sigma)
    if a.block is not None and b.block is not None and np.array_equal(a.block[0], b.block[0]):
        return float(trace_distances(a.block[1][None], b.block[1][None], a.dim)[0])
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
    matrices.  With ``dim``, each pair are the blocks (n, m, k, k) of two
    ``dim``-dimensional block operators on the same index sets: their
    difference has the spectra of the blocks' differences (1 x 1 ones are
    their own, with no solver call) and ``dim - m k`` zeros.  Symmetrized
    (as every stack holds them), ``a - b`` equals its conjugate transpose
    exactly, so symmetrizing it would change no value."""
    diff = a - b
    lam = diff[..., 0, 0].real if diff.shape[-1] == 1 else descending_eigvalsh(diff)
    lam = lam.reshape(len(diff), -1)
    return _half_trace_norms(lam, np.zeros(len(lam)), dim or lam.shape[1])
