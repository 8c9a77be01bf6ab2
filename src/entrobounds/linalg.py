"""Dense complex Hermitian linear algebra.

Spectral decompositions, matrix functions, Schatten norms and fidelity.
Everything downstream (states, entropies, couplings, Gibbs machinery)
is built on :class:`HermitianOperator`; density operators and bipartite
states are subclasses of it.

Conventions
-----------
* Eigenvalues are stored in non-increasing order.
* The decomposition is lazy: one ``np.linalg.eigh`` on the first read of
  ``eigenvalues`` or ``eigenvectors``, cached from then on.  Operators
  whose spectrum is never read are never decomposed.
* Rank-one projectors (:meth:`HermitianOperator.projector`) carry their
  spectrum in closed form and never call ``eigh``.
* Eigenvalues below ``ZERO_EIGENVALUE_RTOL * lambda_max`` are treated as
  exact zeros for support projections and support-restricted inverses.
* All values are immutable after construction; operations are pure.
"""

from __future__ import annotations

import numpy as np

# Relative threshold below which eigenvalues count as zero.  All bound
# checks run at 1e-9 tolerances, leaving three orders of headroom.
ZERO_EIGENVALUE_RTOL = 1e-12

HERMITICITY_ATOL = 1e-12


class MatrixFunctionDomainError(ValueError):
    """Scalar function undefined at a retained eigenvalue."""


def _frozen(a):
    a.setflags(write=False)
    return a


class HermitianOperator:
    """A dense complex Hermitian matrix with a lazily cached spectral
    decomposition.

    The input is symmetrized on construction; a non-finite entry, or a
    deviation from Hermiticity larger than ``HERMITICITY_ATOL`` (relative
    to the largest entry), raises.

    Attributes
    ----------
    mat : (d, d) complex ndarray
        The (symmetrized) matrix.  Do not mutate.
    dim : int
    eigenvalues : (d,) real ndarray, non-increasing
        Computed on first read.
    eigenvectors : (d, d) complex ndarray
        Columns are the eigenvectors matching ``eigenvalues``.  Computed
        on first read.
    """

    __slots__ = ("mat", "dim", "_eigenvalues", "_eigenvectors", "_top_vector")

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        largest = np.abs(mat).max() if mat.size else 0.0
        # NaN or inf anywhere makes the largest magnitude non-finite
        if not largest < np.inf:
            bad = np.argwhere(~np.isfinite(mat))
            raise ValueError(f"matrix has {len(bad)} non-finite entries, "
                             f"the first at {tuple(int(i) for i in bad[0])}")
        dev = np.abs(mat - mat.conj().T).max() if mat.size else 0.0
        if dev > HERMITICITY_ATOL * max(1.0, largest) * 10:
            raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
        mat = (mat + mat.conj().T) / 2
        mat.setflags(write=False)
        self.mat = mat
        self.dim = mat.shape[0]
        self._eigenvalues = self._eigenvectors = self._top_vector = None

    @classmethod
    def diagonal(cls, values) -> "HermitianOperator":
        return cls(np.diag(np.asarray(values, dtype=float)))

    @classmethod
    def projector(cls, vec) -> "HermitianOperator":
        """``|v><v|`` for ``v = vec / ||vec||``, with its spectrum known:
        eigenvalues ``(1, 0, ..., 0)`` and a unitary whose first column is
        ``v`` (a Householder reflection, built on first read)."""
        v = np.asarray(vec, dtype=complex)
        norm = np.linalg.norm(v)
        if not 0.0 < norm < np.inf:
            raise ValueError(f"cannot normalize a vector of norm {norm:g}")
        v = v / norm
        op = cls(np.outer(v, v.conj()))
        lam = np.zeros(op.dim)
        lam[0] = 1.0
        op._eigenvalues = _frozen(lam)
        op._top_vector = v
        return op

    @property
    def eigenvalues(self) -> np.ndarray:
        if self._eigenvalues is None:
            self._decompose()
        return self._eigenvalues

    @property
    def eigenvectors(self) -> np.ndarray:
        if self._eigenvectors is None:
            if self._top_vector is None:
                self._decompose()
            else:
                self._eigenvectors = _frozen(_householder_completion(self._top_vector))
        return self._eigenvectors

    def _decompose(self):
        evals, evecs = np.linalg.eigh(self.mat)
        # eigh returns ascending order; flip to the non-increasing convention
        self._eigenvalues = _frozen(np.ascontiguousarray(evals[::-1]))
        self._eigenvectors = _frozen(np.ascontiguousarray(evecs[:, ::-1]))

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"

    # -- derived quantities ------------------------------------------------

    def trace(self) -> float:
        return float(np.real(np.trace(self.mat)))

    def zero_threshold(self) -> float:
        lam_max = self.eigenvalues[0] if self.dim else 0.0
        return ZERO_EIGENVALUE_RTOL * max(lam_max, 0.0)

    def apply_function(self, f, support_only: bool = False) -> "HermitianOperator":
        """Return ``U f(Lambda) U^dagger``.

        With ``support_only``, ``f`` is applied only to eigenvalues above
        the zero threshold; the rest map to 0 (support-restricted inverse
        convention, e.g. ``omega^{-1/2}``).
        """
        lam = self.eigenvalues
        out = np.zeros_like(lam)
        if support_only:
            keep = lam > self.zero_threshold()
        else:
            keep = np.ones(self.dim, dtype=bool)
        with np.errstate(all="ignore"):
            vals = np.array([f(x) for x in lam[keep]], dtype=float)
        bad = ~np.isfinite(vals)
        if bad.any():
            offender = lam[keep][bad][0]
            raise MatrixFunctionDomainError(
                f"function undefined at retained eigenvalue {offender!r}"
            )
        out[keep] = vals
        u = self.eigenvectors
        return HermitianOperator((u * out) @ u.conj().T)

    def sqrt(self) -> "HermitianOperator":
        # clip tiny negative noise; genuinely negative eigenvalues raise
        thr = -10 * max(self.zero_threshold(), ZERO_EIGENVALUE_RTOL)
        if self.eigenvalues[-1] < thr - 1e-10:
            raise MatrixFunctionDomainError(
                f"square root of operator with eigenvalue {self.eigenvalues[-1]!r}"
            )
        return self.apply_function(lambda x: np.sqrt(max(x, 0.0)))

    def inv_sqrt_support(self) -> "HermitianOperator":
        return self.apply_function(lambda x: 1.0 / np.sqrt(x), support_only=True)


def _householder_completion(v: np.ndarray) -> np.ndarray:
    """A unitary whose first column is the unit vector ``v``.

    The reflection ``H = 1 - 2 w w^dagger / ||w||^2`` with
    ``w = e^{i theta} e_1 + v`` and ``e^{i theta}`` the phase of ``v_0``
    maps ``e_1`` to ``-e^{-i theta} v``; ``||w||^2 >= 2``, so nothing
    cancels.  Its other columns span the complement of ``v``; the first
    is replaced by ``v`` itself.
    """
    a = abs(v[0])
    phase = v[0] / a if a > 0 else 1.0
    w = v.copy()
    w[0] += phase
    u = np.outer(w, (-2.0 / np.vdot(w, w).real) * w.conj())
    u[np.diag_indices_from(u)] += 1.0
    u[:, 0] = v
    return u


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


def operator_norm(op) -> float:
    if isinstance(op, HermitianOperator):
        return float(np.abs(op.eigenvalues).max())
    return float(np.linalg.norm(np.asarray(op, dtype=complex), 2))


def positive_part(op: HermitianOperator) -> HermitianOperator:
    """(A)_+ = sum of positive-eigenvalue spectral components."""
    lam = np.where(op.eigenvalues > 0, op.eigenvalues, 0.0)
    u = op.eigenvectors
    return HermitianOperator((u * lam) @ u.conj().T)


def fidelity(rho, sigma) -> float:
    """F(rho, sigma) = || sqrt(rho) sqrt(sigma) ||_1, in [0, 1]."""
    rho_op, sigma_op = as_operator(rho), as_operator(sigma)
    if rho_op.dim != sigma_op.dim:
        raise ValueError(f"dimension mismatch: {rho_op.dim} vs {sigma_op.dim}")
    prod = rho_op.sqrt().mat @ sigma_op.sqrt().mat
    f = trace_norm(prod)
    return float(min(max(f, 0.0), 1.0))


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of the difference."""
    rho_op, sigma_op = as_operator(rho), as_operator(sigma)
    return 0.5 * trace_norm(HermitianOperator(rho_op.mat - sigma_op.mat))
