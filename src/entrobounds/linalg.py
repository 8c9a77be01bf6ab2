"""Dense complex Hermitian linear algebra.

Spectral decompositions, matrix functions, Schatten norms and fidelity.
Everything downstream (states, entropies, couplings, Gibbs machinery)
is built on :class:`HermitianOperator`.

Conventions
-----------
* Eigenvalues are stored in non-increasing order.
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


class HermitianOperator:
    """A dense complex Hermitian matrix with cached spectral decomposition.

    The input is symmetrized on construction; a deviation from Hermiticity
    larger than ``HERMITICITY_ATOL`` (relative to the largest entry) raises.

    Attributes
    ----------
    mat : (d, d) complex ndarray
        The (symmetrized) matrix.  Do not mutate.
    dim : int
    eigenvalues : (d,) real ndarray, non-increasing
    eigenvectors : (d, d) complex ndarray
        Columns are the eigenvectors matching ``eigenvalues``.
    """

    __slots__ = ("mat", "dim", "eigenvalues", "eigenvectors")

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        scale = max(1.0, np.abs(mat).max()) if mat.size else 1.0
        dev = np.abs(mat - mat.conj().T).max() if mat.size else 0.0
        if dev > HERMITICITY_ATOL * scale * 10:
            raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
        mat = (mat + mat.conj().T) / 2
        mat.setflags(write=False)
        self.mat = mat
        self.dim = mat.shape[0]
        evals, evecs = np.linalg.eigh(mat)
        # eigh returns ascending order; flip to the non-increasing convention
        self.eigenvalues = np.ascontiguousarray(evals[::-1])
        self.eigenvectors = np.ascontiguousarray(evecs[:, ::-1])
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @classmethod
    def diagonal(cls, values) -> "HermitianOperator":
        return cls(np.diag(np.asarray(values, dtype=float)))

    @classmethod
    def identity(cls, dim: int) -> "HermitianOperator":
        return cls(np.eye(dim))

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


def as_operator(x) -> HermitianOperator:
    """Coerce a state (anything with ``.op``), an operator or a square
    array to a :class:`HermitianOperator`."""
    if isinstance(x, HermitianOperator):
        return x
    op = getattr(x, "op", None)
    return op if op is not None else HermitianOperator(x)


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
