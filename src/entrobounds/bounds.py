"""Closed-form continuity-bound evaluators and extremal witness pairs.

Bound formulas (all in bits):

* Fannes-Audenaert: eps log2(d-1) + h(eps) for eps <= 1 - 1/d, else log2 d.
* Tightened Alicki-Fannes for the conditional entropy:
  2 eps log2 d_A + (1+eps) h(eps/(1+eps)), coefficient eps instead of
  2 eps when both states are qc (or both cq).
* Relative-entropy-distance continuity: eps kappa + (1+eps) h(eps/(1+eps)).
* Entanglement-measure corollaries at delta = sqrt(eps(2-eps)):
  E_F:  delta log2 d + (1+delta) h(delta/(1+delta));
  E_C:  2 delta log2 d + (1+delta) h(delta/(1+delta));
  E_R (and its regularization): eps log2 d + (1+eps) h(eps/(1+eps)).

Each formula is one array kernel over a stack of eps
(``fannes_audenaert_bound_stack``, ``af_bound_stack``, ``dc_bound_stack``,
``cor1_bounds_stack``, ``cor2_bound_stack``, all through the one h of
``entropies.binary_entropies``); the scalar formula of the same name
without ``_stack`` is its stack of one, bit for bit, and the first bad eps
(in stack order) raises the scalar's error.

Every checker recomputes eps from the states via the trace norm;
caller-supplied eps is never trusted.  Each bound has one kernel over a
stack of pairs (``check_fannes_stack`` and ``check_af_stack`` take the
spectra and B marginals of rho and sigma interleaved as drawn,
``check_cor_pure_stack`` pure states), and ``_reports`` builds every
kernel's ``BoundBlock``, the stack's records as columns, with one call of
the formula's kernel at min(eps, 1).  ``check_fannes``, ``check_af`` and
``check_cor_pure`` are stacks of one, the ``BoundReport`` of row 0 of
their block: a state brings the spectrum and marginals it holds.
``check_fannes_witnesses`` and ``check_af_witnesses`` build the witness
pairs at one d for a whole eps grid as one stack of their parts (1 x 1
blocks, or factors) and score it with the same kernels, each record with
the bits of ``check_fannes`` or ``check_af`` of its scalar pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .entropies import (binary_entropies, binary_entropy, conditional_entropies,
                        von_neumann_entropies)
from .dc_optimizer import ConvexSetModel, kappa_bracket
from .linalg import (block_spectra, factored_trace_distances, rank_one_factor, trace_distance,
                     trace_distances)
from .states import (BipartiteState, DensityOperator, PureStack, StateStack, density_stack,
                     embedded_stack, factored_marginals, factored_traces,
                     maximally_entangled_state, marginal_of, state_pair)

@dataclass(frozen=True)
class BoundReport:
    """One checked bound ``lhs <= rhs``.  The fields are the columns of a
    campaign report (``harness.REPORT_COLUMNS``); a check leaves the
    parameters it has no use for at their defaults."""

    variant: str
    dim: int
    lhs: float
    rhs: float
    epsilon: float | None = None
    energy: float | None = None
    epsilon_prime: float | None = None

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def _objects(values) -> np.ndarray:
    """``values`` as a 1-D array of the Python objects themselves."""
    values = list(values)
    return np.fromiter(values, dtype=object, count=len(values))


class BoundBlock(NamedTuple):
    """The records of a stack of checked bounds ``lhs <= rhs`` as columns:
    each row's case position in its chunk (``case``), then the fields of
    ``BoundReport``, each an array of one value per row, or one value that
    every row shares (None for a blank column).  A stacked kernel returns
    one; ``report`` reads one row back as a ``BoundReport``."""

    case: np.ndarray
    variant: object
    dim: object
    lhs: object
    rhs: object
    epsilon: object = None
    energy: object = None
    epsilon_prime: object = None

    @classmethod
    def of_reports(cls, reports) -> BoundBlock:
        """The block of one list of ``BoundReport``s per case position, in
        that order, each column an array of the reports' own values."""
        rows = [(case, rep) for case, reps in enumerate(reports) for rep in reps]
        return cls(np.array([case for case, _ in rows], dtype=int),
                   *(_objects(getattr(rep, f.name) for _, rep in rows)
                     for f in fields(BoundReport)))

    def report(self, row: int = 0) -> BoundReport:
        """Row ``row`` as a ``BoundReport`` of Python values."""
        return BoundReport(*(col[row:row + 1].tolist()[0] if isinstance(col, np.ndarray) else col
                             for col in self[1:]))


# -- bound formulas ----------------------------------------------------------


def _unit_interval(epsilon: float) -> None:
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon {epsilon!r} outside [0, 1]")


def _unit_intervals(epsilons) -> np.ndarray:
    """``epsilons`` as a float array; the first eps (in stack order) outside
    [0, 1], or NaN, raises the error of ``_unit_interval``."""
    eps = np.asarray(epsilons, dtype=float)
    bad = ~((eps >= 0.0) & (eps <= 1.0))
    if bad.any():
        _unit_interval(eps[bad][0].item())
    return eps


def _dimension(d: int) -> None:
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")


def _af_forms(eps: np.ndarray, coefficient: float) -> np.ndarray:
    """eps c + (1+eps) h(eps/(1+eps)) at each eps of a stack, the shape of
    every Alicki-Fannes-type bound."""
    return eps * coefficient + (1.0 + eps) * binary_entropies(eps / (1.0 + eps))


def fannes_audenaert_bound_stack(epsilons, d: int) -> np.ndarray:
    """eps log2(d-1) + h(eps) at each eps of a stack, log2 d beyond 1 - 1/d."""
    eps = _unit_intervals(epsilons)
    _dimension(d)
    return np.where(eps > 1.0 - 1.0 / d, math.log2(d),
                    eps * math.log2(d - 1) + binary_entropies(eps))


def fannes_audenaert_bound(epsilon: float, d: int) -> float:
    return float(fannes_audenaert_bound_stack([epsilon], d)[0])


def af_bound_stack(epsilons, d_a: int, classical_b: bool = False) -> np.ndarray:
    """2 eps log2 d_A + (1+eps) h(eps/(1+eps)) at each eps of a stack, with
    the coefficient eps instead of 2 eps with ``classical_b``."""
    eps = _unit_intervals(epsilons)
    _dimension(d_a)
    coeff = 1.0 if classical_b else 2.0
    return _af_forms(eps, coeff * math.log2(d_a))


def af_bound(epsilon: float, d_a: int, classical_b: bool = False) -> float:
    return float(af_bound_stack([epsilon], d_a, classical_b)[0])


def dc_bound_stack(epsilons, kappa: float) -> np.ndarray:
    """eps kappa + (1+eps) h(eps/(1+eps)) at each eps of a stack; 0 at
    eps = 0, also where the certified kappa is +inf."""
    if not kappa >= 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa!r}")
    eps = _unit_intervals(epsilons)
    with np.errstate(invalid="ignore"):  # 0 inf at eps = 0, never read
        return np.where(eps != 0.0, _af_forms(eps, kappa), 0.0)


def dc_bound(epsilon: float, kappa: float) -> float:
    return float(dc_bound_stack([epsilon], kappa)[0])


def cor1_delta(epsilon):
    """delta = sqrt(eps(2-eps)) of an eps, or of each eps of a stack."""
    return np.sqrt(epsilon * (2.0 - epsilon))


def cor1_bounds_stack(epsilons, d: int):
    """(E_F rhs, E_C rhs), each (n,), at delta = sqrt(eps(2-eps)) of each eps
    of a stack; d is the smaller of the two local dimensions."""
    eps = _unit_intervals(epsilons)
    _dimension(d)
    delta = cor1_delta(eps)
    h_term = (1.0 + delta) * binary_entropies(delta / (1.0 + delta))
    return delta * math.log2(d) + h_term, delta * (2.0 * math.log2(d)) + h_term


def cor1_bounds(epsilon: float, d: int):
    """(E_F rhs, E_C rhs), the stack of one of ``cor1_bounds_stack``."""
    ef, ec = cor1_bounds_stack([epsilon], d)
    return float(ef[0]), float(ec[0])


def cor2_bound_stack(epsilons, d: int) -> np.ndarray:
    """E_R (and regularized E_R) continuity bound at each eps of a stack."""
    eps = _unit_intervals(epsilons)
    _dimension(d)
    return _af_forms(eps, math.log2(d))


def cor2_bound(epsilon: float, d: int) -> float:
    return float(cor2_bound_stack([epsilon], d)[0])


# -- checkers ----------------------------------------------------------------


def _reports(variant: str, dim: int, eps, values, bound) -> BoundBlock:
    """The block of n pairs: their trace distances ``eps`` (n,), the gaps
    |x_rho - x_sigma| of ``values`` (2n,), rho and sigma interleaved as
    drawn, and the rhs of one ``bound(min(eps, 1))`` call over the stack."""
    lhs = np.abs(values[0::2] - values[1::2])
    return BoundBlock(np.arange(len(eps)), variant, dim, lhs, bound(np.minimum(eps, 1.0)), eps)


def check_fannes_stack(eps, spectra) -> BoundBlock:
    """The Fannes-Audenaert check of n pairs from their trace distances (n,)
    and the spectra (2n, d) of rho and sigma interleaved as drawn."""
    d = spectra.shape[-1]
    return _reports("fannes_exact", d, eps, von_neumann_entropies(spectra),
                    lambda e: fannes_audenaert_bound_stack(e, d))


def check_af_stack(eps, spectra, b_marginals, d_a: int,
                   classical_b: bool = False) -> BoundBlock:
    """The Alicki-Fannes check of n pairs on ``A (x) B`` from their trace
    distances (n,), and the spectra (2n, D) and unvalidated B marginals
    (2n, d_B, d_B) of rho and sigma interleaved as drawn."""
    variant = "af_classical_B" if classical_b else "af_general"
    return _reports(variant, d_a, eps, conditional_entropies(spectra, b_marginals),
                    lambda e: af_bound_stack(e, d_a, classical_b))


def check_fannes(rho: DensityOperator, sigma: DensityOperator) -> BoundReport:
    rho, sigma = state_pair(rho, sigma)
    eps = np.array([trace_distance(rho, sigma)])
    return check_fannes_stack(eps, np.stack([rho.eigenvalues, sigma.eigenvalues])).report()


def check_af(rho: BipartiteState, sigma: BipartiteState, classical_b: bool = False) -> BoundReport:
    if rho.dims != sigma.dims:
        raise ValueError("bipartite dimension mismatch")
    eps = np.array([trace_distance(rho, sigma)])
    spectra = np.stack([rho.eigenvalues, sigma.eigenvalues])
    marginals = np.stack([marginal_of(rho, "B"), marginal_of(sigma, "B")])
    return check_af_stack(eps, spectra, marginals, rho.dims[0], classical_b).report()


def check_dc(rho: DensityOperator, sigma: DensityOperator,
             model: ConvexSetModel) -> BoundReport:
    """Continuity of the relative-entropy distance from the set.

    D_C values come from the Frank-Wolfe minimizer.  Each lies above the
    true minimum by at most its duality gap, so the lhs
    |v_rho - v_sigma| + gap_rho + gap_sigma bounds |D_C(rho) - D_C(sigma)|
    from above whether or not the solver converged.  The rhs takes the
    upper end of the certified bracket lo <= kappa <= hi of
    ``dc_optimizer.kappa_bracket``, whose witness state is solved in one
    stack with rho and sigma; an empty bracket raises ``ArithmeticError``.
    """
    rho, sigma = state_pair(rho, sigma)
    eps = trace_distance(rho, sigma)
    _, kappa, (res_rho, res_sigma) = kappa_bracket(model, [rho, sigma])
    lhs = abs(res_rho.value - res_sigma.value) + res_rho.gap + res_sigma.gap
    rhs = dc_bound(min(eps, 1.0), kappa)
    return BoundReport(variant="dc_generic", dim=model.dim, lhs=lhs, rhs=rhs, epsilon=eps)


# which: (variant, rhs at each eps of a stack and d)
_COROLLARIES = {"ef": ("ef_cor1", lambda e, d: cor1_bounds_stack(e, d)[0]),
                "ec": ("ec_cor1", lambda e, d: cor1_bounds_stack(e, d)[1]),
                "er": ("er_cor2", cor2_bound_stack)}


def check_cor_pure_stack(phi: PureStack, psi: PureStack, dims,
                         which: str = "ef") -> BoundBlock:
    """``check_cor_pure`` of each pair of two stacks of pure states on
    ``A (x) B`` of dimensions ``dims``, with no D x D matrix built: eps from
    the rank-one factors ``(v, [w], 0)``, clipped to 1, and the A marginals
    of the factors ``(v, [l], 0)`` with their recorded traces by the Gram
    form (``states.factored_marginals``, the kernel of ``marginal_of`` a
    factored state in any stack), validated as one stack."""
    if which not in _COROLLARIES:
        raise ValueError(f"unknown corollary bound {which!r}")
    variant, bound = _COROLLARIES[which]
    zero = np.zeros(len(phi.vectors))
    eps = factored_trace_distances(*(x for s in (phi, psi)
                                     for x in (s.vectors[:, :, None], s.weights[:, None], zero)))
    marginals = np.stack([factored_marginals(s.vectors[:, :, None], s.scales[:, None], zero,
                                             s.traces, dims, "A") for s in (phi, psi)], axis=1)
    spectra = density_stack(marginals.reshape(-1, dims[0], dims[0])).eigenvalues
    d = min(dims)
    return _reports(variant, d, np.minimum(eps, 1.0), von_neumann_entropies(spectra),
                    lambda e: bound(e, d))


def check_cor_pure(phi: BipartiteState, psi: BipartiteState, which: str = "ef") -> BoundReport:
    """Entanglement-measure continuity on pure states, where
    E_F = E_R = S(tr_B .) in closed form; the stack of one of
    ``check_cor_pure_stack``, of the rank-one factors ``(v, [l], 0)`` as
    the states were built, with no D x D matrix read.  A state that is not
    pure (no rank-one factor) raises ``ValueError``: for a mixed state
    S(tr_B .) is not E_F."""
    if phi.dims != psi.dims:
        raise ValueError("bipartite dimension mismatch")
    if any(rank_one_factor(state) is None for state in (phi, psi)):
        raise ValueError("check_cor_pure takes pure states (a rank-one factor)")
    return check_cor_pure_stack(PureStack.of(phi), PureStack.of(psi), phi.dims,
                                which).report()


# -- extremal witnesses ------------------------------------------------------


def fannes_admissible(d: int, epsilon: float) -> bool:
    """Whether the Fannes-Audenaert witness exists at (d, eps): 0 < eps <= 1 - 1/d."""
    _dimension(d)
    return 0.0 < epsilon <= 1.0 - 1.0 / d


def _fannes_witness_args(d: int, epsilons) -> None:
    """Raise the error of the first eps of ``epsilons`` at which the Fannes
    witness at d does not exist."""
    for epsilon in epsilons:
        if not fannes_admissible(d, epsilon):
            raise ValueError(f"epsilon {epsilon!r} outside (0, 1 - 1/d]")


def _witness_epsilons(epsilons) -> None:
    """Raise the error of the first eps of ``epsilons`` outside (0, 1] (NaN
    too), at which neither the AF nor the oscillator witness exists."""
    for epsilon in epsilons:
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"epsilon {epsilon!r} outside (0, 1]")


def _af_witness_args(d: int, epsilons) -> None:
    """Raise the error of d, else of the first eps of ``epsilons``, at which
    the AF witness does not exist: d >= 2 and ``_witness_epsilons``."""
    _dimension(d)
    _witness_epsilons(epsilons)


def tightness_witness_fannes(d: int, epsilon: float):
    """(rho, sigma) saturating the Fannes-Audenaert bound:
    sigma = |0><0|, rho = (1-eps)|0><0| + eps/(d-1) (1 - |0><0|)."""
    _fannes_witness_args(d, [epsilon])
    probs = np.full(d, epsilon / (d - 1))
    probs[0] = 1.0 - epsilon
    rho = DensityOperator.diagonal(probs)
    sigma = DensityOperator.diagonal([1.0] + [0.0] * (d - 1))
    return rho, sigma


def tightness_witness_af(d: int, epsilon: float):
    """(rho, sigma) nearly saturating the conditional-entropy bound:
    sigma = Phi_d, rho = (1-eps) Phi_d + eps/(d^2-1) (1 - Phi_d), built as
    the factor (Phi, [1-eps], eps/(d^2-1)) on sigma's own vector, so the
    trace distance of the pair needs no d^2 x d^2 eigendecomposition.
    The achieved gap is eps log2(d^2 - 1) + h(eps)."""
    _af_witness_args(d, [epsilon])
    sigma = maximally_entangled_state(d)
    rho = BipartiteState.factored(sigma.factor[0], [1.0 - epsilon], epsilon / (d * d - 1), (d, d))
    return rho, sigma


def check_fannes_witnesses(d: int, epsilons) -> BoundBlock:
    """``check_fannes(*tightness_witness_fannes(d, eps))`` at each eps of
    ``epsilons``, bit for bit, as one stack: the diagonals of the pairs,
    rho and sigma interleaved, held to the state rule as the 1 x 1 blocks
    of their states (``states.embedded_stack``), eps from the blocks'
    differences and the spectra sorted from the blocks.  The first eps
    with no witness raises its error."""
    _fannes_witness_args(d, epsilons)
    eps = np.array(epsilons, dtype=float)
    diags = np.zeros((2 * len(eps), d))
    diags[0::2] = (eps / (d - 1))[:, None]
    diags[0::2, 0] = 1.0 - eps
    diags[1::2, 0] = 1.0
    states = embedded_stack(np.arange(d)[:, None], StateStack(
        diags.astype(complex)[:, :, None, None], diags[:, :, None]), d)
    eps = trace_distances(states.mats[0::2], states.mats[1::2], d)
    return check_fannes_stack(eps, block_spectra(states.eigenvalues, d)[0])


def check_af_witnesses(d: int, epsilons) -> BoundBlock:
    """``check_af(*tightness_witness_af(d, eps))`` at each eps of ``epsilons``,
    bit for bit, as one stack with no d^2 x d^2 matrix built: the factors
    ``(Phi_d, [1-eps], eps/(d^2-1))`` and ``(Phi_d, [1], 0)`` interleaved,
    held to the trace rule (``states.factored_traces``), eps from the renormalized
    factors, the spectra sorted from them and the B marginals from
    ``states.factored_marginals`` on B, the kernel of ``marginal_of`` a
    factored state in any stack.  The first bad argument raises its error."""
    _af_witness_args(d, epsilons)
    eps = np.array(epsilons, dtype=float)
    n, dim = 2 * len(eps), d * d
    vecs = np.broadcast_to(maximally_entangled_state(d).factor[0], (n, dim, 1))
    lam, c = np.ones((n, 1)), np.zeros(n)
    lam[0::2, 0], c[0::2] = 1.0 - eps, eps / (d * d - 1)
    tr = factored_traces(vecs, lam, c)
    spectra = block_spectra(np.concatenate([lam, np.repeat(c[:, None], dim - 1, axis=1)], axis=1),
                            dim)[0] / tr[:, None]
    factors = vecs, lam / tr[:, None], c / tr
    eps = factored_trace_distances(*(x[0::2] for x in factors), *(x[1::2] for x in factors))
    return check_af_stack(eps, spectra, factored_marginals(vecs, lam, c, tr, (d, d), "B"), d)


def af_witness_gap(d: int, epsilon: float) -> float:
    """Closed-form conditional-entropy gap of the AF witness pair."""
    return epsilon * math.log2(d * d - 1) + binary_entropy(epsilon)
