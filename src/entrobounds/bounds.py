"""Closed-form continuity-bound evaluators and extremal witness pairs.

Bound formulas (all in bits):

* Fannes-Audenaert: eps log2(d-1) + h(eps) for eps <= 1 - 1/d, else log2 d;
  simplified universal variant eps log2 d + h(eps).
* Tightened Alicki-Fannes for the conditional entropy:
  2 eps log2 d_A + (1+eps) h(eps/(1+eps)), coefficient eps instead of
  2 eps when both states are qc (or both cq).
* Relative-entropy-distance continuity: eps kappa + (1+eps) h(eps/(1+eps)).
* Entanglement-measure corollaries at delta = sqrt(eps(2-eps)):
  E_F:  delta log2 d + (1+delta) h(delta/(1+delta));
  E_C:  2 delta log2 d + (1+delta) h(delta/(1+delta));
  E_R (and its regularization): eps log2 d + (1+eps) h(eps/(1+eps)).

Every checker recomputes eps from the states via the trace norm;
caller-supplied eps is never trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropies import binary_entropy, conditional_entropy, von_neumann_entropy
from .linalg import as_operator, trace_distance
from .states import BipartiteState, DensityOperator, maximally_entangled_state, partial_trace

VALIDITY_TOL = 1e-9


@dataclass(frozen=True)
class BoundParams:
    epsilon: float
    dim_d: int
    variant: str
    kappa: float = 0.0
    kappa_is_estimate: bool = False


@dataclass(frozen=True)
class BoundReport:
    lhs: float
    rhs: float
    params: BoundParams

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def valid(self) -> bool:
        return self.slack >= -VALIDITY_TOL


@dataclass(frozen=True)
class ConvexSetModel:
    """Finitely generated convex set of PSD operators.

    At least one generator must be full rank (keeps the relative-entropy
    distance finite).  ``kappa`` is the largest variation of D_C over
    states: exact when known in closed form, otherwise a sampled estimate
    flagged via ``kappa_is_estimate``.  A sampled kappa is a max and a min
    over finitely many probes, so it can only underestimate the true
    variation (up to the solver tolerance).
    """

    generators: list
    kappa: float | None = None
    kappa_is_estimate: bool = False

    def __post_init__(self):
        if not self.generators:
            raise ValueError("generator list must be non-empty")
        gens = [as_operator(g) for g in self.generators]
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if g.eigenvalues[-1] < -1e-10:
                raise ValueError("generators must be PSD")
        if not any(g.eigenvalues[-1] > 1e-10 for g in gens):
            raise ValueError("need at least one full-rank generator")

    @property
    def dim(self) -> int:
        return self.generators[0].dim


# -- bound formulas ----------------------------------------------------------


def fannes_audenaert_bound(epsilon: float, d: int, simplified: bool = False) -> float:
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon {epsilon!r} outside [0, 1]")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if simplified:
        return epsilon * math.log2(d) + binary_entropy(epsilon)
    if epsilon > 1.0 - 1.0 / d:
        return math.log2(d)
    return epsilon * math.log2(d - 1) + binary_entropy(epsilon)


def _af_entropic_term(epsilon: float) -> float:
    return (1.0 + epsilon) * binary_entropy(epsilon / (1.0 + epsilon))


def af_bound(epsilon: float, d_a: int, classical_b: bool = False) -> float:
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon {epsilon!r} outside [0, 1]")
    if d_a < 2:
        raise ValueError(f"dimension must be >= 2, got {d_a}")
    coeff = 1.0 if classical_b else 2.0
    return coeff * epsilon * math.log2(d_a) + _af_entropic_term(epsilon)


def dc_bound(epsilon: float, kappa: float) -> float:
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa!r}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon {epsilon!r} outside [0, 1]")
    return epsilon * kappa + _af_entropic_term(epsilon)


def cor1_delta(epsilon: float) -> float:
    return math.sqrt(epsilon * (2.0 - epsilon))


def cor1_bounds(epsilon: float, d: int):
    """(E_F rhs, E_C rhs) at delta = sqrt(eps(2-eps)); d is the smaller of
    the two local dimensions."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon {epsilon!r} outside [0, 1]")
    delta = cor1_delta(epsilon)
    ef = delta * math.log2(d) + _af_entropic_term(delta)
    ec = 2.0 * delta * math.log2(d) + _af_entropic_term(delta)
    return ef, ec


def cor2_bound(epsilon: float, d: int) -> float:
    """E_R (and regularized E_R) continuity bound."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon {epsilon!r} outside [0, 1]")
    return epsilon * math.log2(d) + _af_entropic_term(epsilon)


# -- checkers ----------------------------------------------------------------


def check_fannes(rho: DensityOperator, sigma: DensityOperator) -> BoundReport:
    eps = trace_distance(rho, sigma)
    lhs = abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma))
    rhs = fannes_audenaert_bound(min(eps, 1.0), rho.dim)
    return BoundReport(lhs=lhs, rhs=rhs,
                       params=BoundParams(epsilon=eps, dim_d=rho.dim, variant="fannes_exact"))


def check_af(rho: BipartiteState, sigma: BipartiteState, classical_b: bool = False) -> BoundReport:
    if rho.dims != sigma.dims:
        raise ValueError("bipartite dimension mismatch")
    eps = trace_distance(rho, sigma)
    lhs = abs(conditional_entropy(rho) - conditional_entropy(sigma))
    d_a = rho.dims[0]
    rhs = af_bound(min(eps, 1.0), d_a, classical_b=classical_b)
    variant = "af_classical_B" if classical_b else "af_general"
    return BoundReport(lhs=lhs, rhs=rhs,
                       params=BoundParams(epsilon=eps, dim_d=d_a, variant=variant))


def check_dc(rho: DensityOperator, sigma: DensityOperator, model: ConvexSetModel,
             rng=None, n_probes: int = 200, tol: float = 1e-6) -> BoundReport:
    """Continuity of the relative-entropy distance from the set.

    D_C values come from the Frank-Wolfe minimizer.  Each lies above the
    true minimum by at most its duality gap, so the lhs
    |v_rho - v_sigma| + gap_rho + gap_sigma bounds |D_C(rho) - D_C(sigma)|
    from above whether or not the solver converged.  kappa comes from the
    model, or else from a sampled estimate over pure-state probes, which
    can only underestimate the true kappa and is flagged as estimated."""
    from .dc_optimizer import dc_minimize, estimate_kappa

    eps = trace_distance(rho, sigma)
    res_rho = dc_minimize(rho, model, tol=tol)
    res_sigma = dc_minimize(sigma, model, tol=tol)
    lhs = abs(res_rho.value - res_sigma.value) + res_rho.gap + res_sigma.gap
    if model.kappa is not None:
        kappa, is_est = model.kappa, model.kappa_is_estimate
    else:
        kappa, is_est = estimate_kappa(model, rng=rng, n_probes=n_probes), True
    rhs = dc_bound(min(eps, 1.0), kappa)
    return BoundReport(lhs=lhs, rhs=rhs,
                       params=BoundParams(epsilon=eps, dim_d=model.dim, variant="dc_generic",
                                          kappa=kappa, kappa_is_estimate=is_est))


def check_cor_pure(phi: BipartiteState, psi: BipartiteState, which: str = "ef") -> BoundReport:
    """Entanglement-measure continuity on pure states, where
    E_F = E_R = S(tr_B .) in closed form."""
    if phi.dims != psi.dims:
        raise ValueError("bipartite dimension mismatch")
    eps = min(trace_distance(phi, psi), 1.0)
    lhs = abs(von_neumann_entropy(partial_trace(phi, "A"))
              - von_neumann_entropy(partial_trace(psi, "A")))
    d = min(phi.dims)
    if which == "ef":
        rhs = cor1_bounds(eps, d)[0]
        variant = "ef_cor1"
    elif which == "ec":
        rhs = cor1_bounds(eps, d)[1]
        variant = "ec_cor1"
    elif which == "er":
        rhs = cor2_bound(eps, d)
        variant = "er_cor2"
    else:
        raise ValueError(f"unknown corollary bound {which!r}")
    return BoundReport(lhs=lhs, rhs=rhs,
                       params=BoundParams(epsilon=eps, dim_d=d, variant=variant))


# -- extremal witnesses ------------------------------------------------------


def tightness_witness_fannes(d: int, epsilon: float):
    """(rho, sigma) saturating the Fannes-Audenaert bound:
    sigma = |0><0|, rho = (1-eps)|0><0| + eps/(d-1) (1 - |0><0|)."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if not 0.0 < epsilon <= 1.0 - 1.0 / d:
        raise ValueError(f"epsilon {epsilon!r} outside (0, 1 - 1/d]")
    probs = np.full(d, epsilon / (d - 1))
    probs[0] = 1.0 - epsilon
    rho = DensityOperator.diagonal(probs)
    sigma = DensityOperator.diagonal([1.0] + [0.0] * (d - 1))
    return rho, sigma


def tightness_witness_af(d: int, epsilon: float):
    """(rho, sigma) nearly saturating the conditional-entropy bound:
    sigma = Phi_d, rho = (1-eps) Phi_d + eps/(d^2-1) (1 - Phi_d).
    The achieved gap is eps log2(d^2 - 1) + h(eps)."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon {epsilon!r} outside (0, 1]")
    sigma = maximally_entangled_state(d)
    phi = sigma.mat
    rest = (np.eye(d * d) - phi) * (epsilon / (d * d - 1))
    rho = BipartiteState((1.0 - epsilon) * phi + rest, (d, d))
    return rho, sigma


def af_witness_gap(d: int, epsilon: float) -> float:
    """Closed-form conditional-entropy gap of the AF witness pair."""
    return epsilon * math.log2(d * d - 1) + binary_entropy(epsilon)
