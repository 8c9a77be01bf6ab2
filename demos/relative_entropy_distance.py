"""Minimizing the relative-entropy distance from a convex set.

Runs the away-step Frank-Wolfe minimizer on a finitely generated set,
shows the duality-gap certificate, sets the certified kappa bracket next
to the sampled estimate (which falls short of it), and checks the
continuity bound for the distance function between two nearby states.
"""

import numpy as np

from entrobounds import (
    ConvexSetModel,
    check_dc,
    dc_minimize,
    sample_state,
    trace_distance,
)
from entrobounds.dc_optimizer import estimate_kappa, kappa_bracket
from entrobounds.states import DensityOperator


def main():
    rng = np.random.default_rng(3)
    d = 3
    gens = [sample_state(d, d, rng) for _ in range(3)]
    model = ConvexSetModel(generators=gens)

    rho = sample_state(d, d, rng)
    res = dc_minimize(rho, model)
    print("Frank-Wolfe minimization of D(rho || gamma(w)):")
    print(f"  value      = {res.value:.8f} bits")
    print(f"  weights    = {np.round(res.weights.weights, 6)}")
    print(f"  iterations = {res.iterations}, duality gap = {res.gap:.2e} "
          f"(converged: {res.converged})")

    kappa = estimate_kappa(model, rng=np.random.default_rng(0), n_probes=100)
    lo, hi, _ = kappa_bracket(model)
    print("\nkappa, the largest variation of D_C, in bits:")
    print(f"  certified bracket [{lo:.6f}, {hi:.6f}]")
    print(f"  sampled estimate   {kappa:.6f} (an underestimate, "
          f"{'below' if kappa < lo else 'inside'} the bracket)")

    # perturb rho slightly and check the continuity of the distance
    sigma = sample_state(d, d, rng)
    sigma = DensityOperator(0.9 * rho.mat + 0.1 * sigma.mat)
    rep = check_dc(rho, sigma, model)
    print(f"\ncontinuity check at eps = {trace_distance(rho, sigma):.4f}:")
    print(f"  |D_C(rho) - D_C(sigma)| <= {rep.lhs:.6f} (solver values plus duality gaps)")
    print(f"  bound eps*hi + (1+eps) h(eps/(1+eps)) = {rep.rhs:.6f}")
    print(f"  slack = {rep.slack:.6f}")


if __name__ == "__main__":
    main()
