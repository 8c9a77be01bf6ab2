"""A tour of the three coupling constructions for one state pair.

Classical coupling of two distributions, then the quantum coupling built
from pretty good purifications, then the diagonal coupling from sorted
spectra.  Each construction witnesses 1 - trace distance in its own way.
"""

import numpy as np

from entrobounds import (
    diagonal_coupling,
    fidelity,
    maximal_classical_coupling,
    quantum_coupling,
    sample_state,
    trace_distance,
)
from entrobounds.couplings import build_decomposition
from entrobounds.states import BipartiteState, partial_trace


def main():
    rng = np.random.default_rng(7)
    d = 4

    p = rng.dirichlet(np.ones(d))
    q = rng.dirichlet(np.ones(d))
    c = maximal_classical_coupling(p, q)
    print("classical coupling:")
    print(f"  Pr{{X != Y}} = {c.mismatch_probability:.6f}"
          f"  (half l1 distance = {0.5 * np.abs(p - q).sum():.6f})")

    rho = sample_state(d, d, rng)
    sigma = sample_state(d, d, rng)
    eps = trace_distance(rho, sigma)
    print(f"\nstate pair: d={d}, trace distance eps = {eps:.6f}")

    dec = build_decomposition(rho, sigma)
    recon = (sigma.mat + dec.epsilon * dec.delta.mat) / (1.0 + dec.epsilon)
    print("two-way decomposition:")
    print(f"  max|omega - (sigma + eps Delta)/(1 + eps)| = "
          f"{np.abs(dec.omega.mat - recon).max():.2e}")

    qc = quantum_coupling(rho, sigma)
    theta = BipartiteState(qc.theta, (d, d))
    print("quantum coupling:")
    print(f"  |<psi|vartheta>| = {qc.overlap_psi:.6f}  (>= 1 - eps = {1 - eps:.6f})")
    print(f"  |<phi|vartheta>| = {qc.overlap_phi:.6f}")
    print(f"  F(psi, Theta)    = {fidelity(qc.psi, qc.theta):.6f}")
    print(f"  marginal errors: "
          f"A {np.abs(partial_trace(theta, 'A').mat - rho.mat).max():.2e}, "
          f"B {np.abs(partial_trace(theta, 'B').mat - sigma.mat.T).max():.2e}")

    dg = diagonal_coupling(rho, sigma)
    print("diagonal coupling:")
    print(f"  ||omega||_inf     = {dg.largest_eigenvalue:.6f}  (>= {1 - eps:.6f})")
    print(f"  sorted-spectra eps = {dg.epsilon_mirsky:.6f}  (<= eps = {eps:.6f})")


if __name__ == "__main__":
    main()
