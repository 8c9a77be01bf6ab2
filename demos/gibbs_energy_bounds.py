"""Gibbs states as the currency of energy-constrained continuity bounds.

Solves beta(E) for a single oscillator mode, tabulates the entropy, then
evaluates the infinite-dimensional bounds on sampled low-energy pairs
and on the extremal ground-state-vs-thermal witness.
"""

import numpy as np

from entrobounds import (
    HamiltonianSpec,
    gibbs_entropy,
    lemma4_bound,
    lemma7_bounds,
    meta5_bound,
    oscillator_entropy_upper,
    oscillator_tightness_witness,
    sample_energy_constrained,
    solve_beta,
    trace_distance,
    von_neumann_entropy,
)
from entrobounds.entropies import gibbs_entropy_g, shannon_entropy


def main():
    h = HamiltonianSpec.oscillators([1.0])
    print("single oscillator mode (hbar omega = 1):")
    print(f"{'E':>6} {'beta':>10} {'S(gamma(E))':>12} {'g(E)':>10} {'upper':>10}")
    for e in (0.25, 0.5, 1.0, 2.0, 5.0):
        sol = solve_beta(h, e)
        print(f"{e:>6} {sol.beta:>10.6f} {sol.entropy:>12.6f} "
              f"{gibbs_entropy_g(e):>10.6f} "
              f"{oscillator_entropy_upper([1.0], e):>10.6f}")

    print("\nenergy-constrained pairs (E = 2, Fock cutoff 40):")
    ht = HamiltonianSpec.oscillators([1.0], n_max=40)
    rng = np.random.default_rng(1)
    for _ in range(3):
        rho = sample_energy_constrained(ht, 2.0, rng=rng)
        sigma = sample_energy_constrained(ht, 2.0, rng=rng)
        eps = trace_distance(rho, sigma)
        lhs = abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma))
        ep = min(1.0, eps + 0.1)
        print(f"  eps={eps:.4f}  |dS|={lhs:.4f}"
              f"  direct bound={lemma4_bound(ht, 2.0, eps):.4f}"
              f"  two-parameter bound(eps'={ep:.4f})="
              f"{meta5_bound(ht, 2.0, eps, ep):.4f}"
              f"  closed form(alpha=0.25)="
              f"{lemma7_bounds([1.0], 2.0, eps, 0.25)[0]:.4f}")

    print("\nwitness at E = 100, eps = 0.2 (ground state vs thermal mixture):")
    p, q = oscillator_tightness_witness(100.0, 0.2)
    gap = abs(shannon_entropy(p) - shannon_entropy(q))
    hw = HamiltonianSpec.oscillators([1.0], n_max=len(p) - 1)
    rhs = lemma4_bound(hw, 100.0, 0.2)
    print(f"  gap = {gap:.4f} bits, bound = {rhs:.4f} bits, "
          f"ratio = {rhs / gap:.3f}  (eps * S(gamma(E)) = "
          f"{0.2 * gibbs_entropy(hw, 100.0):.4f})")


if __name__ == "__main__":
    main()
