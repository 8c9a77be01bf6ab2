"""How close do random state pairs come to the entropy continuity bounds?

Samples pairs at several dimensions, prints the entropy difference
against the exact bound, then shows the extremal pair that saturates it.
"""

import numpy as np

from entrobounds import (
    check_af,
    check_fannes,
    sample_state,
    tightness_witness_af,
    tightness_witness_fannes,
)
from entrobounds.bounds import af_witness_gap
from entrobounds.states import BipartiteState


def main():
    rng = np.random.default_rng(0)

    print("=== entropy difference vs the exact continuity bound ===")
    print(f"{'d':>3} {'eps':>8} {'|dS|':>8} {'bound':>8} {'slack':>8}")
    for d in (2, 4, 8, 16):
        rho = sample_state(d, d, rng)
        sigma = sample_state(d, d, rng)
        rep = check_fannes(rho, sigma)
        print(f"{d:>3} {rep.epsilon:8.4f} {rep.lhs:8.4f} "
              f"{rep.rhs:8.4f} {rep.slack:8.4f}")

    print()
    print("=== the extremal pair saturates the bound exactly ===")
    for d, eps in ((4, 0.25), (8, 0.5), (16, 0.75)):
        rho, sigma = tightness_witness_fannes(d, eps)
        rep = check_fannes(rho, sigma)
        print(f"d={d:>2} eps={eps}: |dS|={rep.lhs:.10f} bound={rep.rhs:.10f} "
              f"slack={rep.slack:.2e}")

    print()
    print("=== conditional entropy: random pairs vs the near-tight witness ===")
    for d in (2, 3):
        rho = BipartiteState(sample_state(d * d, d * d, rng), (d, d))
        sigma = BipartiteState(sample_state(d * d, d * d, rng), (d, d))
        rep = check_af(rho, sigma)
        print(f"random d_A={d}: |dS(A|B)|={rep.lhs:.4f} bound={rep.rhs:.4f}")
    for d, eps in ((8, 0.1), (4, 0.2)):
        rho, sigma = tightness_witness_af(d, eps)
        rep = check_af(rho, sigma)
        print(f"witness d={d} eps={eps}: gap={rep.lhs:.6f} "
              f"(closed form {af_witness_gap(d, eps):.6f}) "
              f"bound={rep.rhs:.6f} slack={rep.slack:.6f}")


if __name__ == "__main__":
    main()
