"""Numerical toolkit for continuity bounds on quantum entropies.

Subpackages by theme:

* :mod:`entrobounds.linalg`       -- Hermitian spectral calculus, norms, fidelity
* :mod:`entrobounds.states`       -- density operators, bipartite structure, sampling
* :mod:`entrobounds.entropies`    -- entropy functionals (bits)
* :mod:`entrobounds.couplings`    -- classical, quantum and diagonal couplings
* :mod:`entrobounds.bounds`       -- closed-form bound evaluators and witnesses
* :mod:`entrobounds.dc_optimizer` -- relative-entropy distance minimization
* :mod:`entrobounds.gibbs`        -- Gibbs states and energy-constrained bounds
* :mod:`entrobounds.harness`      -- verification campaigns and reports
"""

from .linalg import (
    HermitianOperator,
    fidelity,
    operator_norm,
    trace_distance,
    trace_norm,
)
from .states import (
    BipartiteState,
    DensityOperator,
    maximally_entangled_state,
    partial_trace,
    sample_pure_bipartite,
    sample_qc_state,
    sample_state,
)
from .entropies import (
    binary_entropy,
    clipped_binary,
    conditional_entropy,
    gibbs_entropy_g,
    relative_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from .couplings import (
    build_decomposition,
    diagonal_coupling,
    maximal_classical_coupling,
    quantum_coupling,
)
from .bounds import (
    BoundReport,
    af_bound,
    check_af,
    check_cor_pure,
    check_dc,
    check_fannes,
    cor1_bounds,
    cor2_bound,
    dc_bound,
    fannes_audenaert_bound,
    tightness_witness_af,
    tightness_witness_fannes,
)
from .dc_optimizer import ConvexSetModel, dc_gradient, dc_minimize
from .gibbs import (
    HamiltonianSpec,
    cutoff_decompose,
    gibbs_entropy,
    lemma4_bound,
    lemma7_bounds,
    log2_partition_function,
    meta5_bound,
    meta6_bound,
    oscillator_entropy_upper,
    oscillator_tightness_witness,
    sample_energy_constrained,
    solve_beta,
)

__version__ = "0.1.0"
