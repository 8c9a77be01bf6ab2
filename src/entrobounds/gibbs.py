"""Gibbs states, partition functions and energy-constrained continuity bounds.

Hamiltonians come in two kinds:

* ``explicit_levels``: a finite ascending list of energies with ground
  level exactly 0;
* ``oscillator_modes``: ell harmonic modes, H = sum_i hbar omega_i n_i,
  with a per-mode Fock cutoff for matrix-form work and exact geometric
  closed forms (Z, mean energy) for the untruncated model.

The inverse temperature beta(E) solves tr e^{-beta H}(H - E) = 0 by
bisection (the mean energy is strictly decreasing in beta).  Entropies
are in bits: S(gamma(E)) = log2 Z + beta E log2(e).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropies import LOG2_E, binary_entropy, clipped_binary, shannon_entropy
from .linalg import HermitianOperator
from .states import (
    BipartiteState,
    DensityOperator,
    _as_rng,
    partial_trace,
    pinching,
    purification_vector,
    sample_state,
)

_BETA_BRACKET = (1e-6, 1e3)
_ENERGY_RTOL = 1e-10


class EnergyDomainError(ValueError):
    pass


class TruncationError(ValueError):
    pass


class HamiltonianSpec:
    """Discrete-spectrum Hamiltonian with ground energy 0."""

    __slots__ = ("kind", "levels", "hbar_omegas", "n_max")

    def __init__(self, kind, levels=None, hbar_omegas=None, n_max=None):
        self.kind = kind
        if kind == "explicit_levels":
            lv = np.asarray(levels, dtype=float)
            if lv.ndim != 1 or len(lv) < 1:
                raise ValueError("need a 1-D level list")
            if abs(lv[0]) > 0:
                raise ValueError("ground state energy must be exactly 0")
            if (np.diff(lv) < 0).any():
                raise ValueError("levels must be ascending")
            self.levels = lv
            self.hbar_omegas = None
            self.n_max = None
        elif kind == "oscillator_modes":
            w = np.asarray(hbar_omegas, dtype=float)
            if (w <= 0).any():
                raise ValueError("mode energies must be positive")
            self.hbar_omegas = w
            self.n_max = int(n_max) if n_max is not None else 64
            # product-basis energies, last mode minor index
            lv = np.zeros(1)
            for hw in w:
                lv = (lv[:, None] + hw * np.arange(self.n_max + 1)[None, :]).reshape(-1)
            self.levels = lv
        else:
            raise ValueError(f"unknown Hamiltonian kind {kind!r}")

    @classmethod
    def explicit(cls, levels) -> "HamiltonianSpec":
        return cls("explicit_levels", levels=levels)

    @classmethod
    def oscillators(cls, hbar_omegas, n_max: int = 64) -> "HamiltonianSpec":
        return cls("oscillator_modes", hbar_omegas=hbar_omegas, n_max=n_max)

    @property
    def dim(self) -> int:
        return len(self.levels)

    @property
    def n_modes(self) -> int:
        return 0 if self.hbar_omegas is None else len(self.hbar_omegas)

    def max_mean_energy(self) -> float:
        """Supremum of attainable Gibbs mean energies (beta -> 0 limit)."""
        if self.kind == "explicit_levels":
            return float(self.levels.mean())
        return math.inf

    def __repr__(self):
        if self.kind == "explicit_levels":
            return f"HamiltonianSpec(explicit_levels, dim={self.dim})"
        return f"HamiltonianSpec(oscillators={list(self.hbar_omegas)}, n_max={self.n_max})"


def partition_function(hamiltonian: HamiltonianSpec, beta: float) -> float:
    """Z(beta) = tr e^{-beta H}: explicit sum, or the exact geometric
    product for (untruncated) oscillator modes."""
    if beta <= 0:
        raise EnergyDomainError(f"beta must be positive, got {beta!r}")
    if hamiltonian.kind == "explicit_levels":
        return float(np.exp(-beta * hamiltonian.levels).sum())
    return float(np.prod(1.0 / (1.0 - np.exp(-beta * hamiltonian.hbar_omegas))))


def truncation_tail(hamiltonian: HamiltonianSpec, beta: float) -> float:
    """Relative Gibbs mass lost to the per-mode Fock cutoff."""
    if hamiltonian.kind == "explicit_levels":
        return 0.0
    q = np.exp(-beta * hamiltonian.hbar_omegas)
    return float(1.0 - np.prod(1.0 - q ** (hamiltonian.n_max + 1)))


def mean_energy(hamiltonian: HamiltonianSpec, beta: float) -> float:
    if beta <= 0:
        raise EnergyDomainError(f"beta must be positive, got {beta!r}")
    if hamiltonian.kind == "explicit_levels":
        w = np.exp(-beta * hamiltonian.levels)
        return float((hamiltonian.levels * w).sum() / w.sum())
    hw = hamiltonian.hbar_omegas
    with np.errstate(over="ignore"):
        return float((hw / np.expm1(beta * hw)).sum())


@dataclass(frozen=True)
class GibbsSolution:
    hamiltonian: HamiltonianSpec
    beta: float
    partition: float
    energy: float
    entropy: float  # bits

    def diagonal_probabilities(self) -> np.ndarray:
        """Gibbs weights on the (truncated) level basis, normalized by the
        exact partition function; sums to 1 minus the truncation tail."""
        return np.exp(-self.beta * self.hamiltonian.levels) / self.partition

    def state(self) -> DensityOperator:
        p = self.diagonal_probabilities()
        tail = 1.0 - p.sum()
        if tail > 1e-9:
            raise TruncationError(f"truncation tail {tail:.3e} exceeds 1e-9")
        return DensityOperator.diagonal(p / p.sum())


def solve_beta(hamiltonian: HamiltonianSpec, energy: float) -> GibbsSolution:
    """Solve tr e^{-beta H}(H - E) = 0 by bisection.

    The mean Gibbs energy is strictly decreasing in beta, so the bracket
    is expanded geometrically and then bisected to relative residual
    <= 1e-10.
    """
    e_max = hamiltonian.max_mean_energy()
    if not 0.0 < energy < e_max:
        raise EnergyDomainError(
            f"energy {energy!r} outside the attainable open interval (0, {e_max!r})"
        )
    lo, hi = _BETA_BRACKET
    while mean_energy(hamiltonian, lo) < energy:
        lo /= 10.0
        if lo < 1e-300:
            raise EnergyDomainError(f"energy {energy!r} not attainable (beta -> 0)")
    while mean_energy(hamiltonian, hi) > energy:
        hi *= 10.0
        if hi > 1e300:
            raise EnergyDomainError(f"energy {energy!r} not attainable (beta -> inf)")
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        u = mean_energy(hamiltonian, mid)
        if abs(u - energy) <= _ENERGY_RTOL * max(abs(energy), 1e-300):
            lo = hi = mid
            break
        if u > energy:
            lo = mid
        else:
            hi = mid
    beta = 0.5 * (lo + hi)
    z = partition_function(hamiltonian, beta)
    entropy = math.log2(z) + beta * energy * LOG2_E
    return GibbsSolution(hamiltonian=hamiltonian, beta=beta, partition=z,
                         energy=energy, entropy=entropy)


def entropy_check(sol: GibbsSolution) -> tuple[float, float]:
    """(S_direct, |S_formula - S_direct|): the Shannon entropy of the Gibbs
    weights on the (truncated) level basis, and its distance from the
    closed-form entropy ``sol.entropy``."""
    direct = shannon_entropy(sol.diagonal_probabilities())
    return direct, abs(sol.entropy - direct)


def gibbs_entropy(hamiltonian: HamiltonianSpec, energy: float) -> float:
    """S(gamma(E)) in bits."""
    return solve_beta(hamiltonian, energy).entropy


def oscillator_entropy_upper(n_modes: int, hbar_omegas, energy: float) -> float:
    """Closed-form upper bound on the ell-mode Gibbs entropy at total
    energy E, obtained by splitting the energy equally among the modes:
    ell log2(e) + sum_i log2(E/(ell hbar omega_i) + 1)."""
    if energy <= 0:
        raise EnergyDomainError(f"energy must be positive, got {energy!r}")
    hw = np.asarray(hbar_omegas, dtype=float)
    if len(hw) != n_modes:
        raise ValueError("mode count does not match frequency list")
    e_bar = energy / n_modes
    return n_modes * LOG2_E + float(np.log2(e_bar / hw + 1.0).sum())


# -- energy-constrained continuity bounds ------------------------------------


@dataclass(frozen=True)
class EnergyBoundParams:
    energy: float
    epsilon: float
    epsilon_prime: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon < self.epsilon_prime <= 1.0:
            raise ValueError(
                f"need 0 <= eps < eps' <= 1, got ({self.epsilon!r}, {self.epsilon_prime!r})"
            )

    @property
    def delta(self) -> float:
        return (self.epsilon_prime - self.epsilon) / (1.0 + self.epsilon_prime)


def lemma4_bound(hamiltonian: HamiltonianSpec, energy: float, epsilon: float) -> float:
    """Entropy continuity: 2 eps S(gamma(E/eps)) + h(eps)."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon {epsilon!r} outside [0, 1]")
    if epsilon == 0.0:
        return 0.0
    return 2.0 * epsilon * gibbs_entropy(hamiltonian, energy / epsilon) + binary_entropy(epsilon)


def meta5_bound(hamiltonian: HamiltonianSpec, energy: float,
                epsilon: float, epsilon_prime: float) -> float:
    """(eps' + 2 delta) S(gamma(E/delta)) + h(eps') + h(delta),
    delta = (eps' - eps)/(1 + eps')."""
    p = EnergyBoundParams(energy=energy, epsilon=epsilon, epsilon_prime=epsilon_prime)
    d = p.delta
    return ((epsilon_prime + 2.0 * d) * gibbs_entropy(hamiltonian, energy / d)
            + binary_entropy(epsilon_prime) + binary_entropy(d))


def meta6_bound(hamiltonian: HamiltonianSpec, energy: float,
                epsilon: float, epsilon_prime: float) -> float:
    """Conditional-entropy analogue:
    (2 eps' + 4 delta) S(gamma(E/delta)) + (1+eps') h(eps'/(1+eps')) + 2 h(delta)."""
    p = EnergyBoundParams(energy=energy, epsilon=epsilon, epsilon_prime=epsilon_prime)
    d = p.delta
    return ((2.0 * epsilon_prime + 4.0 * d) * gibbs_entropy(hamiltonian, energy / d)
            + (1.0 + epsilon_prime) * binary_entropy(epsilon_prime / (1.0 + epsilon_prime))
            + 2.0 * binary_entropy(d))


def lemma7_bounds(n_modes: int, hbar_omegas, energy: float,
                  epsilon: float, alpha: float):
    """Oscillator-specialized bounds at delta = alpha eps (1 - eps).

    Returns (entropy_rhs, conditional_rhs).  The common prefactor is
    c = (1+alpha)/(1-alpha) + 2 alpha; the bracket combines the equal-split
    entropy estimate with the ell log2(e/(alpha(1-eps))) offset; the
    clipped binary entropy enters at argument (1+alpha)/(1-alpha) * eps.
    """
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"alpha {alpha!r} outside (0, 1/2]")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon {epsilon!r} outside [0, 1)")
    hw = np.asarray(hbar_omegas, dtype=float)
    if len(hw) != n_modes:
        raise ValueError("mode count does not match frequency list")
    ratio = (1.0 + alpha) / (1.0 - alpha)
    c = ratio + 2.0 * alpha
    e_bar = energy / n_modes
    bracket = float(np.log2(e_bar / hw + 1.0).sum()) + n_modes * math.log2(
        math.e / (alpha * (1.0 - epsilon))
    )
    h_term = clipped_binary(ratio * epsilon)
    entropy_rhs = epsilon * c * bracket + (n_modes + 2) * c * h_term
    conditional_rhs = 2.0 * epsilon * c * bracket + (2 * n_modes + 4) * c * h_term
    return entropy_rhs, conditional_rhs


# -- cutoff machinery ---------------------------------------------------------


@dataclass(frozen=True)
class CutoffDecomposition:
    """Pinching of a state by the energy-cutoff projector pair at E/delta.

    ``weight_gt`` (lambda) satisfies lambda <= delta and
    lambda * tr(rho_> H) <= E.  Absent components are None.
    """

    cutoff: float
    weight_gt: float
    state_le: object  # DensityOperator or BipartiteState
    state_gt: object
    mean_energy: float


def _energy_of(mat: np.ndarray, levels: np.ndarray, d_b: int = 1) -> float:
    diag = np.real(np.diag(mat))
    if d_b > 1:
        diag = diag.reshape(len(levels), d_b).sum(axis=1)
    return float((levels * diag).sum())


def cutoff_decompose(state, hamiltonian: HamiltonianSpec, energy: float,
                     delta: float) -> CutoffDecomposition:
    """Split a state of mean energy <= E by the projector onto levels with
    E_n <= E/delta (boundary level included).

    Accepts a DensityOperator on the truncated level space, or a
    BipartiteState whose A factor is that space (global Hamiltonian
    H (x) 1); pinched components keep the bipartite structure.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta {delta!r} outside (0, 1]")
    levels = hamiltonian.levels
    bipartite = isinstance(state, BipartiteState)
    d_b = state.dims[1] if bipartite else 1
    if (bipartite and state.dims[0] != len(levels)) or (not bipartite and state.dim != len(levels)):
        raise ValueError("state dimension does not match the Hamiltonian")
    e_state = _energy_of(state.mat, levels, d_b)
    if e_state > energy + 1e-9 * max(energy, 1.0):
        raise EnergyDomainError(
            f"state energy {e_state!r} exceeds the constraint {energy!r}"
        )
    cutoff = energy / delta
    mask = (levels <= cutoff).astype(float)
    proj = np.diag(np.repeat(mask, d_b)) if d_b > 1 else np.diag(mask)
    dec = pinching(state, HermitianOperator(proj))
    state_le, state_gt = dec.state_le, dec.state_gt
    if bipartite:
        if state_le is not None:
            state_le = BipartiteState(state_le, state.dims)
        if state_gt is not None:
            state_gt = BipartiteState(state_gt, state.dims)
    return CutoffDecomposition(
        cutoff=cutoff,
        weight_gt=dec.weight_gt,
        state_le=state_le,
        state_gt=state_gt,
        mean_energy=e_state,
    )


def truncated_trace_distance_bound(epsilon: float, delta: float) -> float:
    """(eps + delta)/(1 - delta): the bound on the trace distance between
    the renormalized below-cutoff components."""
    return (epsilon + delta) / (1.0 - delta)


# -- sampling and witnesses ----------------------------------------------------


def sample_energy_constrained(hamiltonian: HamiltonianSpec, energy: float,
                              d_b: int | None = None, rng=None):
    """Random state supported on levels with E_n <= E (hence mean energy
    <= E), optionally extended by an unconstrained, entangled B factor
    under the global Hamiltonian H (x) 1."""
    rng = _as_rng(rng)
    levels = hamiltonian.levels
    idx = np.where(levels <= energy)[0]
    if len(idx) == 0:
        raise EnergyDomainError(f"no levels at or below energy {energy!r}")
    k = len(idx)
    dim = len(levels)
    if d_b is None:
        small = sample_state(k, k, rng).mat
        full = np.zeros((dim, dim), dtype=complex)
        full[np.ix_(idx, idx)] = small
        return DensityOperator(full)
    small = sample_state(k * d_b, k * d_b, rng).mat
    flat = np.array([i * d_b + j for i in idx for j in range(d_b)])
    full = np.zeros((dim * d_b, dim * d_b), dtype=complex)
    full[np.ix_(flat, flat)] = small
    return BipartiteState(full, (dim, d_b))


def _single_mode_truncation(energy: float, tail: float) -> int:
    """Smallest Fock cutoff with geometric tail below ``tail`` for the
    single-mode (hbar omega = 1) thermal state of mean occupation E."""
    q = energy / (energy + 1.0)
    return max(2, int(math.ceil(math.log(tail) / math.log(q))))


def oscillator_tightness_witness(energy: float, epsilon: float,
                                 conditional: bool = False,
                                 n_max: int | None = None):
    """Extremal pairs for the single-mode oscillator bounds.

    Entropy case (default): returns the diagonal probability vectors of
    rho = |0><0| and sigma = (1-eps)|0><0| + eps gamma(E) on a Fock space
    truncated so the thermal tail is below 1e-12.

    Conditional case: rho is the canonical purification of gamma(E) on
    A (x) B and sigma = (1-eps) rho + eps gamma(E)^A (x) tau^B with
    tau the B-marginal of rho; raises TruncationError when the requested
    cutoff leaves a tail above 1e-9.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon {epsilon!r} outside (0, 1]")
    if not conditional:
        cut = n_max if n_max is not None else _single_mode_truncation(energy, 1e-13)
        h = HamiltonianSpec.oscillators([1.0], n_max=cut)
        sol = solve_beta(h, energy)
        gamma = sol.diagonal_probabilities()
        if 1.0 - gamma.sum() > 1e-9:
            raise TruncationError(f"tail {1.0 - gamma.sum():.3e} exceeds 1e-9")
        rho = np.zeros(cut + 1)
        rho[0] = 1.0
        sigma = (1.0 - epsilon) * rho + epsilon * gamma
        return rho, sigma / sigma.sum()

    cut = n_max if n_max is not None else min(_single_mode_truncation(energy, 1e-10), 63)
    h = HamiltonianSpec.oscillators([1.0], n_max=cut)
    sol = solve_beta(h, energy)
    gamma = sol.state()
    d = gamma.dim
    rho_vec = purification_vector(gamma)
    rho = BipartiteState.pure(rho_vec, (d, d))
    tau = partial_trace(rho, "B")
    sigma = BipartiteState(
        (1.0 - epsilon) * rho.mat + epsilon * np.kron(gamma.mat, tau.mat), (d, d)
    )
    return rho, sigma
