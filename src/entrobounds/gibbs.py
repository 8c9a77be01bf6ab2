"""Gibbs states, partition functions and energy-constrained continuity bounds.

A Hamiltonian is one of:

* explicit levels: a finite ascending list of energies with ground
  level exactly 0;
* oscillator modes, when ``hbar_omegas`` is given: ell harmonic modes,
  H = sum_i hbar omega_i n_i, with a per-mode Fock cutoff for
  matrix-form work and exact geometric closed forms (Z, mean energy)
  for the untruncated model.

The inverse temperature beta(E) solves tr e^{-beta H}(H - E) = 0 by a
safeguarded Newton iteration in log U against log beta (the mean energy
U is strictly decreasing in beta).  Entropies are in bits:
S(gamma(E)) = log2 Z + beta E log2(e), with log2 Z summed in log space
so that it stays finite at any E.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import _af_form, _unit_interval
from .entropies import LOG2_E, binary_entropy, clipped_binary, shannon_entropy
from .linalg import DENSE_DIM_LIMIT, check_dense_dim
from .states import (
    BipartiteState,
    DensityOperator,
    as_state,
    draw_state_matrices,
    partial_trace,
)

_MAX_EVALUATIONS = 100
_TINY = float(np.finfo(float).tiny)


class EnergyDomainError(ValueError):
    pass


class TruncationError(ValueError):
    pass


class HamiltonianSpec:
    """Discrete-spectrum Hamiltonian with ground energy 0: oscillator
    modes when ``hbar_omegas`` is given (with the per-mode cutoff
    ``n_max``), explicit ``levels`` otherwise.  The product levels of
    oscillator modes are enumerated on the first read of ``levels``; the
    closed forms never read them."""

    __slots__ = ("_levels", "hbar_omegas", "n_max")

    def __init__(self, levels=None, hbar_omegas=None, n_max=None):
        if (levels is None) == (hbar_omegas is None):
            raise ValueError("give either levels or hbar_omegas, not both or neither")
        self._levels = self.hbar_omegas = self.n_max = None
        if hbar_omegas is None:
            lv = np.asarray(levels, dtype=float)
            if lv.ndim != 1 or len(lv) < 1:
                raise ValueError("need a 1-D level list")
            if not np.isfinite(lv).all():
                raise ValueError("levels must be finite")
            if abs(lv[0]) > 0:
                raise ValueError("ground state energy must be exactly 0")
            if (np.diff(lv) < 0).any():
                raise ValueError("levels must be ascending")
            # beta would be ~1/level, past the largest float
            subnormal = lv[(lv > 0) & (lv < _TINY)]
            if subnormal.size:
                raise ValueError(f"level {float(subnormal[0])!r} is positive but below the "
                                 f"smallest normal float {_TINY!r}")
            self._levels = lv
        else:
            w = np.asarray(hbar_omegas, dtype=float)
            if not (np.isfinite(w) & (w > 0)).all():
                raise ValueError("mode energies must be positive and finite")
            if n_max is None:
                raise ValueError("oscillator modes need a Fock cutoff n_max")
            self.hbar_omegas, self.n_max = w, int(n_max)

    @property
    def levels(self) -> np.ndarray:
        """The level energies; for oscillator modes the product-basis
        energies, last mode minor index."""
        if self._levels is None:
            check_dense_dim(self.dim, DENSE_DIM_LIMIT ** 2)
            lv = np.zeros(1)
            for hw in self.hbar_omegas:
                lv = (lv[:, None] + hw * np.arange(self.n_max + 1)[None, :]).reshape(-1)
            self._levels = lv
        return self._levels

    @classmethod
    def explicit(cls, levels) -> "HamiltonianSpec":
        return cls(levels=levels)

    @classmethod
    def oscillators(cls, hbar_omegas, n_max: int = 64) -> "HamiltonianSpec":
        return cls(hbar_omegas=hbar_omegas, n_max=n_max)

    @property
    def dim(self) -> int:
        if self.hbar_omegas is None:
            return len(self._levels)
        return (self.n_max + 1) ** len(self.hbar_omegas)

    @property
    def n_modes(self) -> int:
        return 0 if self.hbar_omegas is None else len(self.hbar_omegas)

    def max_mean_energy(self) -> float:
        """Supremum of attainable Gibbs mean energies (beta -> 0 limit), the
        mean of the scaled levels scaled back, as their sum may overflow."""
        if self.hbar_omegas is None:
            lv, k = _scaled_levels(self)
            return math.ldexp(float(lv.mean()), k)
        return math.inf

    def __repr__(self):
        if self.hbar_omegas is None:
            return f"HamiltonianSpec(explicit_levels, dim={self.dim})"
        return f"HamiltonianSpec(oscillators={list(self.hbar_omegas)}, n_max={self.n_max})"


def log2_partition_function(hamiltonian: HamiltonianSpec, beta: float) -> float:
    """log2 Z(beta), Z = tr e^{-beta H}: the log of the explicit sum
    (at least 1 and at most the level count, as the ground level is 0),
    or for (untruncated) oscillator modes the exact geometric form
    -sum_i log2(1 - e^{-x_i}), x_i = beta hbar omega_i, with 1 - e^{-x}
    from expm1.  It is finite wherever beta is, where Z itself would
    overflow past 1.8e308."""
    if beta <= 0:
        raise EnergyDomainError(f"beta must be positive, got {beta!r}")
    if hamiltonian.hbar_omegas is None:
        return math.log2(float(np.exp(-beta * hamiltonian.levels).sum()))
    # 0.0 - s, not -s: no -0.0 where every 1 - e^{-x_i} rounds to 1
    return 0.0 - float(np.log2(-np.expm1(-beta * hamiltonian.hbar_omegas)).sum())


def truncation_tail(hamiltonian: HamiltonianSpec, beta: float) -> float:
    """Relative Gibbs mass lost to the per-mode Fock cutoff,
    1 - prod_i (1 - q_i^{N+1}), taken as -expm1(sum_i log1p(-q_i^{N+1}))
    so that a tail far below 1 ulp of 1 keeps its digits."""
    if hamiltonian.hbar_omegas is None:
        return 0.0
    q = np.exp(-beta * hamiltonian.hbar_omegas)
    return float(-np.expm1(np.log1p(-q ** (hamiltonian.n_max + 1)).sum()))


def _scaled_levels(hamiltonian: HamiltonianSpec) -> tuple[np.ndarray, int]:
    """(levels 2^-k, k) with the largest scaled level in [1/2, 1): a power of
    two, so exact, and the squares of the scaled levels neither overflow nor
    underflow where those of levels near 1e300 or 1e-300 would."""
    k = math.frexp(hamiltonian.levels[-1])[1]
    return np.ldexp(hamiltonian.levels, -k), k


def _energy_and_slope(hamiltonian: HamiltonianSpec, beta: float) -> tuple[float, float]:
    """(U(beta), beta dU/dbeta).  Explicit levels: the Gibbs mean of the
    levels and -beta times their Gibbs variance, both summed over the
    scaled levels.  Oscillator modes:
    U = sum_i n_i with n_i = hbar omega_i / expm1(x_i), x_i = beta hbar
    omega_i, and beta dU/dbeta = -beta sum_i n_i (n_i + hbar omega_i),
    taken as -sum_i n_i x_i / (1 - e^{-x_i}) so that no term overflows."""
    if hamiltonian.hbar_omegas is None:
        lv, k = _scaled_levels(hamiltonian)
        w = np.exp(-beta * hamiltonian.levels)
        z = w.sum()
        u = float((lv * w).sum() / z)
        var = float((w * (lv - u) ** 2).sum() / z)  # the variance times 2^-2k
        # 2^2k as 2^k on either side of beta, so that no product leaves the floats
        return math.ldexp(u, k), math.ldexp(-beta * math.ldexp(var, k), k)
    hw = hamiltonian.hbar_omegas
    x = beta * hw
    with np.errstate(over="ignore"):
        n = hw / np.expm1(x)
    return float(n.sum()), float((n * x / np.expm1(-x)).sum())


def mean_energy(hamiltonian: HamiltonianSpec, beta: float) -> float:
    if beta <= 0:
        raise EnergyDomainError(f"beta must be positive, got {beta!r}")
    return _energy_and_slope(hamiltonian, beta)[0]


@dataclass(frozen=True)
class GibbsSolution:
    hamiltonian: HamiltonianSpec
    beta: float
    log2_partition: float  # log2 Z(beta)
    energy: float
    entropy: float  # bits
    residual: float  # U(beta) - energy, as the solver left it

    def diagonal_probabilities(self) -> np.ndarray:
        """Gibbs weights on the (truncated) level basis, normalized by the
        exact partition function: exp(-beta E_n - ln Z), ln Z = log2 Z /
        log2 e.  They sum to 1 minus the truncation tail."""
        return np.exp(-self.beta * self.hamiltonian.levels - self.log2_partition / LOG2_E)

    def state(self) -> DensityOperator:
        p = self.diagonal_probabilities()
        tail = 1.0 - p.sum()
        if tail > 1e-9:
            raise TruncationError(f"truncation tail {tail:.3e} exceeds 1e-9")
        return DensityOperator.diagonal(p / p.sum())


def _start_beta(hamiltonian: HamiltonianSpec, energy: float) -> float:
    """A first beta from the closed-form inverse of one mode of the lowest
    gap g, beta = log1p(ell g / E)/g: exact for ell identical oscillator
    modes.  For explicit levels the argument ell g / E is scaled by
    e_max (e_max - E) / Var_0 instead, with e_max and Var_0 the mean and
    variance of the levels (the beta -> 0 limit), so that the start also
    meets beta ~ (e_max - E)/Var_0 as E -> e_max; it is exact for two
    levels.  e_max and Var_0 are taken of the scaled levels.  The argument
    is capped at the largest float, where a subnormal E would overflow it."""
    if hamiltonian.hbar_omegas is not None:
        g = float(hamiltonian.hbar_omegas.min())
        ratio = hamiltonian.n_modes * g / energy
    else:
        lv, k = _scaled_levels(hamiltonian)
        g = float(hamiltonian.levels[lv > 0][0])
        e_max = float(lv.mean())
        ratio = g * e_max * (e_max - math.ldexp(energy, -k)) / float(lv.var()) / energy
    return min(math.log1p(min(ratio, sys.float_info.max)) / g, sys.float_info.max)


def solve_beta(hamiltonian: HamiltonianSpec, energy: float) -> GibbsSolution:
    """Solve tr e^{-beta H}(H - E) = 0 by safeguarded Newton.

    Newton runs on log U against log beta, from ``_start_beta``.  The sign
    of U - E keeps a bracket on beta; a Newton step that leaves it (or is
    not finite) is replaced by the bracket's geometric midpoint, or, while
    the bracket is open on that side, by a factor e^j, j = 1, 2, 4, ...
    The iteration stops when |U(beta) - E| is within 8 ulp(E) times the
    condition number max(1, |d log U / d log beta|), the rounding that U
    itself carries, or when the bracket or the step collapses; the beta of
    the smallest residual seen is returned with that residual U(beta) - E.
    A solve that stops in none of these ways within ``_MAX_EVALUATIONS``
    raises ``EnergyDomainError``.
    """
    e_max = hamiltonian.max_mean_energy()
    if not 0.0 < energy < e_max:
        raise EnergyDomainError(
            f"energy {energy!r} outside the attainable open interval (0, {e_max!r})"
        )
    ulp = math.ulp(energy)
    lo, hi = 0.0, math.inf  # beta where U > E, where U < E
    b, jump = _start_beta(hamiltonian, energy), 1.0
    beta, residual = math.nan, math.inf
    for _ in range(_MAX_EVALUATIONS):
        u, slope = _energy_and_slope(hamiltonian, b)
        r = u - energy
        if abs(r) < abs(residual):
            beta, residual = b, r
        dlog = slope / u if u > 0 else 0.0  # d log U / d log beta
        if abs(r) <= 8.0 * ulp * max(1.0, -dlog):
            break
        if r > 0:
            lo = b
        else:
            hi = b
        # Newton on log U, where U has not rounded to 0 against E
        step = -math.log1p(r / energy) / dlog if dlog < 0 and r > -energy else math.nan
        nxt = b * math.exp(min(step, 709.0))
        if nxt == b:
            break
        if not lo < nxt < hi:
            if lo > 0.0 and hi < math.inf:
                nxt = lo * math.sqrt(hi / lo)
                if nxt in (lo, hi):
                    break
            else:
                # a factor e^jump, the jump doubling, clamped to the positive floats
                nxt = b * math.exp(jump) if r > 0 else b / math.exp(jump)
                nxt, jump = min(max(nxt, math.ulp(0.0)), sys.float_info.max), min(2.0 * jump, 709.0)
        b = nxt
    else:
        raise EnergyDomainError(f"energy {energy!r}: beta not found in {_MAX_EVALUATIONS} "
                                f"evaluations (U - E = {residual!r} at beta = {beta!r})")
    if not 0.0 < beta < math.inf:
        raise EnergyDomainError(
            f"energy {energy!r} not attainable (beta -> {'0' if beta == 0.0 else 'inf'})")
    log2_z = log2_partition_function(hamiltonian, beta)
    entropy = log2_z + beta * energy * LOG2_E
    return GibbsSolution(hamiltonian=hamiltonian, beta=beta, log2_partition=log2_z,
                         energy=energy, entropy=entropy, residual=residual)


def _mode_entropy(x: float, n_max: int) -> float:
    """Entropy of the geometric weights (1-q) q^n, q = e^{-x}: their
    Shannon sum to n_max plus the exact entropy of the tail n > n_max.
    1 - q is expm1(-x) and log2 q is -x log2 e, so no digit is lost to
    1 - q at small x."""
    q, one_minus_q = math.exp(-x), -math.expm1(-x)
    body = shannon_entropy(one_minus_q * q ** np.arange(n_max + 1))
    tail = q ** (n_max + 1)
    if tail == 0.0:  # x = inf included, where the bracket is infinite
        return body
    return body - tail * (math.log2(one_minus_q) - (n_max + 1 + q / one_minus_q) * x * LOG2_E)


def entropy_check(sol: GibbsSolution) -> tuple[float, float]:
    """(S_direct, gap): the entropy of the Gibbs weights summed directly,
    and its distance |S_formula - S_direct| from the closed-form entropy
    ``sol.entropy`` plus the solver's share beta |U(beta) - E| log2 e (the
    formula takes E where the weights have mean energy U(beta)).  Explicit
    levels sum their weights; oscillator modes are independent, so their
    entropies add, each summed to its cutoff with its geometric tail added
    exactly."""
    h = sol.hamiltonian
    if h.hbar_omegas is None:
        direct = shannon_entropy(sol.diagonal_probabilities())
    else:
        direct = sum(_mode_entropy(float(sol.beta * hw), h.n_max) for hw in h.hbar_omegas)
    return direct, abs(sol.entropy - direct) + sol.beta * abs(sol.residual) * LOG2_E


def gibbs_entropy(hamiltonian: HamiltonianSpec, energy: float) -> float:
    """S(gamma(E)) in bits."""
    return solve_beta(hamiltonian, energy).entropy


def oscillator_entropy_upper(hbar_omegas, energy: float) -> float:
    """Closed-form upper bound on the ell-mode Gibbs entropy at total
    energy E, obtained by splitting the energy equally among the modes:
    ell log2(e) + sum_i log2(E/(ell hbar omega_i) + 1)."""
    if energy <= 0:
        raise EnergyDomainError(f"energy must be positive, got {energy!r}")
    hw = np.asarray(hbar_omegas, dtype=float)
    n_modes = len(hw)
    e_bar = energy / n_modes
    return n_modes * LOG2_E + float(np.log2(e_bar / hw + 1.0).sum())


# -- energy-constrained continuity bounds ------------------------------------


def meta_delta(epsilon: float, epsilon_prime: float) -> float:
    """delta = (eps' - eps)/(1 + eps') of the two-parameter bounds."""
    if not 0.0 <= epsilon < epsilon_prime <= 1.0:
        raise ValueError(f"need 0 <= eps < eps' <= 1, got ({epsilon!r}, {epsilon_prime!r})")
    return (epsilon_prime - epsilon) / (1.0 + epsilon_prime)


def lemma4_bound(hamiltonian: HamiltonianSpec, energy: float, epsilon: float) -> float:
    """Entropy continuity: 2 eps S(gamma(E/eps)) + h(eps)."""
    _unit_interval(epsilon)
    if epsilon == 0.0:
        return 0.0
    return 2.0 * epsilon * gibbs_entropy(hamiltonian, energy / epsilon) + binary_entropy(epsilon)


def meta5_bound(hamiltonian: HamiltonianSpec, energy: float,
                epsilon: float, epsilon_prime: float) -> float:
    """(eps' + 2 delta) S(gamma(E/delta)) + h(eps') + h(delta),
    delta = (eps' - eps)/(1 + eps')."""
    d = meta_delta(epsilon, epsilon_prime)
    return ((epsilon_prime + 2.0 * d) * gibbs_entropy(hamiltonian, energy / d)
            + binary_entropy(epsilon_prime) + binary_entropy(d))


def meta6_bound(hamiltonian: HamiltonianSpec, energy: float,
                epsilon: float, epsilon_prime: float) -> float:
    """Conditional-entropy analogue:
    (2 eps' + 4 delta) S(gamma(E/delta)) + (1+eps') h(eps'/(1+eps')) + 2 h(delta)."""
    d = meta_delta(epsilon, epsilon_prime)
    return ((2.0 * epsilon_prime + 4.0 * d) * gibbs_entropy(hamiltonian, energy / d)
            + _af_form(epsilon_prime, 0.0)
            + 2.0 * binary_entropy(d))


def lemma7_bounds(hbar_omegas, energy: float, epsilon: float, alpha: float):
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
    n_modes = len(hw)
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


def _energy_of(mat: np.ndarray, levels: np.ndarray, d_b: int) -> float:
    diag = np.real(np.diag(mat)).reshape(len(levels), d_b).sum(axis=1)
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
    state = as_state(state)
    levels = hamiltonian.levels
    bipartite = isinstance(state, BipartiteState)
    d_a, d_b = state.dims if bipartite else (state.dim, 1)
    if d_a != len(levels):
        raise ValueError(f"dimension mismatch: {d_a} vs {len(levels)} levels")
    e_state = _energy_of(state.mat, levels, d_b)
    if e_state > energy + 1e-9 * max(energy, 1.0):
        raise EnergyDomainError(
            f"state energy {e_state!r} exceeds the constraint {energy!r}"
        )
    cutoff = energy / delta
    # P rho P and Q rho Q for the diagonal 0/1 projector P and Q = 1 - P
    below = np.repeat(levels <= cutoff, d_b)
    low = np.where(np.outer(below, below), state.mat, 0.0)
    high = np.where(np.outer(~below, ~below), state.mat, 0.0)
    lam = min(max(float(np.real(np.trace(high))), 0.0), 1.0)
    # each part is P rho P or Q rho Q, PSD by construction
    make = (lambda m: BipartiteState._built(m, state.dims)) if bipartite else DensityOperator._built
    state_le = make(low / (1.0 - lam)) if lam < 1.0 - 1e-12 else None
    state_gt = make(high / lam) if lam > 1e-12 else None
    if state_le is None:
        lam = 1.0
    if state_gt is None:
        lam = 0.0
    return CutoffDecomposition(
        cutoff=cutoff,
        weight_gt=lam,
        state_le=state_le,
        state_gt=state_gt,
        mean_energy=e_state,
    )


def truncated_trace_distance_bound(epsilon: float, delta: float) -> float:
    """(eps + delta)/(1 - delta): the bound on the trace distance between
    the renormalized below-cutoff components."""
    return (epsilon + delta) / (1.0 - delta)


# -- sampling and witnesses ----------------------------------------------------


def draw_energy_block(hamiltonian: HamiltonianSpec, energy: float, rngs,
                      d_b: int | None = None):
    """The draw of ``sample_energy_constrained``, one from each generator of
    ``rngs`` in turn: ``(rows, dim, blocks)``, the k d_b rows of the k levels
    at or below E in the padded space, that space's dimension and the
    unvalidated full-rank states on those rows (len(rngs), k d_b, k d_b)."""
    levels = hamiltonian.levels
    idx = np.where(levels <= energy)[0]
    if len(idx) == 0:
        raise EnergyDomainError(f"no levels at or below energy {energy!r}")
    d = 1 if d_b is None else d_b
    check_dense_dim(len(levels) * d)
    rows = (idx[:, None] * d + np.arange(d)).ravel()
    return rows, len(levels) * d, draw_state_matrices(len(rows), len(rows), rngs)


def sample_energy_constrained(hamiltonian: HamiltonianSpec, energy: float,
                              d_b: int | None = None, rng=None):
    """Random state supported on levels with E_n <= E (hence mean energy
    <= E), optionally extended by an unconstrained, entangled B factor
    under the global Hamiltonian H (x) 1.

    A full-rank state is sampled on the k d_b rows of the k levels at or
    below E (``draw_energy_block``) and held as the one block of the level
    space (``HermitianOperator.embedded``), which is never decomposed."""
    rows, dim, blocks = draw_energy_block(hamiltonian, energy, [rng], d_b)
    small = DensityOperator(blocks[0])
    if d_b is None:
        return DensityOperator.embedded(rows, small, dim)
    return BipartiteState.embedded(rows, small, dim, (dim // d_b, d_b))


def _single_mode_truncation(energy: float, tail: float) -> int:
    """Smallest Fock cutoff with geometric tail below ``tail`` for the
    single-mode (hbar omega = 1) thermal state of mean occupation E."""
    # log q = log(E/(E+1)), taken as -log1p(1/E): E/(E+1) rounds to 1 from E ~ 1e16
    return max(2, int(math.ceil(math.log(tail) / -math.log1p(1.0 / energy))))


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
    if not 0.0 < energy < math.inf:
        raise EnergyDomainError(f"energy must be positive and finite, got {energy!r}")
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
    rho = BipartiteState.pure(gamma.sqrt().mat.reshape(-1), (d, d))  # (sqrt(gamma) (x) 1)|Phi>
    tau = partial_trace(rho, "B")
    sigma = BipartiteState(
        (1.0 - epsilon) * rho.mat + epsilon * np.kron(gamma.mat, tau.mat), (d, d)
    )
    return rho, sigma
