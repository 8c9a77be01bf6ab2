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

The layer works on stacks of energies.  ``solve_betas`` runs the
iteration in lockstep over a vector of energies: one evaluation of
U(beta) for all live energies at a time, each energy leaving the live set
when it stops, and each taking exactly the iterates it would take alone
(``math.log1p``, ``math.exp`` and ``math.ulp`` are applied element by
element, as the scalar iteration applies them).  An energy without a
solution keeps its own ``EnergyDomainError`` in the returned
``GibbsSolutions`` and fails none of the others.  ``entropy_checks`` (over
an (n, n_max+1) weight stack per mode) and ``energy_bound_stack`` (Lemma
4, Meta 5 and Meta 6 as rows of one solve, at one energy or one per row,
whose binary entropies come from one ``entropies.binary_entropies`` call)
read those stacks.  Each kernel has at most one scalar name per
statement, which calls it directly with a stack of one and keeps its
bits: ``solve_beta`` (of which ``gibbs_entropy`` reads the entropy),
``mean_energy``, ``log2_partition_function``, and ``lemma4_bound``,
``meta5_bound`` and ``meta6_bound`` of ``energy_bound_stack``.
``check_oscillator_witnesses`` checks the entropy witness at one energy
for a whole eps grid: one solve for gamma(E), the sigma rows as one
stack and one ``energy_bound_stack`` call of Lemma 4 rows.

The oscillator closed forms that split the energy equally among the
modes (``oscillator_entropy_upper``, ``lemma7_bounds``) and
``HamiltonianSpec`` read their mode energies through one rule: at least
one mode, each positive and finite.  An energy and a beta have one rule,
``_positive_finite``, and NaN and inf fail it: every energy that enters
the bounds, the draws, the cutoff or the witnesses meets it before any
draw or solve, so a bad E raises its error, naming the E given.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import BoundBlock, _objects, _unit_interval, _witness_epsilons
from .entropies import LOG2_E, binary_entropies, clipped_binary, von_neumann_entropies
from .linalg import DENSE_DIM_LIMIT, HermitianOperator, check_dense_dim
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
            w = _mode_energies(hbar_omegas)
            if n_max is None:
                raise ValueError("oscillator modes need a Fock cutoff n_max")
            try:
                if isinstance(n_max, bool):  # True would be the cutoff 1
                    raise TypeError
                n_max = operator.index(n_max)  # int() would truncate 2.7 to 2
            except TypeError:
                raise ValueError(f"Fock cutoff n_max must be an integer, got {n_max!r}") from None
            if n_max < 0:
                raise ValueError(f"Fock cutoff n_max must be >= 0, got {n_max!r}")
            self.hbar_omegas, self.n_max = w, n_max

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
        return f"HamiltonianSpec(oscillators={self.hbar_omegas.tolist()}, n_max={self.n_max})"


def _mode_energies(hbar_omegas) -> np.ndarray:
    """The mode energies hbar omega_i as a float vector: at least one, each
    positive and finite."""
    w = np.asarray(hbar_omegas, dtype=float)
    if w.ndim != 1 or not len(w):
        raise ValueError(f"need a 1-D list of at least one mode energy, got {hbar_omegas!r}")
    if not (np.isfinite(w) & (w > 0)).all():
        raise ValueError(f"mode energies must be positive and finite, got {w.tolist()!r}")
    return w


def _positive_finite(name: str, x: float) -> None:
    """The rule of an energy and of a beta: ``EnergyDomainError`` unless
    0 < x < inf (NaN fails), naming x as a float (``-1`` as ``-1.0``)."""
    if not 0.0 < x < math.inf:
        raise EnergyDomainError(f"{name} must be positive and finite, got {float(x)!r}")


def _equal_split(hbar_omegas, energy: float) -> tuple[int, float]:
    """(ell, sum_i log2(E/(ell hbar omega_i) + 1)): the energy E split
    equally among the ell modes, as the oscillator closed forms take it."""
    hw = _mode_energies(hbar_omegas)
    _positive_finite("energy", energy)
    n_modes = len(hw)
    e_bar = energy / n_modes
    return n_modes, float(np.log2(e_bar / hw + 1.0).sum())


def log2_partition_function(hamiltonian: HamiltonianSpec, beta: float) -> float:
    """log2 Z(beta), Z = tr e^{-beta H}: the log of the explicit sum
    (at least 1 and at most the level count, as the ground level is 0),
    or for (untruncated) oscillator modes the exact geometric form
    -sum_i log2(1 - e^{-x_i}), x_i = beta hbar omega_i, with 1 - e^{-x}
    from expm1.  It is finite wherever beta is, where Z itself would
    overflow past 1.8e308.  The stack of one of ``_log2_partitions``."""
    _positive_finite("beta", beta)
    return float(_log2_partitions(hamiltonian, np.array([beta]))[0])


def _log2_partitions(hamiltonian: HamiltonianSpec, betas: np.ndarray) -> np.ndarray:
    """log2 Z at each (positive) beta of a stack."""
    if hamiltonian.hbar_omegas is None:
        sums = np.exp(-betas[:, None] * hamiltonian.levels).sum(axis=1)
        return np.array([math.log2(s) for s in sums.tolist()], dtype=float)
    # 0.0 - s, not -s: no -0.0 where every 1 - e^{-x_i} rounds to 1
    x = betas[:, None] * hamiltonian.hbar_omegas
    return 0.0 - np.log2(-np.expm1(-x)).sum(axis=1)


def truncation_tail(hamiltonian: HamiltonianSpec, beta: float) -> float:
    """Relative Gibbs mass lost to the per-mode Fock cutoff,
    1 - prod_i (1 - q_i^{N+1}), taken as -expm1(sum_i log1p(-q_i^{N+1}))
    so that a tail far below 1 ulp of 1 keeps its digits; its limit 1
    where some q_i rounds to 1."""
    _positive_finite("beta", beta)
    if hamiltonian.hbar_omegas is None:
        return 0.0
    q = np.exp(-beta * hamiltonian.hbar_omegas)
    with np.errstate(divide="ignore"):  # log1p(-1) is -inf, and -expm1(-inf) is 1
        return float(-np.expm1(np.log1p(-q ** (hamiltonian.n_max + 1)).sum()))


def _scaled_levels(hamiltonian: HamiltonianSpec) -> tuple[np.ndarray, int]:
    """(levels 2^-k, k) with the largest scaled level in [1/2, 1): a power of
    two, so exact, and the squares of the scaled levels neither overflow nor
    underflow where those of levels near 1e300 or 1e-300 would."""
    k = math.frexp(hamiltonian.levels[-1])[1]
    return np.ldexp(hamiltonian.levels, -k), k


def _energies_and_slopes(hamiltonian: HamiltonianSpec,
                         betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U(beta), beta dU/dbeta) at each beta of a stack.  Explicit levels:
    the Gibbs mean of the levels and -beta times their Gibbs variance,
    both summed over the scaled levels.  Oscillator modes:
    U = sum_i n_i with n_i = hbar omega_i / expm1(x_i), x_i = beta hbar
    omega_i, and beta dU/dbeta = -beta sum_i n_i (n_i + hbar omega_i),
    taken as -sum_i n_i x_i / (1 - e^{-x_i}) so that no term overflows.
    Each beta's row is summed as its own vector would be, so each value
    has the bits of a stack of one."""
    if hamiltonian.hbar_omegas is None:
        lv, k = _scaled_levels(hamiltonian)
        w = np.exp(-betas[:, None] * hamiltonian.levels)
        z = w.sum(axis=1)
        u = (lv * w).sum(axis=1) / z
        var = (w * (lv - u[:, None]) ** 2).sum(axis=1) / z  # the variances times 2^-2k
        # 2^2k as 2^k on either side of beta, so that no product leaves the floats
        scaled = [math.ldexp(-b * math.ldexp(v, k), k)
                  for b, v in zip(betas.tolist(), var.tolist())]
        return np.array([math.ldexp(x, k) for x in u.tolist()]), np.array(scaled)
    hw = hamiltonian.hbar_omegas
    x = betas[:, None] * hw
    with np.errstate(over="ignore"):
        n = hw / np.expm1(x)
    return n.sum(axis=1), (n * x / np.expm1(-x)).sum(axis=1)


def mean_energy(hamiltonian: HamiltonianSpec, beta: float) -> float:
    _positive_finite("beta", beta)
    return float(_energies_and_slopes(hamiltonian, np.array([beta]))[0][0])


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

    def checked_probabilities(self) -> np.ndarray:
        """``diagonal_probabilities``, once their missing mass 1 - sum p is
        at most 1e-9; a ``TruncationError`` otherwise."""
        p = self.diagonal_probabilities()
        tail = 1.0 - p.sum()
        if tail > 1e-9:
            raise TruncationError(f"truncation tail {tail:.3e} exceeds 1e-9")
        return p

    def state(self) -> DensityOperator:
        p = self.checked_probabilities()
        return DensityOperator.diagonal(p / p.sum())


def _start_betas(hamiltonian: HamiltonianSpec, energies: np.ndarray) -> np.ndarray:
    """A first beta for each energy from the closed-form inverse of one mode
    of the lowest gap g, beta = log1p(ell g / E)/g: exact for ell identical
    oscillator modes.  For explicit levels the argument ell g / E is scaled
    by e_max (e_max - E) / Var_0 instead, with e_max and Var_0 the mean and
    variance of the levels (the beta -> 0 limit), so that the start also
    meets beta ~ (e_max - E)/Var_0 as E -> e_max; it is exact for two
    levels.  e_max and Var_0 are taken of the scaled levels.  The argument
    is capped at the largest float, where a subnormal E would overflow it."""
    with np.errstate(over="ignore"):
        if hamiltonian.hbar_omegas is not None:
            g = float(hamiltonian.hbar_omegas.min())
            ratio = hamiltonian.n_modes * g / energies
        else:
            lv, k = _scaled_levels(hamiltonian)
            g = float(hamiltonian.levels[lv > 0][0])
            e_max = float(lv.mean())
            ratio = g * e_max * (e_max - np.ldexp(energies, -k)) / float(lv.var()) / energies
    logs = [math.log1p(r) for r in np.minimum(ratio, sys.float_info.max).tolist()]
    return np.minimum(np.array(logs) / g, sys.float_info.max)


def _beta_iterates(hamiltonian: HamiltonianSpec, energies: np.ndarray):
    """The safeguarded Newton iteration of ``solve_betas`` over the stack
    ``energies``, each inside the attainable interval: the beta of each
    energy's smallest residual seen, that residual, and the positions of
    the energies that did not stop within ``_MAX_EVALUATIONS``
    evaluations.  The energies run in lockstep, one evaluation of the live
    ones at a time, and each leaves the live set when it stops; every
    element takes the iterates of its own scalar iteration, with
    ``math.log1p``, ``math.exp`` and ``math.ulp`` applied to it as to a
    float."""
    n = len(energies)
    beta, residual = np.full(n, math.nan), np.full(n, math.inf)
    live = np.arange(n)  # the positions still iterating
    if not n:
        return beta, residual, live
    # a row each of the live energies' E, ulp(E), bracket on beta (lo where
    # U > E, hi where U < E), beta and jump
    state = np.array([energies, [math.ulp(x) for x in energies.tolist()], np.zeros(n),
                      np.full(n, math.inf), _start_betas(hamiltonian, energies), np.ones(n)])
    for _ in range(_MAX_EVALUATIONS):
        e, ulp, lo, hi, b, jump = state
        u, slope = _energies_and_slopes(hamiltonian, b)
        with np.errstate(all="ignore"):  # the rest is float arithmetic, which never warns
            r = u - e
            better = np.abs(r) < np.abs(residual[live])
            smallest = live[better]
            beta[smallest], residual[smallest] = b[better], r[better]
            dlog = np.where(u > 0, slope / u, 0.0)  # d log U / d log beta
            # fmax: a NaN -dlog counts as 1, as max(1.0, nan) does
            going = ~(np.abs(r) <= 8.0 * ulp * np.fmax(1.0, -dlog))
            if not going.all():
                live, state, r, dlog = live[going], state[:, going], r[going], dlog[going]
                if not live.size:
                    break
                e, ulp, lo, hi, b, jump = state
            above = r > 0
            np.copyto(lo, b, where=above)
            np.copyto(hi, b, where=~above)
            # Newton on log U, where U has not rounded to 0 against E
            newton = (dlog < 0) & (r > -e)
            step = np.full(len(b), math.nan)
            step[newton] = -np.array([math.log1p(x) for x in (r[newton] / e[newton]).tolist()],
                                     dtype=float) / dlog[newton]
            nxt = b * np.array([math.exp(s) for s in np.minimum(step, 709.0).tolist()])
            going = nxt != b
            outside = ~((lo < nxt) & (nxt < hi))
            if outside.any():
                closed = outside & (lo > 0.0) & (hi < math.inf)
                mid = lo * np.sqrt(hi / lo)
                going &= ~(closed & ((mid == lo) | (mid == hi)))
                np.copyto(nxt, mid, where=closed)
                # a factor e^jump, the jump doubling, clamped to the positive floats
                opened = outside & ~closed
                factor = np.array([math.exp(j) for j in jump[opened].tolist()], dtype=float)
                jumped = np.where(above[opened], b[opened] * factor, b[opened] / factor)
                nxt[opened] = np.minimum(np.maximum(jumped, math.ulp(0.0)), sys.float_info.max)
                jump[opened] = np.minimum(2.0 * jump[opened], 709.0)
            b[:] = nxt
            if not going.all():
                live, state = live[going], state[:, going]
        if not live.size:
            break
    return beta, residual, live


class GibbsSolutions(NamedTuple):
    """The solutions of ``solve_betas`` at a stack of energies on one
    Hamiltonian: per energy its beta, log2 Z(beta), entropy (bits) and
    residual U(beta) - E, NaN where it has none, and its
    ``EnergyDomainError``, None where it was solved."""

    hamiltonian: HamiltonianSpec
    energies: list
    beta: np.ndarray
    log2_partition: np.ndarray
    entropy: np.ndarray
    residual: np.ndarray
    errors: list

    def solution(self, i: int) -> GibbsSolution:
        """Entry ``i`` as a ``GibbsSolution``; raises its error if it has one."""
        if self.errors[i] is not None:
            raise self.errors[i]
        return GibbsSolution(hamiltonian=self.hamiltonian, beta=float(self.beta[i]),
                             log2_partition=float(self.log2_partition[i]),
                             energy=self.energies[i], entropy=float(self.entropy[i]),
                             residual=float(self.residual[i]))


def solve_betas(hamiltonian: HamiltonianSpec, energies) -> GibbsSolutions:
    """Solve tr e^{-beta H}(H - E) = 0 at each energy of a stack by
    safeguarded Newton, the energies in lockstep.

    Newton runs on log U against log beta, from ``_start_betas``.  The
    sign of U - E keeps a bracket on beta; a Newton step that leaves it (or
    is not finite) is replaced by the bracket's geometric midpoint, or,
    while the bracket is open on that side, by a factor e^j, j = 1, 2, 4,
    ...  An energy stops when |U(beta) - E| is within 8 ulp(E) times the
    condition number max(1, |d log U / d log beta|), the rounding that U
    itself carries, or when its bracket or step collapses; its solution
    has the beta of the smallest residual seen, with that residual
    U(beta) - E.  Each energy takes the iterates it would take alone
    (``_beta_iterates``), so ``solve_beta`` is the stack of one.

    An energy outside the attainable open interval, a solve that stops in
    none of these ways within ``_MAX_EVALUATIONS`` evaluations and a beta
    that ran to 0 or infinity each get their ``EnergyDomainError`` in
    ``errors``, not raised, so that an energy without a solution does not
    fail the others."""
    energies = energies.tolist() if isinstance(energies, np.ndarray) else list(energies)
    e_max = hamiltonian.max_mean_energy()
    e = np.array(energies, dtype=float)
    errors = [None] * len(energies)
    attainable = (0.0 < e) & (e < e_max)
    for i in np.flatnonzero(~attainable).tolist():
        errors[i] = EnergyDomainError(f"energy {energies[i]!r} outside the attainable "
                                      f"open interval (0, {e_max!r})")
    inside = np.flatnonzero(attainable)
    beta, residual, unstopped = _beta_iterates(hamiltonian, e[inside])
    stopped = np.ones(len(inside), dtype=bool)
    stopped[unstopped] = False
    found = stopped & (0.0 < beta) & (beta < math.inf)
    if not found.all():
        for i, b, r, ok in zip(inside[~found].tolist(), beta[~found].tolist(),
                               residual[~found].tolist(), stopped[~found].tolist()):
            errors[i] = EnergyDomainError(
                f"energy {energies[i]!r}: beta not found in {_MAX_EVALUATIONS} evaluations "
                f"(U - E = {r!r} at beta = {b!r})" if not ok else
                f"energy {energies[i]!r} not attainable (beta -> {'0' if b == 0.0 else 'inf'})")
    fields = np.full((4, len(energies)), math.nan)
    solved, beta = inside[found], beta[found]
    log2_z = _log2_partitions(hamiltonian, beta)
    fields[:, solved] = beta, log2_z, log2_z + beta * e[solved] * LOG2_E, residual[found]
    return GibbsSolutions(hamiltonian, energies, *fields, errors)


def solve_beta(hamiltonian: HamiltonianSpec, energy: float) -> GibbsSolution:
    """beta(E) by the safeguarded Newton iteration of ``solve_betas``, of
    which it is the stack of one; raises its ``EnergyDomainError``."""
    return solve_betas(hamiltonian, [energy]).solution(0)


def _mode_entropies(x: np.ndarray, n_max: int) -> np.ndarray:
    """Entropy of the geometric weights (1-q) q^n, q = e^{-x}, at each x of
    a stack: their Shannon sum to n_max (one row of an (n, n_max+1) weight
    stack each) plus the exact entropy of the tail n > n_max.  1 - q is
    expm1(-x) and log2 q is -x log2 e, so no digit is lost to 1 - q at
    small x."""
    xs = x.tolist()
    q = np.array([math.exp(-v) for v in xs])
    one_minus_q = -np.array([math.expm1(-v) for v in xs])
    body = von_neumann_entropies(one_minus_q[:, None] * q[:, None] ** np.arange(n_max + 1))
    tail = np.array([v ** (n_max + 1) for v in q.tolist()])
    t = tail != 0.0  # x = inf included, where the bracket is infinite
    log2_rest = np.array([math.log2(v) for v in one_minus_q[t].tolist()], dtype=float)
    body[t] -= tail[t] * (log2_rest - (n_max + 1 + q[t] / one_minus_q[t]) * x[t] * LOG2_E)
    return body


def entropy_checks(solutions: GibbsSolutions) -> tuple[np.ndarray, np.ndarray]:
    """(S_direct, gap) of each solution of a stack, NaN where it has none:
    the entropy of the Gibbs weights summed directly, and its distance
    |S_formula - S_direct| from the closed-form entropy plus the solver's
    share beta |U(beta) - E| log2 e (the formula takes E where the weights
    have mean energy U(beta)).  Explicit levels sum their weights, one row
    of an (n, dim) weight stack each; oscillator modes are independent, so
    their entropies add, each summed to its cutoff (one (n, n_max+1) weight
    stack per mode) with its geometric tail added exactly."""
    h = solutions.hamiltonian
    ok = np.array([err is None for err in solutions.errors], dtype=bool)
    beta, log2_z, entropy, residual = (x[ok] for x in (
        solutions.beta, solutions.log2_partition, solutions.entropy, solutions.residual))
    if h.hbar_omegas is None:
        direct = von_neumann_entropies(
            np.exp(-beta[:, None] * h.levels - (log2_z / LOG2_E)[:, None]))
    else:
        direct = np.zeros(len(beta))
        for hw in h.hbar_omegas:
            direct += _mode_entropies(beta * hw, h.n_max)
    out = np.full((2, len(ok)), math.nan)
    out[:, ok] = direct, np.abs(entropy - direct) + beta * np.abs(residual) * LOG2_E
    return out[0], out[1]


def gibbs_entropy(hamiltonian: HamiltonianSpec, energy: float) -> float:
    """S(gamma(E)) in bits, the entropy of ``solve_beta``."""
    return solve_beta(hamiltonian, energy).entropy


def oscillator_entropy_upper(hbar_omegas, energy: float) -> float:
    """Closed-form upper bound on the ell-mode Gibbs entropy at total
    energy E, obtained by splitting the energy equally among the modes:
    ell log2(e) + sum_i log2(E/(ell hbar omega_i) + 1)."""
    n_modes, split = _equal_split(hbar_omegas, energy)
    return n_modes * LOG2_E + split


# -- energy-constrained continuity bounds ------------------------------------


def meta_delta(epsilon: float, epsilon_prime: float) -> float:
    """delta = (eps' - eps)/(1 + eps') of the two-parameter bounds."""
    if not 0.0 <= epsilon < epsilon_prime <= 1.0:
        raise ValueError(f"need 0 <= eps < eps' <= 1, got ({epsilon!r}, {epsilon_prime!r})")
    return (epsilon_prime - epsilon) / (1.0 + epsilon_prime)


def energy_bound_stack(hamiltonian: HamiltonianSpec, variants, energy, epsilons,
                       epsilon_primes) -> np.ndarray:
    """The rhs of each row: Lemma 4, Meta 5 or Meta 6 as its variant
    (``lemma4``, ``meta5``, ``meta6``) names it, at the row's eps, eps' and
    E, each bit for bit its scalar form.  The arguments broadcast against
    each other, so ``energy`` is one E or one per row; a Lemma 4 row does
    not read its eps' (None reads as NaN).  The Gibbs entropies
    S(gamma(E/eps)) and S(gamma(E/delta)) come from one ``solve_betas``
    call and the binary entropies from one ``binary_entropies`` call.

    The rows are walked in order.  Each is checked by its variant's rule
    (``_unit_interval`` for Lemma 4, ``meta_delta`` for Meta 5 and 6), as
    masks over the stack, and the first bad row raises before any solve:
    the error of its variant, else of its E (``_positive_finite``), else of
    its variant's rule.  The energies E/eps (Lemma 4 at eps = 0 is 0, with
    no solve) and E/delta are solved in row order, so that the first energy
    without a solution raises."""
    variants, energy, eps, ep = np.broadcast_arrays(
        np.asarray(variants, dtype=object).reshape(-1),
        *(np.asarray(x, dtype=float).reshape(-1) for x in (energy, epsilons, epsilon_primes)))
    lemma4, meta6 = variants == "lemma4", variants == "meta6"
    meta = meta6 | (variants == "meta5")
    ok = np.where(lemma4, eps <= 1.0, (eps < ep) & (ep <= 1.0))
    bad = ~((lemma4 | meta) & (0.0 < energy) & (energy < math.inf) & (eps >= 0.0) & ok)
    if bad.any():
        i = int(bad.argmax())
        if not (lemma4[i] or meta[i]):
            raise ValueError(f"no energy bound {variants[i]!r}: need lemma4, meta5 or meta6")
        _positive_finite("energy", energy[i].item())
        if lemma4[i]:
            _unit_interval(eps[i].item())
        meta_delta(eps[i].item(), ep[i].item())
    # Lemma 4 as Meta 5 at eps' = 0 and delta = eps, where h(eps') = h(0) = 0
    ep = np.where(lemma4, 0.0, ep)
    x = np.where(lemma4, eps, (ep - eps) / (1.0 + ep))
    solved = meta | (eps != 0.0)
    with np.errstate(over="ignore"):  # E / eps past the floats is inf, as for a float
        sols = solve_betas(hamiltonian, energy[solved] / x[solved])
    for err in sols.errors:
        if err is not None:
            raise err
    entropy, h_ep = np.zeros((2, len(x)))
    entropy[solved] = sols.entropy
    h = binary_entropies(np.concatenate([x, np.where(meta6, ep / (1.0 + ep), ep)[meta]]))
    h_ep[meta] = h[len(x):]
    # k (eps' + 2 delta) S + w h(.) + k h(delta), k = 2 and w = 1 + eps' for
    # Meta 6, else 1: each row's own formula, as scaling by 1 or 2 is exact
    k, w = np.where(meta6, 2.0, 1.0), np.where(meta6, 1.0 + ep, 1.0)
    return k * (ep + 2.0 * x) * entropy + w * h_ep + k * h[:len(x)]


def lemma4_bound(hamiltonian: HamiltonianSpec, energy: float, epsilon: float) -> float:
    """Entropy continuity: 2 eps S(gamma(E/eps)) + h(eps); the stack of one
    of ``energy_bound_stack``."""
    return float(energy_bound_stack(hamiltonian, "lemma4", energy, epsilon, None)[0])


def meta5_bound(hamiltonian: HamiltonianSpec, energy: float,
                epsilon: float, epsilon_prime: float) -> float:
    """(eps' + 2 delta) S(gamma(E/delta)) + h(eps') + h(delta),
    delta = (eps' - eps)/(1 + eps'); the stack of one of
    ``energy_bound_stack``."""
    return float(energy_bound_stack(hamiltonian, "meta5", energy, epsilon, epsilon_prime)[0])


def meta6_bound(hamiltonian: HamiltonianSpec, energy: float,
                epsilon: float, epsilon_prime: float) -> float:
    """Conditional-entropy analogue: (2 eps' + 4 delta) S(gamma(E/delta))
    + (1+eps') h(eps'/(1+eps')) + 2 h(delta); the stack of one of
    ``energy_bound_stack``."""
    return float(energy_bound_stack(hamiltonian, "meta6", energy, epsilon, epsilon_prime)[0])


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
    n_modes, split = _equal_split(hbar_omegas, energy)
    ratio = (1.0 + alpha) / (1.0 - alpha)
    c = ratio + 2.0 * alpha
    bracket = split + n_modes * math.log2(math.e / (alpha * (1.0 - epsilon)))
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
    _positive_finite("energy", energy)
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
    )


def truncated_trace_distance_bound(epsilon: float, delta: float) -> float:
    """(eps + delta)/(1 - delta): the bound on the trace distance between
    the renormalized below-cutoff components, for eps in [0, 1] and delta
    in (0, 1)."""
    _unit_interval(epsilon)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta {delta!r} outside (0, 1)")
    return (epsilon + delta) / (1.0 - delta)


# -- sampling and witnesses ----------------------------------------------------


def draw_energy_block(hamiltonian: HamiltonianSpec, energy: float, rngs,
                      d_b: int | None = None):
    """The draw of ``sample_energy_constrained``, one from each generator of
    ``rngs`` in turn: ``(rows, dim, blocks)``, the k d_b rows of the k levels
    at or below E in the padded space, that space's dimension and the
    unvalidated full-rank states on those rows (len(rngs), k d_b, k d_b).
    E must be positive and finite, so k >= 1 (the ground level is 0)."""
    _positive_finite("energy", energy)
    levels = hamiltonian.levels
    idx = np.where(levels <= energy)[0]
    d = 1 if d_b is None else d_b
    check_dense_dim(len(levels) * d)
    rows = (idx[:, None] * d + np.arange(d)).ravel()
    return rows, len(levels) * d, draw_state_matrices(len(rows), len(rows), rngs)


def sample_energy_constrained(hamiltonian: HamiltonianSpec, energy: float,
                              d_b: int | None = None, rng=None):
    """Random state supported on levels with E_n <= E (hence mean energy
    <= E), optionally extended by an unconstrained, entangled B factor
    under the global Hamiltonian H (x) 1; E must be positive and finite.

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


def _witness_levels(energy: float) -> int:
    """The levels of the entropy witness at a valid E: its tail is below 1e-13."""
    return _single_mode_truncation(energy, 1e-13) + 1


def _oscillator_witness_args(energy: float, epsilons) -> None:
    """Raise the error of E, else of the first eps of ``epsilons`` outside (0, 1]."""
    _positive_finite("energy", energy)
    _witness_epsilons(epsilons)


def _entropy_witnesses(energy: float, epsilons, n_max: int | None = None):
    """The Hamiltonian, rho and the stack of sigma rows of the entropy witness
    at E and each eps of ``epsilons`` (valid arguments), with one solve."""
    cut = n_max if n_max is not None else _witness_levels(energy) - 1
    h = HamiltonianSpec.oscillators([1.0], n_max=cut)
    gamma = solve_beta(h, energy).checked_probabilities()
    rho = np.zeros(cut + 1)
    rho[0] = 1.0
    eps = np.array(epsilons, dtype=float)[:, None]
    sigma = (1.0 - eps) * rho + eps * gamma
    return h, rho, sigma / sigma.sum(axis=1, keepdims=True)


def oscillator_tightness_witness(energy: float, epsilon: float,
                                 conditional: bool = False,
                                 n_max: int | None = None):
    """Extremal pairs for the single-mode oscillator bounds.

    Entropy case (default): returns the diagonal probability vectors of
    rho = |0><0| and sigma = (1-eps)|0><0| + eps gamma(E) on a Fock space
    truncated so the thermal tail is below 1e-12.

    Conditional case: rho is the canonical purification of gamma(E) on
    A (x) B and sigma = (1-eps) rho + eps gamma(E)^A (x) tau^B with
    tau the B-marginal of rho.  Both are held by their parts: rho
    as its vector v, and sigma as |sqrt(1-eps) v><sqrt(1-eps) v| + eps
    gamma (x) tau (``rank_one_kron``), so no d^2 x d^2 matrix is built
    or decomposed unless it is read.

    Either case raises ``TruncationError`` when a given cutoff ``n_max``
    leaves a tail above 1e-9 (``GibbsSolution.checked_probabilities``),
    and the energy's error before the eps's.
    """
    _oscillator_witness_args(energy, [epsilon])
    if not conditional:
        _, rho, sigma = _entropy_witnesses(energy, [epsilon], n_max)
        return rho, sigma[0]

    cut = n_max if n_max is not None else min(_single_mode_truncation(energy, 1e-10), 63)
    h = HamiltonianSpec.oscillators([1.0], n_max=cut)
    gamma = solve_beta(h, energy).state()
    d = gamma.dim
    rho = BipartiteState.pure(gamma.sqrt().mat.reshape(-1), (d, d))  # (sqrt(gamma) (x) 1)|Phi>
    tau = partial_trace(rho, "B")
    v = rho.factor[0][:, 0]
    sigma = BipartiteState._built(HermitianOperator.rank_one_kron(
        math.sqrt(1.0 - epsilon) * v, epsilon, gamma.mat, tau.mat), (d, d))
    return rho, sigma


def check_oscillator_witnesses(energy: float, epsilons) -> BoundBlock:
    """The block of the Lemma 4 records of the entropy witness
    ``oscillator_tightness_witness(E, eps)`` at each eps of ``epsilons``, bit
    for bit as each pair's Shannon entropies and ``lemma4_bound`` give it:
    one solve for gamma(E), the sigma rows of all eps as one stack, their
    entropies from ``von_neumann_entropies`` and the bounds from one
    ``energy_bound_stack`` call.  The energy, then each eps, is checked
    before any work."""
    epsilons = list(epsilons)
    _oscillator_witness_args(energy, epsilons)
    h, rho, sigma = _entropy_witnesses(energy, epsilons)
    entropies = von_neumann_entropies(np.vstack([rho, sigma]))
    rhs = energy_bound_stack(h, "lemma4", energy, epsilons, None)
    return BoundBlock(np.arange(len(epsilons)), "oscillator_lemma4", len(rho),
                      np.abs(entropies[0] - entropies[1:]), rhs, _objects(epsilons), energy)
