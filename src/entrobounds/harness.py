"""Verification campaigns: sampled bound checks over parameter grids.

Determinism contract: the campaign seed and the case counter fully
determine every sampled state.  Case ``k`` of a campaign with seed ``s``
gets a generator in the exact state of ``numpy.random.default_rng([s,
k])``: ``_seed_states`` hashes the ``SeedSequence`` of every case of the
grid in one pass, and a chunk's generators are built from their rows when
the chunk runs.  So reports are reproducible bit-for-bit under the same
config (wall-clock runtime is therefore kept out of the report payload).
These generators cannot ``spawn``: their seed sequence holds one state.

Chunks: ``_check`` hands a case function the cases of equal parameters
together, one generator per case, and puts their records back in case
order as columns: a case function returns its chunk's ``BoundBlock``,
and the report keeps the blocks' arrays from the kernels to the file.
The sampled suites draw each case from its own generator as the
scalar samplers do, validate and decompose the whole chunk as one stack
(``states.density_stack``, for ``energy_bounds`` one stack of the k x k
blocks of each distinct energy; ``states.pure_stack`` keeps pure states
as vectors and ``states.embedded_stack`` assembled qc states as their
blocks) and score it with the stacked checks and couplings (a ``dc``
case with ``check_dc`` on its own set), with the same report bytes.  A
chunk holds at most ``states.CHUNK_BYTES`` (256 KiB) of dense matrices,
one case at least, so that large states are never stacked beyond one
case (a ``couplings`` case counts its d x d matrices: its Theta is held
as parts), the cases filling each chunk in case order.
``gibbs``, the ``gibbs-table`` rows and ``energy_bounds`` give each case
its energy as an ``Each`` parameter, so that a chunk spans the energy
grid, as far as ``CHUNK_BYTES`` holds, with one solve per chunk:
``gibbs`` (a case counts its row of Gibbs weights) solves and checks a
chunk with one ``gibbs.solve_betas`` and one ``gibbs.entropy_checks``
call, and ``energy_bounds`` (a case counts its k x k pair) scores every
case's Lemma 4 and Meta 5 as rows of one ``gibbs.energy_bound_stack``
call, each case at its own energy.  ``energy_bounds`` holds every energy
of its grid to the energy rule (``gibbs._positive_finite``) before any
case runs, as the sampled suites hold every d to d >= 2, so a bad E
raises its error, in grid order, before any draw or solve.
``tightness`` and ``check_witnesses`` give each case its eps as
an ``Each`` parameter, so that a chunk holds the cases of one
``(witness, x)``, x the dimension (the energy, for the oscillator), and
builds and checks them with one stacked witness check (a case counts the
complex diagonals of its pair, or its row of sigma weights).  Every x, then
every eps, of a witness grid meets its rules before any case runs.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bnd
from . import couplings as cpl
from . import gibbs as gb
from .entropies import von_neumann_entropies
from .linalg import block_spectra, trace_distances
from .states import (CHUNK_BYTES, DensityOperator, block_marginals, density_stack,
                     draw_pure_vectors, draw_qc, draw_state_matrices, embedded_stack,
                     partial_traces, pure_stack, qc_blocks)

REPORT_COLUMNS = ("suite", "case", "variant", "dim", "energy", "epsilon",
                  "epsilon_prime", "lhs", "rhs", "slack", "valid")

SCHEMA_LINE = "# entrobounds-report v2: " + ",".join(REPORT_COLUMNS)

GIBBS_TABLE_COLUMNS = ("E", "beta", "log2_Z", "S_formula", "S_direct", "abs_diff", "error")


class ConfigError(ValueError):
    pass


@dataclass
class CampaignConfig:
    suite: str
    dims: tuple = (2, 3, 4)
    energies: tuple = (1.0, 2.0)
    epsilons: tuple = (0.1, 0.3, 0.5)
    samples: int = 100
    seed: int = 0
    tolerance: float = 1e-9
    output: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {tuple(SUITES)}")
        reads = SUITES[self.suite]
        if "samples" in reads and self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if not all(getattr(self, f) for f in ("dims", "energies", "epsilons") if f in reads):
            raise ConfigError("grids must be non-empty")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")


@dataclass(frozen=True)
class CampaignReport:
    """The rows of a campaign as columns: ``columns`` maps each of
    ``REPORT_COLUMNS`` to one 1-D array of ``size`` values, or to the one
    value every row shares (None for a blank column).  ``records`` builds
    the rows as dicts when it is read; ``min_slack``, ``max_slack`` and
    ``violations`` are the builtins' ``min``, ``max`` and count over the
    columns' Python values, a NaN slack included."""

    columns: dict
    size: int

    @classmethod
    def of_records(cls, records) -> CampaignReport:
        """The report of ``records``, dicts keyed by ``REPORT_COLUMNS``."""
        return cls(_columns_of(records, REPORT_COLUMNS), len(records))

    def values(self, name: str) -> list:
        """Column ``name`` as a list of Python values, one per row."""
        column = self.columns[name]
        return column.tolist() if isinstance(column, np.ndarray) else [column] * self.size

    @property
    def records(self) -> list:
        return [dict(zip(REPORT_COLUMNS, row))
                for row in zip(*map(self.values, REPORT_COLUMNS))]

    @property
    def min_slack(self) -> float:
        return min(self.values("slack"), default=math.inf)

    @property
    def max_slack(self) -> float:
        return max(self.values("slack"), default=-math.inf)

    @property
    def violations(self) -> int:
        return sum(1 for valid in self.values("valid") if not valid)

    @property
    def cases(self) -> int:
        """The number of distinct cases the rows come from."""
        return len(set(self.values("case")))


# -- case generators -------------------------------------------------------------
#
# numpy's SeedSequence (numpy/random/bit_generator.pyx: ``hashmix``, ``mix``,
# ``mix_entropy`` and ``generate_state``) with its default pool of 4 uint32
# words, hashed for every case of a grid at once.  Its hash constants do not
# depend on the data: the k-th call of ``hashmix`` xors with
# INIT_A * MULT_A^k and multiplies by the next one, and ``generate_state``'s
# k-th word does the same with INIT_B and MULT_B; both xor-shift by 16.

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
# the pool words mixed into each pool word, and the pool words read in turn
# by generate_state(4, uint64)'s eight uint32 words
_OTHERS = [np.array([dst for dst in range(_POOL) if dst != src]) for src in range(_POOL)]
_CYCLE = np.arange(8) % _POOL


def _hash_chain(init, mult, calls):
    """The (xor, mult) constants of ``calls`` hashes in turn, as uint32 columns."""
    chain = [init]
    for _ in range(calls):
        chain.append(chain[-1] * mult & _MASK32)
    chain = np.array(chain, dtype=np.uint32)[:, None]
    return chain[:-1], chain[1:]


@functools.cache
def _hash_constants(n_words):
    """Per step of ``mix_entropy`` on ``n_words`` words of entropy, the
    (xor, mult) columns of its hashes: the pool fill (4), the mix of each
    pool word into the other three (3 each), then each word past the pool
    into all four (4 each); and those of ``generate_state``'s 8 words."""
    sizes = [_POOL] + [_POOL - 1] * _POOL + [_POOL] * max(n_words - _POOL, 0)
    xor, mult = _hash_chain(_INIT_A, _MULT_A, sum(sizes))
    ends = np.cumsum(sizes)[:-1]
    steps = list(zip(np.split(xor, ends), np.split(mult, ends)))
    return steps, _hash_chain(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(value, constants):
    value = (value ^ constants[0]) * constants[1]
    value ^= value >> 16
    return value


def _mix(x, y):
    result = _MIX_MULT_L * x
    result -= _MIX_MULT_R * y
    result ^= result >> 16
    return result


def _seed_words(seed) -> list:
    """The little-endian 32-bit words of ``seed`` (0 is one word), as
    ``SeedSequence`` splits an integer; the one home of the seed rule."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed}")
    seed, words = int(seed), []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            return words


def _seed_states(seed, cases) -> np.ndarray:
    """``SeedSequence([seed, k]).generate_state(4, np.uint64)`` of each case
    k of ``cases``, one row each, hashed in one pass of uint32 arithmetic
    over the cases (which wraps as numpy's does).  The entropy is the words
    of ``seed``, then of k (below 2^32, one word)."""
    words = _seed_words(seed)
    cases = np.asarray(cases, dtype=np.uint32)
    n_words = len(words) + 1
    steps, generate = _hash_constants(n_words)
    entropy = np.zeros((max(n_words, _POOL), len(cases)), dtype=np.uint32)
    entropy[:n_words - 1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[n_words - 1] = cases
    pool = _hashmix(entropy[:_POOL], steps[0])
    for src, constants in enumerate(steps[1:_POOL + 1]):
        dst = _OTHERS[src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for word, constants in zip(entropy[_POOL:], steps[_POOL + 1:]):
        pool = _mix(pool, _hashmix(word, constants))
    state = _hashmix(pool[_CYCLE], generate).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T.copy()


@functools.cache
def _seed_state():
    """The seed sequence class that hands ``PCG64`` a row of ``_seed_states``,
    built on first use, so that importing this module loads no ``numpy.random``."""

    class _SeedState(np.random.bit_generator.ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return _SeedState


def _generators(states) -> list:
    """A generator per row of ``states``, in the state ``default_rng`` gives
    the seed whose ``_seed_states`` row it is.  ``PCG64`` reads the row's
    memory as it lies, so the rows are made contiguous first."""
    return [np.random.Generator(np.random.PCG64(_seed_state()(state)))
            for state in np.ascontiguousarray(states)]


class Each:
    """A grid parameter that is each case's own.  Every ``Each`` equals every
    other, so the cases that differ in its value alone share their chunks,
    and the case function gets the list of the chunk's values, in case
    order, in its place."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Each)

    def __hash__(self):
        return hash(Each)


# -- suites -------------------------------------------------------------------
#
# A suite is a grid function, a case function, the CampaignConfig fields it
# reads and the bytes one case holds (``_SUITE_TABLE``).  The grid function
# takes those fields but ``seed`` as its arguments and returns one parameter
# tuple per case.  The case function takes a chunk, a list of per-case
# generators, and the parameters the chunk's cases share (an ``Each`` parameter
# as the list of its values), and returns the chunk's ``bounds.BoundBlock``,
# its rows in any order, each with its case's position in the chunk; the
# cases of a suite that reads no ``seed`` draw nothing and get None for a
# generator.  Fields a block leaves at None are blank in the report.


def _pair_bytes(d):
    """The bytes of a pair of complex d x d matrices."""
    return 2 * 16 * d * d


def _dims_by_samples(dims, samples):
    """``samples`` cases of each d of ``dims``, every d held to the dimension
    rule (d >= 2) before any case runs."""
    for d in dims:
        bnd._dimension(d)
    return [(d,) for d in dims for _ in range(samples)]


def _twice(rngs):
    """Each case's generator twice: a pair draws rho before sigma."""
    return [rng for rng in rngs for _ in range(2)]


def _case_fannes(rngs, d):
    states = density_stack(draw_state_matrices(d, d, _twice(rngs)))
    eps = trace_distances(states.mats[0::2], states.mats[1::2])
    return bnd.check_fannes_stack(eps, states.eigenvalues)


def _grid_af(dims, samples):
    return [(d, classical_b) for (d,) in _dims_by_samples(dims, samples)
            for classical_b in (False, True)]


def _case_af(rngs, d, classical_b):
    """A chunk of ``sample_qc_state`` pairs (with ``classical_b``), held as
    their d blocks of d x d, or of ``sample_state`` pairs on d x d, checked
    by ``check_af``."""
    if classical_b:
        p, blocks = draw_qc(d, d, _twice(rngs))
        index, blocks = qc_blocks(p, density_stack(blocks.reshape(-1, d, d)))
        states = embedded_stack(index, blocks, d * d)
        spectra = block_spectra(states.eigenvalues, d * d)[0]
        marginals = block_marginals(index, states.mats, (d, d))
    else:
        states = density_stack(draw_state_matrices(d * d, d * d, _twice(rngs)))
        spectra, marginals = states.eigenvalues, partial_traces(states.mats, (d, d), "B")
    eps = trace_distances(states.mats[0::2], states.mats[1::2], d * d)
    return bnd.check_af_stack(eps, spectra, marginals, d, classical_b)


def _case_dc(rngs, d):
    """Five ``sample_state`` draws on d x d per case (three generators, then
    rho and sigma), validated as one stack; each case checked by ``check_dc``."""
    states = density_stack(draw_state_matrices(d, d, [rng for rng in rngs for _ in range(5)]))
    ops = [DensityOperator._trusted(mat, lam) for mat, lam in zip(states.mats, states.eigenvalues)]
    return bnd.BoundBlock.of_reports(
        [[bnd.check_dc(ops[k + 3], ops[k + 4], bnd.ConvexSetModel(generators=ops[k:k + 3]))]
         for k in range(0, len(ops), 5)])


def _dc_bytes(d):
    """The bytes of a dc case's five complex d x d states."""
    return 5 * 16 * d * d


def _draw_pairs(rngs, d):
    """A chunk of ``sample_state`` pairs as the stack of the rhos and that of
    the sigmas, validated and decomposed in one pass, eigenvectors kept."""
    return density_stack(draw_state_matrices(d, d, _twice(rngs)), vectors=True).split()


def _case_couplings(rngs, d):
    """A chunk of ``sample_state`` pairs, coupled as one stack
    (``_couplings_reports``)."""
    return _couplings_reports(*_draw_pairs(rngs, d), d)


_COUPLING_VARIANTS = bnd._objects(("quantum_overlap_psi", "quantum_overlap_phi",
                                    "quantum_fidelity_theta", "diagonal_largest_eigenvalue"))


def _couplings_reports(rho, sigma, d):
    """The block of the pairs of the stacks ``rho`` and ``sigma``, one row
    per ``_COUPLING_VARIANTS`` entry and pair, variant by variant: the
    overlaps of vartheta with psi and phi, F(psi, Theta) and the diagonal
    coupling's largest eigenvalue, each against 1 - eps."""
    qc = cpl.quantum_couplings(rho, sigma)
    rhs = (qc.overlap_psi, qc.overlap_phi, qc.fidelity_theta,
           cpl.diagonal_couplings(rho, sigma).largest_eigenvalue)
    n, k = len(qc.epsilon), len(rhs)
    return bnd.BoundBlock(np.tile(np.arange(n), k), np.repeat(_COUPLING_VARIANTS, n), d,
                          np.tile(1.0 - qc.epsilon, k), np.concatenate(rhs),
                          np.tile(qc.epsilon, k))


def _couplings_bytes(d):
    """The bytes a couplings case holds at once: sixteen complex d x d
    matrices (its states, their eigenvectors and square roots, the
    decomposition, vartheta, the marginal residuals and the Deltas).
    Theta is held as its parts, so no d^2 x d^2 matrix counts."""
    return 8 * _pair_bytes(d)


def _case_cor_pure(rngs, d):
    """A chunk of ``sample_pure_bipartite`` pairs on d x d, checked by
    ``check_cor_pure`` as one stack."""
    phi, psi = pure_stack(draw_pure_vectors(d * d, _twice(rngs))).split()
    return bnd.check_cor_pure_stack(phi, psi, (d, d), which="ef")


def _grid_gibbs(energies):
    h = gb.HamiltonianSpec.oscillators([1.0], n_max=256)
    return [(h, Each(e)) for e in energies]


def _gibbs_bytes(h, _energy):
    """The bytes of a Gibbs case's row of the weight stack its entropy is
    summed from: a level's weight each, one mode at a time, whatever its
    energy."""
    return 8 * (h.dim if h.hbar_omegas is None else h.n_max + 1)


def _gibbs_identities(h, energies):
    """``(solutions, S_direct, gap, block)`` of ``energies``, from one
    ``solve_betas`` and one ``entropy_checks`` call: the block holds the
    formula-versus-direct gap of each energy with a solution (the campaign
    tolerance is applied once, by _check)."""
    sols = gb.solve_betas(h, energies)
    direct, gap = gb.entropy_checks(sols)
    solved = [i for i, err in enumerate(sols.errors) if err is None]
    block = bnd.BoundBlock(np.array(solved, dtype=int), "formula_vs_direct", h.dim, gap[solved],
                           0.0, energy=bnd._objects(sols.energies[i] for i in solved))
    return sols, direct, gap, block


def _case_gibbs(rngs, h, energies):
    """A chunk of Gibbs identities at ``energies``; the first energy with no
    solution raises its error."""
    sols, _, _, block = _gibbs_identities(h, energies)
    for err in sols.errors:
        if err is not None:
            raise err
    return block


def _grid_energy_bounds(energies, samples):
    """``samples`` cases of each E of ``energies``, every E held to the
    energy rule (``gibbs._positive_finite``) before any case runs."""
    for e in energies:
        gb._positive_finite("energy", e)
    h = gb.HamiltonianSpec.oscillators([1.0], n_max=40)
    return [(h, Each(e)) for e in energies for _ in range(samples)]


def _energy_bounds_bytes(h, e):
    return _pair_bytes(np.count_nonzero(h.levels <= e))


_ENERGY_VARIANTS = bnd._objects(("lemma4", "meta5"))


def _case_energy_bounds(rngs, h, energies):
    """A chunk of ``sample_energy_constrained`` pairs, each at its case's
    energy, checked on their k x k blocks: the pairs of each distinct energy
    drawn and validated as one stack, in the order of its first case, and
    Lemma 4 and Meta 5 at their trace distance as states of the
    ``dim``-level space.  One row per record, Lemma 4 before Meta 5 of each
    case, at the case's energy, from one ``energy_bound_stack`` call (one
    stacked solve for the chunk's Gibbs entropies)."""
    groups = {}
    for i, e in enumerate(energies):
        groups.setdefault(e, []).append(i)
    cases, eps, gaps = [], [], []
    for e, group in groups.items():
        _, dim, blocks = gb.draw_energy_block(h, e, _twice([rngs[i] for i in group]))
        states = density_stack(blocks)
        entropies = von_neumann_entropies(states.eigenvalues)
        cases += group
        eps.append(trace_distances(states.mats[0::2, None], states.mats[1::2, None], dim))
        gaps.append(np.abs(entropies[0::2] - entropies[1::2]))
    eps, gaps = (np.repeat(np.concatenate(x), 2) for x in (eps, gaps))
    energy = np.repeat(bnd._objects(energies[i] for i in cases), 2)
    variants = np.tile(_ENERGY_VARIANTS, len(cases))
    lemma4 = variants == "lemma4"
    # Python's min(1.0, x) and max(x, 1e-12), NaN included: fmin drops it, maximum keeps it
    primes = np.fmin(1.0, eps + 0.1).astype(object)
    primes[lemma4] = None  # a Lemma 4 row's eps' is blank
    floors = np.where(lemma4, np.maximum(eps, 1e-12), eps)
    return bnd.BoundBlock(np.repeat(cases, 2), variants, h.dim, gaps,
                          gb.energy_bound_stack(h, variants, energy, floors, primes), eps,
                          energy, primes)


def _grid_tightness(dims, epsilons):
    return [(witness, d, Each(eps)) for d, eps in _witness_grid("fannes", dims, epsilons)
            for witness in ("fannes", "af")]


# each witness's check of a chunk (its pairs at one x and the chunk's eps)
# and its rules of one x and every eps (the Fannes witness takes the AF's)
_WITNESS_CHECKS = {"fannes": bnd.check_fannes_witnesses, "af": bnd.check_af_witnesses,
                   "oscillator": gb.check_oscillator_witnesses}
_WITNESS_ARGS = {"fannes": bnd._af_witness_args, "af": bnd._af_witness_args,
                 "oscillator": gb._oscillator_witness_args}


def _witness_grid(name, xs, epsilons):
    """``(x, eps)`` of each x of ``xs`` and eps of ``epsilons`` at which the
    ``name`` witness exists, each x, then every eps, held to its rules
    before any case runs, whatever the chunks; a Fannes eps in
    (1 - 1/d, 1] is skipped."""
    for x in xs:
        _WITNESS_ARGS[name](x, epsilons)
    return [(x, eps) for x in xs for eps in epsilons
            if name != "fannes" or bnd.fannes_admissible(x, eps)]


def _case_witness(rngs, witness, x, epsilons):
    """A chunk of the ``witness`` pairs at dimension (for the oscillator,
    energy) ``x``, one per eps of ``epsilons``, built and checked as one
    stack; the first case with an error raises it."""
    return _WITNESS_CHECKS[witness](x, epsilons)


def _witness_bytes(witness, x, _epsilon):
    """The bytes of a witness case's largest stacked part: the complex
    diagonals of its pair (Fannes: d, AF: d^2 each), or its row of sigma
    weights (oscillator)."""
    if witness == "oscillator":
        return 8 * gb._witness_levels(x)
    return 2 * 16 * (x * x if witness == "af" else x)


_SAMPLED = ("dims", "samples", "seed")
_SUITE_TABLE = {
    "fannes": (_dims_by_samples, _case_fannes, _SAMPLED, _pair_bytes),
    "af": (_grid_af, _case_af, _SAMPLED, lambda d, qc: _pair_bytes(d) * (d if qc else d * d)),
    "dc": (_dims_by_samples, _case_dc, _SAMPLED, _dc_bytes),
    "couplings": (_dims_by_samples, _case_couplings, _SAMPLED, _couplings_bytes),
    "cor_pure": (_dims_by_samples, _case_cor_pure, _SAMPLED, _pair_bytes),
    "gibbs": (_grid_gibbs, _case_gibbs, ("energies",), _gibbs_bytes),
    "energy_bounds": (_grid_energy_bounds, _case_energy_bounds, ("energies", "samples", "seed"),
                      _energy_bounds_bytes),
    "tightness": (_grid_tightness, _case_witness, ("dims", "epsilons"), _witness_bytes),
}

# Each suite and witness with the CampaignConfig fields it reads, a witness's axis first
SUITES = {suite: reads for suite, (_, _, reads, _) in _SUITE_TABLE.items()}
WITNESSES = {"fannes": ("dims", "epsilons"), "af": ("dims", "epsilons"),
             "oscillator": ("energies", "epsilons")}


def _chunks(grid, case_bytes):
    """``(cases, params)`` of each chunk, in the order of its first case: the
    cases of equal ``params`` in case order, each chunk filled with as many
    as ``CHUNK_BYTES`` holds of their ``case_bytes`` (taken of each case's
    own ``Each`` values), one at least, an ``Each`` parameter given as the
    list of the chunk's values."""
    groups = {}
    for case, params in enumerate(grid):
        groups.setdefault(params, []).append(case)
    chunks = []
    for params, cases in groups.items():
        each = [j for j, p in enumerate(params) if isinstance(p, Each)]
        sizes, held, parts = {}, math.inf, []
        for c in cases:
            row = tuple(p.value if isinstance(p, Each) else p for p in grid[c])
            if row not in sizes:
                sizes[row] = max(case_bytes(*row), 1)
            if held + sizes[row] > CHUNK_BYTES:
                parts.append([])
                held = 0
            parts[-1].append(c)
            held += sizes[row]
        for part in parts:
            shared = list(params)
            for j in each:
                shared[j] = [grid[c][j].value for c in part]
            chunks.append((part, tuple(shared)))
    return sorted(chunks, key=lambda chunk: chunk[0][0])


_DTYPES = {float: np.float64, int: np.int64, bool: np.bool_}


def _full(column, size) -> np.ndarray:
    """``column`` as an array of ``size`` values: the array itself, or its
    one value in the dtype that holds its type (float64, int64, bool), else
    as an object."""
    if isinstance(column, np.ndarray):
        return column
    return np.full(size, column, dtype=_DTYPES.get(type(column), object))


def _column(parts, sizes):
    """One report column from each chunk's block's value of it, in chunk
    order: the one value of every block when all give the same (of one
    type), else one array of the parts (``_full``), of their dtype where
    they share one and of their Python values otherwise."""
    first = parts[0]
    if all(type(p) is type(first) and not isinstance(p, np.ndarray) and p == first
           for p in parts):
        return first
    arrays = [_full(p, n) for p, n in zip(parts, sizes)]
    if any(a.dtype != arrays[0].dtype for a in arrays):
        arrays = [a.astype(object) for a in arrays]
    return np.concatenate(arrays)


def _check(suite: str, grid, case_fn, seed, tolerance: float, case_bytes) -> CampaignReport:
    """The report of ``case_fn`` over ``grid``, its rows in case order; the
    one place a row gets its verdict.  The seed states of every case are
    hashed first, and the cases run in the chunks of ``_chunks``, each
    chunk's generators built as it runs; with ``seed`` None they draw
    nothing and get no generator.  The chunks' blocks stay columns: their
    rows are mapped to the grid's cases and put in case order by one
    stable sort (a block's rows of one case keep their order), and
    ``slack = rhs - lhs`` and ``valid = slack >= -tolerance`` are computed
    over the arrays, the IEEE operations of a row's own floats."""
    if not grid:
        raise ConfigError(f"the {suite} grid has no cases")
    states = None if seed is None else _seed_states(seed, np.arange(len(grid)))
    cases, blocks = [], []
    for chunk, params in _chunks(grid, case_bytes):
        rngs = [None] * len(chunk) if states is None else _generators(states[chunk])
        blocks.append(case_fn(rngs, *params))
        cases.append(np.asarray(chunk)[blocks[-1].case])
    case = np.concatenate(cases)
    order = np.argsort(case, kind="stable")
    sizes = [len(c) for c in cases]
    columns = {"suite": suite, "case": case[order]}
    for name in bnd.BoundBlock._fields[1:]:
        column = _column([getattr(block, name) for block in blocks], sizes)
        columns[name] = column[order] if isinstance(column, np.ndarray) else column
    size = len(case)
    slack = _full(columns["rhs"], size) - _full(columns["lhs"], size)
    columns["slack"], columns["valid"] = slack, slack >= -tolerance
    return CampaignReport(columns, size)


def run_campaign(config: CampaignConfig) -> CampaignReport:
    grid_fn, case_fn, reads, case_bytes = _SUITE_TABLE[config.suite]
    grid = grid_fn(**{f: getattr(config, f) for f in reads if f != "seed"})
    seed = config.seed if "seed" in reads else None
    report = _check(config.suite, grid, case_fn, seed, config.tolerance, case_bytes)
    if config.output:
        write_report(report, config.output, config.format)
    return report


def check_coupling_demo(d, seed, tolerance: float):
    """Case 0 of ``verify couplings --dims d --samples 1 --seed seed``,
    checked through ``_check``: ``(records, rho, sigma)``, its records and
    its pair as states, drawn and decomposed once."""
    pairs = []

    def case(rngs, dim):
        pairs.append(_draw_pairs(rngs, dim))
        return _couplings_reports(*pairs[-1], dim)

    records = _check("couplings", _dims_by_samples((d,), 1), case, seed, tolerance,
                     _couplings_bytes).records
    rho, sigma = (DensityOperator._trusted(s.mats[0], s.eigenvalues[0], s.eigenvectors[0])
                  for s in pairs[0])
    return records, rho, sigma


def check_witnesses(name: str, xs, epsilons, tolerance: float) -> list:
    """``(x, eps, record)`` of the ``name`` witness over ``xs`` x ``epsilons``
    (``_witness_grid``); the Fannes pair is checked only where
    0 < eps <= 1 - 1/d."""
    pairs = _witness_grid(name, xs, epsilons)
    records = _check(f"witness {name}", [(name, x, Each(eps)) for x, eps in pairs],
                     _case_witness, None, tolerance, _witness_bytes).records
    return [(x, eps, rec) for (x, eps), rec in zip(pairs, records)]


# -- serialization -------------------------------------------------------------


def _format_value(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):  # np.float64 included, whose repr names its type
        return repr(float(v))
    return str(v)


def _columns_of(rows, names) -> dict:
    """Each column ``names`` of ``rows`` (dicts) as an array of its values."""
    return {name: bnd._objects(row[name] for row in rows) for name in names}


def _csv_quote(text: str) -> str:
    """``text`` as ``csv.writer`` writes a cell of it within a row."""
    buf = io.StringIO()
    csv.writer(buf, quoting=csv.QUOTE_MINIMAL).writerow([text, ""])
    return buf.getvalue()[:-3]  # less the empty cell and the line end: ',\r\n'


def _csv_cell(value) -> str:
    """The text of ``_format_value``, quoted as ``csv.writer`` quotes it
    unless it is a number's, a bool's or None's, which it never quotes."""
    text = _format_value(value)
    return text if isinstance(value, (float, int, type(None))) else _csv_quote(text)


# One cell per format, of any value: csv writes a cell of ``_format_value``'s
# text, json the text of ``json.dumps(value, default=_format_value)``
_CELL = {"csv": _csv_cell, "json": json.JSONEncoder(default=_format_value).encode}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_BOOLS = {False: "false", True: "true"}


def _cells(column, fmt: str):
    """The cells of a column as ``fmt`` writes them: one string for the one
    value of every row, else a list of one string per row.  An array of
    floats takes ``float.__repr__`` (json spells NaN and +-inf as
    ``json.dumps`` does), of ints ``int.__repr__`` and of bools one lookup;
    a column of strings writes each distinct one once, and any other
    column is written cell by cell."""
    cell = _CELL[fmt]
    if not isinstance(column, np.ndarray):
        return cell(column)
    values, kind = column.tolist(), column.dtype.kind
    if kind == "f":
        cells = list(map(float.__repr__, values))
        if fmt == "json" and not np.isfinite(column).all():
            cells = [_NONFINITE.get(c, c) for c in cells]
        return cells
    if kind in "iu":
        return list(map(int.__repr__, values))
    if kind == "b":
        return list(map(_BOOLS.__getitem__, values))
    if all(type(v) is str for v in values):
        return list(map({v: cell(v) for v in set(values)}.__getitem__, values))
    return list(map(cell, values))


def _rows(columns: dict, names, size: int, fmt: str, layout) -> list:
    """One text per row: the cells of ``names`` in order, each after its
    label, joined by the separator, between the head and the tail of
    ``layout``.  The cells of a column every row shares are written into
    the row template once."""
    head, sep, tail, labels = layout
    varying, fields = [], []
    for name, label in zip(names, labels):
        cells = _cells(columns[name], fmt)
        if isinstance(cells, list):
            varying.append(cells)
            cells = "%s"
        else:
            cells = cells.replace("%", "%%")
        fields.append(label.replace("%", "%%") + cells)
    template = head + sep.join(fields) + tail
    if not varying:
        return [template % ()] * size
    return list(map(template.__mod__, zip(*varying)))


def _write_csv(fh, schema_line: str, names, columns: dict, size: int) -> None:
    """The schema line, the header ``names`` and one line per row of
    ``columns``, each cell as ``csv.writer`` writes ``_format_value``'s."""
    fh.write(schema_line + "\r\n" + ",".join(map(_csv_quote, names)) + "\r\n")
    fh.write("".join(_rows(columns, names, size, "csv", ("", ",", "\r\n", [""] * len(names)))))


def render_report(report: CampaignReport, fmt: str) -> str:
    """The report as CSV or as JSON, written from its columns: the text of
    ``csv.writer`` rows of ``_format_value`` cells, or of
    ``json.dumps(report.records, indent=2, default=_format_value)``, with
    no row built as a dict (``_cells``, ``_rows``)."""
    if fmt == "json":
        if not report.size:
            return "[]\n"
        labels = [json.encoder.encode_basestring_ascii(name) + ": " for name in REPORT_COLUMNS]
        rows = _rows(report.columns, REPORT_COLUMNS, report.size, "json",
                     ("  {\n    ", ",\n    ", "\n  }", labels))
        return "[\n" + ",\n".join(rows) + "\n]\n"
    buf = io.StringIO()
    _write_csv(buf, SCHEMA_LINE, REPORT_COLUMNS, report.columns, report.size)
    return buf.getvalue()


def write_report(report: CampaignReport, path: str, fmt: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(render_report(report, fmt))


def emit_gibbs_table(hamiltonian: gb.HamiltonianSpec, energies, path=None,
                     tolerance: float = CampaignConfig.tolerance):
    """Tabulate (E, beta, log2 Z, S_formula, S_direct, |diff|) over an E-grid.

    Returns the rows and the ``_check`` records of the Gibbs identity; an
    unsolvable energy keeps an ``error`` row and yields no record.
    """
    rows = []

    def case(rngs, h, energies):
        sols, direct, gap, block = _gibbs_identities(h, energies)
        for e, err, *values in zip(energies, sols.errors, sols.beta.tolist(),
                                   sols.log2_partition.tolist(), sols.entropy.tolist(),
                                   direct.tolist(), gap.tolist()):
            if err is not None:
                rows.append({**dict.fromkeys(GIBBS_TABLE_COLUMNS), "E": e, "error": str(err)})
            else:
                rows.append(dict(zip(GIBBS_TABLE_COLUMNS, (e, *values, ""))))
        return block

    # the cases share the Hamiltonian, so their chunks come in case order
    records = _check("gibbs-table", [(hamiltonian, Each(e)) for e in energies], case, None,
                     tolerance, _gibbs_bytes).records
    if path:
        with open(path, "w", newline="") as fh:
            _write_csv(fh, "# entrobounds-gibbs-table v2: " + ",".join(GIBBS_TABLE_COLUMNS),
                       GIBBS_TABLE_COLUMNS, _columns_of(rows, GIBBS_TABLE_COLUMNS), len(rows))
    return rows, records
