import csv
import dataclasses
import io
import json
import os
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest

from entrobounds import bounds, cli, couplings, gibbs, harness, states
from entrobounds.bounds import (BoundReport, check_af, check_cor_pure, check_dc, check_fannes,
                                tightness_witness_af, tightness_witness_fannes)
from entrobounds.couplings import diagonal_coupling, quantum_coupling
from entrobounds.dc_optimizer import ConvexSetModel
from entrobounds.entropies import shannon_entropy, von_neumann_entropy
from entrobounds.gibbs import (HamiltonianSpec, lemma4_bound, meta5_bound,
                               oscillator_tightness_witness, sample_energy_constrained)
from entrobounds.linalg import HermitianOperator, fidelity, trace_distance
from entrobounds.states import (BipartiteState, StateStack, qc_blocks, sample_pure_bipartite,
                                sample_state)
from entrobounds.harness import (
    SCHEMA_LINE,
    SUITES,
    CampaignConfig,
    CampaignReport,
    ConfigError,
    emit_gibbs_table,
    render_report,
    run_campaign,
)


SMALL = dict(dims=(2, 3), samples=5, seed=7)

# The grid settings each ``verify`` suite and each ``witness`` reads, by flag;
# every target also reads --tol, and ``verify`` --out, and --format with --out.
GRID_READS = {
    **{f"verify {s}": ("dims", "samples", "seed")
       for s in ("fannes", "af", "dc", "couplings", "cor_pure")},
    "verify energy_bounds": ("energies", "samples", "seed"),
    "verify gibbs": ("energies",),
    "verify tightness": ("dims", "eps"),
    "witness fannes": ("dims", "eps"),
    "witness af": ("dims", "eps"),
    "witness oscillator": ("energies", "eps"),
}
GRID_FLAGS = {"dims": "3", "energies": "2", "eps": "0.5", "samples": "2", "seed": "3"}
# the settings that keep a run to a case or two
SMALL_ARGS = {"dims": "2", "samples": "1", "energies": "1", "eps": "0.25"}
# witness takes no --samples or --seed flag at all (a usage error)
UNREAD = [(target, key) for target, reads in GRID_READS.items() for key in GRID_FLAGS
          if key not in reads and (target.startswith("verify") or key not in ("samples", "seed"))]
READ = [(target, key) for target, reads in GRID_READS.items()
        for key in (*reads, "tol", *(("out", "format") if target.startswith("verify") else ()))]


class TestConfig:
    def test_unknown_suite(self):
        with pytest.raises(ConfigError, match="unknown suite"):
            CampaignConfig(suite="nope")

    def test_bad_samples(self):
        with pytest.raises(ConfigError, match="samples"):
            CampaignConfig(suite="fannes", samples=0)

    def test_empty_grid(self):
        with pytest.raises(ConfigError, match="non-empty"):
            CampaignConfig(suite="fannes", dims=())

    def test_bad_format(self):
        with pytest.raises(ConfigError, match="format"):
            CampaignConfig(suite="fannes", format="xml")


def _dim(case, cases_per_dim):
    return 2 if case < cases_per_dim else 3


# (case, variant, dim, energy) of every record at dims=(2, 3), samples=3,
# energies=(1.0, 2.0), epsilons=(0.1, 0.3, 0.6).  A case is one sample per
# grid point; af numbers its general and qc variants, and tightness its
# fannes and af witnesses (0.6 > 1 - 1/2 is skipped at d=2), as separate
# cases; couplings and energy_bounds emit several records per case.
CASE_LAYOUT = {
    "fannes": [(k, "fannes_exact", _dim(k, 3), None) for k in range(6)],
    "af": [(k, ("af_general", "af_classical_B")[k % 2], _dim(k, 6), None)
           for k in range(12)],
    "dc": [(k, "dc_generic", _dim(k, 3), None) for k in range(6)],
    "couplings": [(k, v, _dim(k, 3), None) for k in range(6)
                  for v in ("quantum_overlap_psi", "quantum_overlap_phi",
                            "quantum_fidelity_theta", "diagonal_largest_eigenvalue")],
    "cor_pure": [(k, "ef_cor1", _dim(k, 3), None) for k in range(6)],
    "gibbs": [(0, "formula_vs_direct", 257, 1.0), (1, "formula_vs_direct", 257, 2.0)],
    "energy_bounds": [(k, v, 41, 1.0 if k < 3 else 2.0) for k in range(6)
                      for v in ("lemma4", "meta5")],
    "tightness": [(k, ("fannes_exact", "af_general")[k % 2], _dim(k, 4), None)
                  for k in range(10)],
}


def _per_case(case):
    """The case function of chunks of ``case(rng, *params)``, one case at a
    time, its ``BoundReport``s wrapped into the chunk's block: the
    reference that each stacked case function reproduces."""
    return lambda rngs, *params: bounds.BoundBlock.of_reports([case(rng, *params) for rng in rngs])


def _one_case(*params):
    """A case's bytes that fill a chunk alone, so that ``_per_case`` sees
    one case at a time."""
    return states.CHUNK_BYTES


def _fannes_case(rng, d):
    return [check_fannes(sample_state(d, d, rng), sample_state(d, d, rng))]


def _qc_state(rng, d):
    """``sample_qc_state(d, d, rng)`` one block at a time: the Dirichlet
    weights, then each block drawn and validated on its own, and the block
    state of the weighted blocks."""
    p = rng.dirichlet(np.ones(d))
    rhos = [sample_state(d, d, rng) for _ in range(d)]
    index, blocks = qc_blocks(p[None], StateStack(*(np.stack([getattr(r, f) for r in rhos])
                                                    for f in ("mat", "eigenvalues"))))
    return BipartiteState._block_diagonal(d * d, index, blocks.mats[0], blocks.eigenvalues[0],
                                          (d, d))


def _af_case(rng, d, classical_b):
    if classical_b:
        rho, sigma = _qc_state(rng, d), _qc_state(rng, d)
    else:
        rho = BipartiteState(sample_state(d * d, d * d, rng), (d, d))
        sigma = BipartiteState(sample_state(d * d, d * d, rng), (d, d))
    return [check_af(rho, sigma, classical_b=classical_b)]


def _energy_bounds_case(rng, h, e):
    rho = sample_energy_constrained(h, e, rng=rng)
    sigma = sample_energy_constrained(h, e, rng=rng)
    eps = trace_distance(rho, sigma)
    lhs = abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma))
    ep = min(1.0, eps + 0.1)
    return [BoundReport(variant="lemma4", dim=h.dim, lhs=lhs,
                        rhs=lemma4_bound(h, e, max(eps, 1e-12)), epsilon=eps, energy=e),
            BoundReport(variant="meta5", dim=h.dim, lhs=lhs, rhs=meta5_bound(h, e, eps, ep),
                        epsilon=eps, energy=e, epsilon_prime=ep)]


def _dc_case(rng, d):
    """Three generators, then rho and sigma, each a ``sample_state``."""
    model = ConvexSetModel(generators=[sample_state(d, d, rng) for _ in range(3)])
    return [check_dc(sample_state(d, d, rng), sample_state(d, d, rng), model)]


def _couplings_case(rng, d):
    rho, sigma = sample_state(d, d, rng), sample_state(d, d, rng)
    qc = quantum_coupling(rho, sigma)
    eps = qc.epsilon
    rhs = {"quantum_overlap_psi": qc.overlap_psi,
           "quantum_overlap_phi": qc.overlap_phi,
           "quantum_fidelity_theta": fidelity(qc.psi, qc.theta),
           "diagonal_largest_eigenvalue": diagonal_coupling(rho, sigma).largest_eigenvalue}
    return [BoundReport(variant=v, dim=d, lhs=1.0 - eps, rhs=r, epsilon=eps)
            for v, r in rhs.items()]


def _cor_pure_case(rng, d):
    phi = sample_pure_bipartite(d, d, rng)
    psi = sample_pure_bipartite(d, d, rng)
    return [check_cor_pure(phi, psi, which="ef")]


def _witness_case(rng, witness, x, epsilons):
    """The ``witness`` pair at dimension (for the oscillator, energy) ``x``
    and the one eps of ``epsilons``, built and checked by the scalar names."""
    (eps,) = epsilons
    if witness == "fannes":
        return [check_fannes(*tightness_witness_fannes(x, eps))]
    if witness == "af":
        return [check_af(*tightness_witness_af(x, eps))]
    p, q = oscillator_tightness_witness(x, eps)
    h = HamiltonianSpec.oscillators([1.0], n_max=len(p) - 1)
    return [BoundReport(variant="oscillator_lemma4", dim=len(p),
                        lhs=abs(shannon_entropy(p) - shannon_entropy(q)),
                        rhs=lemma4_bound(h, x, eps), epsilon=eps, energy=x)]


# each stacked suite's case, one state object at a time
PER_CASE = {"fannes": _fannes_case, "af": _af_case, "dc": _dc_case,
            "energy_bounds": _energy_bounds_case, "couplings": _couplings_case,
            "cor_pure": _cor_pure_case, "tightness": _witness_case}

WITNESS_EPSILONS = (0.01, 0.2, 0.5, 0.75, 0.99, 1.0)


def _reference_json(records):
    return json.dumps(records, indent=2, default=harness._format_value) + "\n"


def _reference_csv(schema_line, columns, rows):
    """The schema line, then one ``csv.writer`` row of the header and of
    each row's ``_format_value`` cells."""
    buf = io.StringIO()
    buf.write(schema_line + "\r\n")
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([harness._format_value(row[c]) for c in columns])
    return buf.getvalue()


class TestCampaigns:
    @pytest.mark.parametrize("suite", SUITES)
    def test_each_record_holds_the_report_columns_in_order(self, suite):
        config = CampaignConfig(suite, dims=(2,), energies=(1.0,), epsilons=(0.25,), samples=1,
                                seed=3)
        records = run_campaign(config).records
        assert records and all(tuple(rec) == harness.REPORT_COLUMNS for rec in records)
        assert all(rec["slack"] == rec["rhs"] - rec["lhs"] for rec in records)

    @pytest.mark.parametrize("seed", [1, 3, 12])
    @pytest.mark.parametrize("suite, settings", [
        ("fannes", dict(dims=(2, 3, 9, 16, 64), samples=5)),
        ("af", dict(dims=(2, 3, 4), samples=6)),
        ("dc", dict(dims=(2, 3), samples=3)),
        ("energy_bounds", dict(energies=(0.5, 1.0, 3.0, 8.0, 40.0), samples=6)),
        ("couplings", dict(dims=(2, 3, 4, 9, 16), samples=3)),
        ("cor_pure", dict(dims=(2, 3, 4, 9, 16), samples=6)),
        ("tightness", dict(dims=(2, 3, 5, 16, 64), epsilons=WITNESS_EPSILONS)),
    ])
    def test_stacked_suites_give_the_bytes_of_the_per_case_checks(self, suite, settings, seed):
        grid_fn, _, _, _ = harness._SUITE_TABLE[suite]
        per_case = harness._check(suite, grid_fn(**settings), _per_case(PER_CASE[suite]),
                                  seed, CampaignConfig.tolerance, _one_case)
        stacked = run_campaign(CampaignConfig(suite, seed=seed, **settings))
        for fmt in ("csv", "json"):
            assert render_report(stacked, fmt) == render_report(per_case, fmt)

    # (suite, variant, dim, eps, lhs, rhs) of `verify couplings --dims 2,16`
    # and `verify cor_pure --dims 2,3,16`, `--samples 1 --seed 12`, as the
    # one-object-at-a-time couplings and corollary code computed them before
    # the stacked kernels replaced it (one BLAS thread)
    ONE_AT_A_TIME = [
        ("couplings", "quantum_overlap_psi", 2,
         "0x1.b6b01ef1fff8dp-2", "0x1.24a7f0870003ap-1", "0x1.7c25679a3f360p-1"),
        ("couplings", "quantum_overlap_phi", 2,
         "0x1.b6b01ef1fff8dp-2", "0x1.24a7f0870003ap-1", "0x1.762e332c33380p-1"),
        ("couplings", "quantum_fidelity_theta", 2,
         "0x1.b6b01ef1fff8dp-2", "0x1.24a7f0870003ap-1", "0x1.8a141ed6492a3p-1"),
        ("couplings", "diagonal_largest_eigenvalue", 2,
         "0x1.b6b01ef1fff8dp-2", "0x1.24a7f0870003ap-1", "0x1.e132403c3898bp-1"),
        ("couplings", "quantum_overlap_psi", 16,
         "0x1.306159336a9cap-1", "0x1.9f3d4d992ac6cp-2", "0x1.1bb41392ff636p-1"),
        ("couplings", "quantum_overlap_phi", 16,
         "0x1.306159336a9cap-1", "0x1.9f3d4d992ac6cp-2", "0x1.1b2a666a9a590p-1"),
        ("couplings", "quantum_fidelity_theta", 16,
         "0x1.306159336a9cap-1", "0x1.9f3d4d992ac6cp-2", "0x1.1c362956039d7p-1"),
        ("couplings", "diagonal_largest_eigenvalue", 16,
         "0x1.306159336a9cap-1", "0x1.9f3d4d992ac6cp-2", "0x1.ee8388e07504ap-1"),
        ("cor_pure", "ef_cor1", 2,
         "0x1.b11c607668b4ep-1", "0x1.065327be0d988p-3", "0x1.7cefb1c08b0b6p+1"),
        ("cor_pure", "ef_cor1", 3,
         "0x1.d8da5eb2ac8d7p-1", "0x1.c8213e8dc0250p-2", "0x1.c9e7ff801ff2ep+1"),
        ("cor_pure", "ef_cor1", 16,
         "0x1.ffef2dbe2f4dcp-1", "0x1.ffbe9ac629a00p-5", "0x1.7fffffd3c9bb6p+2"),
    ]

    @pytest.mark.parametrize("suite, dims", [("couplings", (2, 16)), ("cor_pure", (2, 3, 16))])
    def test_stacked_kernels_give_the_records_of_the_replaced_code(self, suite, dims):
        """``PER_CASE`` runs the stacks of one of the kernels it checks; these
        values tie the kernels to the code they replaced.  The tolerance
        admits the last-bit differences of other LAPACK builds only."""
        records = run_campaign(CampaignConfig(suite, dims=dims, samples=1, seed=12)).records
        expected = [row[1:] for row in self.ONE_AT_A_TIME if row[0] == suite]
        assert [(r["variant"], r["dim"]) for r in records] == [row[:2] for row in expected]
        for r, (_, _, *values) in zip(records, expected):
            got = [r["epsilon"], r["lhs"], r["rhs"]]
            assert got == pytest.approx([float.fromhex(x) for x in values], rel=0, abs=1e-13)

    # (variant, dim, eps, lhs, rhs) of each run, as the scalar Fannes and
    # Alicki-Fannes checks (their own entropy sums and B marginals) computed
    # them before they became stacks of one of the stacked kernels (one BLAS
    # thread); the sampled suites at `--samples 1 --seed 12`
    SCALAR_CHECKS = {
        "verify fannes --dims 2,16": [
            ("fannes_exact", 2,
             "0x1.b6b01ef1fff8dp-2", "0x1.065327be0d97cp-3", "0x1.f866d315c5168p-1"),
            ("fannes_exact", 16,
             "0x1.306159336a9ccp-1", "0x1.b8eef49e9cd80p-6", "0x1.a5fa3c7d777bdp+1"),
        ],
        "verify af --dims 2,3": [
            ("af_general", 2,
             "0x1.13e7259ad2381p-1", "0x1.6372b29a42f40p-5", "0x1.41f882831229cp+1"),
            ("af_classical_B", 2,
             "0x1.6c3618c3d0a30p-1", "0x1.b8fddaad7f298p-2", "0x1.3196bbd2d58bbp+1"),
            ("af_general", 3,
             "0x1.1c3621c4c8dc1p-1", "0x1.2a14947679b40p-4", "0x1.9c5df93c86e9ep+1"),
            ("af_classical_B", 3,
             "0x1.71df7948f1defp-1", "0x1.db5730e449fc8p-3", "0x1.6ae0c9589e534p+1"),
        ],
        "verify tightness --dims 2,16 --eps 0.05,0.5": [
            ("fannes_exact", 2,
             "0x1.999999999999dp-5", "0x1.25453e71f2a22p-2", "0x1.25453e71f2a22p-2"),
            ("af_general", 2,
             "0x1.9999999999971p-5", "0x1.766baa1725002p-2", "0x1.8f5d85dc6bc83p-2"),
            ("fannes_exact", 2,
             "0x1.0000000000000p-1", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
            ("af_general", 2,
             "0x1.ffffffffffffdp-2", "0x1.cae00d1cfdeb2p+0", "0x1.305013ab7ce0dp+1"),
            ("fannes_exact", 16,
             "0x1.999999999999dp-5", "0x1.ed4da3ed62affp-2", "0x1.ed4da3ed62b00p-2"),
            ("af_general", 16,
             "0x1.99999999999cep-5", "0x1.5f4a6aa95f0d0p-1", "0x1.61485c87cf815p-1"),
            ("fannes_exact", 16,
             "0x1.0000000000000p-1", "0x1.7a0a7eda4c114p+1", "0x1.7a0a7eda4c113p+1"),
            ("af_general", 16,
             "0x1.0000000000002p-1", "0x1.3fd1be4c7f2aep+2", "0x1.582809d5be70ap+2"),
        ],
        "witness af --dims 64 --eps 0.5": [
            ("af_general", 64,
             "0x1.ffffffffffff9p-2", "0x1.bffd1d3ffd1d2p+2", "0x1.d82809d5be702p+2"),
        ],
    }

    @pytest.mark.parametrize("run", SCALAR_CHECKS)
    def test_fannes_and_af_kernels_give_the_records_of_the_scalar_checks(self, run):
        """``check_fannes`` and ``check_af`` (and so ``PER_CASE``, the
        witnesses and ``tightness``) are stacks of one of the kernels the
        suites run; these values tie the kernels to the scalar code they
        replaced.  The tolerance admits the last-bit differences of other
        LAPACK builds only."""
        target, name, *flags = run.split()
        settings = dict(zip(flags[0::2], flags[1::2]))
        dims = tuple(int(d) for d in settings["--dims"].split(","))
        eps = tuple(float(e) for e in settings.get("--eps", "0.1").split(","))
        if target == "witness":
            records = [rec for *_, rec in harness.check_witnesses(name, dims, eps,
                                                                  CampaignConfig.tolerance)]
        else:
            records = run_campaign(CampaignConfig(name, dims=dims, epsilons=eps, samples=1,
                                                  seed=12)).records
        expected = self.SCALAR_CHECKS[run]
        assert [(r["variant"], r["dim"]) for r in records] == [row[:2] for row in expected]
        for r, (_, _, *values) in zip(records, expected):
            got = [r["epsilon"], r["lhs"], r["rhs"]]
            assert got == pytest.approx([float.fromhex(x) for x in values], rel=0, abs=1e-13)

    @pytest.mark.parametrize("name, xs, epsilons", [
        ("fannes", (2, 3, 5, 16, 64), WITNESS_EPSILONS),
        ("af", (2, 3, 5, 16, 64), WITNESS_EPSILONS),
        ("oscillator", (0.5, 4.0, 100.0), (0.01, 0.25, 1.0)),
    ])
    def test_witness_chunks_give_the_bytes_of_the_per_case_checks(self, name, xs, epsilons):
        grid = [(name, x, harness.Each(eps)) for x in xs for eps in epsilons
                if name != "fannes" or bounds.fannes_admissible(x, eps)]
        # the chunks hold several cases each, the d = 64 AF pair two at a time
        assert len(harness._chunks(grid, harness._witness_bytes)) < len(grid)
        per_case = harness._check(f"witness {name}", grid, _per_case(_witness_case),
                                  None, CampaignConfig.tolerance, _one_case)
        rows = harness.check_witnesses(name, xs, epsilons, CampaignConfig.tolerance)
        assert [(x, eps.value) for _, x, eps in grid] == [(x, eps) for x, eps, _ in rows]
        chunked = CampaignReport.of_records([rec for *_, rec in rows])
        for fmt in ("csv", "json"):
            assert render_report(chunked, fmt) == render_report(per_case, fmt)

    @pytest.mark.parametrize("config", [
        CampaignConfig("tightness", dims=(2, 3, 5, 16), epsilons=(0.01, 0.2, 0.5, 0.75, 0.99, 1.0)),
        CampaignConfig("cor_pure", dims=(2, 3, 16), samples=6, seed=12),
    ], ids=["tightness", "cor_pure"])
    def test_gram_marginals_keep_the_tightness_records_within_the_budget(self, monkeypatch,
                                                                         config):
        """The factored marginals formed by their Gram form (B of the AF
        witnesses, A of the pure states) move no row and no verdict of
        ``verify tightness`` or ``verify cor_pure`` from those of the einsum
        over each state's dense ``mat``, and no ``lhs``, ``rhs`` or ``slack``
        by more than 1e-12."""
        shipped = run_campaign(config).records
        calls = []

        def dense_marginals(vecs, lam, c, traces, dims, keep):
            calls.append(len(vecs))
            marginals = []
            for state_parts in zip(vecs, lam, c, traces):
                state = BipartiteState.factored(*state_parts[:3], dims)
                assert (state._divisor or 1.0) == state_parts[3]
                marginals.append(states.partial_traces(state.mat, dims, keep))
            return np.stack(marginals)

        monkeypatch.setattr(states, "factored_marginals", dense_marginals)
        monkeypatch.setattr(bounds, "factored_marginals", dense_marginals)
        dense = run_campaign(config).records
        assert calls and len(shipped) == len(dense)
        moved = ("lhs", "rhs", "slack")
        for got, want in zip(shipped, dense):
            assert {k: v for k, v in got.items() if k not in moved} == {
                k: v for k, v in want.items() if k not in moved}
            for key in moved:
                assert abs(got[key] - want[key]) <= 1e-12

    def test_witness_chunks_hold_one_x_within_the_byte_budget(self):
        grid = [("af", d, harness.Each(eps)) for d in (2, 300, 64, 2)
                for eps in (0.25, 0.5, 1.0)]
        # a d = 300 case (2.75 MiB) alone, two d = 64 cases (128 KiB each) at a time
        assert [cases for cases, _ in harness._chunks(grid, harness._witness_bytes)] == [
            [0, 1, 2, 9, 10, 11], [3], [4], [5], [6, 7], [8]]

    def test_chunks_hold_equal_parameters_within_the_byte_budget(self):
        grid = harness._dims_by_samples((2, 128, 2), 3)
        assert harness._chunks(grid, harness._pair_bytes) == [
            ([0, 1, 2, 6, 7, 8], (2,)), ([3], (128,)), ([4], (128,)), ([5], (128,))]

    def test_af_records_come_out_in_case_order(self):
        # the grid alternates classical_b, so a chunk is every other case
        records = run_campaign(CampaignConfig("af", dims=(2, 3), samples=4, seed=5)).records
        assert [r["case"] for r in records] == list(range(16))
        assert [r["variant"] for r in records] == ["af_general", "af_classical_B"] * 8
        assert [r["dim"] for r in records] == [2] * 8 + [3] * 8

    @pytest.mark.parametrize("suite", SUITES)
    def test_every_suite_runs_clean(self, suite):
        cfg = CampaignConfig(suite=suite, dims=(2, 3), samples=3, seed=1,
                             energies=(1.0, 2.0), epsilons=(0.1, 0.3, 0.6))
        report = run_campaign(cfg)
        assert report.records
        assert report.violations == 0
        assert report.min_slack >= -cfg.tolerance
        layout = [(r["case"], r["variant"], r["dim"], r["energy"]) for r in report.records]
        assert layout == CASE_LAYOUT[suite]

    def test_deterministic_given_seed(self):
        cfg = CampaignConfig(suite="fannes", **SMALL)
        a = render_report(run_campaign(cfg), "csv")
        b = render_report(run_campaign(cfg), "csv")
        assert a == b

    def test_seed_changes_records(self):
        a = run_campaign(CampaignConfig(suite="fannes", dims=(3,), samples=5, seed=1))
        b = run_campaign(CampaignConfig(suite="fannes", dims=(3,), samples=5, seed=2))
        assert [r["lhs"] for r in a.records] != [r["lhs"] for r in b.records]

    @pytest.mark.parametrize("seed", [0, 1, 12, 2**32 - 1, 2**32, 2**64 + 5, 10**40])
    def test_case_generators_are_those_of_default_rng(self, seed):
        """Case k of seed s gets the generator ``default_rng([s, k])`` gives,
        hashed for all the cases at once, whatever the words of s and k."""
        cases = [0, 1, 2, 255, 2**32 - 1]
        for k, rng in zip(cases, harness._generators(harness._seed_states(seed, cases)),
                          strict=True):
            expected = np.random.default_rng([seed, k])
            assert rng.bit_generator.state == expected.bit_generator.state
            assert rng.standard_normal(5).tolist() == expected.standard_normal(5).tolist()
        with pytest.raises(TypeError):
            rng.spawn(1)

    def test_the_generators_of_a_whole_grid_are_those_of_default_rng(self):
        states = harness._seed_states(12, np.arange(400))
        # a strided view as well: PCG64 reads a row's memory as it lies
        for view in (states, np.asfortranarray(states)):
            for k, rng in enumerate(harness._generators(view)):
                expected = np.random.default_rng([12, k])
                assert rng.bit_generator.state == expected.bit_generator.state

    def test_csv_schema_line(self):
        text = render_report(run_campaign(CampaignConfig(suite="fannes", **SMALL)), "csv")
        assert text.startswith(SCHEMA_LINE + "\r\n")
        header = text.split("\r\n")[1]
        assert header.startswith("suite,case,variant,dim")

    def test_json_roundtrip(self):
        report = run_campaign(CampaignConfig(suite="fannes", **SMALL))
        data = json.loads(render_report(report, "json"))
        assert len(data) == len(report.records)
        assert data[0]["suite"] == "fannes"
        assert isinstance(data[0]["slack"], float)

    def test_output_file_written(self, tmp_path):
        path = str(tmp_path / "out.csv")
        cfg = CampaignConfig(suite="fannes", output=path, **SMALL)
        run_campaign(cfg)
        with open(path) as fh:
            assert fh.readline().startswith("# entrobounds-report v2")

    def test_numpy_floats_render_as_python_floats(self):
        """A np.float64 field (whose repr names its type under numpy 2)
        writes the same CSV cell as the Python float."""
        report = run_campaign(CampaignConfig(suite="fannes", **SMALL))
        as_numpy = CampaignReport.of_records([{k: np.float64(v) if type(v) is float else v
                                               for k, v in r.items()} for r in report.records])
        assert type(as_numpy.records[0]["lhs"]) is np.float64
        assert render_report(as_numpy, "csv") == render_report(report, "csv")

    def test_dc_suite_records_no_estimated_kappa(self):
        # kappa comes only from the certified bracket, so no column labels it
        cfg = CampaignConfig(suite="dc", dims=(2,), samples=2, seed=0)
        report = run_campaign(cfg)
        assert report.records
        header = render_report(report, "csv").split("\r\n")[1]
        assert "kappa_estimated" not in header.split(",")


    def test_chunks_gather_each_parameter_in_case_order(self):
        h = HamiltonianSpec.oscillators([1.0], n_max=256)
        grid = [(h, harness.Each(e)) for e in (3.0, 1.0, 2.0)] + [(h, 7)]
        assert harness._chunks(grid, harness._gibbs_bytes) == [
            ([0, 1, 2], (h, [3.0, 1.0, 2.0])), ([3], (h, 7))]
        # 127 rows of 257 weights fill a chunk
        grid = [(h, harness.Each(float(e))) for e in range(200)]
        assert [len(cases) for cases, _ in harness._chunks(grid, harness._gibbs_bytes)] == [127, 73]

    @pytest.mark.parametrize("suite", SUITES)
    def test_records_hold_python_values(self, suite):
        """Every record field is a Python str, int, float, bool or None, the
        values the serializers write directly."""
        cfg = CampaignConfig(suite=suite, dims=(2, 3), samples=2, seed=1,
                             energies=(1.0, 2.0), epsilons=(0.1, 0.3))
        for rec in run_campaign(cfg).records:
            assert {type(v) for v in rec.values()} <= {str, int, float, bool, type(None)}

    # records whose cells reach every branch of _format_value
    ODD_RECORDS = [
        {"suite": "s", "case": 0, "variant": "a,b", "dim": 2, "energy": None, "epsilon": 1e-05,
         "epsilon_prime": 1e+16, "lhs": float("inf"), "rhs": -float("inf"),
         "slack": float("nan"), "valid": False},
        {"suite": 's"q', "case": np.int64(1), "variant": "v", "dim": 3, "energy": np.float64(0.1),
         "epsilon": -0.0, "epsilon_prime": np.float64(1e-05), "lhs": np.float64(1e+16),
         "rhs": 2.5, "slack": np.float64("nan"), "valid": True},
    ]

    @pytest.mark.parametrize("records", [[], ODD_RECORDS, ODD_RECORDS[:1]])
    def test_render_report_is_the_reference_serialization(self, records):
        """The JSON of ``json.dumps(indent=2)`` and the CSV of one writerow
        per row of ``_format_value`` cells, byte for byte."""
        report = CampaignReport.of_records(records)
        assert render_report(report, "json") == _reference_json(records)
        assert render_report(report, "csv") == _reference_csv(SCHEMA_LINE,
                                                              harness.REPORT_COLUMNS, records)

    @pytest.mark.parametrize("suite", SUITES)
    def test_each_suites_report_is_the_reference_serialization(self, suite):
        """A report written from its columns is the serialization of its rows
        as dicts, byte for byte: the floats, ints and bools of the kernels'
        arrays, the constant and blank columns, the variant strings and the
        eps' column of energy_bounds, blank on its Lemma 4 rows."""
        cfg = CampaignConfig(suite, dims=(2, 3), energies=(1.0, 2.0), epsilons=(0.1, 0.3, 0.6),
                             samples=2, seed=12)
        report = run_campaign(cfg)
        records = report.records
        assert len(records) == report.size > 0
        if suite == "energy_bounds":
            assert {type(r["epsilon_prime"]) for r in records} == {type(None), float}
        assert render_report(report, "json") == _reference_json(records)
        assert render_report(report, "csv") == _reference_csv(SCHEMA_LINE,
                                                              harness.REPORT_COLUMNS, records)


class TestGibbsTable:
    def test_rows_and_error_marking(self):
        h = HamiltonianSpec.explicit([0.0, 1.0])
        rows, records = emit_gibbs_table(h, [0.25, 0.9])  # 0.9 > max mean energy 0.5
        assert rows[0]["error"] == ""
        assert rows[0]["abs_diff"] < 1e-9
        assert "attainable" in rows[1]["error"] or "interval" in rows[1]["error"]
        # the unsolvable energy is a row but no record
        assert [(r["case"], r["lhs"], r["valid"]) for r in records] == [
            (0, rows[0]["abs_diff"], True)]

    def test_rows_and_records_come_out_in_case_order(self, capsys):
        h = HamiltonianSpec.explicit([0.0, 1.0])
        rows, records = emit_gibbs_table(h, [0.25, 0.9, 0.25])
        assert [(r["E"], bool(r["error"])) for r in rows] == [(0.25, False), (0.9, True),
                                                               (0.25, False)]
        assert [(r["case"], r["energy"]) for r in records] == [(0, 0.25), (2, 0.25)]
        argv = ["gibbs-table", "--levels", "0,1", "--energies", "0.25,0.9,0.25"]
        assert cli.main(argv) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0].rstrip(":") for line in lines] == ["E=0.25", "E=0.9", "E=0.25"]
        assert lines[0] == lines[2]

    def test_file_output(self, tmp_path):
        path = str(tmp_path / "table.csv")
        h = HamiltonianSpec.oscillators([1.0], n_max=128)
        emit_gibbs_table(h, [1.0], path=path)
        with open(path) as fh:
            first = fh.readline()
        assert first.startswith("# entrobounds-gibbs-table v2: E,beta,log2_Z,")

    def test_the_table_file_is_the_reference_serialization(self, tmp_path):
        """Error rows (blank cells and a message with commas) and solved
        rows are written as ``csv.writer`` writes their dicts."""
        path = tmp_path / "table.csv"
        rows, _ = emit_gibbs_table(HamiltonianSpec.explicit([0.0, 1.0, 2.0]), [0.5, 0.75, 5.0],
                                   path=str(path))
        assert [bool(row["error"]) for row in rows] == [False, False, True]
        assert "," in rows[2]["error"]
        schema = "# entrobounds-gibbs-table v2: " + ",".join(harness.GIBBS_TABLE_COLUMNS)
        with open(path, newline="") as fh:
            assert fh.read() == _reference_csv(schema, harness.GIBBS_TABLE_COLUMNS, rows)


    def test_one_stacked_solve_per_grid_and_per_chunk(self, monkeypatch, capsys):
        """``verify gibbs`` and each ``gibbs-table`` solve their whole grid
        in one ``solve_betas`` call, ``energy_bounds`` one call per chunk."""
        calls = []
        solve = gibbs.solve_betas
        monkeypatch.setattr(gibbs, "solve_betas",
                            lambda h, energies: calls.append(len(energies)) or solve(h, energies))
        grid = ",".join(str(0.5 * k) for k in range(1, 41))
        assert cli.main(["verify", "gibbs", "--energies", grid]) == cli.EXIT_OK
        assert calls == [40]
        for modes in ("1.0", "1.0,2.0"):
            calls.clear()
            argv = ["gibbs-table", "--modes", modes, "--energies", "0.25,0.5,1,2,3,4,6,8,12,16"]
            assert cli.main(argv) == cli.EXIT_OK
            assert calls == [10]
        calls.clear()
        argv = ["verify", "energy_bounds", "--energies", "1,2,4,8", "--samples", "10"]
        assert cli.main(argv) == cli.EXIT_OK
        assert calls == [20] * 4  # a chunk's Lemma 4 and Meta 5 energies

    def test_a_verify_gibbs_energy_outside_the_domain_exits_2(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        rc = cli.main(["verify", "gibbs", "--energies", "0.5,-1", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "energy -1.0 outside the attainable open interval" in captured.err
        assert captured.out == "" and not out.exists()

    def test_an_energy_outside_the_domain_keeps_its_own_row(self, capsys):
        assert cli.main(["gibbs-table", "--levels", "0,1,2", "--energies", "0.5,1,5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 and " beta=" in lines[0]
        assert lines[1:] == [
            "E=1.0: energy 1.0 outside the attainable open interval (0, 1.0)",
            "E=5.0: energy 5.0 outside the attainable open interval (0, 1.0)"]


class TestCli:
    def test_verify_ok(self, capsys):
        rc = cli.main(["verify", "fannes", "--dims", "2,3", "--samples", "3",
                       "--seed", "1"])
        assert rc == cli.EXIT_OK
        assert "violations=0" in capsys.readouterr().out

    def test_verify_writes_report(self, tmp_path, capsys):
        path = str(tmp_path / "r.csv")
        rc = cli.main(["verify", "couplings", "--dims", "2", "--samples", "2",
                       "--seed", "0", "--out", path])
        assert rc == cli.EXIT_OK
        assert os.path.exists(path)

    def test_verify_byte_reproducible(self, tmp_path):
        paths = [str(tmp_path / f"r{i}.csv") for i in range(2)]
        for p in paths:
            assert cli.main(["verify", "af", "--dims", "2", "--samples", "2",
                             "--seed", "3", "--out", p]) == cli.EXIT_OK
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()

    def test_importing_the_cli_loads_no_numpy_random(self):
        """The case generators' seed sequence class is built on first use, so
        a command that draws nothing never loads ``numpy.random``."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = ("import sys\nimport numpy\nprint('numpy.random' in sys.modules)\n"
                  "import entrobounds.cli\nprint('numpy.random' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                              capture_output=True, text=True)
        by_numpy, by_cli = proc.stdout.split()
        if by_numpy == "True":
            pytest.skip("this numpy loads numpy.random on its own import")
        assert by_cli == "False"

    @pytest.mark.parametrize("slack, line, rc", [
        ([np.nan, 0.5, -np.inf, np.inf], "min_slack=nan max_slack=nan violations=2", 1),
        ([0.5, -np.inf, np.inf, np.nan], "min_slack=-inf max_slack=inf violations=2", 1),
        ([np.inf, 0.5, 2.0, 1.0], "min_slack=5.000e-01 max_slack=inf violations=0", 0),
        ([0.5, -np.inf, 2.0, 1.0], "min_slack=-inf max_slack=2.000e+00 violations=1", 1),
    ])
    def test_the_summary_line_reads_the_slack_column_as_the_builtins_do(
            self, slack, line, rc, monkeypatch, capsys):
        """min and max of a slack column keep the builtins' walk: a NaN
        first is the result, a NaN after the first value is skipped (numpy's
        min and max would give NaN for both), and a NaN is no valid row."""
        report = run_campaign(CampaignConfig("fannes", dims=(2,), samples=4, seed=1))
        slack = np.array(slack)
        report = dataclasses.replace(report, columns={**report.columns, "slack": slack,
                                                      "valid": slack >= -1e-9})
        monkeypatch.setattr(cli, "run_campaign", lambda cfg: report)
        assert cli.main(["verify", "fannes"]) == rc
        assert capsys.readouterr().out == f"suite=fannes cases=4 {line}\n"
        records = report.records
        assert (report.min_slack, report.max_slack, report.violations) == pytest.approx((
            min((r["slack"] for r in records), default=np.inf),
            max((r["slack"] for r in records), default=-np.inf),
            sum(1 for r in records if not r["valid"])), nan_ok=True)
        # a float column's NaN and +-inf as json.dumps and csv.writer spell them
        assert render_report(report, "json") == _reference_json(records)
        assert render_report(report, "csv") == _reference_csv(SCHEMA_LINE,
                                                              harness.REPORT_COLUMNS, records)

    def test_verify_gibbs_applies_the_tolerance_once(self, capsys, monkeypatch):
        # formula-vs-direct gaps: 8.95e-10 at E=10, 2.80e-9 at E=10.5 (< 2 tol)
        gaps = {10.0: 8.95e-10, 10.5: 2.80e-9}
        monkeypatch.setattr(gibbs, "entropy_checks", lambda sols: (
            sols.entropy, np.array([gaps[e] for e in sols.energies])))
        rc = cli.main(["verify", "gibbs", "--energies", "10,10.5", "--tol", "1.5e-9"])
        assert rc == cli.EXIT_VIOLATIONS
        assert "violations=1" in capsys.readouterr().out

    def test_gibbs_checks_pass_where_the_truncated_sum_fell_short(self):
        """The single-mode tail at E >= 10.5 and the two-mode weights below
        1e-12 are in the direct entropy, so both checks pass the default --tol."""
        assert cli.main(["verify", "gibbs", "--energies", "10.5,11,20"]) == cli.EXIT_OK
        assert cli.main(["gibbs-table", "--modes", "1.0,2.0",
                         "--energies", "2,3,4,8"]) == cli.EXIT_OK

    def test_gibbs_checks_keep_their_digits_at_large_energies(self):
        """At E = 1e17, e^{-beta hbar omega} rounds to 1; 1 - q comes from
        expm1, so the check and the table row are finite and pass."""
        assert cli.main(["verify", "gibbs", "--energies", "1e10,1e17"]) == cli.EXIT_OK
        rows, _ = emit_gibbs_table(HamiltonianSpec.oscillators([1.0]), [1e17])
        assert rows[0]["error"] == "" and rows[0]["abs_diff"] <= 1e-9

    def test_gibbs_table_beyond_the_largest_float_partition_function(self, capsys):
        """Z of modes (1, 2) at E = 1e200 is about 2^1326; log2 Z is summed
        in log space, so the row is finite, with no overflow warning."""
        assert cli.main(["gibbs-table", "--modes", "1,2", "--energies", "1e200"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "log2_Z=1325.77" in out and "inf" not in out

    def test_reports_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """The d=16 tightness, cor_pure and couplings suites (256-dim witness
        and pure pairs, and coupling states that are never decomposed), the
        stacked fannes, af and energy_bounds suites (batched decompositions
        of 64-dim states, of 64-dim bipartite states and of energy blocks)
        and chunks of 25 d=4 couplings and cor_pure cases give the same
        bytes with 1 and with 2 BLAS threads."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        calls = [["verify", "tightness", "--dims", "16", "--eps", "0.05,0.25,0.5"],
                 ["verify", "cor_pure", "--dims", "16", "--samples", "8", "--seed", "1"],
                 ["verify", "couplings", "--dims", "16", "--samples", "2", "--seed", "1"],
                 ["verify", "fannes", "--dims", "64", "--samples", "4"],
                 ["verify", "af", "--dims", "8", "--samples", "4"],
                 ["verify", "energy_bounds", "--energies", "1,8", "--samples", "4"],
                 ["verify", "couplings", "--dims", "4", "--samples", "25", "--seed", "1"],
                 ["verify", "cor_pure", "--dims", "4", "--samples", "25", "--seed", "1"]]
        reports = {}
        for threads in ("1", "2"):
            outs = [str(tmp_path / f"{threads}-{k}.csv") for k in range(len(calls))]
            script = "import sys\nfrom entrobounds.cli import main\nsys.exit(" + " or ".join(
                f"main({call + ['--out', out]!r})" for call, out in zip(calls, outs)) + ")\n"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-c", script], env=env, check=True,
                           capture_output=True)
            reports[threads] = []
            for out in outs:
                with open(out, "rb") as fh:
                    reports[threads].append(fh.read())
        assert reports["1"] == reports["2"]

    def test_config_file_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        # blank and comment lines read as if they were absent
        cfg.write_text("# a comment\ndims=2\n\nsamples=2\n  # indented\nseed=5\n")
        rc = cli.main(["verify", "fannes", "--config", str(cfg), "--samples", "4"])
        assert rc == cli.EXIT_OK
        assert "cases=4" in capsys.readouterr().out

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bogus=1\n")
        rc = cli.main(["verify", "fannes", "--config", str(cfg)])
        assert rc == cli.EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_line_exits_2(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("just a line\n")
        assert cli.main(["verify", "fannes", "--config", str(cfg)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command", ["verify tightness", "witness fannes"])
    def test_empty_grid_exits_2(self, command, capsys):
        # eps = 0.75 exceeds 1 - 1/d at d = 2, so nothing is checked; at
        # d = 0 (where 1/d would divide by zero) and d = 1 there is no witness
        for dims, error in (("2", "grid has no cases"), ("0", "dimension must be >= 2, got 0"),
                            ("1", "dimension must be >= 2, got 1")):
            rc = cli.main([*command.split(), "--dims", dims, "--eps", "0.75"])
            assert rc == cli.EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and error in captured.err
            assert captured.out == ""

    def test_witness_fannes(self, capsys):
        rc = cli.main(["witness", "fannes", "--dims", "2,4", "--eps", "0.25"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "valid=True" in out

    def test_witness_verdicts_follow_tol(self, capsys):
        # the d=8, eps=0.25 witness saturates its bound to slack -2.2e-16
        rc = cli.main(["witness", "fannes", "--dims", "2,8", "--eps", "0.25,0.5",
                       "--tol", "0"])
        assert rc == cli.EXIT_VIOLATIONS
        lines = capsys.readouterr().out.splitlines()
        assert [line.endswith("valid=True") for line in lines] == [True, True, False, True]

    def test_witness_oscillator(self, capsys):
        rc = cli.main(["witness", "oscillator", "--eps", "0.2",
                       "--energies", "10"])
        assert rc == cli.EXIT_OK

    def test_witness_oscillator_at_a_huge_energy_exits_2(self, capsys):
        """At E = 1e16, E/(E+1) rounds to 1; the cutoff comes from
        log q = -log1p(1/E) and is refused by the dense limit."""
        rc = cli.main(["witness", "oscillator", "--energies", "1e16", "--eps", "0.25"])
        assert rc == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "dense limit" in captured.err
        assert captured.out == ""

    def test_witness_oscillator_loops_over_energies(self, capsys):
        rc = cli.main(["witness", "oscillator", "--energies", "10,20,40", "--eps", "0.1,0.2"])
        assert rc == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            f"oscillator E={e} eps={eps}"
            for e in (10.0, 20.0, 40.0) for eps in (0.1, 0.2)]
        assert len({line.split(": ")[1] for line in lines}) == 6

    def test_gibbs_table_command(self, capsys):
        rc = cli.main(["gibbs-table", "--energies", "0.5,1.0", "--modes", "1.0"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "beta=" in out

    def test_gibbs_table_explicit_levels_domain_error_row(self, capsys):
        rc = cli.main(["gibbs-table", "--levels", "0,1", "--energies", "0.25,0.9"])
        # the unattainable row is reported, not a violation of the identity
        assert rc == cli.EXIT_OK

    def test_the_cached_parser_gives_each_call_what_a_fresh_process_gives(self, tmp_path,
                                                                           capsys):
        """The parser is built once per process.  An unread setting (exit 2),
        a usage error (``SystemExit``) and valid calls of three subcommands,
        made in turn in one process, each give the exit code, output and
        report of the same call in a new process; no flag of one call, such
        as ``--levels``, reaches the next."""
        calls = [["verify", "gibbs", "--energies", "1", "--samples", "3"],
                 ["witness", "fannes", "--out", "x.csv"],
                 ["gibbs-table", "--levels", "0,1", "--energies", "0.25,0.9", "--out", "t1.csv"],
                 ["gibbs-table", "--energies", "0.5,1", "--out", "t2.csv"],
                 ["verify", "fannes", "--dims", "2", "--samples", "2", "--out", "f.csv"],
                 ["witness", "af", "--dims", "2", "--eps", "0.5"]]
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        script = "import sys\nfrom entrobounds.cli import main\nsys.exit(main(sys.argv[1:]))\n"

        def report(argv):
            out = tmp_path / argv[argv.index("--out") + 1] if "--out" in argv else None
            return out.read_bytes() if out and out.exists() else None

        fresh = []
        for argv in calls:
            proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, cwd=tmp_path,
                                  capture_output=True, text=True)
            fresh.append((proc.returncode, proc.stdout, proc.stderr, report(argv)))
        for f in tmp_path.iterdir():
            f.unlink()
        assert cli._build_parser() is cli._build_parser()
        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            for argv, expected in zip(calls, fresh):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code
                out, err = capsys.readouterr()
                assert (rc, out, err, report(argv)) == expected
        finally:
            os.chdir(cwd)
        assert [f[0] for f in fresh] == [2, 2, 0, 0, 0, 0]

    def test_coupling_demo(self, capsys):
        rc = cli.main(["coupling-demo", "--dims", "3", "--seed", "2"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "decomposition: max|omega - (sigma + eps Delta)/(1+eps)| = " in out
        assert "diagonal coupling: spectral eps=" in out
        assert [line.split(":")[0] for line in out.splitlines() if " valid=" in line] == [
            "quantum_overlap_psi", "quantum_overlap_phi", "quantum_fidelity_theta",
            "diagonal_largest_eigenvalue"]

    def test_coupling_demo_verdict_includes_the_fidelity(self, monkeypatch, capsys):
        monkeypatch.setattr(couplings, "pure_fidelities", lambda w, overlaps: np.zeros(len(w)))
        assert cli.main(["coupling-demo", "--dims", "3", "--seed", "2"]) == cli.EXIT_VIOLATIONS
        assert "quantum_fidelity_theta: lhs=0.235107 rhs=0.000000 " in capsys.readouterr().out

    def test_coupling_demo_with_a_nan_fidelity_exits_1(self, monkeypatch, capsys):
        """A NaN is no valid overlap, wherever it falls among the records."""
        monkeypatch.setattr(couplings, "pure_fidelities",
                            lambda w, overlaps: np.full(len(w), np.nan))
        assert cli.main(["coupling-demo", "--dims", "3", "--seed", "2"]) == cli.EXIT_VIOLATIONS
        out = capsys.readouterr().out
        assert "quantum_fidelity_theta: lhs=0.235107 rhs=nan slack=nan valid=False" in out

    def test_gibbs_table_with_a_nan_gap_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(gibbs, "entropy_checks", lambda sols: (
            sols.entropy, np.full(len(sols.energies), np.nan)))
        assert cli.main(["gibbs-table", "--energies", "1"]) == cli.EXIT_VIOLATIONS
        assert cli.main(["verify", "gibbs", "--energies", "1"]) == cli.EXIT_VIOLATIONS
        assert "|diff|=nan" in capsys.readouterr().out

    def test_coupling_demo_replays_case_0_of_the_couplings_suite(self, tmp_path, capsys):
        """The demo's records are those of ``verify couplings --samples 1``
        under the same seed, so every demo replays from (seed, case 0)."""
        out = tmp_path / "c.json"
        assert cli.main(["verify", "couplings", "--dims", "3", "--samples", "1", "--seed", "2",
                         "--format", "json", "--out", str(out)]) == cli.EXIT_OK
        records = json.loads(out.read_text())
        capsys.readouterr()
        assert cli.main(["coupling-demo", "--dims", "3", "--seed", "2"]) == cli.EXIT_OK
        lines = [line for line in capsys.readouterr().out.splitlines() if " valid=" in line]
        assert len(lines) == len(records) == 4
        for line, rec in zip(lines, records):
            assert rec["case"] == 0
            assert line == (f"{rec['variant']}: lhs={rec['lhs']:.6f} rhs={rec['rhs']:.6f} "
                            f"slack={rec['slack']:.3e} valid={rec['valid']}")

    def test_coupling_demo_draws_its_pair_once(self, monkeypatch, capsys):
        """The diagnostics read the pair the couplings case drew and
        decomposed, not a second draw of it."""
        draws = []
        ginibre = states._ginibre
        monkeypatch.setattr(states, "_ginibre", lambda *args: draws.append(args) or ginibre(*args))
        assert cli.main(["coupling-demo", "--dims", "3", "--seed", "2"]) == cli.EXIT_OK
        assert "sampled pair: d=3 seed=2 case=0 " in capsys.readouterr().out
        assert len(draws) == 1

    def test_fannes_campaign_calls_no_vector_solver(self, solver_calls, tmp_path):
        """The fannes records read spectra and trace distances alone."""
        argv = ["verify", "fannes", "--dims", "64", "--samples", "2",
                "--out", str(tmp_path / "f.csv")]
        assert cli.main(argv) == cli.EXIT_OK
        assert solver_calls and {name for name, _ in solver_calls} == {"eigvalsh"}

    def test_tightness_suite_calls_no_vector_solver(self, solver_calls, tmp_path):
        """The witnesses bring their spectra; the chunk of the three AF cases
        at each d calls one eigvalsh for their 2 x 2 trace-distance problems
        and one more for their six B marginals, validated as one stack, and a
        Fannes chunk, whose diagonal states are block operators of 1 x 1
        blocks, none: 8 calls for the 24 cases."""
        argv = ["verify", "tightness", "--dims", "2,4,8,16", "--eps", "0.05,0.25,0.5",
                "--out", str(tmp_path / "t.csv")]
        assert cli.main(argv) == cli.EXIT_OK
        assert solver_calls == [call for d in (2, 4, 8, 16)
                                for call in (("eigvalsh", (3, 2, 2)), ("eigvalsh", (6, d, d)))]

    def test_classical_b_cases_decompose_no_qc_matrix(self, solver_calls, monkeypatch, tmp_path):
        """The classical_B states of ``verify af --dims 3`` are held as their
        3 blocks of 3 x 3, so no solver sees a 9 x 9 matrix there; the
        general cases decompose their 9 x 9 states."""
        grid_fn, case_fn, reads, case_bytes = harness._SUITE_TABLE["af"]
        seen = {False: [], True: []}

        def recorded(rngs, d, classical_b):
            solver_calls.clear()
            reports = case_fn(rngs, d, classical_b)
            seen[classical_b] += solver_calls
            return reports

        monkeypatch.setitem(harness._SUITE_TABLE, "af", (grid_fn, recorded, reads, case_bytes))
        argv = ["verify", "af", "--dims", "3", "--samples", "2", "--out", str(tmp_path / "a.csv")]
        assert cli.main(argv) == cli.EXIT_OK
        assert seen[True] and all(shape[-1] == 3 for _, shape in seen[True])
        assert ("eigvalsh", (4, 9, 9)) in seen[False]

    def test_couplings_decompose_no_matrix_above_d(self, monkeypatch, tmp_path):
        """At d = 16 the couplings are 256 x 256 states, and none is decomposed."""
        sizes = []
        for name in ("eigh", "eigvalsh", "svd", "qr"):
            original = getattr(np.linalg, name)

            def counted(a, *args, _original=original, **kwargs):
                sizes.append(np.shape(a)[-1])
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        argv = ["verify", "couplings", "--dims", "16", "--samples", "2", "--seed", "1",
                "--out", str(tmp_path / "c.csv")]
        assert cli.main(argv) == cli.EXIT_OK
        assert sizes and max(sizes) <= 16

    @pytest.mark.parametrize("argv", [
        "witness fannes --out {out}",
        "gibbs-table --energies 1 --format json --out {out}",
        "coupling-demo --eps 0.1",
        "--bogus witness fannes",
    ])
    def test_flag_the_subcommand_does_not_read_exits_2(self, argv, tmp_path, capsys):
        out = tmp_path / "r.txt"
        with pytest.raises(SystemExit) as exc:
            cli.main(argv.format(out=out).split())
        assert exc.value.code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        # a flag before the subcommand is reported with the top-level usage
        usage = "[-h]" if argv.startswith("-") else argv.split()[0]
        assert f"usage: entrobounds {usage}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    @pytest.mark.parametrize("command", ["verify fannes --dims 2 --samples 3", "witness fannes",
                                         "gibbs-table --energies 1", "coupling-demo"])
    def test_tolerance_must_be_finite_and_nonnegative(self, command, tol, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([*command.split(), "--tol", tol])
        assert exc.value.code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"argument --tol: invalid tolerance value: '{tol}'" in captured.err
        assert captured.out == ""

    def test_tolerance_in_a_config_file_is_checked(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("tol=nan\n")
        rc = cli.main(["verify", "fannes", "--dims", "2", "--samples", "1", "--config", str(cfg)])
        assert rc == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "error: invalid tolerance value: 'nan'" in captured.err
        assert captured.out == ""

    def test_witness_oscillator_energy_domain_exits_2(self, capsys):
        rc = cli.main(["witness", "oscillator", "--energies", "-1"])
        assert rc == cli.EXIT_CONFIG
        assert "energy must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("energy", ["nan", "inf"])
    def test_witness_oscillator_non_finite_energy_exits_2(self, energy, capsys):
        rc = cli.main(["witness", "oscillator", "--energies", energy])
        assert rc == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "energy must be positive and finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        "gibbs-table --modes nan --energies 1",
        "gibbs-table --modes inf --energies 1",
        "gibbs-table --levels 0,nan --energies 0.2",
        "gibbs-table --levels 0,inf --energies 0.2",
    ])
    def test_gibbs_table_non_finite_energies_exit_2(self, argv, capsys):
        assert cli.main(argv.split()) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert captured.out == ""

    def test_coupling_demo_takes_one_dimension(self, capsys):
        assert cli.main(["coupling-demo", "--dims", "3,4"]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "one --dims value" in captured.err
        assert captured.out == ""

    def test_witness_lines_match_the_tightness_records(self, capsys):
        report = run_campaign(CampaignConfig(suite="tightness", dims=(2, 4),
                                             epsilons=(0.25, 0.5)))
        # every (d, eps) of this grid admits both witnesses, in case order
        keys = [(w, d, eps) for d in (2, 4) for eps in (0.25, 0.5) for w in ("fannes", "af")]
        records = dict(zip(keys, report.records, strict=True))
        for name in ("fannes", "af"):
            assert cli.main(["witness", name, "--dims", "2,4", "--eps", "0.25,0.5"]) == cli.EXIT_OK
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 4
            for line, (d, eps) in zip(lines, [(2, 0.25), (2, 0.5), (4, 0.25), (4, 0.5)]):
                rec = records[(name, d, eps)]
                assert rec["variant"].startswith(name)
                assert line == (f"{name} d={d} eps={eps}: lhs={rec['lhs']:.6f} "
                                f"rhs={rec['rhs']:.6f} slack={rec['slack']:.3e} "
                                f"valid={rec['valid']}")

    @pytest.mark.parametrize("argv", [
        "witness af --dims 2,3 --eps 0.5,1.5",
        "witness af --dims 2,1 --eps 0.5",
        "witness af --dims 3,2,3 --eps 0.5,1.5",
        "witness oscillator --energies 1,-1 --eps 0.5,0.25",
        "witness oscillator --energies 1 --eps 0.5,0,2",
        # E / eps past the largest float: the second case's bound fails first
        "witness oscillator --energies 100 --eps 0.5,1e-310,2",
        "witness oscillator --energies 100,1 --eps 2,1e-310",
    ])
    def test_a_witness_run_raises_the_error_of_its_first_failing_case(self, argv, capsys):
        _, name, axis, xs, _, epsilons = argv.split()
        xs = [(int if axis == "--dims" else float)(x) for x in xs.split(",")]
        grid = [(name, x, harness.Each(float(eps))) for x in xs for eps in epsilons.split(",")]
        with pytest.raises(ValueError) as per_case:
            harness._check("witness", grid, _per_case(_witness_case), None, 0.0, _one_case)
        assert cli.main(argv.split()) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"error: {per_case.value}\n"
        assert captured.out == ""

    def test_witness_that_fails_partway_prints_no_line(self, capsys):
        rc = cli.main(["witness", "af", "--dims", "2", "--eps", "0.5,1.5"])
        assert rc == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "outside (0, 1]" in captured.err
        assert captured.out == ""

    def test_grid_too_large_to_allocate_exits_2(self, monkeypatch, capsys):
        def refuse(*args):
            raise MemoryError("Unable to allocate 11.9 GiB")
        monkeypatch.setattr("entrobounds.harness.draw_state_matrices", refuse)
        rc = cli.main(["verify", "af", "--dims", "200", "--samples", "1"])
        assert rc == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "error: Unable to allocate 11.9 GiB" in captured.err
        assert captured.out == ""

    @staticmethod
    def _run_capped(argv):
        """``main(argv)`` in a child under a 3 GB address-space cap, so that
        a missing size check is refused an allocation instead of exhausting
        the host.  Returns the process and its tracemalloc peak in bytes."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = ("import sys, tracemalloc\nfrom entrobounds.cli import main\n"
                  "tracemalloc.start()\nrc = main(sys.argv[1:])\n"
                  "print(tracemalloc.get_traced_memory()[1], file=sys.stderr)\nsys.exit(rc)\n")
        # one BLAS thread: each thread's buffers count against the cap
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        cap = 3 * 10**9
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv.split()], env=env, capture_output=True,
            text=True, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        *err, peak = proc.stderr.splitlines()
        return proc, err, int(peak)

    @pytest.mark.parametrize("argv", [
        "verify af --dims 200 --samples 1",  # 40000-dim states, 11.9 GiB each
    ])
    def test_operator_above_the_dense_limit_exits_2_before_allocating(self, argv):
        proc, err, peak = self._run_capped(argv)
        assert proc.returncode == cli.EXIT_CONFIG
        assert proc.stdout == ""
        assert "dense limit" in err[-1]
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("argv, lines", [
        # 22500-dim couplings, 7.54 GiB each as a dense matrix
        ("verify couplings --dims 150 --samples 1", "suite=couplings cases=4 "),
        # a 90000-dim witness, 121 GiB as a dense matrix
        ("witness af --dims 300", "af d=300 eps=0.25: "),
    ])
    def test_structured_operators_above_the_dense_limit_build_no_matrix(self, argv, lines):
        """The coupling states and the AF witness are held as their parts, so
        these runs succeed under the cap, every record valid."""
        proc, err, peak = self._run_capped(argv)
        assert proc.returncode == cli.EXIT_OK, err
        assert proc.stdout.startswith(lines)
        assert "violations=0" in proc.stdout or proc.stdout.rstrip().endswith("valid=True")
        assert peak < 64 * 2**20

    def test_a_chunk_of_large_states_peaks_no_higher_than_one_case_at_a_time(self):
        # one state object at a time, the campaign peaked at 3,051,754 bytes
        proc, _, peak = self._run_capped("verify fannes --dims 128 --samples 4")
        assert proc.returncode == cli.EXIT_OK
        assert peak <= 1.1 * 3_051_754

    @pytest.mark.parametrize("argv, parent_peak", [
        # one coupling and one pure pair at a time, the campaigns peaked at
        # 7,456,787 and 6,341,307 bytes
        ("verify couplings --dims 16 --samples 4", 7_456_787),
        ("verify cor_pure --dims 16 --samples 8", 6_341_307),
    ])
    def test_stacked_couplings_and_corollaries_peak_no_higher_than_one_case_at_a_time(
            self, argv, parent_peak):
        proc, _, peak = self._run_capped(argv)
        assert proc.returncode == cli.EXIT_OK
        assert peak <= parent_peak

    def test_no_witness_or_coupling_case_reads_a_product_space_matrix(self, monkeypatch, capsys):
        """A spy on the ``mat`` getter: the ``tightness``, ``witness af``,
        ``couplings`` and ``cor_pure`` cases at d = 3 and 16 read d x d
        matrices only, never a d^2 x d^2 one (the AF witness, Theta, the
        diagonal omega or a pure pair)."""
        getter = HermitianOperator.mat.fget
        read = set()

        def spy(op):
            read.add(op.dim)
            return getter(op)

        monkeypatch.setattr(HermitianOperator, "mat", property(spy))
        for argv in (["verify", "tightness", "--dims", "3,16", "--eps", "0.05,0.25,0.5"],
                     ["witness", "af", "--dims", "3,16", "--eps", "0.25,1"],
                     ["verify", "couplings", "--dims", "3,16", "--samples", "3"],
                     ["verify", "cor_pure", "--dims", "3,16", "--samples", "3"],
                     ["coupling-demo", "--dims", "16"]):
            assert cli.main(argv) == cli.EXIT_OK
        assert read and read <= {3, 16}

    def test_small_couplings_chunks_hold_no_spare_theta(self):
        # with the slack product and its copy of theta[full] alive, the
        # campaign peaked at 1,676,845 bytes
        proc, _, peak = self._run_capped("verify couplings --dims 2,3,4 --samples 25")
        assert proc.returncode == cli.EXIT_OK
        assert peak < 1_650_000

    def test_four_mode_gibbs_table_enumerates_no_levels(self):
        # 513^4 product levels: the closed forms never read them
        proc, err, peak = self._run_capped("gibbs-table --modes 1,1,1,1 --energies 1")
        assert proc.returncode == cli.EXIT_OK
        assert proc.stdout.startswith("E=1 beta=")
        assert peak < 2**20

    def test_config_key_the_subcommand_does_not_read_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("dims=2\nsamples=3\n")
        rc = cli.main(["witness", "fannes", "--config", str(cfg)])
        assert rc == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "samples" in captured.err
        assert captured.out == ""

    def test_every_target_names_its_settings_in_harness(self):
        assert len(UNREAD) == 19 + 3 and len(READ) == 45 + 9
        named = {**{f"verify {s}": reads for s, reads in SUITES.items()},
                 **{f"witness {w}": reads for w, reads in harness.WITNESSES.items()}}
        assert {target: tuple(f.replace("epsilons", "eps") for f in reads)
                for target, reads in named.items()} == GRID_READS

    @staticmethod
    def _argv(target, settings, as_config, tmp_path):
        argv = target.split()
        if as_config:
            cfg = tmp_path / "c.cfg"
            cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
            return argv + ["--config", str(cfg)]
        return argv + [arg for k, v in settings.items() for arg in (f"--{k}", v)]

    @pytest.mark.parametrize("as_config", [False, True], ids=["flag", "config"])
    @pytest.mark.parametrize("target, key", UNREAD)
    def test_a_setting_the_target_does_not_read_exits_2(self, target, key, as_config,
                                                         tmp_path, monkeypatch, capsys):
        def no_case(*args):
            raise AssertionError("a case ran")
        monkeypatch.setattr(harness, "_check", no_case)
        out = tmp_path / "r.csv"
        settings = {key: GRID_FLAGS[key]}
        if target.startswith("verify"):
            settings["out"] = str(out)
        assert cli.main(self._argv(target, settings, as_config, tmp_path)) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"error: {target} reads no setting '{key}'" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("as_config", [False, True], ids=["flag", "config"])
    @pytest.mark.parametrize("target, key", READ)
    def test_every_setting_the_target_reads_is_taken(self, target, key, as_config,
                                                     tmp_path, capsys):
        reads = GRID_READS[target]
        settings = {k: v for k, v in SMALL_ARGS.items() if k in reads}
        out = tmp_path / "r.csv"
        settings[key] = {"tol": "1e-6", "out": str(out), **GRID_FLAGS}.get(key, "json")
        if key == "format":
            settings["out"] = str(out)
        assert cli.main(self._argv(target, settings, as_config, tmp_path)) == cli.EXIT_OK
        assert capsys.readouterr().out
        assert out.exists() == (key in ("out", "format"))

    @pytest.mark.parametrize("as_config", [False, True], ids=["flag", "config"])
    def test_format_without_out_exits_2(self, as_config, tmp_path, capsys):
        argv = self._argv("verify fannes", {"dims": "2", "format": "json"}, as_config, tmp_path)
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "error: verify fannes reads no setting 'format'" in captured.err
        assert captured.out == ""

    def test_gibbs_table_takes_modes_or_levels(self, capsys):
        assert cli.main(["gibbs-table", "--modes", "1,2", "--levels", "0,1"]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "either levels or hbar_omegas" in captured.err
        assert captured.out == ""
        assert cli.main(["gibbs-table", "--energies", "1"]) == cli.EXIT_OK
        default = capsys.readouterr().out
        assert cli.main(["gibbs-table", "--modes", "1.0", "--energies", "1"]) == cli.EXIT_OK
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("hamiltonian", [("modes", "1.0,2.0"), ("levels", "0,1")],
                             ids=["modes", "levels"])
    def test_config_file_sets_the_gibbs_table_hamiltonian(self, hamiltonian, tmp_path, capsys):
        key, value = hamiltonian
        cfg = tmp_path / "h.cfg"
        cfg.write_text(f"{key}={value}\nenergies=1,2\n")
        assert cli.main(["gibbs-table", "--config", str(cfg)]) == cli.EXIT_OK
        from_file = capsys.readouterr().out
        assert cli.main(["gibbs-table", f"--{key}", value, "--energies", "1,2"]) == cli.EXIT_OK
        assert capsys.readouterr().out == from_file
        # the commands that take no Hamiltonian reject it
        assert cli.main(["verify", "gibbs", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert f"verify gibbs reads no setting {key!r}" in capsys.readouterr().err

    def test_gibbs_table_at_levels_of_any_scale(self, capsys):
        """Levels whose squares under- or overflow solve without a warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["gibbs-table", "--levels", "0,1e-300",
                             "--energies", "1e-301"]) == cli.EXIT_OK
            assert "beta=2.197224577e+300 " in capsys.readouterr().out
            assert cli.main(["gibbs-table", "--levels", "0,1,1e300",
                             "--energies", "1,0.5"]) == cli.EXIT_OK
            assert "attainable" not in capsys.readouterr().out

    @pytest.mark.parametrize("argv, error", [
        ("verify energy_bounds --energies -1 --samples 2", "no levels at or below energy -1.0"),
    ])
    def test_a_stacked_case_that_draws_nothing_exits_2(self, argv, error, capsys):
        assert cli.main(argv.split()) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"error: {error}\n"
        assert captured.out == ""

    def test_gibbs_table_rejects_a_subnormal_level(self, capsys):
        """beta would be about 1/level, past the largest float."""
        argv = ["gibbs-table", "--levels", "0,1e-320,1e-320", "--energies", "3e-321"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "error: level 1e-320 is positive but below the smallest normal float" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("suite", ["gibbs", "tightness"])
    def test_a_suite_that_reads_no_seed_draws_no_generator(self, suite, monkeypatch, capsys):
        def no_generator(seed, cases):
            raise AssertionError("a generator was drawn")
        monkeypatch.setattr(harness, "_seed_states", no_generator)
        assert cli.main(["verify", suite]) == cli.EXIT_OK
        assert "violations=0" in capsys.readouterr().out

    @pytest.mark.parametrize("d", [1, 0])
    @pytest.mark.parametrize("command", [
        *(f"verify {suite}" for suite, reads in SUITES.items()
          if "dims" in reads and "samples" in reads),
        "coupling-demo"])
    def test_a_sampled_run_below_dimension_2_exits_2_before_any_case(self, command, d, tmp_path,
                                                                     monkeypatch, capsys):
        def no_case(seed, cases):
            raise AssertionError("a case ran")
        monkeypatch.setattr(harness, "_seed_states", no_case)
        out = tmp_path / "r.csv"
        if command == "coupling-demo":
            argv = [command, "--dims", str(d)]
        else:  # a good dimension first: every d is checked before any case runs
            argv = [*command.split(), "--dims", f"3,{d}", "--samples", "2", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"error: dimension must be >= 2, got {d}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        "verify tightness --dims 4 --eps 0.5,nan",
        "verify tightness --dims 4 --eps 0.5,-1",
        "verify tightness --dims 4 --eps 0.5,1.5",
        "verify tightness --dims 2,4 --eps 0.9,0",
        "witness fannes --dims 4 --eps 0.5,nan",
        "witness fannes --dims 4 --eps 0.5,1.5",
        "witness fannes --dims 2,4 --eps 0.9,-0.25",
    ])
    def test_an_eps_outside_the_unit_interval_exits_2_before_any_case(self, argv, tmp_path,
                                                                      monkeypatch, capsys):
        """Every eps of a Fannes grid is held to (0, 1], as the AF witness's
        are; one in (1 - 1/d, 1] alone is skipped."""
        def no_case(*args):
            raise AssertionError("a case ran")
        for witness in ("fannes", "af"):
            monkeypatch.setitem(harness._WITNESS_CHECKS, witness, no_case)
        bad = argv.split()[-1].split(",")[-1]
        out = tmp_path / "t.csv"
        argv = argv.split() + (["--out", str(out)] if argv.startswith("verify") else [])
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"error: epsilon {float(bad)!r} outside (0, 1]\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        "verify fannes --dims 2 --samples 2",
        "verify energy_bounds --energies 1 --samples 2",
        "verify dc --dims 2 --samples 1",
        "coupling-demo",
    ])
    def test_a_negative_seed_exits_2_naming_it_before_any_case(self, argv, tmp_path,
                                                              monkeypatch, capsys):
        def no_case(states):
            raise AssertionError("a case ran")
        monkeypatch.setattr(harness, "_generators", no_case)
        out = tmp_path / "r.csv"
        argv = argv.split() + ["--seed", "-4"]
        if argv[0] == "verify":
            argv += ["--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be an integer >= 0, got -4\n"
        assert captured.out == ""
        assert not out.exists()

    def test_a_seed_of_many_words_samples_as_default_rng_does(self, capsys):
        seed = 99999999999999999999999
        records = run_campaign(CampaignConfig("fannes", dims=(3,), samples=2, seed=seed)).records
        for case, rec in enumerate(records):
            rng = np.random.default_rng([seed, case])
            rho, sigma = sample_state(3, 3, rng), sample_state(3, 3, rng)
            assert rec["epsilon"] == trace_distance(rho, sigma)
        assert cli.main(["coupling-demo", "--seed", str(seed)]) == cli.EXIT_OK
        assert f"seed={seed} case=0" in capsys.readouterr().out

    def test_corollaries_of_a_one_dimensional_marginal_exit_2(self, capsys):
        argv = ["verify", "cor_pure", "--dims", "1", "--samples", "5", "--tol", "0"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "dimension must be >= 2, got 1" in capsys.readouterr().err

    def test_verify_reads_every_config_key(self, tmp_path, capsys):
        # every key that fannes reads; energies and eps it does not
        out = tmp_path / "r.json"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"dims=2\nsamples=2\nseed=5\ntol=1e-9\nout={out}\nformat=json\n")
        rc = cli.main(["verify", "fannes", "--config", str(cfg), "--samples", "3"])
        assert rc == cli.EXIT_OK
        assert "cases=3" in capsys.readouterr().out
        assert len(json.loads(out.read_text())) == 3
