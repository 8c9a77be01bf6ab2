"""Verification campaigns: sampled bound checks over parameter grids.

Determinism contract: the campaign seed and the case counter fully
determine every sampled state.  Case ``k`` of a campaign with seed ``s``
uses ``numpy.random.default_rng([s, k])``, so reports are reproducible
bit-for-bit under the same config (wall-clock runtime is therefore kept
out of the report payload).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bnd
from . import couplings as cpl
from . import gibbs as gb
from .entropies import von_neumann_entropy
from .linalg import fidelity, trace_distance
from .states import BipartiteState, sample_pure_bipartite, sample_qc_state, sample_state

REPORT_COLUMNS = ("suite", "case", "variant", "dim", "energy", "epsilon",
                  "epsilon_prime", "lhs", "rhs", "slack", "valid", "kappa_estimated")

SCHEMA_LINE = "# entrobounds-report v1: " + ",".join(REPORT_COLUMNS)


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
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {SUITES}")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if not self.dims or not self.energies or not self.epsilons:
            raise ConfigError("grids must be non-empty")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")


@dataclass
class CampaignReport:
    config: CampaignConfig
    records: list

    @property
    def min_slack(self) -> float:
        return min((r["slack"] for r in self.records), default=math.inf)

    @property
    def max_slack(self) -> float:
        return max((r["slack"] for r in self.records), default=-math.inf)

    @property
    def violations(self) -> int:
        return sum(1 for r in self.records if not r["valid"])


def _rng(seed: int, case: int) -> np.random.Generator:
    return np.random.default_rng([seed, case])


def _from_report(rep: bnd.BoundReport) -> dict:
    return {"variant": rep.params.variant, "dim": rep.params.dim_d,
            "epsilon": rep.params.epsilon, "lhs": rep.lhs, "rhs": rep.rhs,
            "kappa_estimated": bool(rep.params.kappa_is_estimate)}


# -- suites -------------------------------------------------------------------
#
# A suite is a grid function, CampaignConfig -> list of parameter tuples
# (one per case), and a case function, (rng, *params) -> list of record
# field dicts.  Fields a case leaves out are blank in the report.


def _dims_by_samples(cfg: CampaignConfig):
    return [(d,) for d in cfg.dims for _ in range(cfg.samples)]


def _case_fannes(rng, d):
    rho = sample_state(d, d, rng)
    sigma = sample_state(d, d, rng)
    return [_from_report(bnd.check_fannes(rho, sigma))]


def _grid_af(cfg: CampaignConfig):
    return [(d, classical_b) for d in cfg.dims for _ in range(cfg.samples)
            for classical_b in (False, True)]


def _case_af(rng, d, classical_b):
    if classical_b:
        rho = sample_qc_state(d, d, rng)
        sigma = sample_qc_state(d, d, rng)
    else:
        rho = BipartiteState(sample_state(d * d, d * d, rng), (d, d))
        sigma = BipartiteState(sample_state(d * d, d * d, rng), (d, d))
    return [_from_report(bnd.check_af(rho, sigma, classical_b=classical_b))]


def _case_dc(rng, d):
    gens = [sample_state(d, d, rng).mat for _ in range(3)]
    model = bnd.ConvexSetModel(generators=gens)
    rho = sample_state(d, d, rng)
    sigma = sample_state(d, d, rng)
    return [_from_report(bnd.check_dc(rho, sigma, model, rng=rng, n_probes=50))]


def _case_couplings(rng, d):
    rho = sample_state(d, d, rng)
    sigma = sample_state(d, d, rng)
    eps = trace_distance(rho, sigma)
    qc = cpl.quantum_coupling(rho, sigma)
    shared = {"dim": d, "epsilon": eps, "lhs": 1.0 - eps}
    return [{**shared, "variant": "quantum_overlap_psi", "rhs": qc.overlap_psi},
            {**shared, "variant": "quantum_fidelity_theta",
             "rhs": fidelity(qc.psi, qc.theta)},
            {**shared, "variant": "diagonal_largest_eigenvalue",
             "rhs": cpl.diagonal_coupling(rho, sigma).largest_eigenvalue}]


def _case_cor_pure(rng, d):
    phi = sample_pure_bipartite(d, d, rng)
    psi = sample_pure_bipartite(d, d, rng)
    return [_from_report(bnd.check_cor_pure(phi, psi, which="ef"))]


def _grid_gibbs(cfg: CampaignConfig):
    h = gb.HamiltonianSpec.oscillators([1.0], n_max=256)
    return [(h, e, cfg.tolerance) for e in cfg.energies]


def _case_gibbs(rng, h, e, tol):
    _, gap = gb.entropy_check(gb.solve_beta(h, e))
    return [{"variant": "formula_vs_direct", "dim": h.dim, "energy": e,
             "lhs": gap, "rhs": tol}]


def _grid_energy_bounds(cfg: CampaignConfig):
    h = gb.HamiltonianSpec.oscillators([1.0], n_max=40)
    return [(h, e) for e in cfg.energies for _ in range(cfg.samples)]


def _case_energy_bounds(rng, h, e):
    rho = gb.sample_energy_constrained(h, e, rng=rng)
    sigma = gb.sample_energy_constrained(h, e, rng=rng)
    eps = trace_distance(rho, sigma)
    lhs = abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma))
    shared = {"dim": h.dim, "energy": e, "epsilon": eps, "lhs": lhs}
    ep = min(1.0, eps + 0.1)
    return [{**shared, "variant": "lemma4", "rhs": gb.lemma4_bound(h, e, max(eps, 1e-12))},
            {**shared, "variant": "meta5", "epsilon_prime": ep,
             "rhs": gb.meta5_bound(h, e, eps, ep)}]


def _grid_tightness(cfg: CampaignConfig):
    return [(d, eps, witness) for d in cfg.dims for eps in cfg.epsilons
            if 0.0 < eps <= 1.0 - 1.0 / d for witness in ("fannes", "af")]


def _case_tightness(rng, d, eps, witness):
    if witness == "fannes":
        return [_from_report(bnd.check_fannes(*bnd.tightness_witness_fannes(d, eps)))]
    return [_from_report(bnd.check_af(*bnd.tightness_witness_af(d, eps)))]


_SUITE_TABLE = {
    "fannes": (_dims_by_samples, _case_fannes),
    "af": (_grid_af, _case_af),
    "dc": (_dims_by_samples, _case_dc),
    "couplings": (_dims_by_samples, _case_couplings),
    "cor_pure": (_dims_by_samples, _case_cor_pure),
    "gibbs": (_grid_gibbs, _case_gibbs),
    "energy_bounds": (_grid_energy_bounds, _case_energy_bounds),
    "tightness": (_grid_tightness, _case_tightness),
}

SUITES = tuple(_SUITE_TABLE)

_BLANK_RECORD = {**dict.fromkeys(REPORT_COLUMNS), "kappa_estimated": False}


def run_campaign(config: CampaignConfig) -> CampaignReport:
    grid_fn, case_fn = _SUITE_TABLE[config.suite]
    grid = grid_fn(config)
    if not grid:
        raise ConfigError(f"the {config.suite} grid has no cases")
    records = []
    for case, params in enumerate(grid):
        for fields in case_fn(_rng(config.seed, case), *params):
            slack = fields["rhs"] - fields["lhs"]
            records.append({**_BLANK_RECORD, **fields, "suite": config.suite,
                            "case": case, "slack": slack,
                            "valid": bool(slack >= -config.tolerance)})
    report = CampaignReport(config=config, records=records)
    if config.output:
        write_report(report, config.output, config.format)
    return report


# -- serialization -------------------------------------------------------------


def _format_value(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_report(report: CampaignReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.records, indent=2, default=_format_value) + "\n"
    buf = io.StringIO()
    buf.write(SCHEMA_LINE + "\r\n")
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL)
    writer.writerow(REPORT_COLUMNS)
    for rec in report.records:
        writer.writerow([_format_value(rec[c]) for c in REPORT_COLUMNS])
    return buf.getvalue()


def write_report(report: CampaignReport, path: str, fmt: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(render_report(report, fmt))


def emit_gibbs_table(hamiltonian: gb.HamiltonianSpec, energies, path=None):
    """Tabulate (E, beta, Z, S_formula, S_direct, |diff|) over an E-grid.

    Unsolvable rows are marked with an ``error`` column instead of
    being dropped.
    """
    rows = []
    for e in energies:
        try:
            sol = gb.solve_beta(hamiltonian, e)
            direct, gap = gb.entropy_check(sol)
            rows.append({"E": e, "beta": sol.beta, "Z": sol.partition,
                         "S_formula": sol.entropy, "S_direct": direct,
                         "abs_diff": gap, "error": ""})
        except gb.EnergyDomainError as exc:
            rows.append({"E": e, "beta": None, "Z": None, "S_formula": None,
                         "S_direct": None, "abs_diff": None, "error": str(exc)})
    if path:
        cols = ("E", "beta", "Z", "S_formula", "S_direct", "abs_diff", "error")
        with open(path, "w", newline="") as fh:
            fh.write("# entrobounds-gibbs-table v1: " + ",".join(cols) + "\r\n")
            writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
            writer.writerow(cols)
            for row in rows:
                writer.writerow([_format_value(row[c]) for c in cols])
    return rows
