"""Command-line front end.

Subcommands:

* ``verify <suite>``     -- run a verification campaign over a grid
* ``witness <name>``     -- evaluate an extremal tightness witness
* ``gibbs-table``        -- tabulate the Gibbs solver over an energy grid
* ``coupling-demo``      -- build every coupling for a sampled pair

Exit codes: 0 = all checks valid, 1 = violations found,
2 = configuration or domain error.

A flat key=value config file can be passed with ``--config``; explicit
flags override file entries.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bounds as bnd
from . import couplings as cpl
from . import gibbs as gb
from .entropies import shannon_entropy
from .harness import (
    CampaignConfig,
    ConfigError,
    SUITES,
    emit_gibbs_table,
    run_campaign,
)
from .linalg import fidelity, trace_distance
from .states import sample_state

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_CONFIG = 2


def _parse_floats(text):
    return tuple(float(x) for x in text.split(","))


def _parse_ints(text):
    return tuple(int(x) for x in text.split(","))


def _load_config_file(path):
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="entrobounds",
        description="Numerical verification of entropy continuity bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dims", type=_parse_ints, default=None,
                        help="comma-separated dimension grid")
    common.add_argument("--energies", type=_parse_floats, default=None,
                        help="comma-separated energy grid")
    common.add_argument("--eps", type=_parse_floats, default=None,
                        help="comma-separated epsilon grid")
    common.add_argument("--samples", type=int, default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--tol", type=float, default=None)
    common.add_argument("--out", default=None, help="report file path")
    common.add_argument("--format", choices=("csv", "json"), default=None)
    common.add_argument("--config", default=None, help="flat key=value config file")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a verification campaign")
    p_verify.add_argument("suite", choices=SUITES)

    p_witness = sub.add_parser("witness", parents=[common],
                               help="evaluate a tightness witness")
    p_witness.add_argument("name", choices=("fannes", "af", "oscillator"))

    p_table = sub.add_parser("gibbs-table", parents=[common],
                             help="tabulate the Gibbs solver")
    p_table.add_argument("--modes", type=_parse_floats, default=(1.0,),
                         help="oscillator mode energies (hbar omega)")
    p_table.add_argument("--levels", type=_parse_floats, default=None,
                         help="explicit level list (overrides --modes)")

    sub.add_parser("coupling-demo", parents=[common],
                   help="construct and check couplings for a sampled pair")
    return parser


_CONFIG_KEYS = {
    "dims": _parse_ints,
    "energies": _parse_floats,
    "eps": _parse_floats,
    "samples": int,
    "seed": int,
    "tol": float,
    "out": str,
    "format": str,
}


def _merged_settings(args):
    settings = {}
    if getattr(args, "config", None):
        raw = _load_config_file(args.config)
        for key, val in raw.items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            settings[key] = _CONFIG_KEYS[key](val)
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    return settings


def _campaign_config(suite, settings):
    kwargs = {"suite": suite}
    mapping = {"dims": "dims", "energies": "energies", "eps": "epsilons",
               "samples": "samples", "seed": "seed", "tol": "tolerance",
               "out": "output", "format": "format"}
    for key, attr in mapping.items():
        if key in settings:
            kwargs[attr] = settings[key]
    return CampaignConfig(**kwargs)


def _cmd_verify(args) -> int:
    cfg = _campaign_config(args.suite, _merged_settings(args))
    report = run_campaign(cfg)
    print(f"suite={cfg.suite} cases={len(report.records)} "
          f"min_slack={report.min_slack:.3e} max_slack={report.max_slack:.3e} "
          f"violations={report.violations}")
    if cfg.output:
        print(f"report written to {cfg.output}")
    return EXIT_VIOLATIONS if report.violations else EXIT_OK


def _witness_report(name, x, eps):
    """Check the ``name`` witness at dimension (or, for the oscillator,
    energy) ``x``; None when eps admits no witness there."""
    if name == "fannes":
        if not 0.0 < eps <= 1.0 - 1.0 / x:
            return None
        return bnd.check_fannes(*bnd.tightness_witness_fannes(x, eps))
    if name == "af":
        return bnd.check_af(*bnd.tightness_witness_af(x, eps))
    p, q = gb.oscillator_tightness_witness(x, eps)
    lhs = abs(shannon_entropy(p) - shannon_entropy(q))
    h = gb.HamiltonianSpec.oscillators([1.0], n_max=len(p) - 1)
    rhs = gb.lemma4_bound(h, x, eps)
    return bnd.BoundReport(lhs=lhs, rhs=rhs, params=bnd.BoundParams(
        epsilon=eps, dim_d=len(p), variant="oscillator_lemma4"))


def _cmd_witness(args) -> int:
    settings = _merged_settings(args)
    eps_grid = settings.get("eps", (0.25,))
    tol = settings.get("tol", 1e-9)
    if args.name == "oscillator":
        axis, values = "E", settings.get("energies", (100.0,))
    else:
        axis, values = "d", settings.get("dims", (4,))
    verdicts = []
    for x in values:
        for eps in eps_grid:
            rep = _witness_report(args.name, x, eps)
            if rep is None:
                continue
            valid = rep.slack >= -tol
            print(f"{args.name} {axis}={x} eps={eps}: lhs={rep.lhs:.6f} "
                  f"rhs={rep.rhs:.6f} slack={rep.slack:.3e} valid={valid}")
            verdicts.append(valid)
    if not verdicts:
        raise ConfigError(f"no ({axis}, eps) pair admits a {args.name} witness")
    return EXIT_OK if all(verdicts) else EXIT_VIOLATIONS


def _cmd_gibbs_table(args) -> int:
    settings = _merged_settings(args)
    energies = settings.get("energies", (0.25, 0.5, 1.0, 2.0, 4.0))
    if args.levels is not None:
        h = gb.HamiltonianSpec.explicit(args.levels)
    else:
        h = gb.HamiltonianSpec.oscillators(args.modes, n_max=512)
    rows = emit_gibbs_table(h, energies, path=settings.get("out"))
    tol = settings.get("tol", 1e-9)
    bad = 0
    for row in rows:
        if row["error"]:
            print(f"E={row['E']}: {row['error']}")
            continue
        print(f"E={row['E']:g} beta={row['beta']:.10g} Z={row['Z']:.10g} "
              f"S={row['S_formula']:.10g} |diff|={row['abs_diff']:.3e}")
        if row["abs_diff"] > tol:
            bad += 1
    return EXIT_VIOLATIONS if bad else EXIT_OK


def _cmd_coupling_demo(args) -> int:
    settings = _merged_settings(args)
    d = settings.get("dims", (3,))[0]
    seed = settings.get("seed", 0)
    tol = settings.get("tol", 1e-9)
    rng = np.random.default_rng(seed)
    rho = sample_state(d, d, rng)
    sigma = sample_state(d, d, rng)
    eps = trace_distance(rho, sigma)
    print(f"sampled pair: d={d} seed={seed} trace distance eps={eps:.6f}")

    dec = cpl.build_decomposition(rho, sigma)
    recon = (sigma.mat + dec.epsilon * dec.delta.mat) / (1.0 + dec.epsilon)
    print(f"decomposition: eps={dec.epsilon:.6f} "
          f"max|omega - (sigma + eps Delta)/(1+eps)| = "
          f"{abs(dec.omega.mat - recon).max():.3e}")

    qc = cpl.quantum_coupling(rho, sigma)
    print(f"quantum coupling: |<psi|theta>|={qc.overlap_psi:.6f} "
          f"|<phi|theta>|={qc.overlap_phi:.6f} (need >= {1 - eps:.6f})")
    print(f"                  F(psi, Theta)={fidelity(qc.psi, qc.theta):.6f}")

    diag = cpl.diagonal_coupling(rho, sigma)
    print(f"diagonal coupling: ||omega||_inf={diag.largest_eigenvalue:.6f} "
          f"(need >= {1 - eps:.6f}), spectral eps={diag.epsilon_mirsky:.6f}")

    ok = (qc.overlap_psi >= 1 - eps - tol and qc.overlap_phi >= 1 - eps - tol
          and diag.largest_eigenvalue >= 1 - eps - tol)
    return EXIT_OK if ok else EXIT_VIOLATIONS


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "witness":
            return _cmd_witness(args)
        if args.command == "gibbs-table":
            return _cmd_gibbs_table(args)
        if args.command == "coupling-demo":
            return _cmd_coupling_demo(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
