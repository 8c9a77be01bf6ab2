"""Command-line front end.

Subcommands:

* ``verify <suite>``     -- run a verification campaign over a grid
* ``witness <name>``     -- check an extremal tightness witness over a grid
* ``gibbs-table``        -- tabulate the Gibbs solver over an energy grid
* ``coupling-demo``      -- build every coupling for one sampled pair

``verify`` and ``witness`` check through the one campaign loop of
``harness``.  Exit codes: 0 = all checks valid, 1 = violations found,
2 = configuration or domain error (a ``witness`` run then prints no line).

Each subcommand takes the flags of the settings it reads (``_COMMANDS``)
and no others.  A flat key=value config file can be passed with
``--config``; it may set the same keys, and explicit flags override its
entries.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import couplings as cpl
from . import gibbs as gb
from .harness import (
    CampaignConfig,
    ConfigError,
    SUITES,
    check_witnesses,
    emit_gibbs_table,
    run_campaign,
)
from .linalg import fidelity
from .states import sample_state

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_CONFIG = 2


def _parse_floats(text):
    return tuple(float(x) for x in text.split(","))


def _parse_ints(text):
    return tuple(int(x) for x in text.split(","))


def tolerance(text):
    """A finite number >= 0; a NaN or infinite tolerance certifies nothing."""
    tol = float(text)
    if not 0.0 <= tol < float("inf"):
        raise ValueError(f"invalid tolerance value: {text!r}")
    return tol


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


# Every setting a subcommand may read: its flag's ``add_argument`` keywords
# (``type`` also parses the config-file value) and its CampaignConfig field.
_SETTINGS = {
    "dims": (dict(type=_parse_ints, help="comma-separated dimension grid"), "dims"),
    "energies": (dict(type=_parse_floats, help="comma-separated energy grid"), "energies"),
    "eps": (dict(type=_parse_floats, help="comma-separated epsilon grid"), "epsilons"),
    "samples": (dict(type=int, help="samples per grid point"), "samples"),
    "seed": (dict(type=int, help="campaign seed"), "seed"),
    "tol": (dict(type=tolerance, help="tolerance of a valid check, finite >= 0"), "tolerance"),
    "out": (dict(type=str, help="report file path"), "output"),
    "format": (dict(type=str, choices=("csv", "json"), help="report format"), "format"),
}


def _build_parser():
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="entrobounds",
        description="Numerical verification of entropy continuity bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in keys:
            p.add_argument(f"--{key}", **_SETTINGS[key][0])
        p.add_argument("--config", help="flat key=value config file")

    sub.choices["verify"].add_argument("suite", choices=SUITES)
    sub.choices["witness"].add_argument("name", choices=("fannes", "af", "oscillator"))
    p_table = sub.choices["gibbs-table"]
    p_table.add_argument("--modes", type=_parse_floats, default=(1.0,),
                         help="oscillator mode energies (hbar omega)")
    p_table.add_argument("--levels", type=_parse_floats, default=None,
                         help="explicit level list (overrides --modes)")
    return parser, sub.choices


def _settings(args):
    """The settings ``args.command`` reads: the config file's entries,
    overridden by the flags given."""
    keys = _COMMANDS[args.command][1]
    settings = {}
    if args.config:
        for key, val in _load_config_file(args.config).items():
            if key not in keys:
                raise ConfigError(f"{args.command} reads no config key {key!r}")
            settings[key] = _SETTINGS[key][0]["type"](val)
    for key in keys:
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    return settings


def _cmd_verify(args, settings) -> int:
    cfg = CampaignConfig(suite=args.suite,
                         **{_SETTINGS[key][1]: val for key, val in settings.items()})
    report = run_campaign(cfg)
    print(f"suite={cfg.suite} cases={len(report.records)} "
          f"min_slack={report.min_slack:.3e} max_slack={report.max_slack:.3e} "
          f"violations={report.violations}")
    if cfg.output:
        print(f"report written to {cfg.output}")
    return EXIT_VIOLATIONS if report.violations else EXIT_OK


def _cmd_witness(args, settings) -> int:
    if args.name == "oscillator":
        axis, xs = "E", settings.get("energies", (100.0,))
    else:
        axis, xs = "d", settings.get("dims", (4,))
    rows = check_witnesses(args.name, xs, settings.get("eps", (0.25,)),
                           settings.get("tol", CampaignConfig.tolerance))
    for x, eps, rec in rows:
        print(f"{args.name} {axis}={x} eps={eps}: lhs={rec['lhs']:.6f} "
              f"rhs={rec['rhs']:.6f} slack={rec['slack']:.3e} valid={rec['valid']}")
    return EXIT_OK if all(rec["valid"] for _, _, rec in rows) else EXIT_VIOLATIONS


def _cmd_gibbs_table(args, settings) -> int:
    energies = settings.get("energies", (0.25, 0.5, 1.0, 2.0, 4.0))
    if args.levels is not None:
        h = gb.HamiltonianSpec.explicit(args.levels)
    else:
        h = gb.HamiltonianSpec.oscillators(args.modes, n_max=512)
    rows = emit_gibbs_table(h, energies, path=settings.get("out"))
    tol = settings.get("tol", CampaignConfig.tolerance)
    bad = 0
    for row in rows:
        if row["error"]:
            print(f"E={row['E']}: {row['error']}")
            continue
        print(f"E={row['E']:g} beta={row['beta']:.10g} log2_Z={row['log2_Z']:.10g} "
              f"S={row['S_formula']:.10g} |diff|={row['abs_diff']:.3e}")
        if row["abs_diff"] > tol:
            bad += 1
    return EXIT_VIOLATIONS if bad else EXIT_OK


def _cmd_coupling_demo(args, settings) -> int:
    dims = settings.get("dims", (3,))
    if len(dims) != 1:
        raise ConfigError(f"coupling-demo takes one --dims value, got {len(dims)}")
    d = dims[0]
    seed = settings.get("seed", 0)
    tol = settings.get("tol", CampaignConfig.tolerance)
    rng = np.random.default_rng(seed)
    rho = sample_state(d, d, rng)
    sigma = sample_state(d, d, rng)
    dec = cpl.build_decomposition(rho, sigma)
    eps = dec.epsilon
    print(f"sampled pair: d={d} seed={seed} trace distance eps={eps:.6f}")

    recon = (sigma.mat + dec.epsilon * dec.delta.mat) / (1.0 + dec.epsilon)
    print(f"decomposition: eps={dec.epsilon:.6f} "
          f"max|omega - (sigma + eps Delta)/(1+eps)| = "
          f"{abs(dec.omega.mat - recon).max():.3e}")

    qc = cpl.quantum_coupling(rho, sigma)
    print(f"quantum coupling: |<psi|theta>|={qc.overlap_psi:.6f} "
          f"|<phi|theta>|={qc.overlap_phi:.6f} (need >= {1 - eps:.6f})")
    f_theta = fidelity(qc.psi, qc.theta)
    print(f"                  F(psi, Theta)={f_theta:.6f} (need >= {1 - eps:.6f})")

    diag = cpl.diagonal_coupling(rho, sigma)
    print(f"diagonal coupling: ||omega||_inf={diag.largest_eigenvalue:.6f} "
          f"(need >= {1 - eps:.6f}), spectral eps={diag.epsilon_mirsky:.6f}")

    ok = min(qc.overlap_psi, qc.overlap_phi, f_theta, diag.largest_eigenvalue) >= 1 - eps - tol
    return EXIT_OK if ok else EXIT_VIOLATIONS


# Each subcommand: its handler, the settings it reads and its help text.
_COMMANDS = {
    "verify": (_cmd_verify, tuple(_SETTINGS), "run a verification campaign"),
    "witness": (_cmd_witness, ("dims", "energies", "eps", "tol"),
                "evaluate a tightness witness"),
    "gibbs-table": (_cmd_gibbs_table, ("energies", "tol", "out"),
                    "tabulate the Gibbs solver"),
    "coupling-demo": (_cmd_coupling_demo, ("dims", "seed", "tol"),
                      "construct and check couplings for a sampled pair"),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:
        # report with the usage of the parser that got them: the top-level
        # one (no flag but -h) got all words before the subcommand
        owner = commands[args.command] if argv[0] == args.command else parser
        owner.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return _COMMANDS[args.command][0](args, _settings(args))
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
