"""Command-line front end.

Subcommands:

* ``verify <suite>``     -- run a verification campaign over a grid
* ``witness <name>``     -- check an extremal tightness witness over a grid
* ``gibbs-table``        -- tabulate the Gibbs solver over an energy grid
* ``coupling-demo``      -- build every coupling for one sampled pair

Every subcommand checks through ``harness._check``, the one campaign loop
(``coupling-demo`` is case 0 of ``verify couplings --samples 1``).  Exit
codes: 0 = all checks valid, 1 = a ``_check`` record is not valid, 2 =
configuration or domain error (a ``witness`` run then prints no line).

A subcommand reads its fixed settings (``_COMMANDS``), ``verify`` and
``witness`` also those ``harness`` names for their suite or witness, and
``verify`` reads ``--format`` only with ``--out``.  A flat key=value config
file can be passed with ``--config``; it may set the same keys, and flags
override its entries.  Any other flag or key exits 2 before a case runs.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import couplings as cpl
from . import gibbs as gb
from .harness import (SUITES, WITNESSES, CampaignConfig, ConfigError, check_coupling_demo,
                      check_witnesses, emit_gibbs_table, run_campaign)

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


# Every setting: its flag's ``add_argument`` keywords (``type`` also parses
# the config-file value) and the field its command reads: a CampaignConfig
# field, or part of gibbs-table's Hamiltonian (``modes``, ``levels``).
_SETTINGS = {
    "dims": (dict(type=_parse_ints, help="comma-separated dimension grid"), "dims"),
    "energies": (dict(type=_parse_floats, help="comma-separated energy grid"), "energies"),
    "eps": (dict(type=_parse_floats, help="comma-separated epsilon grid"), "epsilons"),
    "samples": (dict(type=int, help="samples per grid point"), "samples"),
    "seed": (dict(type=int, help="campaign seed"), "seed"),
    "tol": (dict(type=tolerance, help="tolerance of a valid check, finite >= 0"), "tolerance"),
    "out": (dict(type=str, help="report file path"), "output"),
    "format": (dict(type=str, choices=("csv", "json"), help="report format"), "format"),
    "modes": (dict(type=_parse_floats, help="oscillator mode energies (hbar omega); default 1.0"),
              "modes"),
    "levels": (dict(type=_parse_floats, help="explicit level list"), "levels"),
}


@functools.cache
def _build_parser():
    """The top-level parser and its subcommand parsers by name, built once
    per process: parsing keeps no state in them between calls."""
    parser = argparse.ArgumentParser(
        prog="entrobounds",
        description="Numerical verification of entropy continuity bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, fixed, target, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        fields = set(fixed)
        if target:
            p.add_argument(target[0], choices=target[1])
            fields.update(f for reads in target[1].values() for f in reads)
        for key, (kwargs, field) in _SETTINGS.items():
            if field in fields:
                p.add_argument(f"--{key}", **kwargs)
        p.add_argument("--config", help="flat key=value config file")
    return parser, sub.choices


def _settings(args):
    """The settings given, by the field read: the config file's entries,
    overridden by the flags given; a ConfigError names one the command does not read."""
    _, fixed, target, _ = _COMMANDS[args.command]
    name, reads = args.command, set(fixed)
    if target:
        choice = getattr(args, target[0])
        name, reads = f"{name} {choice}", reads | set(target[1][choice])
    raw = _load_config_file(args.config) if args.config else {}
    flags = {k: getattr(args, k) for k in _SETTINGS if getattr(args, k, None) is not None}
    if "out" not in raw and "out" not in flags:
        reads.discard("format")
    for key in [*raw, *flags]:
        if _SETTINGS.get(key, (None, None))[1] not in reads:
            raise ConfigError(f"{name} reads no setting {key!r}")
    settings = {**{k: _SETTINGS[k][0]["type"](v) for k, v in raw.items()}, **flags}
    return {_SETTINGS[k][1]: v for k, v in settings.items()}


def _verdict(rec) -> str:
    return (f"lhs={rec['lhs']:.6f} rhs={rec['rhs']:.6f} slack={rec['slack']:.3e} "
            f"valid={rec['valid']}")


def _exit_code(records) -> int:
    return EXIT_OK if all(rec["valid"] for rec in records) else EXIT_VIOLATIONS


def _cmd_verify(args, settings) -> int:
    cfg = CampaignConfig(args.suite, **settings)
    report = run_campaign(cfg)
    violations = report.violations
    print(f"suite={cfg.suite} cases={report.cases} records={report.size} "
          f"min_slack={report.min_slack:.3e} max_slack={report.max_slack:.3e} "
          f"violations={violations}")
    if cfg.output:
        print(f"report written to {cfg.output}")
    return EXIT_VIOLATIONS if violations else EXIT_OK


def _cmd_witness(args, settings) -> int:
    axis, _ = WITNESSES[args.name]
    grids = {"dims": (4,), "energies": (100.0,), "epsilons": (0.25,), **settings}
    rows = check_witnesses(args.name, grids[axis], grids["epsilons"],
                           settings.get("tolerance", CampaignConfig.tolerance))
    for x, eps, rec in rows:
        print(f"{args.name} {'d' if axis == 'dims' else 'E'}={x} eps={eps}: {_verdict(rec)}")
    return _exit_code(rec for _, _, rec in rows)


def _cmd_gibbs_table(args, settings) -> int:
    energies = settings.get("energies", (0.25, 0.5, 1.0, 2.0, 4.0))
    modes = settings.get("modes", None if "levels" in settings else (1.0,))
    h = gb.HamiltonianSpec(levels=settings.get("levels"), hbar_omegas=modes, n_max=512)
    rows, records = emit_gibbs_table(h, energies, settings.get("output"),
                                     settings.get("tolerance", CampaignConfig.tolerance))
    for row in rows:
        if row["error"]:
            print(f"E={row['E']}: {row['error']}")
            continue
        print(f"E={row['E']:g} beta={row['beta']:.10g} log2_Z={row['log2_Z']:.10g} "
              f"S={row['S_formula']:.10g} |diff|={row['abs_diff']:.3e}")
    return _exit_code(records)


def _cmd_coupling_demo(args, settings) -> int:
    """Case 0 of ``verify couplings --samples 1``: its pair's diagnostics, then its records."""
    settings = {"dims": (3,), "seed": 0, "tolerance": CampaignConfig.tolerance, **settings}
    if len(settings["dims"]) != 1:
        raise ConfigError(f"coupling-demo takes one --dims value, got {len(settings['dims'])}")
    (d,), seed = settings["dims"], settings["seed"]
    records, rho, sigma = check_coupling_demo(d, seed, settings["tolerance"])
    dec = cpl.build_decomposition(rho, sigma)
    recon = (sigma.mat + dec.epsilon * dec.delta.mat) / (1.0 + dec.epsilon)
    print(f"sampled pair: d={d} seed={seed} case=0 trace distance eps={dec.epsilon:.6f}")
    print(f"decomposition: max|omega - (sigma + eps Delta)/(1+eps)| = "
          f"{abs(dec.omega.mat - recon).max():.3e}")
    print(f"diagonal coupling: spectral eps={cpl.diagonal_coupling(rho, sigma).epsilon_mirsky:.6f}")
    for rec in records:
        print(f"{rec['variant']}: {_verdict(rec)}")
    return _exit_code(records)


# Each subcommand: its handler, the ``_SETTINGS`` fields it reads whatever its
# target, its target argument and the fields each target reads, and its help text.
_COMMANDS = {
    "verify": (_cmd_verify, ("tolerance", "output", "format"), ("suite", SUITES),
               "run a verification campaign"),
    "witness": (_cmd_witness, ("tolerance",), ("name", WITNESSES),
                "evaluate a tightness witness"),
    "gibbs-table": (_cmd_gibbs_table, ("energies", "modes", "levels", "tolerance", "output"), None,
                    "tabulate the Gibbs solver"),
    "coupling-demo": (_cmd_coupling_demo, ("dims", "seed", "tolerance"), None,
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
