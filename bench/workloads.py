"""Benchmark workloads: the ``cli.main`` argument lists of one pass.

A pass is a fixed list of calls made one after another in one process
(a closed loop with a single caller).  The workload seed is the only
input the benchmark draws; the package sees it only as the ``--seed`` of
the generated command lines.  Every call writes its report, if any, to
a file in ``tmpdir`` so that passes can be compared byte for byte.
"""

from __future__ import annotations

import os

# Single-mode `verify gibbs` is known to fail from E ~ 11 on and the
# two-mode `gibbs-table` from E = 2 on; both grids reach into those
# regimes on purpose, so the failures are counted rather than avoided.
GIBBS_ENERGIES = ",".join(str(0.5 * k) for k in range(1, 41))  # 0.5 .. 20
TABLE_ENERGIES = "0.25,0.5,1,2,3,4,6,8,12,16"


def _verify(tmpdir, suite, fmt, *flags):
    out = os.path.join(tmpdir, f"{suite}.{fmt}")
    return ["verify", suite, *flags, "--format", fmt, "--out", out], out


def _table(tmpdir, tag, modes):
    out = os.path.join(tmpdir, f"gibbs-table-{tag}.csv")
    return ["gibbs-table", "--modes", modes, "--energies", TABLE_ENERGIES,
            "--out", out], out


def campaigns_small(seed, tmpdir):
    s = str(seed)
    return [
        _verify(tmpdir, "fannes", "csv", "--dims", "2,3,4", "--samples", "50", "--seed", s),
        _verify(tmpdir, "af", "json", "--dims", "2,3", "--samples", "25", "--seed", s),
        _verify(tmpdir, "couplings", "csv", "--dims", "2,3,4", "--samples", "25", "--seed", s),
        _verify(tmpdir, "cor_pure", "json", "--dims", "2,3,4", "--samples", "25", "--seed", s),
        _verify(tmpdir, "tightness", "csv", "--dims", "2,4,8,16", "--eps", "0.05,0.25,0.5"),
        (["witness", "fannes", "--dims", "2,8", "--eps", "0.25,0.5"], None),
        (["witness", "af", "--dims", "2,8", "--eps", "0.25,0.5"], None),
        (["coupling-demo", "--dims", "3", "--seed", s], None),
    ]


def campaigns_large(seed, tmpdir):
    s = str(seed)
    return [
        _verify(tmpdir, "fannes", "json", "--dims", "64,128", "--samples", "4", "--seed", s),
        _verify(tmpdir, "af", "csv", "--dims", "8", "--samples", "4", "--seed", s),
        _verify(tmpdir, "couplings", "json", "--dims", "16", "--samples", "2", "--seed", s),
        _verify(tmpdir, "cor_pure", "csv", "--dims", "16", "--samples", "8", "--seed", s),
        _verify(tmpdir, "tightness", "json", "--dims", "16", "--eps", "0.05,0.25,0.5"),
    ]


def energy_gibbs(seed, tmpdir):
    return [
        _verify(tmpdir, "energy_bounds", "csv", "--energies", "1,2,4,8",
                "--samples", "10", "--seed", str(seed)),
        _verify(tmpdir, "gibbs", "json", "--energies", GIBBS_ENERGIES),
        _table(tmpdir, "1mode", "1.0"),
        _table(tmpdir, "2mode", "1.0,2.0"),
    ]


def dc_campaign(seed, tmpdir):
    # The CLI's default seed 0 whatever the workload seed.  The cost of one
    # d=2,3 record pair depends on the convex set its seed draws: over 62
    # seeds, a median of 40k dc_objective evaluations (about 2.7 s), but
    # 117k to 141k for 3 of them.  Seed-drawn pairs would spread the
    # benchmark's figures by far more than the speed of the code does.
    return [_verify(tmpdir, "dc", "csv", "--dims", "2,3", "--samples", "1", "--seed", "0")]


WORKLOADS = {
    "campaigns_small": campaigns_small,
    "campaigns_large": campaigns_large,
    "energy_gibbs": energy_gibbs,
    "dc_campaign": dc_campaign,
}
