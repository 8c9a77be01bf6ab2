"""Run one benchmark workload in this process; started by ``run.py``.

The worker imports ``entrobounds`` from ``src/``, builds the workload's
calls from the seed, makes one untimed warm-up pass and prints ``ready``.
With ``--setup-only`` it stops there.  Otherwise it repeats the pass for
``--seconds`` seconds, checks every pass against the warm-up pass, and
prints its metrics, ending with one JSON line for ``run.py``.

The timed figures are relative to a reference computation timed
before the first pass and after every pass: each pass time is divided
by the mean of the two reference times around it, and the median of
these ratios is reported.  On a shared host the speed of the processor
drifts by up to 1.8x, in spells from seconds to minutes.  Over five or
six runs of 20 s with different seeds, the ratio spread by 0.06 to 0.08
(quartile distance over median) where the pass time in seconds spread
by 0.23 to 0.36.  The pass times in seconds, with their median,
quartiles and tail, are printed as well.

With ``--trace 1`` untraced passes alternate with passes under the
span wrappers of ``tracer.py``; the per-layer metrics come from the
traced passes, and the tracing overhead compares the two kinds.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import glob
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback

from tracer import SPAN_NAMES, Tracer
from workloads import WORKLOADS

MIN_PASSES = 3
TOL = 1e-9  # the CLI's default --tol
EXIT_CONFIG = 2


def blas_info():
    """(vendor, thread count) of the BLAS that numpy uses."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    vendor = f"{blas.get('name')} {blas.get('version')}"
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return vendor, getter()
    return vendor, f"unqueried, OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


def make_reference():
    """The reference computation, the unit of the relative figures: numpy
    eigendecompositions of 200 3x3 and 4 96x96 complex Hermitian
    matrices, the per-call and the LAPACK-bound kind of work that the
    workloads do (about 10 ms).  Returns a function that times one round
    in seconds."""
    import numpy as np

    rng = np.random.default_rng(0)
    matrices = []
    for d, n in ((3, 200), (96, 4)):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        matrices += [a + a.conj().T] * n

    def seconds():
        start = time.perf_counter()
        for m in matrices:
            np.linalg.eigh(m)
        return time.perf_counter() - start

    return seconds


def run_call(cli, argv, out):
    """One in-process CLI call: (exit code or None if it raised, stdout,
    report bytes, seconds)."""
    if out is not None and os.path.exists(out):
        os.remove(out)  # every call must write its own report
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            rc = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    data = b""
    if out is not None and rc in (0, 1):
        with open(out, "rb") as fh:
            data = fh.read()
    return rc, buf.getvalue(), data, seconds


def run_pass(cli, calls):
    results = [run_call(cli, argv, out) for argv, out in calls]
    return [r[:3] for r in results], sum(r[3] for r in results)


def count_records(argv, rc, text, data):
    """(records, invalid records, whether the count agrees with the
    verdict the program itself reported) for one call's output."""
    kind = argv[0]
    if rc not in (0, 1):
        return 0, 0, False
    if kind == "verify":
        body = data.decode()
        if argv[argv.index("--format") + 1] == "json":
            rows = json.loads(body)
            invalid = sum(1 for r in rows if r["valid"] is not True)
        else:
            rows = list(csv.DictReader(body.splitlines()[1:]))
            invalid = sum(1 for r in rows if r["valid"] != "true")
        reported = int(text.split("violations=")[1].split()[0])
        return len(rows), invalid, invalid == reported and rc == int(invalid > 0)
    if kind == "witness":
        lines = [ln for ln in text.splitlines() if " valid=" in ln]
        invalid = sum(1 for ln in lines if ln.endswith("valid=False"))
        return len(lines), invalid, rc == int(invalid > 0)
    if kind == "gibbs-table":
        rows = list(csv.DictReader(data.decode().splitlines()[1:]))
        over = sum(1 for r in rows if r["abs_diff"] and float(r["abs_diff"]) > TOL)
        errors = sum(1 for r in rows if r["error"])
        return len(rows), over + errors, rc == int(over > 0)
    return 1, int(rc == 1), rc in (0, 1)  # coupling-demo: one verdict


def tail_percentile(values):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


class PassLog:
    """Pass times and outcome checks of a series of passes."""

    def __init__(self, reference):
        self.reference = reference
        self.times = []
        self.bad = 0           # calls that raised or returned exit 2
        self.identical = True  # every pass reproduced the reference byte for byte

    def add(self, outputs, seconds):
        self.times.append(seconds)
        self.bad += sum(1 for rc, _, _ in outputs if rc in (None, EXIT_CONFIG))
        self.identical &= outputs == self.reference


def traced_run(cli, calls, log, seconds, records):
    """Alternate untraced passes (into ``log``) with traced ones, so that
    drift of the machine's speed cancels out of the tracing overhead."""
    tracer = Tracer()
    traced = PassLog(log.reference)
    snapshots = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced.times) < MIN_PASSES:
        log.add(*run_pass(cli, calls))
        tracer.install()
        tracer.reset()
        try:
            traced.add(*run_pass(cli, calls))
        finally:
            tracer.uninstall()
        snapshots.append((dict(tracer.calls), dict(tracer.self_s), dict(tracer.counters)))
    traced_median = statistics.median(traced.times)
    untraced_median = statistics.median(log.times)
    overhead = traced_median - untraced_median

    first_calls, first_self, first_counters = snapshots[0]
    first_secs = traced.times[0]
    total_self = sum(first_self.values())
    residual = first_secs - total_self
    checks = {
        "call counts and counters repeat on every traced pass":
            all(s[0] == first_calls and s[2] == first_counters for s in snapshots),
        # a span counted twice would push the summed self time past pass_s;
        # the overhead, a difference of two medians, can come out near 0
        "self times sum to the traced pass_s within the measured overhead":
            0.0 <= residual <= max(abs(overhead), 0.01 * first_secs),
    }
    print(f"# self-check: pass_s={first_secs:.6f} sum(self_s)={total_self:.6f} "
          f"residual={residual:.3e} s overhead={overhead:.3e} s")

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (first_calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (statistics.median(s[1].get(name, 0.0) for s in snapshots), "s")
    eigh = first_calls.get("linalg.eigh", 0)
    iterations = first_counters.get("dc_optimizer.iterations", 0)
    minimize = first_calls.get("dc_optimizer.dc_minimize", 0)
    metrics["linalg.eigh_per_record"] = (eigh / records, "count")
    metrics["linalg.eigh.sum_d3"] = (first_counters.get("linalg.eigh.sum_d3", 0), "computed_d3")
    metrics["dc_optimizer.iterations"] = (iterations, "count")
    metrics["dc_optimizer.objective_per_iteration"] = (
        first_calls.get("dc_optimizer.dc_objective", 0) / iterations if iterations else 0.0, "count")
    metrics["dc_optimizer.converged_ratio"] = (
        first_counters.get("dc_optimizer.converged", 0) / minimize if minimize else 0.0, "ratio")
    metrics["gibbs.levels_materialised"] = (first_counters.get("gibbs.levels_materialised", 0), "count")
    metrics["trace.pass_s"] = (traced_median, "s")
    metrics["trace.untraced_pass_s"] = (untraced_median, "s")
    metrics["trace.overhead_ratio"] = (traced_median / untraced_median, "ratio")
    return metrics, checks, [log, traced]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    from entrobounds import cli

    if not cli.__file__.startswith(src + os.sep):
        raise SystemExit(f"entrobounds imported from {cli.__file__}, not from {src}")

    with tempfile.TemporaryDirectory(prefix="tmp-", dir=os.path.dirname(__file__)) as tmpdir:
        calls = WORKLOADS[args.workload](args.seed, tmpdir)
        reference, _ = run_pass(cli, calls)
        print("ready", flush=True)
        if args.setup_only:
            return 0

        counted = [count_records(argv_, *out) for (argv_, _), out in zip(calls, reference)]
        records = sum(c[0] for c in counted)
        invalid = sum(c[1] for c in counted)
        checks = {
            "invalid records match the violations the program reports": all(c[2] for c in counted),
            "warm-up pass: no call raised or returned exit 2":
                all(rc not in (None, EXIT_CONFIG) for rc, _, _ in reference),
        }

        time_reference = make_reference()
        refs = [time_reference()]
        log = PassLog(reference)
        if args.trace:
            metrics, trace_checks, logs = traced_run(cli, calls, log, args.seconds, records)
            checks.update(trace_checks)
            refs.append(time_reference())
        else:
            deadline = time.perf_counter() + args.seconds
            while time.perf_counter() < deadline or len(log.times) < MIN_PASSES:
                log.add(*run_pass(cli, calls))
                refs.append(time_reference())
            logs = [log]
        checks["timed passes reproduce the warm-up reports byte for byte"] = \
            all(lg.identical for lg in logs)
        checks["timed passes: no call raised or returned exit 2"] = all(lg.bad == 0 for lg in logs)

        vendor, threads = blas_info()
        stamp = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": sys.modules["numpy"].__version__, "blas": vendor,
                 "blas_threads": threads,
                 "reference_ms": [round(min(refs) * 1000, 2), round(statistics.median(refs) * 1000, 2),
                                  round(max(refs) * 1000, 2)]}
        print("# stamp " + json.dumps(stamp))

        passes = sum(len(lg.times) for lg in logs)
        bad = sum(lg.bad for lg in logs)
        attempted = len(calls) * passes
        checked = (records + len(calls)) * passes
        failed_checks = invalid * passes + bad
        times = log.times
        q1, median, q3 = statistics.quantiles(times, n=4)
        tail = tail_percentile(times)
        print(f"# pass_s (untraced) median={median:.6f} q1={q1:.6f} q3={q3:.6f} n={len(times)}"
              + (f" p{tail[0]}={tail[1]:.6f}" if tail else "")
              + f"; records_per_s at the median pass={records / median:.6g}")
        print("# pass_s samples: " + " ".join(f"{t:.6f}" for t in times))
        print("# reference_s samples: " + " ".join(f"{r:.6f}" for r in refs))
        print(f"# failed_ratio={failed_checks / checked:.6f} = (invalid records {invalid * passes}"
              f" + calls raised or exit 2 {bad}) / (records {records * passes}"
              f" + calls {attempted})")
        if not args.trace:
            pass_ref = statistics.median(t / ((a + b) / 2) for t, a, b in zip(times, refs, refs[1:]))
            metrics = {
                "records_per_ref": (records / pass_ref, "1/ref"),
                "pass_ref": (pass_ref, "ref"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "valid_ratio": (1.0 - failed_checks / checked, "ratio"),
            }
        for name, ok in checks.items():
            print(f"# check {'PASS' if ok else 'FAIL'}: {name}")
        result = {
            "correct": all(checks.values()),
            "attempted": attempted,
            "failed": bad,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
