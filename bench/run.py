"""entrobounds benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload campaigns_small --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh worker process as a closed loop: one
caller, each ``cli.main`` call made only after the previous one returned,
one BLAS thread.  ``setup_s`` is the time from starting a worker process
to its first timed call (import, input generation and one warm-up pass),
taken as the median over SETUP_RUNS fresh processes.  The last line of
the output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when a correctness check
failed.  ``--trace 1`` reports the per-layer metrics instead of the
end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

SETUP_RUNS = 3
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")


def start_worker(args, setup_only):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **BLAS_ENV)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        # the timed loop may overrun --seconds by a pass, a traced run by two
        rest, _ = proc.communicate(timeout=args.seconds + 140)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"worker failed (exit {proc.returncode}) before reporting")
    return setup_s, rest


def main(argv=None):
    parser = argparse.ArgumentParser(description="entrobounds benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "entrobounds", "__init__.py")):
        print("error: run from the root of an entrobounds checkout (src/entrobounds missing)",
              file=sys.stderr)
        return 2

    setups = []
    if not args.trace:
        setups = [start_worker(args, setup_only=True)[0] for _ in range(SETUP_RUNS - 1)]
    setup_s, output = start_worker(args, setup_only=False)
    setups.append(setup_s)
    *lines, last = output.strip().splitlines()
    result = json.loads(last)
    for line in lines:
        print(line)
    if not args.trace:
        print(f"# setup_s samples: {' '.join(f'{s:.6f}' for s in setups)}")
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
