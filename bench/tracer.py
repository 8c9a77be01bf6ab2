"""Span tracer installed from the outside around entrobounds' functions.

``install`` replaces each traced function by a wrapper in every
``entrobounds`` module namespace that holds the same function object
(``trace_distance``, for instance, is imported by name into ``harness``,
``bounds``, ``cli`` and the package itself), wraps ``__init__`` of the
traced classes, and wraps ``numpy.linalg.eigh``/``eigvalsh``/``svd``.

A span's self time is its duration minus the durations of the spans it
directly encloses, so nested calls such as ``DensityOperator`` ->
``HermitianOperator`` -> ``eigh`` are never counted twice.  Per-name call
counts, self times and counters stay in memory until the pass ends;
single spans are not kept.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np


def _eigh_work(tracer, args, kwargs, result):
    shape = np.shape(args[0])
    d = shape[-1]
    tracer.counters["linalg.eigh.sum_d3"] += math.prod(shape[:-2]) * d ** 3


def _dc_result(tracer, args, kwargs, result):
    tracer.counters["dc_optimizer.iterations"] += result.iterations
    tracer.counters["dc_optimizer.converged"] += int(result.converged)


def _levels(tracer, args, kwargs, result):
    tracer.counters["gibbs.levels_materialised"] += args[0].dim


# (module, attribute, layer, hook).  A class attribute names the class,
# whose construction (``__init__``) is traced.
TARGETS = [
    ("entrobounds.linalg", "HermitianOperator", "linalg", None),
    ("entrobounds.linalg", "trace_distance", "linalg", None),
    ("entrobounds.linalg", "fidelity", "linalg", None),
    ("numpy.linalg", "eigh", "linalg", _eigh_work),
    ("numpy.linalg", "eigvalsh", "linalg", None),
    ("numpy.linalg", "svd", "linalg", None),
    ("entrobounds.states", "sample_state", "states", None),
    ("entrobounds.states", "sample_pure_bipartite", "states", None),
    ("entrobounds.states", "sample_qc_state", "states", None),
    ("entrobounds.states", "sample_pure_state", "states", None),
    ("entrobounds.states", "partial_trace", "states", None),
    ("entrobounds.states", "DensityOperator", "states", None),
    ("entrobounds.entropies", "von_neumann_entropy", "entropies", None),
    ("entrobounds.entropies", "conditional_entropy", "entropies", None),
    ("entrobounds.entropies", "relative_entropy", "entropies", None),
    ("entrobounds.entropies", "shannon_entropy", "entropies", None),
    ("entrobounds.couplings", "quantum_coupling", "couplings", None),
    ("entrobounds.couplings", "diagonal_coupling", "couplings", None),
    ("entrobounds.couplings", "build_decomposition", "couplings", None),
    ("entrobounds.bounds", "check_fannes", "bounds", None),
    ("entrobounds.bounds", "check_af", "bounds", None),
    ("entrobounds.bounds", "check_cor_pure", "bounds", None),
    ("entrobounds.bounds", "check_dc", "bounds", None),
    ("entrobounds.bounds", "tightness_witness_fannes", "bounds", None),
    ("entrobounds.bounds", "tightness_witness_af", "bounds", None),
    ("entrobounds.dc_optimizer", "dc_minimize", "dc_optimizer", _dc_result),
    ("entrobounds.dc_optimizer", "dc_objective", "dc_optimizer", None),
    ("entrobounds.dc_optimizer", "dc_gradient", "dc_optimizer", None),
    ("entrobounds.dc_optimizer", "estimate_kappa", "dc_optimizer", None),
    ("entrobounds.gibbs", "solve_beta", "gibbs", None),
    ("entrobounds.gibbs", "mean_energy", "gibbs", None),
    ("entrobounds.gibbs", "sample_energy_constrained", "gibbs", None),
    ("entrobounds.gibbs", "lemma4_bound", "gibbs", None),
    ("entrobounds.gibbs", "meta5_bound", "gibbs", None),
    ("entrobounds.gibbs", "HamiltonianSpec", "gibbs", _levels),
    ("entrobounds.harness", "run_campaign", "harness", None),
    ("entrobounds.harness", "render_report", "harness", None),
    ("entrobounds.harness", "write_report", "harness", None),
    ("entrobounds.harness", "emit_gibbs_table", "harness", None),
    ("entrobounds.cli", "main", "cli", None),
]

SPAN_NAMES = [f"{layer}.{attr}" for _, attr, layer, _ in TARGETS]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._stack = []   # child time accumulated by each open span
        self._restore = []  # (owner, attribute, original) rebound by install

    def reset(self):
        """Start a new pass: clear the aggregates."""
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()

    def wrap(self, name, fn, hook=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                child = stack.pop()
                duration = end - start
                if stack:
                    stack[-1] += duration
                calls[name] += 1
                self_s[name] += duration - child
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "entrobounds" or n.startswith("entrobounds.")]
        for module_name, attr, layer, hook in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            name = f"{layer}.{attr}"
            if isinstance(original, type):
                self._rebind(original, "__init__", self.wrap(name, original.__init__, hook))
                continue
            wrapped = self.wrap(name, original, hook)
            self._rebind(sys.modules[module_name], attr, wrapped)
            for ns in namespaces:
                for alias, value in list(vars(ns).items()):
                    if value is original:
                        self._rebind(ns, alias, wrapped)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)
