"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Each criterion prints a single summary line (visible under ``pytest -s``
or on failure) and asserts its stated tolerance.  Criterion 12 checks
the wall-clock budget of the whole module, so these tests must run in
file order (pytest's default).
"""

import math
import time

import numpy as np

from entrobounds.bounds import (
    ConvexSetModel,
    af_bound,
    af_witness_gap,
    check_af,
    check_cor_pure,
    check_fannes,
    dc_bound,
    tightness_witness_af,
    tightness_witness_fannes,
)
from entrobounds.couplings import diagonal_coupling, quantum_coupling
from entrobounds.dc_optimizer import dc_gradient, dc_minimize, dc_objective
from entrobounds.entropies import (
    conditional_entropy,
    binary_entropy,
    gibbs_entropy_g,
    shannon_entropy,
    von_neumann_entropy,
)
from entrobounds.gibbs import (
    HamiltonianSpec,
    cutoff_decompose,
    gibbs_entropy,
    lemma4_bound,
    lemma7_bounds,
    meta5_bound,
    meta6_bound,
    oscillator_entropy_upper,
    oscillator_tightness_witness,
    sample_energy_constrained,
    solve_beta,
    truncated_trace_distance_bound,
)
from entrobounds.harness import CampaignConfig, render_report, run_campaign
from entrobounds.linalg import (
    HermitianOperator,
    fidelity,
    operator_norm,
    trace_distance,
)
from entrobounds.states import (
    BipartiteState,
    DensityOperator,
    partial_trace,
    sample_pure_bipartite,
    sample_qc_state,
    sample_state,
    vector_marginals,
)

_T0 = time.time()


def _rng(*key):
    return np.random.default_rng(list(key))


def _report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


# 1. entropy continuity bound holds on Hilbert-Schmidt-random pairs
def test_criterion_01_entropy_bound_validity():
    t0 = time.time()
    min_slack = math.inf
    for d in (2, 3, 4, 8):
        for i in range(5000):
            rng = _rng(1, d, i)
            rho = sample_state(d, d, rng)
            sigma = sample_state(d, d, rng)
            min_slack = min(min_slack, check_fannes(rho, sigma).slack)
    dt = time.time() - t0
    ok = min_slack >= -1e-9 and dt <= 60.0
    _report(1, ok, f"min_slack={min_slack:.3e} runtime={dt:.1f}s (limit 60s)")


# 2. entropy continuity bound is saturated by the extremal pair
def test_criterion_02_entropy_bound_tightness():
    worst = 0.0
    n = 0
    for d in range(2, 17):
        for k in range(1, 20):
            eps = k / 20.0
            if eps > 1.0 - 1.0 / d:
                break
            rho, sigma = tightness_witness_fannes(d, eps)
            worst = max(worst, abs(check_fannes(rho, sigma).slack))
            n += 1
    ok = worst <= 1e-10
    _report(2, ok, f"max|slack|={worst:.3e} over {n} witness pairs")


# 3. conditional-entropy continuity bound on general and qc pairs
def test_criterion_03_conditional_bound_validity():
    min_slack = math.inf
    for i in range(2000):
        rng = _rng(3, 0, i)
        d_a = int(rng.integers(2, 5))
        d_b = int(rng.integers(2, 5))
        rho = BipartiteState(sample_state(d_a * d_b, d_a * d_b, rng), (d_a, d_b))
        sigma = BipartiteState(sample_state(d_a * d_b, d_a * d_b, rng), (d_a, d_b))
        min_slack = min(min_slack, check_af(rho, sigma).slack)
    min_slack_qc = math.inf
    for i in range(2000):
        rng = _rng(3, 1, i)
        d_a = int(rng.integers(2, 5))
        d_x = int(rng.integers(2, 5))
        rho = sample_qc_state(d_a, d_x, rng)
        sigma = sample_qc_state(d_a, d_x, rng)
        min_slack_qc = min(min_slack_qc, check_af(rho, sigma, classical_b=True).slack)
    ok = min_slack >= -1e-9 and min_slack_qc >= -1e-9
    _report(3, ok, f"min_slack general={min_slack:.3e} qc={min_slack_qc:.3e}")


# 4. conditional-entropy bound is nearly saturated at d=8, eps=0.1
def test_criterion_04_conditional_bound_near_tightness():
    rho, sigma = tightness_witness_af(8, 0.1)
    rep = check_af(rho, sigma)
    gap = af_witness_gap(8, 0.1)
    ok = (0.0 <= rep.slack <= 0.02
          and abs(rep.lhs - gap) <= 1e-9
          and abs(rep.rhs - af_bound(0.1, 8)) <= 1e-12)
    _report(4, ok, f"gap={rep.lhs:.6f} bound={rep.rhs:.6f} slack={rep.slack:.6f}")


# 5. quantum coupling: contractions, overlaps and marginals
def test_criterion_05_quantum_coupling():
    worst = {"marg": 0.0, "norm": 0.0, "overlap": math.inf, "fid": math.inf}
    for i in range(1000):
        rng = _rng(5, 0, i)
        d = int(rng.integers(2, 7))
        rho = sample_state(d, int(rng.integers(1, d + 1)), rng)
        sigma = sample_state(d, int(rng.integers(1, d + 1)), rng)
        eps = trace_distance(rho, sigma)
        qc = quantum_coupling(rho, sigma)
        theta = BipartiteState(qc.theta, (d, d))
        worst["marg"] = max(
            worst["marg"],
            np.abs(partial_trace(theta, "A").mat - rho.mat).max(),
            np.abs(partial_trace(theta, "B").mat - sigma.mat.T).max(),
        )
        worst["norm"] = max(
            worst["norm"],
            math.sqrt(operator_norm(HermitianOperator(qc.x_op.conj().T @ qc.x_op))),
            math.sqrt(operator_norm(HermitianOperator(qc.y_op.conj().T @ qc.y_op))),
        )
        worst["overlap"] = min(worst["overlap"],
                               qc.overlap_psi - (1.0 - eps),
                               qc.overlap_phi - (1.0 - eps))
        worst["fid"] = min(worst["fid"],
                           fidelity(qc.psi, qc.theta) - (1.0 - eps))
    ok = (worst["marg"] <= 1e-9 and worst["norm"] <= 1.0 + 1e-10
          and worst["overlap"] >= -1e-9 and worst["fid"] >= -1e-9)
    _report(5, ok, f"max marginal dev={worst['marg']:.2e} max norm={worst['norm']:.12f} "
                   f"min overlap slack={worst['overlap']:.2e} min fid slack={worst['fid']:.2e}")


# 6. diagonal coupling: exact marginals, eigenvalue witness, spectra distance
def test_criterion_06_diagonal_coupling():
    worst = {"marg": 0.0, "eig": math.inf, "mirsky": math.inf}
    for i in range(1000):
        rng = _rng(6, 0, i)
        d = int(rng.integers(2, 7))
        rho = sample_state(d, int(rng.integers(1, d + 1)), rng)
        sigma = sample_state(d, int(rng.integers(1, d + 1)), rng)
        eps = trace_distance(rho, sigma)
        dc = diagonal_coupling(rho, sigma)
        worst["marg"] = max(
            worst["marg"],
            np.abs(partial_trace(dc.omega, "A").mat - rho.mat).max(),
            np.abs(partial_trace(dc.omega, "B").mat - sigma.mat).max(),
        )
        worst["eig"] = min(worst["eig"], dc.largest_eigenvalue - (1.0 - eps))
        worst["mirsky"] = min(worst["mirsky"], eps - dc.epsilon_mirsky)
    ok = (worst["marg"] <= 1e-10 and worst["eig"] >= -1e-9
          and worst["mirsky"] >= -1e-9)
    _report(6, ok, f"max marginal dev={worst['marg']:.2e} "
                   f"min eig slack={worst['eig']:.2e} min mirsky slack={worst['mirsky']:.2e}")


def _grid_oracle(rho, model, coarse=0.01, fine=0.001):
    """Independent simplex-grid minimizer (m=3) with local refinement."""
    gens = np.stack([g.mat for g in model.generators])
    neg_s = -von_neumann_entropy(rho)

    def batch_eval(weights):
        gammas = np.einsum("ki,ijl->kjl", weights, gens)
        lam, u = np.linalg.eigh(gammas)
        lam = np.clip(lam, 0.0, None)
        q = np.real(np.einsum("kia,ij,kja->ka", u.conj(), rho.mat, u))
        logs = np.where(lam > 1e-12, np.log2(np.where(lam > 1e-12, lam, 1.0)), 0.0)
        vals = neg_s - (q * logs).sum(axis=1)
        bad = (q * (lam <= 1e-12)).sum(axis=1) > 1e-10
        return np.where(bad, np.inf, vals)

    def grid(center, radius, step):
        axes = [np.arange(max(0.0, c - radius), min(1.0, c + radius) + step / 2, step)
                for c in center[:-1]]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        last = 1.0 - mesh.sum(axis=1)
        keep = last >= -1e-12
        return np.column_stack([mesh[keep], np.clip(last[keep], 0.0, None)])

    pts = grid(np.full(3, 0.5), 0.5, coarse)
    vals = batch_eval(pts)
    best = pts[int(np.argmin(vals))]
    pts2 = grid(best, coarse, fine)
    vals2 = batch_eval(pts2)
    return float(vals2.min())


# 7. relative-entropy-distance continuity: closed form, optimizer, gradients
def test_criterion_07_dc_bound_and_optimizer():
    # closed form: for C = {1_A (x) xi}, D_C = -S(A|B), kappa = 2 log2 d_A
    min_slack = math.inf
    for i in range(1000):
        rng = _rng(7, 0, i)
        d_a = int(rng.integers(2, 5))
        d_b = int(rng.integers(2, 5))
        dims = (d_a, d_b)
        rho = BipartiteState(sample_state(d_a * d_b, d_a * d_b, rng), dims)
        sigma = BipartiteState(sample_state(d_a * d_b, d_a * d_b, rng), dims)
        eps = min(trace_distance(rho, sigma), 1.0)
        lhs = abs(conditional_entropy(rho) - conditional_entropy(sigma))
        rhs = dc_bound(eps, 2.0 * math.log2(d_a))
        min_slack = min(min_slack, rhs - lhs)

    # optimizer vs independent simplex-grid oracle
    max_dev = 0.0
    for i in range(50):
        rng = _rng(7, 1, i)
        gens = [sample_state(3, 3, rng).mat for _ in range(3)]
        model = ConvexSetModel(generators=gens)
        rho = sample_state(3, 3, rng)
        res = dc_minimize(rho, model)
        max_dev = max(max_dev, abs(res.value - _grid_oracle(rho, model)))

    # gradients vs central finite differences
    max_rel = 0.0
    for i in range(50):
        rng = _rng(7, 2, i)
        gens = [sample_state(3, 3, rng).mat for _ in range(3)]
        model = ConvexSetModel(generators=gens)
        rho = sample_state(3, 3, rng)
        w = rng.dirichlet(np.ones(3))
        g = dc_gradient(rho, w, model)
        num = np.zeros(3)
        h = 1e-6
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1.0
            num[k] = (dc_objective(rho, model, w + h * e)
                      - dc_objective(rho, model, w - h * e)) / (2 * h)
        max_rel = max(max_rel, np.abs(g - num).max() / max(np.abs(num).max(), 1.0))

    ok = min_slack >= -1e-9 and max_dev <= 1e-5 and max_rel <= 1e-6
    _report(7, ok, f"min_slack={min_slack:.3e} max oracle dev={max_dev:.2e} "
                   f"max gradient rel err={max_rel:.2e}")


# 8. entanglement continuity on pure pairs (sqrt(eps(2-eps)) form)
def test_criterion_08_pure_state_corollaries():
    min_slack = math.inf
    for d in (2, 3, 4):
        for i in range(1000):
            rng = _rng(8, d, i)
            phi = sample_pure_bipartite(d, d, rng)
            psi = sample_pure_bipartite(d, d, rng)
            min_slack = min(min_slack, check_cor_pure(phi, psi, which="ef").slack)
    ok = min_slack >= -1e-9
    _report(8, ok, f"min_slack={min_slack:.3e} over 3000 pure pairs")


# 9. Gibbs solver exactness, entropy shape, vanishing-weight limit
def test_criterion_09_gibbs_solver():
    h1 = HamiltonianSpec.oscillators([1.0])
    sol = solve_beta(h1, 1.0)
    err_beta = abs(sol.beta - math.log(2.0))
    err_s = abs(sol.entropy - 2.0)
    two = solve_beta(HamiltonianSpec.explicit([0.0, 1.0]), 0.25)
    err_two = abs(two.entropy - binary_entropy(0.25))

    grid = np.linspace(0.05, 20.0, 200)
    vals = np.array([gibbs_entropy(h1, e) for e in grid])
    monotone = bool((np.diff(vals) > 0).all())
    concave = bool((np.diff(vals, 2) < 1e-8).all())
    upper = all(gibbs_entropy(h1, e) <= oscillator_entropy_upper([1.0], e) + 1e-9
                for e in grid[::10])

    tail = [d * gibbs_entropy(h1, 1.0 / d) for d in [2.0 ** -k for k in range(1, 21)]]
    decreasing = bool((np.diff(tail) < 0).all())
    final = tail[-1]

    ok = (err_beta <= 1e-10 and err_s <= 1e-10 and err_two <= 1e-10
          and monotone and concave and upper and decreasing and final < 0.05)
    _report(9, ok, f"|beta-ln2|={err_beta:.1e} |S-2|={err_s:.1e} "
                   f"|S-h(1/4)|={err_two:.1e} monotone={monotone} concave={concave} "
                   f"upper={upper} tail@2^-20={final:.4f}")


# 10. energy-constrained continuity bounds and cutoff inequalities
def test_criterion_10_energy_constrained_bounds():
    e, n_max = 2.0, 40
    h = HamiltonianSpec.oscillators([1.0], n_max=n_max)
    eps_prime_grid = lambda eps: [min(eps + 0.05 * k, 1.0)
                                  for k in range(1, int((1.0 - eps) / 0.05) + 2)
                                  if eps + 0.05 * k <= 1.0 + 1e-12]
    min_slack = math.inf
    for i in range(500):
        rng = _rng(10, 0, i)
        rho = sample_energy_constrained(h, e, rng=rng)
        sigma = sample_energy_constrained(h, e, rng=rng)
        eps = trace_distance(rho, sigma)
        lhs = abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma))
        min_slack = min(min_slack, lemma4_bound(h, e, max(eps, 1e-12)) - lhs)
        for ep in eps_prime_grid(eps):
            if ep > eps:
                min_slack = min(min_slack, meta5_bound(h, e, eps, ep) - lhs)

    min_slack_cond = math.inf
    for i in range(500):
        rng = _rng(10, 1, i)
        rho = sample_energy_constrained(h, e, d_b=3, rng=rng)
        sigma = sample_energy_constrained(h, e, d_b=3, rng=rng)
        eps = trace_distance(rho, sigma)
        lhs = abs(conditional_entropy(rho) - conditional_entropy(sigma))
        for ep in eps_prime_grid(eps):
            if ep > eps:
                min_slack_cond = min(min_slack_cond, meta6_bound(h, e, eps, ep) - lhs)

    # intermediate cutoff inequalities on pairs with mass above the cutoff
    gamma_half = solve_beta(h, e / 2).state()
    cut_ok = True
    for i in range(50):
        rng = _rng(10, 2, i)
        pair = []
        for _ in range(2):
            low = sample_energy_constrained(h, e / 2, rng=rng)
            t = rng.uniform(0.1, 0.9)
            pair.append(DensityOperator((1 - t) * low.mat + t * gamma_half.mat))
        rho, sigma = pair
        eps = trace_distance(rho, sigma)
        delta = float(rng.uniform(0.05, 0.5))
        dr = cutoff_decompose(rho, h, e, delta)
        ds = cutoff_decompose(sigma, h, e, delta)
        cut_ok &= dr.weight_gt <= delta + 1e-10 and ds.weight_gt <= delta + 1e-10
        for dec in (dr, ds):
            if dec.state_gt is not None:
                e_gt = float((h.levels * np.real(np.diag(dec.state_gt.mat))).sum())
                cut_ok &= dec.weight_gt * e_gt <= e + 1e-9
        td = trace_distance(dr.state_le, ds.state_le)
        cut_ok &= td <= truncated_trace_distance_bound(eps, delta) + 1e-9

    ok = min_slack >= -1e-9 and min_slack_cond >= -1e-9 and cut_ok
    _report(10, ok, f"min_slack entropy={min_slack:.3e} "
                    f"conditional={min_slack_cond:.3e} cutoff_ok={cut_ok}")


# 11. oscillator closed-form bounds and the entropy tightness witness
def test_criterion_11_oscillator_bounds_and_witness():
    e, n_max = 2.0, 40
    h = HamiltonianSpec.oscillators([1.0], n_max=n_max)
    min_slack = math.inf
    for i in range(200):
        rng = _rng(11, 0, i)
        rho = sample_energy_constrained(h, e, rng=rng)
        sigma = sample_energy_constrained(h, e, rng=rng)
        eps = trace_distance(rho, sigma)
        lhs = abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma))
        for alpha in (0.05, 0.1, 0.25, 0.5):
            ent_rhs, _ = lemma7_bounds([1.0], e, min(eps, 1.0 - 1e-12), alpha)
            min_slack = min(min_slack, ent_rhs - lhs)

    p, q = oscillator_tightness_witness(100.0, 0.2)
    gap = abs(shannon_entropy(p) - shannon_entropy(q))
    floor = 0.2 * gibbs_entropy_g(100.0)
    h_w = HamiltonianSpec.oscillators([1.0], n_max=len(p) - 1)
    rhs = lemma4_bound(h_w, 100.0, 0.2)
    ratio = rhs / gap
    ok = min_slack >= -1e-9 and gap >= floor and rhs >= gap and ratio <= 3.0
    _report(11, ok, f"min lemma7 slack={min_slack:.3e} witness gap={gap:.4f} "
                    f"floor={floor:.4f} rhs={rhs:.4f} ratio={ratio:.3f}")


# 12. whole-suite budget and byte-for-byte reproducible reports
def test_criterion_12_runtime_and_reproducibility():
    suite_sizes = {
        "fannes": dict(dims=(2, 3, 4), samples=50),
        "af": dict(dims=(2, 3), samples=25),
        "dc": dict(dims=(2, 3), samples=3),
        "couplings": dict(dims=(2, 3, 4), samples=25),
        "cor_pure": dict(dims=(2, 3, 4), samples=25),
        "gibbs": dict(energies=(0.25, 0.5, 1.0, 2.0, 4.0)),
        "energy_bounds": dict(energies=(1.0, 2.0), samples=10),
        "tightness": dict(dims=(2, 4, 8, 16), epsilons=(0.05, 0.25, 0.5)),
    }
    reproducible = True
    violations = 0
    for suite, sizes in suite_sizes.items():
        cfg = CampaignConfig(suite=suite, seed=12, **sizes)
        first = run_campaign(cfg)
        violations += first.violations
        for fmt in ("csv", "json"):
            a = render_report(first, fmt)
            b = render_report(run_campaign(cfg), fmt)
            reproducible &= (a == b)
    elapsed = time.time() - _T0
    ok = reproducible and violations == 0 and elapsed <= 300.0
    _report(12, ok, f"violations={violations} reproducible={reproducible} "
                    f"acceptance runtime={elapsed:.1f}s (limit 300s)")
