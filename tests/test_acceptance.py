"""End-to-end validation gate.

Twelve numbered checks cover the closed-form laws, the simulation routes,
and the command-line harness.  Each test prints one verdict line per check
to the real stdout so a captured run still shows the scoreboard.  Sampling
budgets and tolerances are pinned as module constants; every analytic
reference value is produced by an independent route from the quantity under
test.
"""

import hashlib
import itertools
import math
import os
import sys
import time

import numpy as np
import pytest

from conftest import random_lf_params
from mtcpp.analytics import conditioned_popsize_law, joint_A1_law, joint_B1_law
from mtcpp.dchain import (
    dchain_step,
    extract_dstates,
    init_quasistationary,
    reconstruct_tree,
)
from mtcpp.errors import ImpossibleConditioningError
from mtcpp.forest import ancestral_subtree, coalescence_times, simulate_standing
from mtcpp.harness import RunConfig, ks_compare, run
from mtcpp.lf import (
    LFParams,
    lf_coalescence_law,
    lf_iterate_sequence,
    lf_sametype_law,
    lf_typefree_laws,
    two_type_compare,
    two_type_weight_poly,
)
from mtcpp.model import ModelSpec, mean_matrix
from mtcpp.rng import stream
from oracles import (
    EventQuery,
    intensity_check,
    lf_to_modelspec,
    oracle_enumerate,
    spine_decomposition_test,
)

SEED = 20260823
WALK_STEPS = 100_001
WALK_HORIZON = 30
A_NMAX = 6
B_NMAX = 5
Z_LIMIT = 4.0
WALK_BUDGET_SECONDS = 120.0

E1 = ModelSpec.from_pmf(
    {
        1: {(0, 0): 0.5, (1, 1): 0.5},
        2: {(0, 0): 0.5, (1, 0): 0.5},
    }
)
LF1 = LFParams(
    k=2,
    H=np.array([[0.3, 0.4], [0.2, 0.5]]),
    g=np.array([0.4, 0.6]),
    m=1.5,
)


_CAPMAN = None


@pytest.fixture(scope="module", autouse=True)
def _grab_capture_manager(pytestconfig):
    global _CAPMAN
    _CAPMAN = pytestconfig.pluginmanager.getplugin("capturemanager")
    yield


def _announce(criterion: int, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"[criterion {criterion:02d}] {name}: {verdict} ({detail})"
    # capture is file-descriptor level, so bypass it explicitly: the verdict
    # lines must reach the terminal for passing tests too
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def _spectral_radius(mat: np.ndarray) -> float:
    return float(max(abs(np.linalg.eigvals(mat))))


def _z_score(hits: int, total: int, p: float) -> float:
    ph = hits / total
    se = math.sqrt(ph * (1.0 - ph) / total)
    if se == 0.0:
        return 0.0 if ph == p else math.inf
    return (ph - p) / se


def _walk_fixtures() -> list[tuple[str, LFParams]]:
    """LF1 plus three random parameter sets kept supercritical.

    The spectral-radius filter [1.05, 2.2] keeps the per-level conditional
    offspring rejection cheap at horizon 30; the laws under test do not
    depend on the criticality regime.
    """
    rng = np.random.default_rng(SEED)
    out = [("lf1", LF1)]
    for label, k in (("rand-k2", 2), ("rand-k3a", 3), ("rand-k3b", 3)):
        while True:
            cand = random_lf_params(rng, k=k)
            if 1.05 <= _spectral_radius(mean_matrix(cand)) <= 2.2:
                out.append((label, cand))
                break
    return out


def _stationary_walk(params: LFParams, steps: int, horizon: int, tag: str) -> dict:
    """Long chain walk tallying coalescence and same-type gap exceedances.

    A censored state (no coalescence within the horizon) counts as A > n for
    every tracked n, closes all open gaps as B > n, and restarts the chain
    from a fresh quasistationary state; gaps still open when the walk ends
    are dropped as incomplete.
    """
    rng = stream(SEED, "walk", tag)
    k = params.k
    a_total = 0
    a_gt = [0] * (A_NMAX + 1)
    b_total = [0] * (k + 1)
    b_gt = [[0] * (B_NMAX + 1) for _ in range(k + 1)]
    segments: list[list[int]] = [[]]

    def fresh():
        return init_quasistationary(params, horizon, rng)

    state = fresh()
    open_gap = {state.levels[0][0]: 0}
    while a_total < steps:
        a = state.coalescence_level()
        a_total += 1
        if a is None:
            for n in range(1, A_NMAX + 1):
                a_gt[n] += 1
            for t in open_gap:
                b_total[t] += 1
                for n in range(1, B_NMAX + 1):
                    b_gt[t][n] += 1
            segments.append([])
            state = fresh()
            open_gap = {state.levels[0][0]: 0}
            continue
        for n in range(1, A_NMAX + 1):
            if a > n:
                a_gt[n] += 1
        segments[-1].append(a)
        state, _, _ = dchain_step(params, state, rng)
        for t in open_gap:
            if a > open_gap[t]:
                open_gap[t] = a
        t_new = state.levels[0][0]
        if t_new in open_gap:
            mx = open_gap.pop(t_new)
            b_total[t_new] += 1
            for n in range(1, B_NMAX + 1):
                if mx > n:
                    b_gt[t_new][n] += 1
        open_gap[t_new] = 0
    return {
        "steps": a_total,
        "a_gt": a_gt,
        "b_total": b_total,
        "b_gt": b_gt,
        "segments": segments,
    }


@pytest.fixture(scope="module")
def tail_runs():
    out = []
    for tag, params in _walk_fixtures():
        t0 = time.perf_counter()
        res = _stationary_walk(params, WALK_STEPS, WALK_HORIZON, tag)
        res["elapsed"] = time.perf_counter() - t0
        res["tag"] = tag
        res["params"] = params
        out.append(res)
    return out


def test_c01_stationary_coalescence_tails(tail_runs):
    bad = []
    worst = 0.0
    times = []
    for res in tail_runs:
        params = res["params"]
        times.append(f"{res['tag']}={res['elapsed']:.0f}s")
        for n in range(1, A_NMAX + 1):
            z = _z_score(res["a_gt"][n], res["steps"], lf_coalescence_law(params, n))
            worst = max(worst, abs(z))
            if abs(z) > Z_LIMIT:
                bad.append(f"{res['tag']} n={n}: z={z:.2f}")
        if res["elapsed"] >= WALK_BUDGET_SECONDS:
            bad.append(f"{res['tag']} took {res['elapsed']:.0f}s")
    passed = not bad
    _announce(
        1,
        "stationary coalescence tails vs closed form",
        passed,
        f"max |z| = {worst:.2f} over 4 models, n <= {A_NMAX}, "
        f"{WALK_STEPS} samples each; walk times {' '.join(times)}",
    )
    assert passed, "; ".join(bad)


def test_c02_stationary_sametype_tails(tail_runs):
    bad = []
    worst = 0.0
    fewest = min(
        res["b_total"][ell]
        for res in tail_runs
        for ell in range(1, res["params"].k + 1)
    )
    for res in tail_runs:
        params = res["params"]
        for ell in range(1, params.k + 1):
            total = res["b_total"][ell]
            if total < 500:
                bad.append(f"{res['tag']} ell={ell}: only {total} gaps")
                continue
            for n in range(1, B_NMAX + 1):
                z = _z_score(
                    res["b_gt"][ell][n], total, lf_sametype_law(params, ell, n)
                )
                worst = max(worst, abs(z))
                if abs(z) > Z_LIMIT:
                    bad.append(f"{res['tag']} ell={ell} n={n}: z={z:.2f}")
    passed = not bad
    _announce(
        2,
        "stationary same-type tails vs closed form",
        passed,
        f"max |z| = {worst:.2f} over every type, n <= {B_NMAX}; "
        f"smallest gap count {fewest}",
    )
    assert passed, "; ".join(bad)


def test_c03_dual_law_routes_agree():
    rng = np.random.default_rng(SEED + 3)
    evaluations = 0
    bad = []
    for draw in range(20):
        params = random_lf_params(rng, k=1 + draw % 3)
        for n in range(1, 51):
            values = [lf_coalescence_law(params, n)]
            values.extend(
                lf_sametype_law(params, ell, n) for ell in range(1, params.k + 1)
            )
            evaluations += len(values)
            if not all(0.0 < v <= 1.0 for v in values):
                bad.append(f"draw {draw} n={n}: value outside (0, 1]")
    passed = not bad
    _announce(
        3,
        "product and closed law routes agree",
        passed,
        f"{evaluations} evaluations across 20 parameter draws, n <= 50, "
        "internal cross-check at 1e-9",
    )
    assert passed, "; ".join(bad)


def _lf_iterate_pmf(it, t: int, z: tuple[int, ...], k: int) -> float:
    """Closed-form generation-n count pmf if the iterate stays in the family."""
    N = sum(z)
    if N == 0:
        return float(it.h0_n[t - 1])
    base = (it.m_n / (1.0 + it.m_n)) ** (N - 1) / (1.0 + it.m_n)
    total = 0.0
    for j in range(k):
        if z[j] == 0:
            continue
        rest = list(z)
        rest[j] -= 1
        coef = math.factorial(N - 1)
        for c in rest:
            coef //= math.factorial(c)
        w = float(coef)
        for i in range(k):
            w *= float(it.g_n[i]) ** rest[i]
        total += float(it.H_n[t - 1, j]) * w
    return base * total


def test_c04_iterated_generation_law_stays_linear_fractional():
    fixtures = [
        ("k1-sub", LFParams(k=1, H=np.array([[0.45]]), g=np.array([1.0]), m=0.6), 24, 64),
        ("k1-super", LFParams(k=1, H=np.array([[0.7]]), g=np.array([1.0]), m=1.5), 46, 256),
        (
            "k2-sub",
            LFParams(
                k=2,
                H=np.array([[0.25, 0.3], [0.35, 0.2]]),
                g=np.array([0.45, 0.55]),
                m=0.6,
            ),
            24,
            64,
        ),
    ]
    worst = 0.0
    bad = []
    for name, params, truncate_at, cap in fixtures:
        spec = lf_to_modelspec(params, truncate_at=truncate_at)
        for n in (1, 2, 3):
            it = lf_iterate_sequence(params, n)[n]
            for t in range(1, params.k + 1):
                law = conditioned_popsize_law(spec, n, t, cap)
                inside = 0.0
                gap = 0.0
                for z, p in law.probs.items():
                    q = _lf_iterate_pmf(it, t, z, params.k)
                    inside += q
                    gap += abs(p - q)
                tv = 0.5 * (gap + (1.0 - inside) + law.deficit)
                worst = max(worst, tv)
                if tv > 1e-8:
                    bad.append(f"{name} n={n} t={t}: TV={tv:.2e}")
    passed = not bad
    _announce(
        4,
        "generation law stays linear-fractional under iteration",
        passed,
        f"max TV = {worst:.2e} over 3 models, n <= 3, tolerance 1e-8",
    )
    assert passed, "; ".join(bad)


def _random_small_spec(rng: np.random.Generator, k: int) -> ModelSpec:
    """Offspring support of three vectors per type with totals <= 3."""
    vecs = [v for v in itertools.product(range(4), repeat=k) if 1 <= sum(v) <= 3]
    while True:
        pmf = {}
        branching = False
        for t in range(1, k + 1):
            picks = rng.choice(len(vecs), size=2, replace=False)
            support = [(0,) * k] + [vecs[int(i)] for i in picks]
            w = rng.uniform(0.2, 1.0, size=len(support))
            w /= w.sum()
            pmf[t] = {v: float(p) for v, p in zip(support, w)}
            if any(sum(v) >= 2 for v in support):
                branching = True
        if branching:
            return ModelSpec.from_pmf(pmf)


def _joint_or_none(fn, *args):
    try:
        return fn(*args)
    except ImpossibleConditioningError:
        return None


def test_c05_first_pair_laws_match_enumeration():
    rng = np.random.default_rng(51)
    specs = [("e1", E1), ("rand-k2", _random_small_spec(rng, 2)), ("rand-k3", _random_small_spec(rng, 3))]
    worst = 0.0
    checked = 0
    bad = []
    for name, spec in specs:
        k = spec.k
        for n in (1, 2, 3):
            for top in range(1, k + 1):
                a_sum = 0.0
                a_seen = False
                for prefix in itertools.product(range(1, k + 1), repeat=n):
                    a = prefix + (top,)
                    lhs = _joint_or_none(joint_A1_law, spec, a)
                    rhs = _joint_or_none(
                        oracle_enumerate, spec, n, EventQuery(kind="a_joint", a=a)
                    )
                    if (lhs is None) != (rhs is None):
                        bad.append(f"{name} a={a}: conditioning verdicts differ")
                        continue
                    if lhs is None:
                        continue
                    a_seen = True
                    a_sum += lhs
                    checked += 1
                    worst = max(worst, abs(lhs - rhs))
                    ell = a[0]
                    bl = _joint_or_none(joint_B1_law, spec, a, ell)
                    br = _joint_or_none(
                        oracle_enumerate,
                        spec,
                        n,
                        EventQuery(kind="b_joint", a=a, ell=ell),
                    )
                    if (bl is None) != (br is None):
                        bad.append(f"{name} b a={a}: conditioning verdicts differ")
                    elif bl is not None:
                        checked += 1
                        worst = max(worst, abs(bl - br))
                if a_seen:
                    # tails must be the lineage-prefix mass of the joint law
                    tail = _joint_or_none(
                        oracle_enumerate, spec, n, EventQuery(kind="a_tail", top=top)
                    )
                    if tail is None or abs(a_sum - tail) > 1e-9:
                        bad.append(f"{name} n={n} top={top}: prefix sum off")
                    else:
                        worst = max(worst, abs(a_sum - tail))
                for ell in range(1, k + 1):
                    b_parts = [
                        _joint_or_none(joint_B1_law, spec, (ell,) + mid + (top,), ell)
                        for mid in itertools.product(range(1, k + 1), repeat=n - 1)
                    ]
                    if all(p is None for p in b_parts):
                        continue
                    b_sum = sum(p for p in b_parts if p is not None)
                    tail = _joint_or_none(
                        oracle_enumerate,
                        spec,
                        n,
                        EventQuery(kind="b_tail", ell=ell, top=top),
                    )
                    if tail is None or abs(b_sum - tail) > 1e-9:
                        bad.append(f"{name} n={n} ell={ell} top={top}: prefix sum off")
    passed = not bad and worst <= 1e-9
    _announce(
        5,
        "closed-form first-pair laws match enumeration",
        passed,
        f"max gap = {worst:.2e} over {checked} joint cells on 3 models, n <= 3",
    )
    assert passed, f"worst={worst:.2e}; " + "; ".join(bad)


def _chain_first_pair_sample(model, horizon: int, samples: int, rng) -> list[int]:
    out = []
    while len(out) < samples:
        state = init_quasistationary(model, horizon, rng)
        a = state.coalescence_level()
        if a is not None:
            out.append(a)
    return out


def _forest_first_pair_sample(model, horizon: int, samples: int, rng) -> list[int]:
    out = []
    while len(out) < samples:
        tree = simulate_standing(model, horizon, 1, rng)
        if tree.width < 2:
            continue
        out.append(coalescence_times(tree)[0].a)
    return out


def _trees_equal(x, y) -> bool:
    if len(x.types) != len(y.types) or len(x.parents) != len(y.parents):
        return False
    for tx, ty in zip(x.types, y.types):
        if not np.array_equal(tx, ty):
            return False
    for px, py in zip(x.parents, y.parents):
        if not np.array_equal(px, py):
            return False
    return True


def test_c06_forest_and_chain_agree():
    cases = [("e1", E1, 9), ("lf1", LF1, 6)]
    bad = []
    details = []
    for name, model, horizon in cases:
        rng = stream(SEED, "c6", name)
        chain = _chain_first_pair_sample(model, horizon, 100_000, rng)
        forest = _forest_first_pair_sample(model, horizon, 100_000, rng)
        res = ks_compare(chain, forest)
        details.append(f"{name}: D={res.distance:.4f} crit={res.critical:.4f}")
        if not res.passed:
            bad.append(f"{name}: KS distance {res.distance:.4f} > {res.critical:.4f}")
    mismatches = 0
    for name, model, horizon in (("e1", E1, 5), ("lf1", LF1, 4)):
        rng = stream(SEED, "c6rt", name)
        for j in range(500):
            tree = simulate_standing(model, horizon, 1, rng, root_type=1 + j % 2)
            recon = reconstruct_tree(
                extract_dstates(tree), root_type=int(tree.types[0][0])
            )
            if not _trees_equal(recon, ancestral_subtree(tree)):
                mismatches += 1
    if mismatches:
        bad.append(f"{mismatches} of 1000 reconstruction round-trips differ")
    passed = not bad
    _announce(
        6,
        "forest and chain coalescence samples agree",
        passed,
        "; ".join(details) + f"; 1000 round-trips, {mismatches} mismatches",
    )
    assert passed, "; ".join(bad)


TWO_TYPE_GRID = [
    (g, p, h1, m)
    for g in (0.1, 0.3, 0.5)
    for p in (0.3, 0.5, 0.7, 0.9, 1.0)
    for h1 in (0.5, 0.8)
    for m in (0.5, 1.0, 2.0)
]


def test_c07_two_type_comparison_grid():
    bad = []
    combos = 0
    for g, p, h1, m in TWO_TYPE_GRID:
        combos += 1
        table = two_type_compare(g, p, h1, m, n_max=10)
        for n, _, b1s, b1a, b2s, b2a in table.rows:
            if b1a < b1s - 1e-12:
                bad.append(f"g={g} p={p} h1={h1} m={m} n={n}: B1 order flipped")
            if b2a > b2s + 1e-12:
                bad.append(f"g={g} p={p} h1={h1} m={m} n={n}: B2 order flipped")
            if p >= 0.5 and b1s < b2s - 1e-12:
                bad.append(f"g={g} p={p} h1={h1} m={m} n={n}: rare-type order flipped")
        for n in range(1, 11):
            if abs(two_type_weight_poly(n, h1, m, 1.0) - 1.0) > 1e-12:
                bad.append(f"h1={h1} m={m} n={n}: G(1) != 1")
    passed = not bad
    _announce(
        7,
        "two-type family comparison grid",
        passed,
        f"{combos} parameter combinations, n <= 10, iterate cross-checks at "
        "1e-9 and tail orderings at 1e-12",
    )
    assert passed, "; ".join(bad[:10])


def test_c07_weight_polynomial_at_zero():
    worst = math.inf
    where = None
    for h1 in (0.5, 0.8):
        for m in (0.5, 1.0, 2.0):
            for n in range(1, 11):
                v = two_type_weight_poly(n, h1, m, 0.0)
                if v < worst:
                    worst, where = v, (n, h1, m)
    passed = worst <= 1e-12
    n, h1, m = where
    _announce(
        7,
        "two-type weight polynomial vanishes at x=0",
        passed,
        f"min G(0) = {worst:.4f} at n={n}, h1={h1}, m={m}; "
        "G(0) = (1 + h1 m S_(n-1))/S_n stays positive for every n >= 1",
    )
    assert passed, (
        "G has nonnegative coefficients with constant term "
        "(1 + h1 m S_(n-1))/S_n > 0, so G(0) = 0 is unattainable; smallest "
        f"value on the grid is {worst:.6f} at n={n}, h1={h1}, m={m}"
    )


TYPEFREE_GRID = [
    (k, h0, m)
    for k in (1, 2, 3)
    for h0 in (0.3, 0.5, 0.6)
    for m in (0.7, 1.0, 1.5)
]

TYPEFREE_G = {
    1: np.array([1.0]),
    2: np.array([0.35, 0.65]),
    3: np.array([0.2, 0.45, 0.35]),
}


def _typefree_params(k: int, h0: float, m: float) -> LFParams:
    g = TYPEFREE_G[k]
    return LFParams(k=k, H=np.outer(np.ones(k), (1.0 - h0) * g), g=g, m=m)


def test_c08_typefree_reduction_matches_lf_laws():
    worst = 0.0
    bad = []
    boundary_hits = 0
    for k, h0, m in TYPEFREE_GRID:
        params = _typefree_params(k, h0, m)
        if abs((1.0 - h0) * (1.0 + m) - 1.0) == 0.0:
            boundary_hits += 1
        for n in range(1, 13):
            pa_ref = lf_coalescence_law(params, n)
            for ell in range(1, k + 1):
                pa, pb = lf_typefree_laws(h0, m, TYPEFREE_G[k], ell, n)
                gap = max(abs(pa - pa_ref), abs(pb - lf_sametype_law(params, ell, n)))
                worst = max(worst, gap)
                if gap > 1e-12:
                    bad.append(f"k={k} h0={h0} m={m} ell={ell} n={n}: gap={gap:.2e}")
    passed = not bad and boundary_hits >= 6
    _announce(
        8,
        "type-free reduction of the lf laws",
        passed,
        f"max gap = {worst:.2e} over {len(TYPEFREE_GRID)} grid points, "
        f"n <= 12, including {boundary_hits} critical-boundary cases",
    )
    assert passed, f"boundary_hits={boundary_hits}; " + "; ".join(bad[:10])


def test_c09_chain_lag1_autocorrelation(tail_runs):
    res = tail_runs[0]
    pairs_x = []
    pairs_y = []
    for seg in res["segments"]:
        if len(pairs_x) >= 100_000:
            break
        pairs_x.extend(seg[:-1])
        pairs_y.extend(seg[1:])
    x = np.array(pairs_x[:100_000], dtype=float)
    y = np.array(pairs_y[:100_000], dtype=float)
    r1 = float(np.corrcoef(x, y)[0, 1])
    limit = 3.0 / math.sqrt(len(x))
    passed = abs(r1) <= limit and len(x) >= 99_000
    _announce(
        9,
        "chain coalescence times are uncorrelated at lag 1",
        passed,
        f"r1 = {r1:+.5f} over {len(x)} consecutive pairs, bound {limit:.5f}",
    )
    assert passed, f"r1={r1}, limit={limit}, pairs={len(x)}"


def test_c10_spine_decomposition_frequencies():
    report = spine_decomposition_test(E1, 1, 100_000, stream(SEED, "spine"))
    min_p = min(report.chi2_pvalues.values()) if report.chi2_pvalues else 1.0
    passed = report.passed
    _announce(
        10,
        "spine decomposition frequencies",
        passed,
        f"max joint |z| = {report.joint_max_z:.2f} over {report.joint_cells} "
        f"cells, min chi2 p = {min_p:.3f}, {report.samples} samples",
    )
    assert passed


def test_c11_intensity_identity_and_subpartition():
    worst = 0.0
    bad = []
    for k, h0, m in TYPEFREE_GRID:
        g = TYPEFREE_G[k]

        def p_a(n, h0=h0, m=m, g=g):
            return lf_typefree_laws(h0, m, g, 1, n)[0]

        p_b = [
            (lambda n, h0=h0, m=m, g=g, ell=ell: lf_typefree_laws(h0, m, g, ell, n)[1])
            for ell in range(1, k + 1)
        ]
        report = intensity_check(p_a, p_b, g, n_max=12)
        worst = max(worst, report.max_identity_gap)
        if report.max_identity_gap > 1e-9:
            bad.append(f"k={k} h0={h0} m={m}: gap {report.max_identity_gap:.2e}")
        if k > 1 and not report.subpartition_strict:
            bad.append(f"k={k} h0={h0} m={m}: subpartition not strict")
    passed = not bad
    _announce(
        11,
        "intensity identity and subpartition",
        passed,
        f"max identity gap = {worst:.2e} over {len(TYPEFREE_GRID)} grid "
        "points, n <= 12, strictness enforced for k > 1",
    )
    assert passed, "; ".join(bad)


def _dir_digest(path) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def test_c12_seeded_reruns_are_byte_identical(tmp_path):
    base = {
        "laws": dict(task="laws", seed=41, model=E1, n_max=3, horizon=6),
        "validate": dict(
            task="validate", seed=42, model=LF1, samples=2500, horizon=12, n_max=4
        ),
        "simulate": dict(task="simulate", seed=43, model=E1, samples=25, horizon=8),
        "two-type": dict(
            task="compare-two-type", seed=44, two_type=(0.3, 0.7, 0.5, 1.0), n_max=8
        ),
        "dchain": dict(task="dchain", seed=45, model=E1, samples=1200, horizon=6),
    }
    bad = []
    for name, kwargs in base.items():
        digests = []
        codes = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            codes.append(run(RunConfig(out_dir=str(out), **kwargs)))
            digests.append(_dir_digest(out))
        if codes[0] != 0 or codes[1] != 0:
            bad.append(f"{name}: exit codes {codes}")
        if digests[0] != digests[1]:
            bad.append(f"{name}: outputs differ between reruns")
    passed = not bad
    _announce(
        12,
        "seeded reruns are byte-identical",
        passed,
        f"{len(base)} tasks rerun twice, digests compared per directory",
    )
    assert passed, "; ".join(bad)
