import json
from itertools import product

import numpy as np
import pytest
from scipy import stats

from mtcpp import dchain, forest
from mtcpp.analytics import joint_A1_law
from mtcpp.dchain import (
    DState,
    _kept_offspring,
    _survival_rows,
    dchain_step,
    extract_dstates,
    init_quasistationary,
    reconstruct_tree,
    sample_eta,
)
from mtcpp.errors import (
    CensoredError,
    GuardError,
    ImpossibleConditioningError,
    InconsistentStateError,
    SchemaError,
)
from mtcpp.forest import (
    _offspring_sampler,
    ancestral_subtree,
    coalescence_times,
    simulate_standing,
)
from mtcpp.lf import lf_coalescence_law
from mtcpp.model import ModelSpec, mean_matrix, pgf_eval_all, survival_vector
from mtcpp.rng import stream


@pytest.fixture
def rich2() -> ModelSpec:
    return ModelSpec.from_pmf(
        {
            1: {(0, 0): 0.3, (2, 0): 0.25, (0, 1): 0.25, (1, 1): 0.2},
            2: {(0, 0): 0.4, (1, 0): 0.3, (0, 2): 0.3},
        }
    )


def _ks_distance(xs, ys):
    xs = np.sort(np.asarray(xs))
    ys = np.sort(np.asarray(ys))
    grid = np.union1d(xs, ys)
    fx = np.searchsorted(xs, grid, side="right") / len(xs)
    fy = np.searchsorted(ys, grid, side="right") / len(ys)
    return float(np.max(np.abs(fx - fy)))


def _ks_passes(xs, ys):
    n, m = len(xs), len(ys)
    return _ks_distance(xs, ys) <= 1.628 * np.sqrt((n + m) / (n * m))


# -- zeta: the conditioned offspring at the top of a spine sample -----------


def _zeta(model, n, ell, rng):
    """Surviving offspring of a type-ell ancestor n generations back,
    conditioned on at least one: the first level `sample_eta` draws."""
    return sample_eta(model, n, ell, rng)[n - 1]


def test_zeta_depth1_is_conditioned_offspring(rich2):
    rng = stream(3, "zeta1")
    n = 50_000
    seen: dict[tuple[int, int], int] = {}
    for _ in range(n):
        z = _zeta(rich2, 1, 1, rng)
        key = (z.count(1), z.count(2))
        seen[key] = seen.get(key, 0) + 1
    # depth 1 survival is certain, so this is xi conditioned on nonzero
    expected = {(2, 0): 0.25 / 0.7, (0, 1): 0.25 / 0.7, (1, 1): 0.2 / 0.7}
    assert set(seen) == set(expected)
    chi2 = sum(
        (seen[k] - n * p) ** 2 / (n * p) for k, p in expected.items()
    )
    assert chi2 < stats.chi2.ppf(0.99, df=2)


def test_zeta_e1_forced_configuration(e1):
    rng = stream(5, "zeta-forced")
    for _ in range(300):
        z = _zeta(e1, 2, 2, rng)
        assert (z.count(1), z.count(2)) == (1, 0)
        assert z == (1,)


def test_zeta_mean_matches_pgf(rich2):
    rng = stream(7, "zeta-mean")
    n_draw = 30_000
    depth = 3
    p = survival_vector(rich2, depth - 1)
    M = mean_matrix(rich2)
    # E[total survivors | at least one] = sum_l M[0,l] p_l / P(any)
    p_any = survival_vector(rich2, depth)[0]
    expect = float(M[0] @ p) / p_any
    totals = np.array(
        [len(_zeta(rich2, depth, 1, rng)) for _ in range(n_draw)],
        dtype=float,
    )
    se = totals.std(ddof=1) / np.sqrt(n_draw)
    assert abs(totals.mean() - expect) <= 3 * se


def test_zeta_invariants(rich2):
    rng = stream(11, "zeta-inv")
    for _ in range(500):
        z = _zeta(rich2, 2, 1, rng)
        assert len(z) >= 1
        assert all(t in (1, 2) for t in z)


def test_zeta_impossible_conditioning():
    spec = ModelSpec.from_pmf(
        {1: {(0, 2): 0.5, (0, 0): 0.5}, 2: {(0, 0): 1.0}}
    )
    with pytest.raises(ImpossibleConditioningError):
        _zeta(spec, 2, 1, stream(0, "imp"))
    # depth 1 is still fine: the children just die later
    z = _zeta(spec, 1, 1, stream(0, "imp2"))
    assert (z.count(1), z.count(2)) == (0, 2)


def test_zeta_rejects_bad_args(e1):
    rng = stream(0, "zeta-args")
    with pytest.raises(SchemaError):
        _zeta(e1, 1, 3, rng)


# -- eta --------------------------------------------------------------------


def test_conditioned_offspring_stops_at_the_rejection_cap(e1, monkeypatch):
    # survival rows that let the type-1 ancestor survive but keep none of
    # its children: every redraw comes back empty until the cap stops it
    monkeypatch.setitem(dchain._SURVIVAL_ROWS, e1, [[0.0, 0.0], [1.0, 1.0]])
    monkeypatch.setattr(forest, "DEFAULT_REJECTION_CAP", 7)
    calls = []

    def counting_sampler(model, ordering):
        sampler = _offspring_sampler(model, ordering)

        def draw_offspring(ell, rng):
            calls.append(ell)
            return sampler(ell, rng)

        return draw_offspring

    monkeypatch.setattr(dchain, "_offspring_sampler", counting_sampler)
    with pytest.raises(GuardError, match="type 1 within 7 conditioning attempts"):
        sample_eta(e1, 1, 1, stream(17, "cap", "eta"))
    assert calls == [1] * 7


def test_eta_structure(rich2):
    rng = stream(17, "eta-struct")
    for _ in range(2_000):
        levels = sample_eta(rich2, 4, 1, rng)
        assert len(levels) == 4
        for lvl in levels:
            assert len(lvl) >= 1
            assert all(1 <= t <= 2 for t in lvl)
    assert sample_eta(rich2, 0, 1, rng) == ()


def test_eta_matches_leftmost_standing_lineage(e1):
    """Level sizes of the spine sample against the leftmost standing
    individual of survival-conditioned trees (same law by construction)."""
    rng = stream(19, "eta-forward")
    n_draw = 10_000
    depth = 3
    eta_keys = []
    for _ in range(n_draw):
        levels = sample_eta(e1, depth, 1, rng)
        eta_keys.append(tuple(len(l) for l in levels))
    tree_keys = []
    for _ in range(n_draw):
        tree = simulate_standing(e1, depth, 1, rng, root_type=1)
        state = extract_dstates(tree)[0]
        tree_keys.append(tuple(len(l) for l in state.levels))
    cats = sorted(set(eta_keys) | set(tree_keys))
    table = np.array(
        [
            [sum(k == c for k in eta_keys) for c in cats],
            [sum(k == c for k in tree_keys) for c in cats],
        ]
    )
    keep = table.sum(axis=0) >= 10
    if (~keep).any():
        table = np.column_stack([table[:, keep], table[:, ~keep].sum(axis=1)])
    _, pval, _, _ = stats.chi2_contingency(table)
    assert pval > 0.01


# -- chain steps ------------------------------------------------------------


def test_step_boundary_branch(e1):
    state = DState(i=1, levels=((1, 2), (1,), (2,)), horizon=3)
    nxt, a, lineage = dchain_step(e1, state, stream(23, "step"))
    assert a == 1
    assert lineage == (2,)
    assert nxt.levels[0] == (2,)
    assert nxt.levels[1:] == state.levels[1:]
    assert nxt.i == 2


def test_step_censored(e1):
    state = DState(i=1, levels=((1,), (2,), (1,)), horizon=3)
    with pytest.raises(CensoredError):
        dchain_step(e1, state, stream(29, "censored"))


def test_step_preserves_upper_levels(e1):
    rng = stream(31, "steps")
    state = init_quasistationary(e1, 8, rng)
    for _ in range(500):
        a = state.coalescence_level()
        if a is None:
            state = init_quasistationary(e1, 8, rng)
            continue
        nxt, a_ret, lineage = dchain_step(e1, state, rng)
        assert a_ret == a
        assert nxt.levels[a:] == state.levels[a:]
        assert nxt.levels[a - 1] == state.levels[a - 1][1:]
        assert len(lineage) == a
        assert lineage == tuple(nxt.levels[j][0] for j in range(a))
        state = nxt


def test_state_json_round_trip():
    s = DState(i=4, levels=((2, 1), (1,), (1, 1, 2)), horizon=3)
    back = DState.from_json(s.to_json())
    assert back.levels == s.levels and back.i == s.i and back.horizon == s.horizon
    with pytest.raises(SchemaError):
        DState.from_json("{nope")


# -- trusted transitions against the checked reference -----------------------


def _reference_survival_rows(model, n):
    """Survival rows p_0..p_n computed afresh, without the per-model cache."""
    p = [np.ones(model.k)]
    for _ in range(n):
        f = pgf_eval_all(model, 1.0 - p[-1])
        p.append(1.0 - np.clip(f, 0.0, 1.0))
    return [row.tolist() for row in p]


def _reference_sample_eta(model, n, ell, rng, ordering):
    """The spine sampler as it was before the survival rows were cached:
    the rows are computed on every call."""
    sampler = _offspring_sampler(model, ordering)
    p_rows = _reference_survival_rows(model, n)
    levels = [None] * n
    parent_type = ell
    for level in range(n, 0, -1):
        kept = _kept_offspring(sampler, p_rows[level - 1], parent_type, rng)
        levels[level - 1] = tuple(kept)
        parent_type = kept[0]
    return tuple(levels)


def _reference_dchain_step(model, state, rng, ordering):
    """One transition through the checked constructor."""
    a = state.coalescence_level()
    shifted = state.levels[a - 1][1:]
    eta = _reference_sample_eta(model, a - 1, shifted[0], rng, ordering)
    nxt = DState(
        i=state.i + 1, levels=eta + (shifted,) + state.levels[a:], horizon=state.horizon
    )
    return nxt, a, tuple(nxt.levels[j][0] for j in range(a))


def _censored_restart_run(model, T, rng, ordering, steps, init, step):
    """(state, A, lineage) per transition, restarting at censored states."""
    out = []
    state = None
    while len(out) < steps:
        if state is None:
            state = init(rng)
        if state.coalescence_level() is None:
            state = None
            continue
        state, a, lineage = step(state, rng)
        out.append((state, a, lineage))
    return out


@pytest.mark.parametrize("name,T,ordering", [("e1", 8, "uniform"), ("lf1", 10, "lf_first")])
def test_trusted_step_matches_checked_reference(name, T, ordering, request):
    model = request.getfixturevalue(name)
    steps = 2_500
    rng_new = stream(101, "trusted", name)
    rng_ref = stream(101, "trusted", name)
    new = _censored_restart_run(
        model, T, rng_new, ordering, steps,
        lambda rng: init_quasistationary(model, T, rng, ordering=ordering),
        lambda state, rng: dchain_step(model, state, rng, ordering=ordering),
    )
    ref = _censored_restart_run(
        model, T, rng_ref, ordering, steps,
        lambda rng: DState(
            i=1, levels=_reference_sample_eta(model, T, 1, rng, ordering), horizon=T
        ),
        lambda state, rng: _reference_dchain_step(model, state, rng, ordering),
    )
    assert rng_new.getstate() == rng_ref.getstate()
    assert len({a for _, a, _ in new}) > 1
    for (s, a, lin), (s_ref, a_ref, lin_ref) in zip(new, ref):
        assert (s.i, s.levels, a, lin) == (s_ref.i, s_ref.levels, a_ref, lin_ref)
        # every trusted state passes the checks it skipped
        checked = DState(i=s.i, levels=s.levels, horizon=s.horizon)
        back = DState.from_json(s.to_json())
        assert (back.i, back.levels, back.horizon) == (s.i, s.levels, T)
        assert checked.to_json() == s.to_json()


def test_survival_rows_grow_with_depth(e1, lf1):
    def fresh(model):
        # a new instance starts with empty caches
        return type(model).from_json(model.to_json())

    for model in (e1, lf1):
        grown = fresh(model)
        rng = stream(103, "rows")
        shallow = sample_eta(grown, 2, 1, rng)
        assert len(_survival_rows(grown, 2)) == 3
        deep = sample_eta(grown, 9, 1, rng)
        assert len(_survival_rows(grown, 0)) == 10
        rng_fresh = stream(103, "rows")
        assert shallow == sample_eta(fresh(model), 2, 1, rng_fresh)
        assert deep == sample_eta(fresh(model), 9, 1, rng_fresh)
        assert rng.getstate() == rng_fresh.getstate()
        assert _survival_rows(grown, 9) == _reference_survival_rows(model, 9)
        # a first draw at depth 4 grows exactly the rows p_0..p_4
        zeta_first = fresh(model)
        _zeta(zeta_first, 4, 1, rng)
        assert _survival_rows(zeta_first, 0) == _reference_survival_rows(model, 4)


def test_state_validation():
    with pytest.raises(SchemaError, match="empty"):
        DState(i=1, levels=((1,), ()), horizon=2)
    with pytest.raises(SchemaError, match="levels"):
        DState(i=1, levels=((1,),), horizon=2)


def test_state_boundary_refusals():
    # the checks every public way in keeps, though dchain_step skips them
    bad = [
        (((1,),), 0, "horizon"),
        (((1,), (0, 2)), 2, "type index"),
        (((1,), (2,), (1,)), 2, "levels"),
    ]
    for levels, horizon, message in bad:
        with pytest.raises(SchemaError, match=message):
            DState(i=1, levels=levels, horizon=horizon)
        text = json.dumps({"i": 1, "T": horizon, "levels": [list(l) for l in levels]})
        with pytest.raises(SchemaError, match=message):
            DState.from_json(text)
    with pytest.raises(SchemaError, match="empty"):
        DState.from_json('{"i": 1, "T": 2, "levels": [[1], []]}')
    with pytest.raises(SchemaError, match="'levels'"):
        DState.from_json('{"i": 1, "T": 2}')


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"i": "3", "T": 2.7, "levels": [["1"], [true, 2]]}', "'i'"),
        ('{"i": "3", "T": 2, "levels": [[1], [1, 2]]}', "'i'"),
        ('{"i": 3, "T": 2.7, "levels": [[1], [1, 2]]}', "'T'"),
        ('{"i": 3, "T": true, "levels": [[1]]}', "'T'"),
        ('{"i": 3, "T": 2, "levels": [["1"], [1, 2]]}', "'levels'"),
        ('{"i": 3, "T": 2, "levels": [[1], [true, 2]]}', "'levels'"),
        ('{"i": 3, "T": 1, "levels": [[1.9]]}', "'levels'"),
        ('{"i": 3, "T": 1, "levels": 5}', "'levels'"),
        ('{"i": 3, "T": 1, "levels": [1]}', "'levels'"),
        ("3", "object"),
        ("null", "object"),
    ],
    ids=[
        "all-at-once", "string-i", "float-T", "bool-T", "string-type", "bool-type",
        "float-type", "levels-number", "level-not-list", "number-text", "null-text",
    ],
)
def test_state_json_refuses_wrong_kinds(text, message):
    # int() would turn each of these into a valid-looking state
    with pytest.raises(SchemaError, match=message):
        DState.from_json(text)


# -- chain vs forest (central equivalence) ----------------------------------


def _chain_a_samples(model, T, rng, count, ordering=None, root_type=1):
    vals = []
    state = init_quasistationary(
        model, T, rng, ordering=ordering, root_type=root_type
    )
    while len(vals) < count:
        if state.coalescence_level() is None:
            state = init_quasistationary(
                model, T, rng, ordering=ordering, root_type=root_type
            )
            continue
        state, a, _ = dchain_step(model, state, rng, ordering=ordering)
        vals.append(a)
    return vals


def _forest_a_samples(model, T, rng, count, ordering="uniform", root_type=1):
    vals = []
    while len(vals) < count:
        tree = simulate_standing(
            model, T, 1, rng, ordering=ordering, root_type=root_type
        )
        if tree.width < 2:
            continue
        vals.extend(r.a for r in coalescence_times(tree) if r.a is not None)
    return vals


def test_chain_matches_forest_e1(e1):
    T = 12
    chain = _chain_a_samples(e1, T, stream(37, "chain-e1"), 20_000)
    woods = _forest_a_samples(e1, T, stream(41, "forest-e1"), 20_000)
    assert _ks_passes(chain, woods)


def test_chain_matches_lf_law(lf1):
    rng = stream(43, "chain-lf")
    T = 10
    vals = np.array(_chain_a_samples(lf1, T, rng, 30_000, ordering="lf_first"))
    pT = lf_coalescence_law(lf1, T)
    for n in range(1, 6):
        expect = (lf_coalescence_law(lf1, n) - pT) / (1.0 - pT)
        emp = float(np.mean(vals > n))
        se = np.sqrt(expect * (1 - expect) / len(vals))
        assert abs(emp - expect) <= 3 * se, (n, emp, expect)


def test_chain_joint_law_matches_closed_form(e1):
    # the initial state reads off the standing individual's ancestral types:
    # levels[j][0] is the depth-j ancestor, levels[0][0] the individual itself
    rng = stream(59, "joint-law")
    T = 6
    states = [init_quasistationary(e1, T, rng) for _ in range(25_000)]
    for n in range(1, 4):
        for a in product((1, 2), repeat=n + 1):
            want = joint_A1_law(e1, a)
            hits = 0
            denom = 0
            for s in states:
                if s.levels[n][0] != a[n]:
                    continue
                denom += 1
                if all(
                    len(s.levels[j]) == 1 and s.levels[j][0] == a[j]
                    for j in range(n)
                ):
                    hits += 1
            assert denom > 1_000, (n, a)
            se = np.sqrt(want * (1.0 - want) / denom)
            assert abs(hits / denom - want) <= 3 * se, (a, hits / denom, want)


def _exact_leftmost_a1_cdf(T: int) -> float:
    """P(A1 = 1 | horizon T, root type 1) for the e1 model, by exact
    recursion over ordered offspring of the leftmost surviving lineage.

    q_n(l): survival to depth n from type l.  r_n(l): probability of
    surviving n generations with the standing-leftmost individual's
    parent of type 1 (only type-1 parents have two children, so this is
    exactly the A1 = 1 event at the root of the state)."""
    pmf_ordered = {
        1: [((), 0.5), ((1, 2), 0.25), ((2, 1), 0.25)],
        2: [((), 0.5), ((1,), 0.5)],
    }
    q = [np.array([1.0, 1.0])]
    for _ in range(T):
        prev = q[-1]
        q.append(
            np.array(
                [
                    sum(
                        pw * (1.0 - np.prod([1.0 - prev[t - 1] for t in w]))
                        for w, pw in pmf_ordered[l]
                    )
                    for l in (1, 2)
                ]
            )
        )
    r = np.array([q[1][0], 0.0])
    for n in range(2, T + 1):
        prev_q = q[n - 1]
        nxt = []
        for l in (1, 2):
            tot = 0.0
            for w, pw in pmf_ordered[l]:
                for j, t in enumerate(w):
                    pre = np.prod([1.0 - prev_q[w[i] - 1] for i in range(j)])
                    tot += pw * pre * r[t - 1]
            nxt.append(tot)
        r = np.array(nxt)
    return float(r[0] / q[T][0])


def test_rejection_init_matches_exact_recursion(e1):
    T = 6
    rng = stream(89, "exact-rej")
    count = 12_000
    hits = 0
    for _ in range(count):
        if init_quasistationary(e1, T, rng).coalescence_level() == 1:
            hits += 1
    expect = _exact_leftmost_a1_cdf(T)
    se = np.sqrt(expect * (1 - expect) / count)
    assert abs(hits / count - expect) <= 3 * se


def test_rejection_fast_path_matches_literal_extraction(e1):
    """The spine sampler used by rejection init against states read off
    full survival-conditioned trees (same law, radically cheaper)."""
    T = 6
    count = 6_000
    lit = []
    rng = stream(97, "literal")
    for _ in range(count):
        tree = simulate_standing(e1, T, 1, rng, root_type=1)
        a = extract_dstates(tree)[0].coalescence_level()
        lit.append(T + 1 if a is None else a)
    fast = []
    rng = stream(97, "fastpath")
    for _ in range(count):
        a = init_quasistationary(e1, T, rng).coalescence_level()
        fast.append(T + 1 if a is None else a)
    assert _ks_passes(lit, fast)


# -- Markov property surrogate ----------------------------------------------


def test_next_level_independent_of_preprevious(e1):
    rng = stream(61, "markov")
    T = 4
    state = init_quasistationary(e1, T, rng)
    prev = None
    triples = []
    while len(triples) < 40_000:
        a = state.coalescence_level()
        if a is None:
            state = init_quasistationary(e1, T, rng)
            prev = None
            continue
        nxt, _, _ = dchain_step(e1, state, rng)
        if prev is not None:
            triples.append((prev.levels, state.levels, nxt.levels[0]))
        prev = state
        state = nxt
    by_mid: dict = {}
    for p, mid, nxt1 in triples:
        by_mid.setdefault(mid, []).append((p, nxt1))
    mid, rows = max(by_mid.items(), key=lambda kv: len(kv[1]))
    pred_counts: dict = {}
    for p, _ in rows:
        pred_counts[p] = pred_counts.get(p, 0) + 1
    top_preds = sorted(pred_counts, key=pred_counts.get, reverse=True)[:2]
    outcomes = sorted({n for _, n in rows})
    table = np.array(
        [
            [sum(1 for p, n in rows if p == tp and n == o) for o in outcomes]
            for tp in top_preds
        ]
    )
    keep = table.sum(axis=0) >= 10
    if (~keep).any():
        table = np.column_stack([table[:, keep], table[:, ~keep].sum(axis=1)])
    _, pval, _, _ = stats.chi2_contingency(table)
    assert pval > 0.01


# -- extraction and reconstruction ------------------------------------------


def test_extract_dstates_spine_consistency(e1):
    rng = stream(67, "extract")
    for _ in range(100):
        tree = simulate_standing(e1, 5, 1, rng)
        states = extract_dstates(tree)
        assert len(states) == tree.width
        for i, s in enumerate(states, 1):
            assert s.i == i
            assert s.levels[0][0] == int(tree.types[-1][i - 1])


def test_extract_matches_step_linkage(e1):
    rng = stream(71, "linkage")
    found = 0
    while found < 50:
        tree = simulate_standing(e1, 6, 1, rng)
        if tree.width < 3:
            continue
        found += 1
        states = extract_dstates(tree)
        recs = coalescence_times(tree)
        for s, nxt, rec in zip(states, states[1:], recs):
            assert s.coalescence_level() == rec.a
            assert nxt.levels[rec.a:] == s.levels[rec.a:]
            assert nxt.levels[rec.a - 1] == s.levels[rec.a - 1][1:]
            lineage = tuple(nxt.levels[j][0] for j in range(rec.a))
            assert lineage == rec.lineage


def test_single_state_reconstructs_path(e1):
    rng = stream(73, "path")
    tree = simulate_standing(e1, 6, 1, rng)
    states = extract_dstates(tree)[:1]
    rec = reconstruct_tree(states, root_type=int(tree.types[0][0]))
    assert all(len(t) == 1 for t in rec.types)
    assert rec.width == 1


def test_round_trip_exact(e1, rich2, lf1):
    cases = [(e1, "uniform"), (rich2, "uniform"), (lf1, "lf_first")]
    trial = 0
    for model, ordering in cases:
        done = 0
        while done < 100:
            trial += 1
            tree = simulate_standing(
                model, 5, 1, stream(trial, "roundtrip"), ordering=ordering
            )
            done += 1
            sub = ancestral_subtree(tree)
            rec = reconstruct_tree(
                extract_dstates(tree), root_type=int(tree.types[0][0])
            )
            assert all(np.array_equal(a, b) for a, b in zip(rec.types, sub.types))
            assert all(
                np.array_equal(a, b) for a, b in zip(rec.parents, sub.parents)
            )


def test_reconstruct_reproduces_chain_output(e1):
    rng = stream(79, "chain-recon")
    state = init_quasistationary(e1, 8, rng)
    while state.coalescence_level() is None:
        state = init_quasistationary(e1, 8, rng)
    states = [state]
    a_seq = []
    lineages = []
    for _ in range(30):
        try:
            nxt, a, lin = dchain_step(e1, states[-1], rng)
        except CensoredError:
            break
        states.append(nxt)
        a_seq.append(a)
        lineages.append(lin)
    tree = reconstruct_tree(states)
    recs = coalescence_times(tree)
    assert [r.a for r in recs] == a_seq
    assert [r.lineage for r in recs] == lineages
    # max rule on the reconstruction
    from mtcpp.forest import ancestor_index, pairwise_coalescence

    w = tree.width
    for i in range(1, w + 1):
        for j in range(i + 1, w + 1):
            c = pairwise_coalescence(recs, i, j)
            assert ancestor_index(tree, i, c) == ancestor_index(tree, j, c)
            assert ancestor_index(tree, i, c - 1) != ancestor_index(tree, j, c - 1)


def test_reconstruct_rejects_inconsistent(e1):
    rng = stream(83, "inconsistent")
    tree = simulate_standing(e1, 5, 1, rng)
    while tree.width < 3:
        tree = simulate_standing(e1, 5, 1, rng)
    states = extract_dstates(tree)
    bad = list(states)
    s = bad[1]
    tampered = tuple(
        tuple(3 - t for t in lvl) if j == len(s.levels) - 1 else lvl
        for j, lvl in enumerate(s.levels)
    )
    bad[1] = DState(i=s.i, levels=tampered, horizon=s.horizon)
    with pytest.raises(InconsistentStateError):
        reconstruct_tree(bad)
    with pytest.raises(SchemaError):
        reconstruct_tree([])
