import bisect
import tracemalloc
from collections import Counter
from itertools import permutations
from math import factorial, prod

import numpy as np
import pytest

from mtcpp import forest
from mtcpp.errors import GuardError, SchemaError
from mtcpp.forest import (
    CoalescentRecord,
    _offspring_sampler,
    PlanarTree,
    ancestor_index,
    ancestral_subtree,
    coalescence_times,
    dump_tree,
    pairwise_coalescence,
    records_to_csv,
    sametype_times,
    simulate_forward,
    simulate_standing,
)
from mtcpp.lf import LFParams, lf_coalescence_law, two_type_models
from mtcpp.model import ModelSpec, mean_matrix, survival_vector
from mtcpp.rng import stream
from conftest import e1_model, lf1_model, s3_model
from oracles import lf_to_modelspec


def f1_tree() -> PlanarTree:
    # root at generation -1 (type 1); standing children typed 1 then 2
    return PlanarTree(
        root_generation=-1,
        types=(np.array([1]), np.array([1, 2])),
        parents=(np.array([0]), np.array([1, 1])),
    )


def nested_tree() -> PlanarTree:
    # depth-3 root with three surviving child blocks; the middle block is
    # two standing siblings, so the pair A sequence is (3, 1, 3)
    return PlanarTree(
        root_generation=-3,
        types=(
            np.array([1]),
            np.array([1, 1, 1]),
            np.array([1, 2, 1]),
            np.array([2, 1, 1, 2]),
        ),
        parents=(
            np.array([0]),
            np.array([1, 1, 1]),
            np.array([1, 2, 3]),
            np.array([1, 2, 2, 3]),
        ),
    )


def sibling_then_deep_tree() -> PlanarTree:
    # standing types (1, 2, 1) with A = (1, 3)
    return PlanarTree(
        root_generation=-3,
        types=(
            np.array([1]),
            np.array([1, 2]),
            np.array([2, 1]),
            np.array([1, 2, 1]),
        ),
        parents=(
            np.array([0]),
            np.array([1, 1]),
            np.array([1, 2]),
            np.array([1, 1, 2]),
        ),
    )


def one_wide_tree() -> PlanarTree:
    return PlanarTree(
        root_generation=-1,
        types=(np.array([1]), np.array([2])),
        parents=(np.array([0]), np.array([1])),
    )


def censored_tree() -> PlanarTree:
    # two roots, never coalesce within the window
    return PlanarTree(
        root_generation=-2,
        types=(np.array([1, 1]), np.array([1, 2]), np.array([1, 1])),
        parents=(np.array([0, 0]), np.array([1, 2]), np.array([1, 2])),
    )


def three_child_tree() -> PlanarTree:
    return PlanarTree(
        root_generation=-1,
        types=(np.array([1]), np.array([1, 2, 1])),
        parents=(np.array([0]), np.array([1, 1, 1])),
    )


#: Three-type linear-fractional model, rho ~ 1.26.
LF3 = LFParams(
    k=3,
    H=np.array([[0.3, 0.2, 0.2], [0.1, 0.4, 0.2], [0.2, 0.2, 0.3]]),
    g=np.array([0.5, 0.3, 0.2]),
    m=0.8,
)


# -- per-object reference emission ------------------------------------------


def reference_dump_tree(tree: PlanarTree) -> str:
    """One NodeRecord per node, one f-string per line."""
    lines = [
        f"{rec.generation}\t{rec.index}\t{rec.type}\t{rec.parent}"
        for rec in tree.nodes()
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def reference_coalescence_times(tree: PlanarTree) -> list[CoalescentRecord]:
    """One CoalescentRecord per pair; masses by a dict of suffix counts."""
    w = tree.width
    if w == 1:
        return []
    T = tree.horizon
    anc = [np.arange(1, w + 1)]
    for n in range(1, T + 1):
        anc.append(tree.parents[T + 1 - n][anc[-1] - 1])
    eqmat = np.stack([anc[n][:-1] == anc[n][1:] for n in range(1, T + 1)])
    has_mrca = eqmat.any(axis=0)
    first_eq = eqmat.argmax(axis=0) + 1
    a_vals = [int(first_eq[pos]) if has_mrca[pos] else None for pos in range(w - 1)]
    counts: dict[tuple[int, int], int] = {}
    masses = [1] * (w - 1)
    for pos in range(w - 2, -1, -1):
        a = a_vals[pos]
        if a is None:
            continue
        key = (a, int(anc[a][pos]))
        counts[key] = counts.get(key, 0) + 1
        masses[pos] = counts[key]
    typ_cols = np.stack([tree.types[T - n][anc[n] - 1] for n in range(T)]).T.tolist()
    records = []
    for pos in range(w - 1):
        a = a_vals[pos]
        inf = tuple(typ_cols[pos + 1])
        records.append(
            CoalescentRecord(
                i=pos + 1,
                a=a,
                mass=masses[pos],
                lineage=inf[:a] if a is not None else (),
                lineage_inf=inf,
            )
        )
    return records


def reference_records_to_csv(records) -> str:
    lines = ["i,A,mass,censored,lineage"]
    for r in records:
        a = "" if r.a is None else str(r.a)
        lineage = "-".join(str(t) for t in r.lineage)
        lines.append(f"{r.i},{a},{r.mass},{int(r.censored)},{lineage}")
    return "\n".join(lines) + "\n"


def _record_fields(r: CoalescentRecord):
    return (r.i, r.a, r.mass, r.lineage, r.lineage_inf, r.censored)


def _first_difference(text: str, ref: str):
    """None when the texts are equal, else the first differing line pair.

    Keeps a failure message short where a full diff of megabyte texts
    would take minutes.
    """
    if text == ref:
        return None
    lines, ref_lines = text.split("\n"), ref.split("\n")
    n = next(
        (n for n, (a, b) in enumerate(zip(lines, ref_lines)) if a != b),
        min(len(lines), len(ref_lines)),
    )
    return n, lines[n : n + 1], ref_lines[n : n + 1]


def assert_emission_matches_reference(tree: PlanarTree) -> None:
    assert _first_difference(dump_tree(tree), reference_dump_tree(tree)) is None
    recs = coalescence_times(tree)
    ref = reference_coalescence_times(tree)
    assert len(recs) == len(ref)
    assert [_record_fields(r) for r in recs] == [_record_fields(r) for r in ref]
    assert recs.mass.tolist() == [r.mass for r in ref]
    text = reference_records_to_csv(ref)
    assert _first_difference(records_to_csv(recs), text) is None


def _ks_distance(xs, ys):
    xs = np.sort(np.asarray(xs))
    ys = np.sort(np.asarray(ys))
    grid = np.union1d(xs, ys)
    fx = np.searchsorted(xs, grid, side="right") / len(xs)
    fy = np.searchsorted(ys, grid, side="right") / len(ys)
    return float(np.max(np.abs(fx - fy)))


# -- tree structure ---------------------------------------------------------


def test_tree_validation():
    with pytest.raises(SchemaError, match="planar"):
        PlanarTree(
            root_generation=-1,
            types=(np.array([1, 1]), np.array([1, 1])),
            parents=(np.array([0, 0]), np.array([2, 1])),
        )
    with pytest.raises(SchemaError, match="parent 0"):
        PlanarTree(
            root_generation=-1,
            types=(np.array([1]), np.array([1])),
            parents=(np.array([1]), np.array([1])),
        )
    with pytest.raises(SchemaError, match="layers"):
        PlanarTree(
            root_generation=-2,
            types=(np.array([1]), np.array([1])),
            parents=(np.array([0]), np.array([1])),
        )


def _one_generation_tree(standing_types, standing_parents) -> PlanarTree:
    return PlanarTree(
        root_generation=-1,
        types=(np.array([1]), standing_types),
        parents=(np.array([0]), standing_parents),
    )


@pytest.mark.parametrize(
    "standing_types, standing_parents, message",
    [
        ([1, 2], np.array([1, 1]), "layer 1 type entries must be a 1-D numpy array"),
        (np.array([1, 2]), [1, 1], "layer 1 parent entries must be a 1-D numpy array"),
        (np.array([[1, 2]]), np.array([[1, 1]]), "must be a 1-D numpy array"),
        (np.array([1.5]), np.array([1]), "layer 1 type entries must be integers"),
        (np.array([1.0, 2.7]), np.array([1, 1]), "got dtype float64"),
        (np.array([1, 2]), np.array([1.0, 1.0]), "layer 1 parent entries must be integers"),
    ],
    ids=["list-types", "list-parents", "2d", "float-one", "float-two", "float-parents"],
)
def test_tree_refuses_malformed_layers(standing_types, standing_parents, message):
    with pytest.raises(SchemaError, match=message):
        _one_generation_tree(standing_types, standing_parents)


def test_tree_accepts_empty_layers_of_any_dtype():
    tree = _one_generation_tree(np.array([]), np.zeros(0, dtype=np.float32))
    assert tree.width == 0
    assert dump_tree(tree) == "-1\t1\t1\t0\n"


def test_node_accessors():
    tree = nested_tree()
    assert tree.horizon == 3
    assert tree.width == 4
    assert tree.node_type(0, 2) == 1
    assert tree.node_parent(0, 3) == 2
    assert list(tree.node_children(-2, 2)) == [2]
    assert list(tree.node_children(-1, 2)) == [2, 3]
    assert list(tree.node_children(0, 1)) == []
    recs = list(tree.nodes())
    assert recs[0].generation == -3 and recs[0].parent == 0
    assert len(recs) == 11


def test_dump_tree_golden():
    assert dump_tree(f1_tree()) == "-1\t1\t1\t0\n0\t1\t1\t1\n0\t2\t2\t1\n"


@pytest.mark.parametrize(
    "tree",
    [
        one_wide_tree(),
        f1_tree(),
        censored_tree(),
        three_child_tree(),
        nested_tree(),
        sibling_then_deep_tree(),
    ],
    ids=["width1", "f1", "all_censored", "three_child", "nested", "sibling_then_deep"],
)
def test_emission_matches_reference_on_edge_trees(tree):
    assert_emission_matches_reference(tree)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "model,ordering,T",
    [("lf3", "lf_first", 12), ("e1", "uniform", 6)],
    ids=["lf3", "e1"],
)
def test_emission_matches_reference_on_seeded_forests(model, ordering, T, seed, e1):
    model = LF3 if model == "lf3" else e1
    tree = simulate_standing(model, T, 600, stream(seed, "emit"), ordering=ordering)
    assert tree.width >= 600 and len(tree.types[0]) > 1
    assert_emission_matches_reference(tree)


# -- simulate_forward -------------------------------------------------------


def test_immediate_death_single_root():
    # every individual dies childless; only the root remains
    dead = ModelSpec.from_pmf({1: {(0, 0): 1.0}, 2: {(0, 0): 1.0}})
    tree = simulate_forward(dead, "uniform", 1, 4, stream(0, "dead"))
    assert [len(t) for t in tree.types] == [1, 0, 0, 0, 0]
    assert tree.width == 0


def test_simulate_rejects_bad_args(e1, lf1):
    rng = stream(0, "args")
    with pytest.raises(SchemaError):
        simulate_forward(e1, "uniform", 3, 2, rng)
    with pytest.raises(SchemaError):
        simulate_forward(e1, "uniform", 1, 0, rng)
    with pytest.raises(SchemaError, match="linear-fractional"):
        simulate_forward(e1, "lf_first", 1, 2, rng)
    with pytest.raises(SchemaError, match="ordering"):
        simulate_forward(lf1, "sorted", 1, 2, rng)


def test_node_cap_guard(lf1, monkeypatch):
    monkeypatch.setattr(forest, "DEFAULT_NODE_CAP", 500)
    with pytest.raises(GuardError, match="node cap"):
        simulate_forward(lf1, "lf_first", 1, 30, stream(5, "cap"))


def test_e1_depth1_offspring_split(e1):
    rng = stream(11, "binomial")
    n = 100_000
    two = 0
    for _ in range(n):
        tree = simulate_forward(e1, "uniform", 2, 1, rng)
        total = sum(len(t) for t in tree.types)
        assert total in (1, 2)
        two += total == 2
    se = np.sqrt(0.25 / n)
    assert abs(two / n - 0.5) <= 3 * se


def test_generation_means_match_mean_matrix(e1):
    rng = stream(13, "means")
    M = mean_matrix(e1)
    reps = 10_000
    counts = np.zeros((3, 2))
    sq = np.zeros((3, 2))
    for _ in range(reps):
        tree = simulate_forward(e1, "uniform", 1, 3, rng)
        for n in range(1, 4):
            c = np.array(
                [np.sum(tree.types[n] == 1), np.sum(tree.types[n] == 2)], dtype=float
            )
            counts[n - 1] += c
            sq[n - 1] += c * c
    for n in range(1, 4):
        mean = counts[n - 1] / reps
        var = sq[n - 1] / reps - mean**2
        se = np.sqrt(np.maximum(var, 1e-12) / reps)
        expect = np.linalg.matrix_power(M, n)[0]
        assert np.all(np.abs(mean - expect) <= 3 * se)


# -- offspring sampler ------------------------------------------------------


S3 = ModelSpec.from_pmf(
    {
        1: {(0, 0, 0): 0.45, (1, 1, 0): 0.3, (0, 0, 1): 0.25},
        2: {(0, 0, 0): 0.5, (1, 0, 0): 0.3, (0, 1, 1): 0.2},
        3: {(0, 0, 0): 0.5, (0, 1, 0): 0.25, (1, 0, 1): 0.25},
    }
)


def reference_spec_sampler(model: ModelSpec):
    """The finite-support sampler as it was: the drawn count row is
    expanded into a type list on every draw."""
    cum = [np.cumsum(model.probs[ell]).tolist() for ell in range(model.k)]

    def sample(ell, rng):
        rows = cum[ell - 1]
        r = bisect.bisect_left(rows, rng.random())
        if r >= len(rows):
            r = len(rows) - 1
        z = model.counts[ell - 1][r]
        out = []
        for lp in range(model.k):
            out.extend([lp + 1] * int(z[lp]))
        rng.shuffle(out)
        return out

    return sample


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["e1", "s3", "wide"])
def test_spec_sampler_matches_reference(name, seed, e1):
    # "wide" has rows of up to five children, so shuffles really permute
    model = {
        "e1": e1,
        "s3": S3,
        "wide": ModelSpec.from_pmf(
            {
                1: {(0, 0): 0.4, (3, 2): 0.3, (1, 1): 0.3},
                2: {(0, 0): 0.6, (0, 4): 0.4},
            },
        ),
    }[name]
    sample = _offspring_sampler(model, "uniform")
    reference = reference_spec_sampler(model)
    rng, rng_ref = stream(seed, "sampler", name), stream(seed, "sampler", name)
    draws = []
    for j in range(3_000):
        ell = j % model.k + 1
        out = sample(ell, rng)
        assert out == reference(ell, rng_ref)
        draws.append(out)
    assert rng.getstate() == rng_ref.getstate()
    # each draw is a fresh list: changing one leaves later draws intact
    draws[-1].append(99)
    assert sample(1, rng) == reference(1, rng_ref)


def ordered_list_pmf(model, ordering: str, ell: int, children: tuple[int, ...]) -> float:
    """Exact probability that a type-ell parent has this ordered offspring list."""
    n = len(children)
    c = Counter(children)
    if isinstance(model, LFParams):
        if n == 0:
            return float(model.h0[ell - 1])
        q = model.m / (1.0 + model.m)
        geometric = (1.0 - q) * q ** (n - 1)
        H, g = model.H[ell - 1], model.g
        if ordering == "lf_first":
            return H[children[0] - 1] * geometric * prod(g[t - 1] for t in children[1:])
        # uniform order: each position is the H-typed child with chance c_t / n
        return geometric * sum(
            ct / n * H[t - 1] * prod(g[s - 1] ** (cs - (s == t)) for s, cs in c.items())
            for t, ct in c.items()
        )
    z = tuple(c.get(t, 0) for t in range(1, model.k + 1))
    p = model.pmf_dict(ell).get(z, 0.0)
    return p * prod(factorial(x) for x in z) / factorial(n)


def _candidate_lists(model, ell: int) -> set[tuple[int, ...]]:
    # every ordered list of positive probability for finite support; for LF
    # every list of up to three children
    if isinstance(model, LFParams):
        out = {()}
        for n in range(1, 4):
            out |= set(np.ndindex(*(model.k,) * n))
        return {tuple(t + 1 for t in lst) for lst in out}
    return {
        perm
        for z in model.pmf_dict(ell)
        for perm in permutations([t for t in range(1, model.k + 1) for _ in range(z[t - 1])])
    }


@pytest.mark.parametrize(
    "name,ordering",
    [("lf1", "lf_first"), ("lf1", "uniform"), ("e1", "uniform"), ("s3", "uniform")],
)
def test_layer_sampler_matches_ordered_list_pmf(name, ordering):
    model = {"e1": e1_model, "s3": s3_model, "lf1": lf1_model}[name]()
    draw = forest._layer_sampler(model, ordering)
    gen = np.random.default_rng(20261021)
    n = 60_000
    parents = np.arange(n) % model.k + 1
    types, counts = draw(parents, gen)
    assert counts.sum() == types.size
    lists = np.split(types, np.cumsum(counts)[:-1])
    seen = Counter(zip(parents.tolist(), map(tuple, (x.tolist() for x in lists))))
    per_type = n // model.k
    worst, cells = 0.0, 0
    for ell in range(1, model.k + 1):
        keys = _candidate_lists(model, ell) | {lst for t, lst in seen if t == ell}
        for lst in keys:
            p = ordered_list_pmf(model, ordering, ell, lst)
            obs = seen.get((ell, lst), 0)
            assert p > 0 or obs == 0, (ell, lst)
            if p * per_type < 5:
                continue
            z = (obs - per_type * p) / np.sqrt(per_type * p * (1 - p))
            worst = max(worst, abs(z))
            cells += 1
    assert cells >= 5
    assert worst <= 4, worst
    # the same generator state gives the same layer
    again = draw(parents, np.random.default_rng(20261021))
    assert np.array_equal(again[0], types) and np.array_equal(again[1], counts)


# -- simulate_standing ------------------------------------------------------


def test_standing_always_nonempty(e1):
    rng = stream(17, "nonempty")
    for _ in range(50):
        tree = simulate_standing(e1, 4, 1, rng)
        assert tree.width >= 1


def test_standing_survival_rate(e1):
    rng = stream(19, "survival")
    p = survival_vector(e1, 10)[0]
    n = 20_000
    hits = sum(simulate_forward(e1, "uniform", 1, 10, rng).width > 0 for _ in range(n))
    se = np.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 3 * se


def test_supercritical_acceptance_rate(lf1):
    rng = stream(23, "accept")
    spec = lf_to_modelspec(lf1, truncate_at=60)
    p = survival_vector(spec, 6)[0]
    n = 2_000
    rejected = 0
    for _ in range(n):
        tree = simulate_standing(lf1, 6, 1, rng, ordering="lf_first")
        rejected += tree.rejections
    rate = n / (n + rejected)
    se = np.sqrt(p * (1 - p) / (n + rejected))
    assert abs(rate - p) <= 3 * se


def test_standing_concat_mode(e1):
    rng = stream(29, "concat")
    tree = simulate_standing(e1, 5, 30, rng)
    assert tree.width >= 30
    assert len(tree.types[0]) > 1
    assert np.all(tree.parents[0] == 0)
    # pairs spanning different roots stay censored
    recs = coalescence_times(tree)
    assert sum(r.censored for r in recs) >= len(tree.types[0]) - 1


def _tree_sizes(tree: PlanarTree) -> np.ndarray:
    """Standing width of each root of a forest, left to right."""
    roots = list(forest._ancestor_walk(tree))[-1]
    return np.bincount(roots - 1, minlength=len(tree.types[0]))


@pytest.mark.parametrize("target", [1, 30, 2000])
def test_standing_keeps_survivors_up_to_the_target(e1, lf1, target):
    for model in (e1, lf1):
        tree = simulate_standing(model, 5, target, stream(37, "side"))
        sizes = _tree_sizes(tree)
        # every root has a standing descendant, and the last tree is the
        # one that makes up the width
        assert np.all(sizes > 0)
        assert tree.width == sizes.sum() >= target
        assert tree.width - sizes[-1] < target


def test_standing_is_deterministic_per_stream(lf1, e1):
    for model in (lf1, e1):
        a = simulate_standing(model, 6, 300, stream(3, "repeat"))
        b = simulate_standing(model, 6, 300, stream(3, "repeat"))
        assert a.rejections == b.rejections
        assert all(np.array_equal(x, y) for x, y in zip(a.types, b.types))
        assert all(np.array_equal(x, y) for x, y in zip(a.parents, b.parents))
        # the next call on the same stream draws another forest
        rng = stream(3, "repeat")
        first, second = (simulate_standing(model, 6, 300, rng) for _ in range(2))
        assert [t.tolist() for t in first.types] != [t.tolist() for t in second.types]


@pytest.mark.parametrize(
    "name,T,target,root_type",
    [("e1", 10, 3000, 1), ("s3", 8, 3000, 2), ("lf1", 6, 20_000, 1)],
)
def test_standing_survival_ratio_matches_survival_vector(name, T, target, root_type):
    model = {"e1": e1_model, "s3": s3_model, "lf1": lf1_model}[name]()
    tree = simulate_standing(model, T, target, stream(53, "ratio", name), root_type=root_type)
    kept = len(tree.types[0])
    attempts = kept + tree.rejections
    p = survival_vector(model, T)[root_type - 1]
    se = np.sqrt(p * (1 - p) / attempts)
    assert abs(kept / attempts - p) <= 4 * se, (kept, attempts, p)


def test_block_cap_counts_misses_across_blocks(monkeypatch):
    # _settle_block sees one block's standing widths; the extinct roots in a
    # row carry over from the block before
    monkeypatch.setattr(forest, "DEFAULT_REJECTION_CAP", 3)
    settle = forest._settle_block
    # keep up to the root that makes up the width; count its extinct roots
    assert settle(np.array([0, 0, 3, 0]), 2, 0, 5) == (3, 2, 0)
    assert settle(np.array([0, 1, 0, 2, 1]), 3, 0, 5) == (4, 2, 0)
    # width not reached: keep the block, carry the trailing run
    assert settle(np.array([2, 0, 0]), 5, 0, 5) == (3, 2, 2)
    # two carried misses and one more make three in a row
    with pytest.raises(GuardError, match="no surviving tree within 3 attempts"):
        settle(np.array([0, 1]), 1, 2, 5)
    assert settle(np.array([1, 0]), 1, 2, 5) == (1, 0, 0)
    # a run reaching the cap between survivors stops the draw too
    with pytest.raises(GuardError, match="within 3 attempts"):
        settle(np.array([1, 0, 0, 0, 4]), 5, 0, 5)


def _tree_nodes(tree: PlanarTree) -> np.ndarray:
    """Node count of each root's tree, over every layer."""
    nodes = np.zeros(len(tree.types[0]), dtype=np.int64)
    for j in range(len(tree.types)):
        up = np.arange(1, len(tree.types[j]) + 1)
        for parents in reversed(tree.parents[1 : j + 1]):
            up = parents[up - 1]
        nodes += np.bincount(up - 1, minlength=nodes.size)
    return nodes


def test_node_cap_counts_nodes_per_tree(e1, lf1, monkeypatch):
    # a block of small trees may hold more nodes than the cap; one tree may not
    monkeypatch.setattr(forest, "DEFAULT_NODE_CAP", 100)
    tree = simulate_standing(e1, 5, 300, stream(7, "node-cap"))
    assert sum(len(t) for t in tree.types) > 100
    assert _tree_nodes(tree).max() <= 100
    monkeypatch.setattr(forest, "DEFAULT_NODE_CAP", 10**7)
    tree = simulate_standing(lf1, 6, 300, stream(7, "node-cap"))
    biggest = int(_tree_nodes(tree).max())
    monkeypatch.setattr(forest, "DEFAULT_NODE_CAP", biggest - 1)
    with pytest.raises(GuardError, match="node cap"):
        simulate_standing(lf1, 6, 300, stream(7, "node-cap"))


def test_standing_default_ordering_is_the_model_default(lf1, e1):
    # without an ordering the forest takes the model's own order, as the chain does
    for model, ordering in ((lf1, "lf_first"), (e1, "uniform")):
        tree = simulate_standing(model, 5, 20, stream(47, "default-order"))
        ref = simulate_standing(model, 5, 20, stream(47, "default-order"), ordering=ordering)
        assert [t.tolist() for t in tree.types] == [t.tolist() for t in ref.types]
        assert [p.tolist() for p in tree.parents] == [p.tolist() for p in ref.parents]
        assert tree.rejections == ref.rejections


def test_standing_rejection_cap(e1, monkeypatch):
    monkeypatch.setattr(forest, "DEFAULT_REJECTION_CAP", 3)
    with pytest.raises(GuardError, match="attempts"):
        simulate_standing(e1, 25, 1, stream(31, "cap"))


def test_standing_rejection_cap_counts_misses_in_a_row(e1, monkeypatch):
    # this E1 forest discards 13 901 extinct attempts for 661 survivors, and
    # 121 of them in its longest run: the cap bounds the run, not the total
    monkeypatch.setattr(forest, "DEFAULT_REJECTION_CAP", 1000)
    tree = simulate_standing(e1, 10, 2000, stream(41, "in-a-row"))
    assert tree.width >= 2000
    assert tree.rejections > 1000
    monkeypatch.setattr(forest, "DEFAULT_REJECTION_CAP", 100)
    with pytest.raises(GuardError, match="no surviving tree within 100 attempts"):
        simulate_standing(e1, 10, 2000, stream(41, "in-a-row"))


# -- extraction -------------------------------------------------------------


def test_standing_population_examples(e1):
    dead_tree = simulate_forward(
        ModelSpec.from_pmf({1: {(0, 0): 1.0}, 2: {(0, 0): 1.0}}),
        "uniform",
        1,
        3,
        stream(1, "sp"),
    )
    assert dead_tree.width == 0 and dead_tree.types[-1].tolist() == []
    tree = f1_tree()
    assert tree.width == 2
    assert tree.types[-1].tolist() == [1, 2]
    tree = nested_tree()
    assert tree.width == len(tree.types[-1])


def test_ancestor_index_basics():
    tree = nested_tree()
    for i in range(1, 5):
        assert ancestor_index(tree, i, 0) == i
    assert ancestor_index(f1_tree(), 1, 1) == 1
    assert ancestor_index(f1_tree(), 2, 1) == 1
    with pytest.raises(SchemaError):
        ancestor_index(tree, 1, 4)
    with pytest.raises(SchemaError):
        ancestor_index(tree, 5, 1)


def test_ancestor_index_monotone(e1):
    rng = stream(37, "monotone")
    for _ in range(50):
        tree = simulate_standing(e1, 5, 1, rng)
        w = tree.width
        for n in range(tree.horizon + 1):
            idx = [ancestor_index(tree, i, n) for i in range(1, w + 1)]
            assert idx == sorted(idx)


def test_coalescence_memory_stays_near_its_output():
    # the ancestry is walked one level at a time and the lineage types are
    # held in one byte each: beyond the returned arrays the peak stays under
    # twelve int64 rows of width w, below the 8 (T+1) w bytes of one
    # ancestor matrix (here 2.19 MB against a 2.66 MB bound)
    tree = simulate_standing(LF3, 20, 20_000, stream(5, "memory"))
    w = tree.width
    assert w >= 20_000
    tracemalloc.start()
    try:
        records = coalescence_times(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert records.lineage_inf.dtype == np.int8
    returned = records.a.nbytes + records.mass.nbytes + records.lineage_inf.nbytes
    assert peak < returned + 12 * 8 * w < 8 * (tree.horizon + 1) * w


def test_coalescence_small_cases():
    assert len(coalescence_times(one_wide_tree())) == 0
    recs = coalescence_times(f1_tree())
    assert len(recs) == 1
    r = recs[0]
    assert (r.i, r.a, r.mass, r.lineage) == (1, 1, 1, (2,))
    assert not r.censored


def test_three_child_mass():
    recs = coalescence_times(three_child_tree())
    assert [(r.a, r.mass) for r in recs] == [(1, 2), (1, 1)]


def test_interleaved_mass_grouping():
    recs = coalescence_times(nested_tree())
    assert [r.a for r in recs] == [3, 1, 3]
    # pairs 1 and 3 share the depth-3 ancestor across the middle block
    assert [r.mass for r in recs] == [2, 1, 1]


def test_lineage_entries():
    recs = coalescence_times(nested_tree())
    tree = nested_tree()
    sp = tree.types[-1].tolist()
    for r in recs:
        assert len(r.lineage) == r.a
        assert r.lineage[0] == sp[r.i]
        assert len(r.lineage_inf) == tree.horizon
        assert r.lineage == r.lineage_inf[: r.a]
        for n, t in enumerate(r.lineage_inf):
            a = ancestor_index(tree, r.i + 1, n)
            assert tree.node_type(-n, a) == t


def test_censored_records():
    recs = coalescence_times(censored_tree())
    assert len(recs) == 1
    assert recs[0].censored and recs[0].a is None
    assert recs[0].lineage == ()
    assert len(recs[0].lineage_inf) == 2
    assert recs[0].mass == 1


def test_records_csv():
    text = records_to_csv(coalescence_times(nested_tree()))
    lines = text.strip().split("\n")
    assert lines[0] == "i,A,mass,censored,lineage"
    assert lines[1] == "1,3,2,0,1-2-1"
    row = records_to_csv(coalescence_times(censored_tree())).strip().split("\n")[1]
    assert row == "1,,1,1,"


def test_pairwise_examples():
    assert pairwise_coalescence([1, 2, 1], 1, 2) == 1
    assert pairwise_coalescence([1, 2, 1], 1, 4) == 2
    assert pairwise_coalescence([1, None, 2], 1, 4) is None
    recs = coalescence_times(nested_tree())
    assert pairwise_coalescence(recs, 2, 3) == 1
    with pytest.raises(SchemaError):
        pairwise_coalescence([1, 2], 2, 2)
    with pytest.raises(SchemaError):
        pairwise_coalescence([1, 2], 1, 5)


def test_pairwise_dual_path(e1):
    rng = stream(41, "dualpath")
    trees = 0
    while trees < 200:
        tree = simulate_standing(e1, 6, 1, rng)
        if tree.width < 2:
            continue
        trees += 1
        recs = coalescence_times(tree)
        w = tree.width
        for i in range(1, w + 1):
            for j in range(i + 1, w + 1):
                c = pairwise_coalescence(recs, i, j)
                walk = next(
                    n
                    for n in range(1, tree.horizon + 1)
                    if ancestor_index(tree, i, n) == ancestor_index(tree, j, n)
                )
                assert c == walk


def test_sametype_examples():
    recs = coalescence_times(sibling_then_deep_tree())
    assert [r.a for r in recs] == [1, 3]
    types = tuple(sibling_then_deep_tree().types[-1].tolist())
    assert types == (1, 2, 1)
    assert sametype_times(recs, types, 1) == [3]
    assert sametype_times(recs, types, 2) == []
    all_same = coalescence_times(nested_tree())
    tree_types = (1, 1, 1, 1)
    with pytest.raises(SchemaError):
        sametype_times(all_same, (1, 1), 1)
    assert sametype_times(all_same, tree_types, 1) == [r.a for r in all_same]
    assert sametype_times(all_same, tree_types, 2) == []


def test_ancestral_subtree_preserves_coalescence(lf1, e1):
    rng = stream(43, "subtree")
    for model, ordering in ((lf1, "lf_first"), (e1, "uniform")):
        for _ in range(20):
            tree = simulate_standing(model, 5, 1, rng, ordering=ordering)
            sub = ancestral_subtree(tree)
            assert sub.width == tree.width
            assert sub.types[-1].tolist() == tree.types[-1].tolist()
            if tree.width >= 2:
                ra = coalescence_times(tree)
                rb = coalescence_times(sub)
                assert [r.a for r in ra] == [r.a for r in rb]
                assert [r.lineage for r in ra] == [r.lineage for r in rb]
                assert [r.mass for r in ra] == [r.mass for r in rb]
            # every kept node's parent is kept and planar order holds
            for j in range(1, len(sub.types)):
                if len(sub.parents[j]):
                    assert np.all(np.diff(sub.parents[j]) >= 0)


# -- distributional invariants ---------------------------------------------


def _pooled_a_samples(model, ordering, T, rng, min_pairs):
    vals = []
    consecutive = []
    while len(vals) < min_pairs:
        tree = simulate_standing(model, T, 1, rng, ordering=ordering)
        if tree.width < 2:
            continue
        a = [r.a for r in coalescence_times(tree) if r.a is not None]
        vals.extend(a)
        consecutive.extend(zip(a, a[1:]))
    return vals, consecutive


def test_lf_first_tail_matches_law(lf1):
    rng = stream(47, "lftail")
    T = 8
    vals, _ = _pooled_a_samples(lf1, "lf_first", T, rng, 100_000)
    vals = np.asarray(vals)
    n_tot = len(vals)
    pT = lf_coalescence_law(lf1, T)
    for n in range(1, 7):
        # tree pairs observe the law conditioned on coalescing within T
        expect = (lf_coalescence_law(lf1, n) - pT) / (1.0 - pT)
        emp = float(np.mean(vals > n))
        se = np.sqrt(expect * (1 - expect) / n_tot)
        assert abs(emp - expect) <= 3 * se, (n, emp, expect)


def test_lag1_autocorrelation_near_zero(lf1):
    rng = stream(53, "autocorr")
    _, pairs = _pooled_a_samples(lf1, "lf_first", 8, rng, 100_000)
    x = np.array([p[0] for p in pairs], dtype=float)
    y = np.array([p[1] for p in pairs], dtype=float)
    r = np.corrcoef(x, y)[0, 1]
    assert abs(r) <= 3.0 / np.sqrt(len(pairs))


def test_reversal_symmetry_two_type():
    sym, _ = two_type_models(0.5, 0.7, 0.8, 1.0)
    rng = stream(59, "reversal")
    a1, _ = _pooled_a_samples(sym, "lf_first", 6, rng, 20_000)
    rng2 = stream(61, "reversal-swapped")
    # label swap maps root type 1 to 2 in the symmetric model
    vals2 = []
    while len(vals2) < 20_000:
        tree = simulate_standing(sym, 6, 1, rng2, ordering="lf_first", root_type=2)
        if tree.width < 2:
            continue
        vals2.extend(r.a for r in coalescence_times(tree) if r.a is not None)
    d = _ks_distance(a1, vals2)
    n, m = len(a1), len(vals2)
    assert d <= 1.628 * np.sqrt((n + m) / (n * m))
