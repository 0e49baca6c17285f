"""Forward simulation of planar branching trees and coalescent extraction.

Trees are stored one generation per array: generation labels run from
-T (the root layer) to 0 (the standing population), and within each
generation individuals are indexed 1..width left to right.  The parent
array of a layer must be non-decreasing, which is exactly the planar
embedding condition: children of consecutive parents form consecutive
blocks.
"""

from __future__ import annotations

import bisect
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import GuardError, SchemaError
from .lf import LFParams, lf_sample_offspring
from .model import ModelSpec, _check_type, planar_ordering

__all__ = [
    "PlanarTree",
    "CoalescentRecord",
    "CoalescentRecords",
    "simulate_forward",
    "simulate_standing",
    "ancestor_index",
    "coalescence_times",
    "pairwise_coalescence",
    "sametype_times",
    "ancestral_subtree",
    "dump_tree",
    "records_to_csv",
]

#: Refuse to grow a single tree past this many nodes.
DEFAULT_NODE_CAP = 10**7

#: Refuse to retry a conditioned simulation past this many attempts.
DEFAULT_REJECTION_CAP = 10**6

Model = Union[ModelSpec, LFParams]


class NodeRecord(NamedTuple):
    generation: int
    index: int
    type: int
    parent: int


@dataclass(frozen=True, eq=False)
class PlanarTree:
    """Planar-embedded tree (or forest) spanning generations -T..0.

    types[j] and parents[j] describe generation root_generation + j.
    Parent entries are 1-based indices into the previous layer; roots
    carry parent 0 and may only appear in the first layer.
    """

    root_generation: int
    types: tuple[np.ndarray, ...]
    parents: tuple[np.ndarray, ...]
    rejections: int = 0

    def __post_init__(self) -> None:
        if self.root_generation >= 0:
            raise SchemaError("root generation must be negative (standing time is 0)")
        depth = -self.root_generation + 1
        if len(self.types) != depth or len(self.parents) != depth:
            raise SchemaError(
                f"expected {depth} generation layers, got {len(self.types)} type "
                f"and {len(self.parents)} parent layers"
            )
        for j, (t, p) in enumerate(zip(self.types, self.parents)):
            if t.shape != p.shape:
                raise SchemaError(f"layer {j} type/parent arrays differ in length")
            if t.size and np.min(t) < 1:
                raise SchemaError(f"layer {j} contains a type index < 1")
            if j == 0:
                if p.size and np.any(p != 0):
                    raise SchemaError("root layer nodes must have parent 0")
            else:
                prev = len(self.types[j - 1])
                if p.size and (np.min(p) < 1 or np.max(p) > prev):
                    raise SchemaError(f"layer {j} has a parent index outside 1..{prev}")
                if p.size > 1 and np.any(np.diff(p) < 0):
                    raise SchemaError(
                        f"layer {j} parent indices decrease; planar order violated"
                    )

    @property
    def horizon(self) -> int:
        return -self.root_generation

    @property
    def width(self) -> int:
        """Number of standing (generation-0) individuals."""
        return len(self.types[-1])

    def _layer(self, generation: int) -> int:
        j = generation - self.root_generation
        if not 0 <= j < len(self.types):
            raise SchemaError(
                f"generation {generation} outside {self.root_generation}..0"
            )
        return j

    def node_type(self, generation: int, index: int) -> int:
        j = self._layer(generation)
        if not 1 <= index <= len(self.types[j]):
            raise SchemaError(f"no node {index} in generation {generation}")
        return int(self.types[j][index - 1])

    def node_parent(self, generation: int, index: int) -> int:
        j = self._layer(generation)
        if not 1 <= index <= len(self.parents[j]):
            raise SchemaError(f"no node {index} in generation {generation}")
        return int(self.parents[j][index - 1])

    def node_children(self, generation: int, index: int) -> np.ndarray:
        """1-based indices of the node's children in the next generation."""
        j = self._layer(generation)
        if j + 1 >= len(self.parents):
            return np.empty(0, dtype=np.int64)
        p = self.parents[j + 1]
        lo = int(np.searchsorted(p, index, side="left"))
        hi = int(np.searchsorted(p, index, side="right"))
        return np.arange(lo + 1, hi + 1, dtype=np.int64)

    def nodes(self) -> Iterator[NodeRecord]:
        for j, (t, p) in enumerate(zip(self.types, self.parents)):
            gen = self.root_generation + j
            for idx in range(len(t)):
                yield NodeRecord(gen, idx + 1, int(t[idx]), int(p[idx]))


@dataclass(frozen=True, eq=False)
class CoalescentRecord:
    """Coalescence data of the standing pair (i, i+1).

    a is the coalescence time A_i, or None when the pair does not meet
    within the horizon.  mass counts the pairs j >= i whose most recent
    common ancestor is the same node as this pair's, so a node with c
    standing-surviving child blocks emits masses c-1, c-2, ..., 1 at its
    boundary pairs.  lineage holds the types along the right member's
    ancestry, entry 0 being the standing type of individual i+1; it is
    empty for censored pairs.  lineage_inf holds the same ancestry for
    generations 0..-(T-1) regardless of censoring.
    """

    i: int
    a: int | None
    mass: int
    lineage: tuple[int, ...]
    lineage_inf: tuple[int, ...]

    @property
    def censored(self) -> bool:
        return self.a is None


def _offspring_sampler(model: Model, ordering: str | None):
    """Return a callable (type, rng) -> ordered 1-based offspring type list.

    ordering None picks the model's default planar order; both kinds keep
    their sampling tables from construction.  The chain builds a sampler on
    every step, so the common cases make no further call.
    """
    if ordering is None:
        ordering = model.orderings[0]
    elif ordering not in model.orderings:
        planar_ordering(model, ordering)  # raises: unknown, or not this model's
    if isinstance(model, LFParams):
        # drawn through this module's name, which bench/tracer.py counts
        if ordering == "lf_first":
            return lambda ell, rng: lf_sample_offspring(model, ell, rng)

        def sample_lf(ell, rng):
            out = lf_sample_offspring(model, ell, rng)
            rng.shuffle(out)
            return out

        return sample_lf
    # a draw copies its support row's type-sorted list and shuffles the copy
    cum, expanded = model._cum, model._expanded

    def sample_spec(ell, rng):
        rows = cum[ell - 1]
        r = bisect.bisect_left(rows, rng.random())
        if r >= len(rows):
            r = len(rows) - 1
        out = expanded[ell - 1][r][:]
        rng.shuffle(out)
        return out

    return sample_spec


def _simulate_layers(sample, root_type: int, depth: int, rng, node_cap: int):
    """Raw (types, parents) layer lists of one simulated tree."""
    types_layers = [[root_type]]
    parent_layers = [[0]]
    total = 1
    for _ in range(depth):
        cur = types_layers[-1]
        child_types: list[int] = []
        child_parents: list[int] = []
        for idx, t in enumerate(cur):
            off = sample(t, rng)
            child_types.extend(off)
            child_parents.extend([idx + 1] * len(off))
        total += len(child_types)
        if total > node_cap:
            raise GuardError(
                f"tree exceeded the node cap ({node_cap}); model likely supercritical"
            )
        types_layers.append(child_types)
        parent_layers.append(child_parents)
    return types_layers, parent_layers


def _layers_to_tree(types_layers, parent_layers, depth: int, rejections: int) -> PlanarTree:
    return PlanarTree(
        root_generation=-depth,
        types=tuple(np.asarray(t, dtype=np.int64) for t in types_layers),
        parents=tuple(np.asarray(p, dtype=np.int64) for p in parent_layers),
        rejections=rejections,
    )


def simulate_forward(
    model: Model,
    ordering: str,
    root_type: int,
    depth: int,
    rng,
    node_cap: int = DEFAULT_NODE_CAP,
) -> PlanarTree:
    """Simulate one planar tree from a single root, depth generations deep.

    Offspring of every node are drawn from the model; their left-to-right
    order is a uniform random permutation of the sampled multiset, or the
    as-sampled order for ordering='lf_first' (first offspring from the H
    row, geometric bulk after it).
    """
    if depth < 1:
        raise SchemaError(f"depth must be >= 1, got {depth}")
    _check_type(model, root_type)
    sample = _offspring_sampler(model, ordering)
    types_layers, parent_layers = _simulate_layers(sample, root_type, depth, rng, node_cap)
    return _layers_to_tree(types_layers, parent_layers, depth, 0)


def _concat_trees(trees: list[PlanarTree], rejections: int) -> PlanarTree:
    depth = trees[0].horizon
    types_layers = []
    parent_layers = []
    for j in range(depth + 1):
        types_layers.append(np.concatenate([t.types[j] for t in trees]))
        parts = []
        offset = 0
        for t in trees:
            p = t.parents[j]
            if j == 0:
                parts.append(p)
            else:
                parts.append(p + offset)
                offset += len(t.types[j - 1])
        parent_layers.append(np.concatenate(parts))
    return PlanarTree(
        root_generation=-depth,
        types=tuple(types_layers),
        parents=tuple(parent_layers),
        rejections=rejections,
    )


def simulate_standing(
    model: Model,
    T: int,
    target_width: int,
    rng,
    ordering: str | None = None,
    root_type: int = 1,
    rejection_cap: int = DEFAULT_REJECTION_CAP,
    node_cap: int = DEFAULT_NODE_CAP,
) -> PlanarTree:
    """Simulate trees conditioned on a nonempty standing population.

    Independent depth-T trees are drawn until at least target_width
    standing individuals survive, and the surviving trees are laid side by
    side in draw order: the result is a planar forest with one root per
    survivor, or the first surviving tree itself when it is wide enough
    alone.  The rejections field counts the discarded extinct attempts.
    ordering None takes the model's default planar order, as the chain does.
    """
    if T < 1:
        raise SchemaError(f"horizon must be >= 1, got {T}")
    if target_width < 1:
        raise SchemaError(f"target width must be >= 1, got {target_width}")
    _check_type(model, root_type)
    sample = _offspring_sampler(model, ordering)
    rejections = 0
    survivors: list[PlanarTree] = []
    got = 0
    while True:
        if rejections >= rejection_cap:
            raise GuardError(
                f"no surviving tree within {rejection_cap} attempts at horizon {T}"
            )
        # extinct attempts are discarded before any tree object is built
        layers = _simulate_layers(sample, root_type, T, rng, node_cap)
        if not layers[0][-1]:
            rejections += 1
            continue
        tree = _layers_to_tree(*layers, T, rejections)
        survivors.append(tree)
        got += tree.width
        if got >= target_width:
            return tree if len(survivors) == 1 else _concat_trees(survivors, rejections)


def ancestor_index(tree: PlanarTree, i: int, n: int) -> int:
    """Planar index a_i(n) of the generation -n ancestor of (0, i)."""
    if not 1 <= i <= tree.width:
        raise SchemaError(f"standing index {i} outside 1..{tree.width}")
    if n < 0 or n > tree.horizon:
        raise SchemaError(f"ancestor depth {n} outside 0..{tree.horizon}")
    idx = i
    layer = len(tree.parents) - 1
    for _ in range(n):
        idx = int(tree.parents[layer][idx - 1])
        layer -= 1
    return idx


def _ancestor_levels(tree: PlanarTree) -> np.ndarray:
    """anc[n, i-1] = a_i(n) for every standing i, n = 0..T."""
    T = tree.horizon
    anc = np.empty((T + 1, tree.width), dtype=np.int64)
    anc[0] = np.arange(1, tree.width + 1)
    for n in range(1, T + 1):
        anc[n] = tree.parents[T + 1 - n][anc[n - 1] - 1]
    return anc


class CoalescentRecords(Sequence[CoalescentRecord]):
    """The coalescent records of one tree, held as arrays.

    a[p] is A_{p+1} (0 when censored), mass[p] the record's mass and
    lineage_inf[:, p] its lineage_inf, for p = 0..w-2.  A
    CoalescentRecord is built only when an entry is indexed.
    """

    def __init__(self, a: np.ndarray, mass: np.ndarray, lineage_inf: np.ndarray):
        self.a = a
        self.mass = mass
        self.lineage_inf = lineage_inf

    def __len__(self) -> int:
        return len(self.a)

    def __getitem__(self, pos: int) -> CoalescentRecord:
        pos = range(len(self.a))[operator.index(pos)]
        a = int(self.a[pos]) or None
        inf = tuple(self.lineage_inf[:, pos].tolist())
        return CoalescentRecord(
            i=pos + 1,
            a=a,
            mass=int(self.mass[pos]),
            lineage=inf[: a or 0],
            lineage_inf=inf,
        )


def coalescence_times(tree: PlanarTree) -> CoalescentRecords:
    """Coalescent records of the consecutive standing pairs, left to right.

    Returns an array-backed sequence: A, mass and the lineage types of
    every pair are computed as arrays, and a CoalescentRecord is built
    only when an entry is indexed or iterated.
    """
    w = tree.width
    if w < 1:
        raise SchemaError("standing population is empty")
    T = tree.horizon
    anc = _ancestor_levels(tree)
    eqmat = anc[1:, :-1] == anc[1:, 1:]
    a = np.where(eqmat.any(axis=0), eqmat.argmax(axis=0) + 1, 0)
    # mass: suffix count of pairs sharing this pair's MRCA node, i.e. the
    # rank of the pair among its (a, node) group in descending position
    pos = np.flatnonzero(a)
    key_a = a[pos]
    key_node = anc[key_a, pos]
    order = np.lexsort((-pos, key_node, key_a))
    key_a, key_node = key_a[order], key_node[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (key_a[1:] != key_a[:-1]) | (key_node[1:] != key_node[:-1])
    ranks = np.arange(len(order))
    ranks -= np.maximum.accumulate(np.where(starts, ranks, 0))
    mass = np.ones(w - 1, dtype=np.int64)
    mass[pos[order]] = ranks + 1
    # ancestry types of each right pair member, generations 0..-(T-1),
    # filled row by row: stacking would hold the matrix twice
    lineage = np.empty((T, w - 1), dtype=np.int64)
    for n in range(T):
        lineage[n] = tree.types[T - n][anc[n, 1:] - 1]
    return CoalescentRecords(a, mass, lineage)


def _a_value(entry) -> int | None:
    if isinstance(entry, CoalescentRecord):
        return entry.a
    return entry


def pairwise_coalescence(A_list: Sequence, i: int, j: int) -> int | None:
    """C_{i,j} = max(A_i..A_{j-1}); None if the range holds a censored entry."""
    if not 1 <= i < j <= len(A_list) + 1:
        raise SchemaError(f"need 1 <= i < j <= width, got i={i}, j={j}")
    best = 0
    for pos in range(i - 1, j - 1):
        a = _a_value(A_list[pos])
        if a is None:
            return None
        best = max(best, a)
    return best


def sametype_times(
    records: Sequence[CoalescentRecord],
    standing_types: Sequence[int],
    ell: int,
) -> list[int | None]:
    """Coalescence times of consecutive same-type standing individuals.

    With q_1 < q_2 < ... the positions of type-ell individuals, entry i
    is max(A_p for q_i <= p < q_{i+1}); None when the gap holds a
    censored pair.  Fewer than two type-ell individuals give [].
    """
    if len(records) != len(standing_types) - 1:
        raise SchemaError(
            f"{len(records)} records do not match width {len(standing_types)}"
        )
    positions = [p for p, t in enumerate(standing_types, 1) if t == ell]
    out: list[int | None] = []
    for q, q_next in zip(positions, positions[1:]):
        out.append(pairwise_coalescence(records, q, q_next))
    return out


def ancestral_subtree(tree: PlanarTree) -> PlanarTree:
    """Restriction of the tree to ancestors of the standing population."""
    T = tree.horizon
    keep: list[np.ndarray] = [None] * (T + 1)
    keep[T] = np.arange(1, tree.width + 1, dtype=np.int64)
    for j in range(T, 0, -1):
        parents = tree.parents[j][keep[j] - 1]
        keep[j - 1] = np.unique(parents)
    types_layers = []
    parent_layers = []
    for j in range(T + 1):
        types_layers.append(tree.types[j][keep[j] - 1])
        if j == 0:
            parent_layers.append(np.zeros(len(keep[j]), dtype=np.int64))
        else:
            old_parents = tree.parents[j][keep[j] - 1]
            relabel = np.searchsorted(keep[j - 1], old_parents) + 1
            parent_layers.append(relabel.astype(np.int64))
    return PlanarTree(
        root_generation=-T,
        types=tuple(types_layers),
        parents=tuple(parent_layers),
        rejections=tree.rejections,
    )


def dump_tree(tree: PlanarTree) -> str:
    """Line-oriented dump: gen<TAB>index<TAB>type<TAB>parent_index."""
    layers = []
    for j, (t, p) in enumerate(zip(tree.types, tree.parents)):
        line = f"{tree.root_generation + j}\t%d\t%d\t%d\n".__mod__
        rows = zip(range(1, len(t) + 1), t.tolist(), p.tolist())
        layers.append("".join(map(line, rows)))
    return "".join(layers)


def records_to_csv(records: CoalescentRecords) -> str:
    """CSV with columns i,A,mass,censored,lineage (lineage hyphen-joined).

    Rows are formatted from the record arrays, one A value at a time.
    """
    a, mass, lineage = records.a, records.mass, records.lineage_inf
    i = np.arange(1, len(a) + 1)
    rows = np.empty(len(a), dtype=object)
    for depth in np.unique(a).tolist():
        at = np.flatnonzero(a == depth)
        if depth == 0:
            line = "%d,,%d,1,\n"
            cols = (i[at], mass[at])
        else:
            line = "%d,%d,%d,0," + "-".join(["%d"] * depth) + "\n"
            cols = (i[at], a[at], mass[at], *lineage[:depth, at])
        rows[at] = list(map(line.__mod__, zip(*(c.tolist() for c in cols))))
    return "i,A,mass,censored,lineage\n" + "".join(rows.tolist())
