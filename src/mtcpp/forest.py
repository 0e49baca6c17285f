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

#: Refuse to retry a conditioned draw past this many failed attempts in a
#: row: extinct trees since a forest's last survivor (not over the whole
#: call), or chain offspring redraws that keep no child.
DEFAULT_REJECTION_CAP = 10**6

#: Nodes of consecutive layers that PlanarTree checks as one run.
CHECK_RUN = 1 << 16

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
            for what, layer in (("type", t), ("parent", p)):
                if not isinstance(layer, np.ndarray) or layer.ndim != 1:
                    raise SchemaError(f"layer {j} {what} entries must be a 1-D numpy array")
                if layer.size and layer.dtype.kind not in "iu":
                    raise SchemaError(
                        f"layer {j} {what} entries must be integers, got dtype {layer.dtype}"
                    )
            if t.shape != p.shape:
                raise SchemaError(f"layer {j} type/parent arrays differ in length")
        # the values are checked over runs of layers laid end to end: a deep
        # tree of small layers costs a few numpy calls, and no run copies
        # more than CHECK_RUN nodes beyond its last layer
        sizes = [t.size for t in self.types]
        lo = run = 0
        for j, size in enumerate(sizes):
            run += size
            if run >= CHECK_RUN or j == depth - 1:
                self._check_values(lo, j + 1, sizes)
                lo, run = j + 1, 0

    def _check_values(self, lo: int, hi: int, sizes: list[int]) -> None:
        """Refuse the first bad type or parent value in layers lo..hi-1."""
        full = [j for j in range(lo, hi) if sizes[j]]
        if not full:
            return
        n = np.array([sizes[j] for j in full])
        starts = n.cumsum() - n
        types = np.concatenate([self.types[j] for j in full])
        parents = np.concatenate([self.parents[j] for j in full])
        low = np.minimum.reduceat(parents, starts)
        high = np.maximum.reduceat(parents, starts)
        prev = np.array([sizes[j - 1] if j else 0 for j in full])
        # a decrease is allowed only where a layer starts
        down = (parents[1:] < parents[:-1]).nonzero()[0] + 1
        at = starts.searchsorted(down, side="right") - 1
        decreasing = np.zeros(len(full), dtype=bool)
        decreasing[at[starts[at] != down]] = True
        is_root = np.array(full) == 0
        bad = np.stack(
            (
                np.minimum.reduceat(types, starts) < 1,
                is_root & ((low != 0) | (high != 0)),
                ~is_root & ((low < 1) | (high > prev)),
                ~is_root & decreasing,
            )
        )
        if not bad.any():
            return
        f = int(bad.any(axis=0).argmax())
        j = full[f]
        raise SchemaError(
            (
                f"layer {j} contains a type index < 1",
                "root layer nodes must have parent 0",
                f"layer {j} has a parent index outside 1..{prev[f]}",
                f"layer {j} parent indices decrease; planar order violated",
            )[int(bad[:, f].argmax())]
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


def _layer_sampler(model: Model, ordering: str | None):
    """Return a callable (parent types, gen) -> (child types, child counts).

    One call draws the ordered offspring of every parent of a nonempty
    layer with the numpy Generator gen: the children come parent by
    parent, left to right, and counts[i] is the number of children of
    parent i.  The law and the sampling tables are those of
    _offspring_sampler; the uniforms are drawn in another order, so the
    two give different draws.
    """
    ordering = planar_ordering(model, ordering)
    k = model.k
    if isinstance(model, LFParams):
        h0 = model._h0
        rowcum = np.asarray(model._rowcum)
        gcum = np.asarray(model._gcum)
        p_stop = 1.0 / (1.0 + model.m)

        def draw_lf(parents, gen):
            # as lf_sample_offspring: one uniform decides h0 and then the
            # H-typed first child, the geometric bulk follows it
            row = parents - 1
            u = gen.random(parents.size) - h0[row]
            has = (u >= 0).nonzero()[0]
            below = rowcum[row[has]] <= u[has, None]
            first = np.minimum(below.sum(axis=1) + 1, k)
            counts = np.zeros(parents.size, dtype=np.int64)
            counts[has] = gen.geometric(p_stop, size=has.size)
            ends = counts.cumsum()
            bulk = gen.random(ends[-1])
            types = np.minimum(gcum.searchsorted(bulk, side="right") + 1, k)
            types[ends[has] - counts[has]] = first
            return types, counts

        draw = draw_lf
    else:
        # every support row's type-sorted list, laid end to end; a uniform
        # past the last cumulative probability (rounding) takes the last row
        cum = [np.append(rows[:-1], np.inf) for rows in model._cum]
        row_base = np.cumsum([0] + [len(rows) for rows in cum])
        lists = [row for rows in model._expanded for row in rows]
        row_len = np.array([len(row) for row in lists], dtype=np.int64)
        row_start = np.cumsum(row_len) - row_len
        flat = np.array([t for row in lists for t in row], dtype=np.int64)

        def draw_spec(parents, gen):
            u = gen.random(parents.size)
            rows = np.empty(parents.size, dtype=np.int64)
            for ell in range(1, k + 1):
                at = (parents == ell).nonzero()[0]
                rows[at] = cum[ell - 1].searchsorted(u[at]) + row_base[ell - 1]
            counts = row_len[rows]
            ends = counts.cumsum()
            pos = np.arange(ends[-1]) + (row_start[rows] - ends + counts).repeat(counts)
            return flat[pos], counts

        draw = draw_spec
    if ordering != "uniform":
        return draw

    def draw_shuffled(parents, gen):
        # a uniform permutation of each sibling block: sort by random keys
        types, counts = draw(parents, gen)
        owner = np.arange(parents.size).repeat(counts)
        return types[np.lexsort((gen.random(types.size), owner))], counts

    return draw_shuffled


def _grow_block(draw, root_type: int, roots: int, T: int, gen):
    """Draw `roots` i.i.d. depth-T trees side by side as one planar forest.

    Returns the type and parent layers and the root (0..roots-1) of every
    standing individual.  The root of each node is carried down one layer
    at a time and not kept.  GuardError once one tree holds more than
    DEFAULT_NODE_CAP nodes.
    """
    types = [np.full(roots, root_type, dtype=np.int64)]
    parents = [np.zeros(roots, dtype=np.int64)]
    root_of = np.arange(roots, dtype=np.int32)
    nodes = np.ones(roots, dtype=np.int64)
    for _ in range(T):
        if not root_of.size:
            # the block died out: the layers below are empty too
            types.append(root_of.astype(np.int64))
            parents.append(types[-1])
            continue
        child_types, counts = draw(types[-1], gen)
        root_of = root_of.repeat(counts)
        types.append(child_types)
        parents.append(np.arange(1, counts.size + 1).repeat(counts))
        nodes += np.bincount(root_of, minlength=roots)
        if nodes.max() > DEFAULT_NODE_CAP:
            raise GuardError(
                f"tree exceeded the node cap ({DEFAULT_NODE_CAP}); model likely supercritical"
            )
    return types, parents, root_of


def _settle_block(standing: np.ndarray, short: int, misses: int, T: int):
    """Roots of a block to keep, given each root's standing width.

    short is the width still missing before the block, misses the extinct
    roots in a row before it.  Keeps the roots up to and including the
    first one that makes up the width (all of them if none does) and
    returns (that count, the extinct roots among them, the extinct roots
    in a row after the last survivor).  GuardError once DEFAULT_REJECTION_CAP
    extinct roots come in a row, counted across blocks.
    """
    reach = (standing.cumsum() >= short).nonzero()[0]
    stop = int(reach[0]) + 1 if reach.size else standing.size
    alive = standing[:stop].nonzero()[0]
    # extinct runs before each survivor and after the last one
    runs = np.concatenate((alive, [stop])) - np.concatenate(([-1], alive)) - 1
    runs[0] += misses
    if runs.max() >= DEFAULT_REJECTION_CAP:
        raise GuardError(
            f"no surviving tree within {DEFAULT_REJECTION_CAP} attempts at horizon {T}"
        )
    return stop, stop - alive.size, int(runs[-1])


def simulate_forward(
    model: Model,
    ordering: str,
    root_type: int,
    depth: int,
    rng,
) -> PlanarTree:
    """Simulate one planar tree from a single root, depth generations deep.

    Offspring of every node are drawn from the model; their left-to-right
    order is a uniform random permutation of the sampled multiset, or the
    as-sampled order for ordering='lf_first' (first offspring from the H
    row, geometric bulk after it).  A numpy Generator seeded from rng
    draws the tree one layer at a time.
    """
    if depth < 1:
        raise SchemaError(f"depth must be >= 1, got {depth}")
    _check_type(model, root_type)
    draw = _layer_sampler(model, ordering)
    gen = np.random.default_rng(rng.getrandbits(128))
    types, parents, _ = _grow_block(draw, root_type, 1, depth, gen)
    return PlanarTree(-depth, tuple(types), tuple(parents))


#: Most roots drawn as one block; bounds a block's memory when survivors
#: are rare and every standing individual costs many extinct trees.
MAX_BLOCK_ROOTS = 1 << 16


def simulate_standing(
    model: Model,
    T: int,
    target_width: int,
    rng,
    ordering: str | None = None,
    root_type: int = 1,
) -> PlanarTree:
    """Simulate trees conditioned on a nonempty standing population.

    Independent depth-T trees are drawn until at least target_width
    standing individuals survive.  The trees are drawn in blocks of roots,
    one layer of a whole block at a time, by a numpy Generator seeded from
    rng.  The surviving trees are laid into one planar forest in the order
    they were drawn, up to and including the first that makes up the
    width, so the result has one root per survivor (a lone survivor is a
    one-root forest) and is checked once, as a whole.  The rejections
    field counts every extinct tree drawn before that last survivor.
    GuardError after DEFAULT_REJECTION_CAP extinct trees in a row, so a
    wide forest of a subcritical model may discard many more than that in
    total.  ordering None takes the model's default planar order, as the
    chain does.

    A block starts at one root and at most doubles from one block to the
    next; once a survivor has been seen it is also capped at the roots
    that the standing width observed per root so far needs to make up
    the missing width, and always at MAX_BLOCK_ROOTS.
    """
    if T < 1:
        raise SchemaError(f"horizon must be >= 1, got {T}")
    if target_width < 1:
        raise SchemaError(f"target width must be >= 1, got {target_width}")
    _check_type(model, root_type)
    draw = _layer_sampler(model, ordering)
    gen = np.random.default_rng(rng.getrandbits(128))
    kept_types, kept_parents = [[] for _ in range(T + 1)], [[] for _ in range(T + 1)]
    kept_width = [0] * (T + 1)
    rejections = misses = drawn_roots = drawn_width = 0
    roots = 1
    while kept_width[T] < target_width:
        types, parents, root_of = _grow_block(draw, root_type, roots, T, gen)
        standing = np.bincount(root_of, minlength=roots)
        short = target_width - kept_width[T]
        stop, extinct, misses = _settle_block(standing, short, misses, T)
        rejections += extinct
        if extinct < stop:
            # keep the survivors among the first `stop` roots, and their
            # descendants layer by layer, with parents renumbered past the
            # nodes kept above
            keep = np.zeros(roots, dtype=bool)
            keep[:stop] = standing[:stop] > 0
            kept_types[0].append(types[0][keep])
            kept_parents[0].append(parents[0][keep])
            for j in range(1, T + 1):
                rank = keep.cumsum() + kept_width[j - 1]
                keep = keep[parents[j] - 1]
                kept_types[j].append(types[j][keep])
                kept_parents[j].append(rank[parents[j][keep] - 1])
            for j in range(T + 1):
                kept_width[j] += kept_types[j][-1].size
        drawn_roots += roots
        drawn_width += int(standing.sum())
        roots *= 2
        if drawn_width:
            short = target_width - kept_width[T]
            roots = min(roots, -(-short * drawn_roots // drawn_width))
        roots = max(1, min(roots, MAX_BLOCK_ROOTS))
    return PlanarTree(
        -T,
        tuple(np.concatenate(layer) for layer in kept_types),
        tuple(np.concatenate(layer) for layer in kept_parents),
        rejections,
    )


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


def _ancestor_walk(tree: PlanarTree) -> Iterator[np.ndarray]:
    """a_i(n) for every standing i, one level n = 0..T at a time."""
    level = np.arange(1, tree.width + 1, dtype=np.int64)
    yield level
    for parents in reversed(tree.parents[1:]):
        level = parents[level - 1]
        yield level


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

    One upward walk over the ancestry levels fills A, the MRCA node of
    every pair and the lineage types; no level is kept after the next is
    read.  Returns an array-backed sequence: a CoalescentRecord is built
    only when an entry is indexed or iterated.
    """
    w = tree.width
    if w < 1:
        raise SchemaError("standing population is empty")
    T = tree.horizon
    a = np.zeros(w - 1, dtype=np.int64)
    mrca = np.zeros(w - 1, dtype=np.int64)
    # ancestry types of each right pair member, generations 0..-(T-1), in
    # the narrowest signed dtype that holds the largest type on them
    top = max(int(layer.max()) for layer in tree.types[1:])
    lineage = np.empty((T, w - 1), dtype=np.min_scalar_type(-top))
    for n, level in enumerate(_ancestor_walk(tree)):
        if n < T:
            lineage[n] = tree.types[T - n][level[1:] - 1]
        if n:
            # ancestors stay equal once they meet, so the first level decides
            met = np.flatnonzero((level[:-1] == level[1:]) & (a == 0))
            a[met] = n
            mrca[met] = level[met]
    # mass: suffix count of pairs sharing this pair's MRCA node, i.e. the
    # rank of the pair among its (a, node) group in descending position
    pos = np.flatnonzero(a)
    key_a = a[pos]
    key_node = mrca[pos]
    order = np.lexsort((-pos, key_node, key_a))
    key_a, key_node = key_a[order], key_node[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (key_a[1:] != key_a[:-1]) | (key_node[1:] != key_node[:-1])
    ranks = np.arange(len(order))
    ranks -= np.maximum.accumulate(np.where(starts, ranks, 0))
    mass = np.ones(w - 1, dtype=np.int64)
    mass[pos[order]] = ranks + 1
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
    # keep[j]: the nodes of layer j that are a depth-(T - j) ancestor
    keep = [np.unique(level) for level in _ancestor_walk(tree)][::-1]
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


def _digit_counts(col: np.ndarray) -> np.ndarray:
    """Decimal digit count (int8) of each entry of a non-negative integer column."""
    counts = np.ones(col.size, dtype=np.int8)
    top = int(col.max()) if col.size else 0
    power = 10
    while power <= top:
        counts += col >= power
        power *= 10
    return counts


def _write_digits(out: np.ndarray, ends: np.ndarray, col: np.ndarray) -> None:
    """Write each col[r] >= 0 in decimal, its last digit at out[ends[r] - 1].

    One pass writes one digit of every row, right to left, and drops the
    rows whose remaining value is 0.
    """
    at = ends - 1
    value = col
    while value.size:
        value, digit = np.divmod(value, 10)
        digit += ord("0")
        out[at] = digit
        more = value.nonzero()[0]
        if more.size < value.size:
            value, at = value[more], at[more]
        at -= 1


def dump_tree(tree: PlanarTree) -> bytearray:
    """Line-oriented dump: gen<TAB>index<TAB>type<TAB>parent_index.

    Returns a bytes-like ASCII buffer (a bytearray) preallocated to the
    text's length and filled layer by layer, a column at a time, straight
    from the type and parent arrays: the generation is a constant prefix
    per layer, and no string is built per node.
    """
    layers = []
    size = 0
    for j, (t, p) in enumerate(zip(tree.types, tree.parents)):
        if not t.size:
            continue
        gen = b"%d" % (tree.root_generation + j)
        digits_t, digits_p = _digit_counts(t), _digit_counts(p)
        # gen, index, type and parent, three tabs and a newline
        row = _digit_counts(np.arange(1, t.size + 1))
        row += digits_t
        row += digits_p
        row += len(gen) + 4
        layers.append((gen, t, p, digits_t, digits_p, row, size))
        size += int(row.sum(dtype=np.int64))
    buf = bytearray(size)
    out = np.frombuffer(buf, dtype=np.uint8)
    out.fill(ord("\t"))
    for gen, t, p, digits_t, digits_p, row, offset in layers:
        ends = row.cumsum(dtype=np.int64)
        ends += offset
        starts = ends - row
        for c, ch in enumerate(gen):
            out[starts + c] = ch
        del starts
        out[ends - 1] = ord("\n")
        # the other columns right to left, each ending one tab before the next
        ends -= 1
        _write_digits(out, ends, p)
        ends -= digits_p
        ends -= 1
        _write_digits(out, ends, t)
        ends -= digits_t
        ends -= 1
        _write_digits(out, ends, np.arange(1, t.size + 1))
    return buf


_CSV_HEADER = b"i,A,mass,censored,lineage\n"


def records_to_csv(records: CoalescentRecords) -> bytearray:
    """CSV with columns i,A,mass,censored,lineage (lineage hyphen-joined).

    Returns a bytes-like ASCII buffer (a bytearray) preallocated to the
    text's length and filled a column at a time straight from the record
    arrays: A is empty where censored, and the lineage is written one
    depth d at a time over the rows with A > d.  No string is built per
    pair.
    """
    a, mass, lineage = records.a, records.mass, records.lineage_inf
    i = np.arange(1, a.size + 1)
    kept = a > 0
    digits_i = _digit_counts(i)
    digits_a = _digit_counts(a)
    digits_a *= kept
    digits_m = _digit_counts(mass)
    # i, A, mass, the censored flag, four commas and a newline
    row = digits_i.astype(np.int64)
    row += digits_a
    row += digits_m
    row += 6
    depth = int(a.max()) if a.size else 0
    for d in range(depth):
        at = (a > d).nonzero()[0]
        row[at] += _digit_counts(lineage[d, at]) + (d > 0)
    pos = row.cumsum()
    pos += len(_CSV_HEADER)
    buf = bytearray(len(_CSV_HEADER) + int(row.sum()))
    out = np.frombuffer(buf, dtype=np.uint8)
    out.fill(ord(","))
    out[: len(_CSV_HEADER)] = np.frombuffer(_CSV_HEADER, dtype=np.uint8)
    out[pos - 1] = ord("\n")
    # pos walks each row left to right, from a column's start to its end
    # and over the comma after it
    pos -= row
    del row
    pos += digits_i
    _write_digits(out, pos, i)
    pos += digits_a
    pos += 1
    _write_digits(out, pos[kept], a[kept])
    pos += digits_m
    pos += 1
    _write_digits(out, pos, mass)
    out[pos + 1] = ord("1") - kept
    pos += 3
    for d in range(depth):
        at = (a > d).nonzero()[0]
        lineage_pos = pos[at]
        if d:
            out[lineage_pos] = ord("-")
            lineage_pos += 1
        types = lineage[d, at]
        lineage_pos += _digit_counts(types)
        _write_digits(out, lineage_pos, types)
        pos[at] = lineage_pos
    return buf
