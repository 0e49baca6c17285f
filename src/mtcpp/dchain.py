"""Auxiliary coalescent chain over surviving-offspring type vectors.

State i holds, for each lookback level n = 1..T, the ordered types of the
surviving offspring of standing individual i's generation-(-n) ancestor,
restricted to those at or right of the lineage.  Level n's first entry is
therefore always the type of the lineage representative one generation
below the ancestor.  A_i is the first level with two or more entries, and
one chain step rebuilds levels below A_i from a fresh spine sample.

Level index convention, used everywhere in this module: a levels tuple
stores level n at position n-1, and level n describes offspring living in
generation -(n-1).  Survival always means having standing (generation-0)
progeny.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (
    CensoredError,
    GuardError,
    ImpossibleConditioningError,
    InconsistentStateError,
    SchemaError,
)
from .forest import PlanarTree, _offspring_sampler
from .model import _is_json_int, pgf_eval_all
from . import forest as _forest

__all__ = [
    "DState",
    "sample_eta",
    "dchain_step",
    "init_quasistationary",
    "extract_dstates",
    "reconstruct_tree",
]


@dataclass(frozen=True, eq=False)
class DState:
    """Chain state: levels[j] holds level j+1, exactly horizon levels.

    States are checked where they enter: the constructor and `from_json`
    refuse a horizon below 1, a level count other than the horizon, an
    empty level and a type index below 1, and `from_json` also refuses
    any field that is not the right JSON kind.  `dchain_step` and
    `init_quasistationary` build their states through the unchecked
    `_trusted`, because their levels are valid by construction (every
    level is a nonempty list of sampled types in 1..k, exactly `horizon`
    of them).
    """

    i: int
    levels: tuple[tuple[int, ...], ...]
    horizon: int

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise SchemaError(f"horizon must be >= 1, got {self.horizon}")
        if len(self.levels) != self.horizon:
            raise SchemaError(
                f"state has {len(self.levels)} levels, expected {self.horizon}"
            )
        for j, lvl in enumerate(self.levels):
            if len(lvl) < 1:
                raise SchemaError(f"level {j + 1} is empty")
            if any(t < 1 for t in lvl):
                raise SchemaError(f"level {j + 1} holds a type index < 1")

    @classmethod
    def _trusted(
        cls, i: int, levels: tuple[tuple[int, ...], ...], horizon: int
    ) -> "DState":
        """A state whose levels the caller guarantees valid; no checks run."""
        state = object.__new__(cls)
        state.__dict__.update(i=i, levels=levels, horizon=horizon)
        return state

    def coalescence_level(self) -> int | None:
        """First level with >= 2 entries, or None when all are singletons."""
        for j, lvl in enumerate(self.levels):
            if len(lvl) >= 2:
                return j + 1
        return None

    def to_json(self) -> str:
        return json.dumps(
            {"i": self.i, "T": self.horizon, "levels": [list(l) for l in self.levels]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "DState":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"state is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise SchemaError(f"state JSON must be an object, got {doc!r}")
        for key in ("i", "T", "levels"):
            if key not in doc:
                raise SchemaError(f"state JSON needs field {key!r}")
        for key in ("i", "T"):
            if not _is_json_int(doc[key]):
                raise SchemaError(f"state field {key!r} must be an integer, got {doc[key]!r}")
        levels = doc["levels"]
        if not isinstance(levels, list) or not all(
            isinstance(lvl, list) and all(_is_json_int(t) for t in lvl) for lvl in levels
        ):
            raise SchemaError(f"state field 'levels' must be lists of integers, got {levels!r}")
        return cls(
            i=doc["i"],
            levels=tuple(tuple(lvl) for lvl in levels),
            horizon=doc["T"],
        )


_SURVIVAL_ROWS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _survival_rows(model, n: int) -> list[list[float]]:
    """[p_0, ..., p_n, ...]: per-type survival probabilities by generation.

    Python float rows, at least n + 1 of them, memoized per model instance
    and extended only when a deeper n is asked for; the rows sit in every
    spine draw's inner loop and are a pure function of the
    offspring law.
    """
    rows = _SURVIVAL_ROWS.get(model)
    if rows is None:
        rows = _SURVIVAL_ROWS[model] = [[1.0] * model.k]
    while len(rows) <= n:
        s = np.clip(pgf_eval_all(model, 1.0 - np.array(rows[-1])), 0.0, 1.0)
        rows.append((1.0 - s).tolist())
    return rows


def _kept_offspring(sampler, p_prev, ell: int, rng) -> list[int]:
    """Offspring of a type-ell parent thinned by p_prev, conditioned nonzero.

    Redraws until one child is kept, at most forest.DEFAULT_REJECTION_CAP
    times (read at call time, so the forest and the chain share one cap).
    """
    random = rng.random
    cap = _forest.DEFAULT_REJECTION_CAP
    for _ in range(cap):
        kept = [t for t in sampler(ell, rng) if random() < p_prev[t - 1]]
        if kept:
            return kept
    raise GuardError(
        f"no surviving offspring of type {ell} within {cap} conditioning attempts"
    )


def sample_eta(
    model,
    n: int,
    ell: int,
    rng,
    ordering: str | None = None,
) -> tuple[tuple[int, ...], ...]:
    """Spine sample below a type-ell ancestor n generations back.

    Returns n levels; position j holds level j + 1.  Level n is the
    ancestor's offspring that have standing progeny, conditioned on at
    least one, and the type of each level's first entry parents the level
    below it.  Every level is a nonempty tuple of sampled types.
    """
    if n < 0:
        raise SchemaError(f"spine depth must be >= 0, got {n}")
    if n == 0:
        return ()
    k = model.k
    if not 1 <= ell <= k:
        raise SchemaError(f"type {ell} outside 1..{k}")
    p_rows = _survival_rows(model, n)
    if p_rows[n][ell - 1] <= 0.0:
        raise ImpossibleConditioningError(
            f"type {ell} cannot have surviving progeny {n} generations on"
        )
    sampler = _offspring_sampler(model, ordering)
    levels: list[tuple[int, ...] | None] = [None] * n
    parent_type = ell
    for level in range(n, 0, -1):
        kept = _kept_offspring(sampler, p_rows[level - 1], parent_type, rng)
        levels[level - 1] = tuple(kept)
        parent_type = kept[0]
    return tuple(levels)


def dchain_step(
    model,
    state: DState,
    rng,
    ordering: str | None = None,
) -> tuple[DState, int, tuple[int, ...]]:
    """One chain transition; returns (next state, A_i, lineage types).

    Levels above A_i carry over unchanged, level A_i loses its first
    entry, and levels below A_i come from a fresh spine sample initiated
    by the new lineage representative (the old level-A_i second entry).
    A state of all-singleton levels cannot step and raises CensoredError.
    """
    a = state.coalescence_level()
    if a is None:
        raise CensoredError(
            f"no coalescence within horizon {state.horizon}; widen the horizon"
        )
    shifted = state.levels[a - 1][1:]
    new_spine_type = shifted[0]
    spine = sample_eta(model, a - 1, new_spine_type, rng, ordering=ordering)
    # the spine gives a - 1 nonempty levels of sampled types, shifted is
    # nonempty because level a held two or more, and the rest carry over:
    # exactly horizon valid levels, so the state skips the checks
    new_levels = spine + (shifted,) + state.levels[a:]
    nxt = DState._trusted(state.i + 1, new_levels, state.horizon)
    lineage = tuple([lvl[0] for lvl in new_levels[:a]])
    return nxt, a, lineage


def init_quasistationary(
    model,
    T: int,
    rng,
    ordering: str | None = None,
    root_type: int = 1,
) -> DState:
    """Chain start at horizon T: the state of the leftmost standing
    individual of a depth-T tree with a type-`root_type` root, conditioned
    on survival.

    That state coincides in law with the spine sample below a depth-T
    ancestor of the root type and is generated that way (no full tree is
    built, so supercritical models stay tractable).  It is the planar
    embedding the coalescent point process is read from, at a finite
    horizon rather than in the infinitely old population.
    """
    if T < 1:
        raise SchemaError(f"horizon must be >= 1, got {T}")
    levels = sample_eta(model, T, root_type, rng, ordering=ordering)
    return DState._trusted(1, levels, T)


def extract_dstates(tree: PlanarTree) -> list[DState]:
    """Per-standing-individual chain states read off a simulated tree."""
    w = tree.width
    if w < 1:
        raise SchemaError("standing population is empty")
    T = tree.horizon
    anc = list(_forest._ancestor_walk(tree))
    # surviving[n]: flags of layer T - n; a node survives iff it is the
    # depth-n ancestor of some standing individual
    surviving = [np.zeros(len(t), dtype=bool) for t in reversed(tree.types)]
    for flags, level in zip(surviving, anc):
        flags[level - 1] = True
    states = []
    for i in range(1, w + 1):
        levels = []
        for n in range(1, T + 1):
            node = int(anc[n][i - 1])
            rep = int(anc[n - 1][i - 1])
            layer = T - n + 1
            children = tree.parents[layer] == node
            idx = np.flatnonzero(children) + 1
            keep = idx[(idx >= rep) & surviving[n - 1][idx - 1]]
            levels.append(tuple(int(tree.types[layer][c - 1]) for c in keep))
        states.append(DState(i=i, levels=tuple(levels), horizon=T))
    return states


def _check_linkage(states: list[DState]) -> list[int]:
    """Verify consecutive states are step-consistent; return the A values."""
    a_vals = []
    for s, nxt in zip(states, states[1:]):
        a = s.coalescence_level()
        if a is None:
            raise InconsistentStateError(
                f"state {s.i} has no coalescence within its horizon"
            )
        if nxt.levels[a:] != s.levels[a:]:
            raise InconsistentStateError(
                f"states {s.i} and {nxt.i} differ above the coalescence level"
            )
        if nxt.levels[a - 1] != s.levels[a - 1][1:]:
            raise InconsistentStateError(
                f"state {nxt.i} level {a} is not the left shift of its predecessor"
            )
        a_vals.append(a)
    return a_vals


def reconstruct_tree(states: list[DState], root_type: int = 1) -> PlanarTree:
    """Ancestral tree of the standing individuals behind a state sequence.

    The states determine every node type except the deepest (generation
    -T) ancestor, whose offspring but not own type appear in the levels;
    root_type fills it in.  Output coalescence times reproduce the A and
    lineage values of the originating steps exactly.
    """
    if not states:
        raise SchemaError("need at least one state")
    T = states[0].horizon
    if any(s.horizon != T for s in states):
        raise InconsistentStateError("states disagree on the horizon")
    n_ind = len(states)
    a_vals = _check_linkage(states)
    # block structure: individuals i and i+1 share the gen -n ancestor
    # iff A_i <= n; blocks are consecutive runs under that relation
    types_layers: list[np.ndarray] = []
    parent_layers: list[np.ndarray] = []
    prev_block_of: np.ndarray | None = None
    for n in range(T, -1, -1):
        block_of = np.zeros(n_ind, dtype=np.int64)
        b = 0
        for i in range(1, n_ind):
            if a_vals[i - 1] > n:
                b += 1
            block_of[i] = b
        n_blocks = b + 1
        types = np.zeros(n_blocks, dtype=np.int64)
        for blk in range(n_blocks):
            members = np.flatnonzero(block_of == blk)
            if n == T:
                types[blk] = root_type
                continue
            vals = {states[i].levels[n][0] for i in members}
            if len(vals) != 1:
                raise InconsistentStateError(
                    f"states disagree on the generation {-n} ancestor type"
                )
            types[blk] = vals.pop()
        if prev_block_of is None:
            parents = np.zeros(n_blocks, dtype=np.int64)
        else:
            parents = np.zeros(n_blocks, dtype=np.int64)
            for blk in range(n_blocks):
                member = int(np.flatnonzero(block_of == blk)[0])
                parents[blk] = prev_block_of[member] + 1
        types_layers.append(types)
        parent_layers.append(parents)
        prev_block_of = block_of
    return PlanarTree(
        root_generation=-T,
        types=tuple(types_layers),
        parents=tuple(parent_layers),
    )
