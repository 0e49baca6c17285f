"""Closed-form ancestry laws, exact enumeration oracles, and statistical
structure tests.

The central objects are the laws of the first coalescence time A1 (depth of
the most recent common ancestor of the first two standing individuals) and
its same-type counterpart B1, jointly with the types along the ancestral
lineage.  Everything here is deterministic except spine_decomposition_test,
which is a Monte Carlo check of the conditional independence structure of
subtrees around the leftmost surviving lineage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GuardError,
    ImpossibleConditioningError,
    NumericConsistencyError,
    SchemaError,
)
from .model import (
    ModelSpec,
    _orbit_start,
    complement_orbit,
    mean_matrix,
    pgf_partial,
    survival_vector,
)

# Conditioning events below this mass are treated as impossible rather than
# producing 0/0 noise.
CONDITIONING_FLOOR = 1e-14

# Largest tolerable truncated mass in exact population-size propagation.
DEFICIT_BUDGET = 1e-10

TypeString = tuple[int, ...]


def _check_typestring(k: int, a) -> TypeString:
    a = tuple(int(t) for t in a)
    if not a:
        raise SchemaError("type string must be nonempty")
    if any(t < 1 or t > k for t in a):
        raise SchemaError(f"type string entries must lie in 1..{k}, got {a}")
    return a


# -- exact population-size propagation ---------------------------------------


@dataclass(frozen=True)
class PopsizeLaw:
    """Distribution of the generation-n population count vector.

    probs maps count-vectors (length-k tuples) to probabilities.  deficit is
    the mass of trajectories that left the [0, cap)^k box at some generation;
    stored probabilities are exact lower bounds and sum to 1 - deficit.
    """

    k: int
    n: int
    root: int
    cap: int
    probs: dict[tuple[int, ...], float]
    deficit: float

    def prob(self, z) -> float:
        return self.probs.get(tuple(int(c) for c in z), 0.0)

    def marginal(self, ell: int) -> np.ndarray:
        """Distribution of coordinate ell as a length-cap array."""
        if ell < 1 or ell > self.k:
            raise SchemaError(f"type index {ell} out of range 1..{self.k}")
        out = np.zeros(self.cap)
        for z, p in self.probs.items():
            out[z[ell - 1]] += p
        return out

    def total_mass(self) -> float:
        return float(sum(self.probs.values()))


def _offspring_grid(spec: ModelSpec, ell: int, cap: int) -> np.ndarray:
    """Single-parent offspring pmf of type ell on a [0, cap)^k dense grid.

    Rows outside the box are dropped; the propagation's deficit counts them.
    """
    grid = np.zeros((cap,) * spec.k)
    for z, p in zip(spec.counts[ell - 1], spec.probs[ell - 1]):
        if np.all(z < cap):
            grid[tuple(int(c) for c in z)] += float(p)
    return grid


def _power_table(pmf: np.ndarray, cap: int) -> np.ndarray:
    """T[m] = pmf of the sum of m iid offspring draws, truncated to the box.

    Truncation keeps only trajectories whose partial sums stay inside the
    box, so every entry is an exact lower bound on the true probability.
    """
    k = pmf.ndim
    shape = pmf.shape
    table = np.zeros((cap,) + shape)
    table[0][(0,) * k] = 1.0
    nz = np.argwhere(pmf > 0)
    weights = pmf[tuple(nz.T)]
    for m in range(1, cap):
        prev = table[m - 1]
        out = table[m]
        for z, w in zip(nz, weights):
            src = tuple(slice(0, shape[d] - z[d]) for d in range(k))
            dst = tuple(slice(z[d], shape[d]) for d in range(k))
            out[dst] += w * prev[src]
    return table


def _propagate_dense(spec: ModelSpec, n: int, root: int, cap: int) -> tuple[np.ndarray, float]:
    k = spec.k
    offspring = [_offspring_grid(spec, ell, cap) for ell in range(1, k + 1)]
    q = np.zeros((cap,) * k)
    start = [0] * k
    start[root - 1] = 1
    q[tuple(start)] = 1.0
    if k == 1:
        table = _power_table(offspring[0], cap)
        for _ in range(n):
            q = q @ table.reshape(cap, cap)
        return q, float(1.0 - q.sum())
    # k == 2: fold type-1 parents by matrix product in the space domain,
    # then type-2 parents in the frequency domain at double resolution
    # (supports stay below 2*cap, so the transform cannot wrap).
    P = 2 * cap
    table1 = _power_table(offspring[0], cap).reshape(cap, cap * cap)
    phi2 = np.fft.rfft2(offspring[1], s=(P, P))
    for _ in range(n):
        u = (q.T @ table1).reshape(cap, cap, cap)
        acc = np.zeros((P, P // 2 + 1), dtype=complex)
        power = np.ones_like(acc)
        for z2 in range(cap):
            acc += power * np.fft.rfft2(u[z2], s=(P, P))
            power = power * phi2
        full = np.fft.irfft2(acc, s=(P, P))
        q = np.clip(full[:cap, :cap], 0.0, None)
        # transform round-off leaves +-1e-17 debris in empty cells
        q[q < 1e-15] = 0.0
    return q, float(1.0 - q.sum())


def _sparse_powers(spec: ModelSpec, ell: int, m: int, cap: int, memo) -> dict:
    key = (ell, m)
    if key in memo:
        return memo[key]
    if m == 0:
        out = {(0,) * spec.k: 1.0}
    else:
        prev = _sparse_powers(spec, ell, m - 1, cap, memo)
        out: dict[tuple[int, ...], float] = {}
        for z, p in zip(spec.counts[ell - 1], spec.probs[ell - 1]):
            zt = tuple(int(c) for c in z)
            for w, q in prev.items():
                y = tuple(a + b for a, b in zip(w, zt))
                if any(c >= cap for c in y):
                    continue
                out[y] = out.get(y, 0.0) + float(p) * q
    memo[key] = out
    return out


def _propagate_sparse(spec: ModelSpec, n: int, root: int, cap: int) -> tuple[dict, float]:
    k = spec.k
    start = [0] * k
    start[root - 1] = 1
    q = {tuple(start): 1.0}
    memo: dict = {}
    for _ in range(n):
        nxt: dict[tuple[int, ...], float] = {}
        for z, pz in q.items():
            parts = [_sparse_powers(spec, ell, z[ell - 1], cap, memo) for ell in range(1, k + 1)]
            acc = {(0,) * k: pz}
            for part in parts:
                new: dict[tuple[int, ...], float] = {}
                for y, py in acc.items():
                    for w, pw in part.items():
                        s = tuple(a + b for a, b in zip(y, w))
                        if any(c >= cap for c in s):
                            continue
                        new[s] = new.get(s, 0.0) + py * pw
                acc = new
            for y, py in acc.items():
                nxt[y] = nxt.get(y, 0.0) + py
        q = nxt
    return q, float(1.0 - sum(q.values()))


def conditioned_popsize_law(spec: ModelSpec, n: int, root: int, cap: int) -> PopsizeLaw:
    """Distribution of the population count vector after n generations.

    Exact propagation truncated to the [0, cap)^k box; the discarded mass is
    tracked and must stay below 1e-10 or the cap is declared too small.
    A1_tail and B1_tail do not use it: it is kept as an independent route
    that the tests check them against.
    """
    if n < 0:
        raise SchemaError(f"generation count must be >= 0, got {n}")
    if root < 1 or root > spec.k:
        raise SchemaError(f"root type {root} out of range 1..{spec.k}")
    if cap < 2:
        raise SchemaError(f"cap must be >= 2, got {cap}")
    # the dense path stores cap power tables of cap**k cells each
    if spec.k == 2 and cap > 320:
        raise GuardError(f"cap {cap} needs more than ~300 MB for k=2; split the query")
    if spec.k == 1 and cap > 4096:
        raise GuardError(f"cap {cap} exceeds the k=1 table bound 4096")
    if spec.k <= 2:
        grid, deficit = _propagate_dense(spec, n, root, cap)
        probs = {
            tuple(int(c) for c in z): float(grid[tuple(z)])
            for z in np.argwhere(grid > 0.0)
        }
    else:
        probs, deficit = _propagate_sparse(spec, n, root, cap)
    deficit = max(deficit, 0.0)
    if deficit > DEFICIT_BUDGET:
        raise GuardError(
            f"cap {cap} too small: truncated mass {deficit:.3e} exceeds {DEFICIT_BUDGET}"
        )
    return PopsizeLaw(k=spec.k, n=n, root=root, cap=cap, probs=probs, deficit=deficit)


# -- first-pair laws ---------------------------------------------------------
#
# A and B_ell are one law at two start points: survival means any standing
# descendant for A (ell None, orbit from s = 0) and a standing type-ell
# descendant for B_ell (orbit from s = 1 - e_ell).  Each body takes ell.


def _cannot_survive(top: int, ell: int | None, n: int) -> str:
    if ell is None:
        return f"type {top} cannot survive {n} generations"
    return f"type {top} cannot have type-{ell} descendants after {n} generations"


def _joint_law(spec: ModelSpec, a: TypeString, ell: int | None) -> float:
    n = len(a) - 1
    start = _orbit_start(spec.k, ell)
    p = complement_orbit(spec, n, start)
    norm = float(p[n][a[n] - 1])
    if norm < CONDITIONING_FLOOR:
        raise ImpossibleConditioningError(
            f"{_cannot_survive(a[n], ell, n)} (probability {norm:.3e})"
        )
    value = 1.0
    for nprime in range(1, n + 1):
        s = 1.0 - p[nprime - 1]
        if nprime == 1:
            # at the standing level only the individual itself counts, so
            # the evaluation point one generation up is the start point
            assert np.array_equal(s, start)
        value *= pgf_partial(spec, a[nprime], a[nprime - 1], s)
    return value / norm


def joint_A1_law(spec: ModelSpec, a) -> float:
    """Probability that the first pair's coalescence is deeper than n and the
    ancestral types read a, given the generation -n ancestor's type.

    a lists the lineage types a[0] (standing) through a[n] (the conditioning
    generation -n ancestor); the returned value is the conditional joint
    probability of {A1 > n, lineage prefix = a[0..n-1]}.
    """
    return _joint_law(spec, _check_typestring(spec.k, a), None)


def joint_B1_law(spec: ModelSpec, a, ell: int) -> float:
    """Same-type analogue of joint_A1_law for standing type ell.

    a[0] must equal ell; survival means having at least one standing type-ell
    descendant, and the returned probability is of {B1 > n, lineage = a}
    conditioned on the generation -n ancestor's type having such descendants.
    """
    a = _check_typestring(spec.k, a)
    if ell < 1 or ell > spec.k:
        raise SchemaError(f"type index {ell} out of range 1..{spec.k}")
    if a[0] != ell:
        raise SchemaError(f"lineage must stand on a type-{ell} individual, got a[0]={a[0]}")
    return _joint_law(spec, a, ell)


def _tail(spec: ModelSpec, ell: int | None, top_type: int, n: int) -> float:
    """P(exactly one surviving standing descendant | at least one).

    The chain rule makes the Jacobian of f^(n) at the start point s the
    product Df(f^(n-1)(s)) ... Df(f^(0)(s)); one walk along the orbit
    applies it right to left to 1 - f^(0)(s), all ones for A and e_ell for
    B.  Entry i is the single-descendant probability of a type-i root.
    """
    if n < 0:
        raise SchemaError(f"generation count must be >= 0, got {n}")
    if top_type < 1 or top_type > spec.k:
        raise SchemaError(f"type index {top_type} out of range 1..{spec.k}")
    q = complement_orbit(spec, n, _orbit_start(spec.k, ell))
    singles = q[0]
    types = range(1, spec.k + 1)
    for j in range(n):
        point = 1.0 - q[j]
        jac = np.array([[pgf_partial(spec, i, t, point) for t in types] for i in types])
        singles = jac @ singles
    alive = q[n][top_type - 1]
    if alive < CONDITIONING_FLOOR:
        raise ImpossibleConditioningError(_cannot_survive(top_type, ell, n))
    return float(singles[top_type - 1] / alive)


def A1_tail(spec: ModelSpec, top_type: int, n: int) -> float:
    """P(exactly one standing descendant | any, root type top_type, n generations)."""
    return _tail(spec, None, top_type, n)


def B1_tail(spec: ModelSpec, ell: int, top_type: int, n: int) -> float:
    """P(exactly one standing type-ell descendant | at least one, root top_type)."""
    if ell < 1 or ell > spec.k:
        raise SchemaError(f"type index {ell} out of range 1..{spec.k}")
    return _tail(spec, ell, top_type, n)


# -- exhaustive small-instance oracle ----------------------------------------

_MANY = "many"
_NONE = "none"


@dataclass(frozen=True)
class EventQuery:
    """Event descriptor for oracle_enumerate.

    kind: "a_joint" (needs a), "a_tail" (needs top), "b_joint" (needs a and
    ell), "b_tail" (needs ell and top).  Lineages a run bottom-up: a[0] is
    the standing individual, a[n] the deepest ancestor.
    """

    kind: str
    a: tuple[int, ...] | None = None
    ell: int | None = None
    top: int | None = None


def _summary_distribution(spec: ModelSpec, root: int, depth: int, target: int | None, memo) -> dict:
    """Exact law of (number of qualifying standing descendants, lineage).

    Qualifying means any type when target is None, else type == target.
    Keys: _NONE (zero), a lineage tuple (exactly one; types bottom-up
    excluding the root), or _MANY.
    """
    key = (root, depth)
    if key in memo:
        return memo[key]
    if depth == 0:
        out = {(): 1.0} if target is None or root == target else {_NONE: 1.0}
        memo[key] = out
        return out
    out: dict = {}
    for z, pz in zip(spec.counts[root - 1], spec.probs[root - 1]):
        acc = {_NONE: 1.0}
        for t in range(1, spec.k + 1):
            sub = _summary_distribution(spec, t, depth - 1, target, memo)
            for _ in range(int(z[t - 1])):
                new: dict = {}
                for ka, pa in acc.items():
                    for kb, pb in sub.items():
                        if ka is _NONE:
                            merged = kb if kb in (_NONE, _MANY) else kb + (t,)
                        elif kb is _NONE:
                            merged = ka
                        else:
                            merged = _MANY
                        new[merged] = new.get(merged, 0.0) + pa * pb
                acc = new
        for kk, pp in acc.items():
            out[kk] = out.get(kk, 0.0) + float(pz) * pp
    memo[key] = out
    return out


def oracle_enumerate(spec: ModelSpec, n: int, event: EventQuery) -> float:
    """Brute-force probability of first-pair coalescence events.

    Independent of the closed-form product laws: exhaustively enumerates
    descendant outcomes generation by generation, merging equivalent
    summaries exactly.  Guarded to small instances.
    """
    if spec.k > 3:
        raise GuardError(f"oracle limited to k <= 3, got {spec.k}")
    if spec.max_support > 3:
        raise GuardError(f"oracle limited to max_support <= 3, got {spec.max_support}")
    if n > 4:
        raise GuardError(f"oracle limited to n <= 4, got {n}")
    if n < 0:
        raise SchemaError(f"generation count must be >= 0, got {n}")
    if event.kind not in ("a_joint", "a_tail", "b_joint", "b_tail"):
        raise SchemaError(f"unknown event kind {event.kind!r}")
    target = None
    if event.kind.startswith("b_"):
        if event.ell is None:
            raise SchemaError(f"{event.kind} query needs ell")
        target = event.ell
    # the event kind picks the root and the mass returned; nothing else
    joint = event.kind.endswith("_joint")
    if joint:
        if event.a is None:
            raise SchemaError(f"{event.kind} query needs a lineage")
        a = _check_typestring(spec.k, event.a)
        if len(a) != n + 1:
            raise SchemaError(f"lineage length {len(a)} does not match n={n}")
        if target is not None and a[0] != target:
            raise SchemaError("lineage must stand on a type-ell individual")
        root = a[n]
    else:
        if event.top is None:
            raise SchemaError(f"{event.kind} query needs a top type")
        if event.top < 1 or event.top > spec.k:
            raise SchemaError(f"type index {event.top} out of range 1..{spec.k}")
        root = event.top
    dist = _summary_distribution(spec, root, n, target, {})
    alive = 1.0 - dist.get(_NONE, 0.0)
    if alive < CONDITIONING_FLOOR:
        raise ImpossibleConditioningError("conditioning event has no mass")
    if joint:
        return dist.get(a[:n], 0.0) / alive
    one = sum(p for kk, p in dist.items() if kk not in (_NONE, _MANY))
    return one / alive


# -- intensity bookkeeping ---------------------------------------------------


@dataclass(frozen=True)
class IntensityRow:
    n: int
    nu_a: float
    nu_b: tuple[float, ...]
    identity_gap: float
    weighted_b_sum: float


@dataclass(frozen=True)
class IntensityReport:
    rows: tuple[IntensityRow, ...]
    max_identity_gap: float
    subpartition_strict: bool


def intensity_check(pA, pB, g, n_max: int, tol: float = 1e-9) -> IntensityReport:
    """Consistency of the per-pair and per-type coalescence intensities.

    pA(n) and pB[ell](n) are tail functions P(A1 > n) and P(B1 > n | the
    standing individual has type ell+1).  Verifies for n = 1..n_max that

        P(B <= n) = P(A <= n) g_ell / (P(A > n) + P(A <= n) g_ell)

    and that the type-resolved coalescence intensities, carried at their
    per-individual densities g_ell, strictly under-fill the pair intensity:
    sum_ell g_ell P(B_ell <= n) < P(A <= n) whenever 0 < P(A <= n) and
    P(A > n) > 0.  With a single type (g = 1) the two sides coincide
    exactly and only the identity is enforced.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 1 or len(g) != len(pB):
        raise SchemaError("need one tail function and one weight per type")
    if np.any(g <= 0) or abs(g.sum() - 1.0) > 1e-9:
        raise SchemaError("type weights must be positive and sum to 1")
    if n_max < 1:
        raise SchemaError(f"n_max must be >= 1, got {n_max}")
    rows = []
    worst = 0.0
    for n in range(1, n_max + 1):
        tail_a = float(pA(n))
        nu_a = 1.0 - tail_a
        nu_b = []
        gaps = []
        for ell, fn in enumerate(pB):
            lhs = 1.0 - float(fn(n))
            rhs = nu_a * g[ell] / (tail_a + nu_a * g[ell])
            gap = abs(lhs - rhs)
            if gap > tol:
                raise NumericConsistencyError(
                    f"intensity identity off by {gap:.3e} at n={n}, type {ell + 1}"
                )
            nu_b.append(lhs)
            gaps.append(gap)
        worst = max(worst, *gaps)
        weighted = float(g @ np.array(nu_b))
        if len(pB) > 1 and nu_a > 0.0 and tail_a > 0.0 and not weighted < nu_a:
            raise NumericConsistencyError(
                f"type-resolved intensities fill the pair intensity at n={n}: "
                f"{weighted!r} vs {nu_a!r}"
            )
        if weighted > nu_a + tol:
            raise NumericConsistencyError(
                f"type-resolved intensities exceed the pair intensity at n={n}"
            )
        rows.append(
            IntensityRow(
                n=n,
                nu_a=nu_a,
                nu_b=tuple(nu_b),
                identity_gap=max(gaps),
                weighted_b_sum=weighted,
            )
        )
    # a non-strict subpartition raises above, so every returned report is strict
    return IntensityReport(rows=tuple(rows), max_identity_gap=worst, subpartition_strict=True)


# -- spine decomposition test ------------------------------------------------


@dataclass(frozen=True)
class SpineReport:
    samples: int
    joint_max_z: float
    joint_cells: int
    chi2_pvalues: dict[str, float] = field(hash=False)
    post_mean_max_z: float = 0.0
    passed: bool = True


def _first_generation_stats(tree) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """(ordered child types, rank of first child with standing progeny,
    per-child first-generation sizes within their subtrees)."""
    from . import forest as _forest

    child_types = tuple(int(t) for t in tree.types[1])
    anc = _forest._ancestor_levels(tree)
    surviving_children = set(int(c) for c in anc[tree.horizon - 1])
    rank = min(surviving_children)
    grandparents = tree.parents[2] if tree.horizon >= 2 else np.zeros(0, dtype=np.int64)
    sizes = tuple(int(np.sum(grandparents == c + 1)) for c in range(len(child_types)))
    return child_types, rank, sizes


def spine_decomposition_test(
    spec: ModelSpec, n: int, samples: int, rng, root_type: int = 1
) -> SpineReport:
    """Monte Carlo check of subtree independence around the first surviving child.

    Trees are conditioned on standing progeny after n+1 generations.  The
    joint frequency of (ordered first-generation types, rank R of the first
    child with standing progeny) is compared against the product formula
    P(z) P(order) p_n(d_R) prod_{i<R} (1 - p_n(d_i)) / p_{n+1}(root), and the
    first-generation size inside each subtree is chi-squared against its
    predicted law: extinct-conditioned left of R, survival-conditioned at R,
    unconditioned right of R.
    """
    from math import factorial

    from scipy import stats as _stats

    from . import forest as _forest

    if n < 1:
        raise SchemaError(f"depth must be >= 1, got {n}")
    p_n = survival_vector(spec, n)
    p_top = survival_vector(spec, n + 1)
    p_prev = survival_vector(spec, n - 1)
    if p_top[root_type - 1] < CONDITIONING_FLOOR:
        raise ImpossibleConditioningError(
            f"type {root_type} cannot survive {n + 1} generations"
        )
    joint_counts: dict[tuple[tuple[int, ...], int], int] = {}
    size_counts: dict[str, dict[tuple[int, int], int]] = {
        "pre": {},
        "at": {},
        "post": {},
    }
    post_sizes: dict[int, list[int]] = {}
    for _ in range(samples):
        tree = _forest.simulate_standing(spec, n + 1, 1, rng, root_type=root_type)
        d, rank, sizes = _first_generation_stats(tree)
        key = (d, rank)
        joint_counts[key] = joint_counts.get(key, 0) + 1
        for i, (t, c) in enumerate(zip(d, sizes), start=1):
            cls = "pre" if i < rank else ("at" if i == rank else "post")
            size_counts[cls][(t, c)] = size_counts[cls].get((t, c), 0) + 1
            if cls == "post":
                post_sizes.setdefault(t, []).append(c)

    # joint (types, rank) frequencies against the product formula
    max_z = 0.0
    pmf_by_type = {
        ell: list(zip(spec.counts[ell - 1], spec.probs[ell - 1]))
        for ell in range(1, spec.k + 1)
    }
    checked = 0
    for (d, rank), cnt in joint_counts.items():
        z = np.zeros(spec.k, dtype=np.int64)
        for t in d:
            z[t - 1] += 1
        pz = 0.0
        for zz, pp in pmf_by_type[root_type]:
            if np.array_equal(zz, z):
                pz = float(pp)
        order = np.prod([factorial(int(c)) for c in z]) / factorial(len(d))
        expect = (
            pz
            * order
            * p_n[d[rank - 1] - 1]
            * np.prod([1.0 - p_n[d[i] - 1] for i in range(rank - 1)])
            / p_top[root_type - 1]
        )
        if expect * samples < 5:
            continue
        checked += 1
        se = np.sqrt(expect * (1 - expect) / samples)
        if se == 0.0:
            # a probability-one cell: every conditioned tree must land here
            if cnt != samples:
                max_z = np.inf
            continue
        max_z = max(max_z, abs(cnt / samples - expect) / se)

    # per-class first-generation size laws
    def class_law(cls: str, t: int) -> dict[int, float]:
        out: dict[int, float] = {}
        for zz, pp in pmf_by_type[t]:
            c = int(zz.sum())
            if cls == "pre":
                w = float(pp) * float(np.prod((1.0 - p_prev) ** zz)) / (1.0 - p_n[t - 1])
            elif cls == "at":
                w = float(pp) * (1.0 - float(np.prod((1.0 - p_prev) ** zz))) / p_n[t - 1]
            else:
                w = float(pp)
            out[c] = out.get(c, 0.0) + w
        return out

    pvalues: dict[str, float] = {}
    for cls, counts in size_counts.items():
        if not counts:
            continue
        by_type: dict[int, dict[int, int]] = {}
        for (t, c), cnt in counts.items():
            by_type.setdefault(t, {})[c] = cnt
        worst_p = 1.0
        for t, obs_map in by_type.items():
            law = class_law(cls, t)
            total = sum(obs_map.values())
            cats = sorted(set(obs_map) | {c for c, w in law.items() if w > 0})
            obs = np.array([obs_map.get(c, 0) for c in cats], dtype=float)
            exp = np.array([law.get(c, 0.0) * total for c in cats])
            keep = exp >= 5
            if keep.sum() < 2 or (~keep).any() and exp[~keep].sum() + obs[~keep].sum() > 0:
                obs = np.append(obs[keep], obs[~keep].sum())
                exp = np.append(exp[keep], exp[~keep].sum())
                if exp[-1] == 0:
                    if obs[-1] > 0:
                        worst_p = 0.0
                        continue
                    obs, exp = obs[:-1], exp[:-1]
            else:
                obs, exp = obs[keep], exp[keep]
            if len(obs) < 2:
                continue
            exp *= obs.sum() / exp.sum()
            stat, pval = _stats.chisquare(obs, exp)
            worst_p = min(worst_p, float(pval))
        pvalues[cls] = worst_p

    # unconditioned subtrees: mean first-generation size against the mean matrix
    M1 = mean_matrix(spec) @ np.ones(spec.k)
    post_z = 0.0
    for t, vals in post_sizes.items():
        arr = np.array(vals, dtype=float)
        if len(arr) < 30:
            continue
        se = arr.std(ddof=1) / np.sqrt(len(arr))
        if se > 0:
            post_z = max(post_z, abs(arr.mean() - M1[t - 1]) / se)

    passed = (
        max_z <= 3.0
        and all(p > 0.01 for p in pvalues.values())
        and post_z <= 3.0
    )
    return SpineReport(
        samples=samples,
        joint_max_z=float(max_z),
        joint_cells=checked,
        chi2_pvalues=pvalues,
        post_mean_max_z=float(post_z),
        passed=passed,
    )


# -- tabulated laws ----------------------------------------------------------


@dataclass(frozen=True)
class LawRow:
    formula: str
    model: str
    n: int
    conditioning: str
    value: float

    def __post_init__(self) -> None:
        if not -1e-12 <= self.value <= 1.0 + 1e-12:
            raise SchemaError(
                f"law value {self.value!r} outside [0, 1] for {self.formula} n={self.n}"
            )
        if self.n < 0:
            raise SchemaError(f"law row generation must be >= 0, got {self.n}")


@dataclass(frozen=True)
class LawTable:
    rows: tuple[LawRow, ...]

    def check_tails_monotone(self, tol: float = 1e-12) -> None:
        """Tail probabilities must not increase with depth."""
        groups: dict[tuple[str, str, str], list[LawRow]] = {}
        for row in self.rows:
            groups.setdefault((row.formula, row.model, row.conditioning), []).append(row)
        for key, rows in groups.items():
            rows = sorted(rows, key=lambda r: r.n)
            for a, b in zip(rows, rows[1:]):
                if b.value > a.value + tol:
                    raise NumericConsistencyError(
                        f"tail increases from n={a.n} to n={b.n} in {key}"
                    )

    def to_csv(self) -> str:
        lines = ["formula,model,n,conditioning,value"]
        for row in self.rows:
            # "ell=l,anc@n=t" holds a comma: quote it so every row has five fields
            cond = f'"{row.conditioning}"' if "," in row.conditioning else row.conditioning
            lines.append(f"{row.formula},{row.model},{row.n},{cond},{row.value!r}")
        return "\n".join(lines) + "\n"
