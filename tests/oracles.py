"""Independent routes that the tests check the package against.

None of these run in a task, so they live beside the tests rather than in
`mtcpp`:

- `oracle_enumerate` enumerates descendant outcomes exhaustively on small
  finite-support models, a brute-force route to the first-pair laws.
- `intensity_check` checks the pair and per-type coalescence intensities
  against each other for any tail functions.
- `spine_decomposition_test` is a Monte Carlo check of the conditional
  independence of the subtrees around the leftmost surviving lineage.
- `lf_to_modelspec` truncates an LF law to a finite-support spec, so the
  finite-support arithmetic can check the LF closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import factorial

import numpy as np
from scipy import stats

from mtcpp import forest
from mtcpp.analytics import CONDITIONING_FLOOR, _check_typestring
from mtcpp.errors import (
    GuardError,
    ImpossibleConditioningError,
    NumericConsistencyError,
    SchemaError,
)
from mtcpp.lf import LFParams
from mtcpp.model import ModelSpec, mean_matrix, survival_vector


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
    child_types = tuple(int(t) for t in tree.types[1])
    ancestors = list(forest._ancestor_walk(tree))[tree.horizon - 1]
    surviving_children = set(ancestors.tolist())
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
        tree = forest.simulate_standing(spec, n + 1, 1, rng, root_type=root_type)
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
            stat, pval = stats.chisquare(obs, exp)
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


# -- truncated linear-fractional law -----------------------------------------


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def lf_to_modelspec(params: LFParams, truncate_at: int) -> ModelSpec:
    """Finite-support approximation of the LF pmf.

    Keeps offspring vectors with total count <= truncate_at and
    renormalizes.  The dropped geometric tail has mass
    (1 - h_{l0}) (m/(1+m))^truncate_at per parent type; the call refuses
    to truncate if that exceeds 1e-10.
    """
    k, m = params.k, params.m
    q = m / (1.0 + m)
    worst = float((1.0 - params.h0).max()) * q**truncate_at
    if worst >= 1e-10:
        raise GuardError(
            f"truncate_at={truncate_at} leaves mass {worst:.3e} >= 1e-10 in the geometric tail"
        )
    log_g = np.where(params.g > 0, np.log(np.where(params.g > 0, params.g, 1.0)), -np.inf)
    pmf: dict[int, dict[tuple[int, ...], float]] = {}
    for ell in range(1, k + 1):
        rows: dict[tuple[int, ...], float] = {(0,) * k: float(params.h0[ell - 1])}
        for first in range(k):
            h = float(params.H[ell - 1, first])
            if h == 0.0:
                continue
            for j in range(truncate_at):
                base = h * q**j / (1.0 + m)
                for w in _compositions(j, k):
                    if any(w[i] > 0 and params.g[i] == 0.0 for i in range(k)):
                        continue
                    logmult = math.lgamma(j + 1) - sum(math.lgamma(c + 1) for c in w)
                    weight = base * math.exp(logmult + sum(c * lg for c, lg in zip(w, log_g) if c))
                    key = tuple(w[i] + (1 if i == first else 0) for i in range(k))
                    rows[key] = rows.get(key, 0.0) + weight
        total = sum(rows.values())
        pmf[ell] = {z: p / total for z, p in rows.items()}
    return ModelSpec.from_pmf(pmf, k=k)
