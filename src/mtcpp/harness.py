"""Monte Carlo drivers, statistical validation, and file emission.

Tasks are dispatched by `run(config)` and write a fixed set of files into
the output directory: laws.csv (closed-form tables), estimates.csv
(Monte Carlo tails with standard errors), compare.csv (two-sample or
two-family comparisons), tree.tsv (planar tree dump), report.json
(machine-readable pass/fail).  Everything emitted is a deterministic
function of (config, seed): replicate streams are derived by hashing the
master seed with the task id and replicate index.

Validation uses |z| <= 4 per row (about 6e-5 two-sided each).  A single
breached row in an otherwise healthy run is expected roughly once per
10^4 rows; rerun with a fresh seed to tell a flake from a bug.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import dchain, forest
from .analytics import A1_tail, B1_tail, LawRow, LawTable
from .errors import (
    CensoredError,
    GuardError,
    ImpossibleConditioningError,
    InconsistentStateError,
    NumericConsistencyError,
    SchemaError,
    ValidationFailure,
)
from .lf import (
    LFParams,
    lf_coalescence_law,
    lf_sametype_law,
    two_type_compare,
)
from .model import ModelSpec, planar_ordering
from .rng import stream

__all__ = [
    "RunConfig",
    "EstimateRow",
    "KSResult",
    "mc_estimate",
    "ks_compare",
    "run",
]

TASKS = ("simulate", "laws", "validate", "compare-two-type", "dchain")

#: Conservative two-sample Kolmogorov-Smirnov coefficient at the 1% level.
KS_COEFF_1PCT = 1.628

#: Per-row z threshold for the validate task.
Z_LIMIT = 4.0

#: Replicate count for Monte Carlo work.  Each replicate draws from its
#: own stream, keyed by (seed, statistic, replicate index), and replicates
#: merge in index order; the count is fixed because it sets those keys and
#: so the emitted bytes.
REPLICATES = 8


@dataclass(frozen=True)
class RunConfig:
    """Executable description of one harness invocation.

    Exactly one model source must be set: `model` (a finite-support spec
    or LF parameters), or the (g, p, h1, m) tuple of the two-type
    comparison families.  `samples` counts independent replications for
    first-pair statistics and chain transitions for stationary ones.
    """

    task: str
    seed: int
    out_dir: str
    samples: int = 10_000
    horizon: int = 20
    model: ModelSpec | LFParams | None = None
    two_type: tuple[float, float, float, float] | None = None
    ordering: str | None = None
    root_type: int = 1
    n_max: int = 5

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise SchemaError(f"unknown task {self.task!r}; choose from {TASKS}")
        # a config file can hold any JSON value; refuse wrong types here,
        # before a comparison raises TypeError or a float seed is echoed
        for name in ("seed", "samples", "horizon", "root_type", "n_max"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise SchemaError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.out_dir, str):
            raise SchemaError(f"output directory must be a string, got {self.out_dir!r}")
        if not 0 <= self.seed < 2**64:
            raise SchemaError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.samples < 1:
            raise SchemaError(f"samples must be >= 1, got {self.samples}")
        if self.horizon < 1:
            raise SchemaError(f"horizon must be >= 1, got {self.horizon}")
        if self.n_max < 0:
            raise SchemaError(f"n_max must be >= 0, got {self.n_max}")
        if self.model is not None and not isinstance(self.model, (ModelSpec, LFParams)):
            raise SchemaError(
                f"model must be a ModelSpec or LFParams, got {type(self.model).__name__}"
            )
        if (self.model is None) == (self.two_type is None):
            raise SchemaError(
                "exactly one model source required: a model or the two_type block"
            )
        if self.task == "compare-two-type":
            if self.two_type is None:
                raise SchemaError(
                    "compare-two-type needs the two_type parameter block (g, p, h1, m)"
                )
        elif self.two_type is not None:
            raise SchemaError(f"task {self.task!r} needs a model spec or LF parameters")
        if self.two_type is not None:
            values = self.two_type
            real = isinstance(values, (tuple, list)) and all(
                isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values
            )
            if not (real and len(values) == 4 and all(map(math.isfinite, values))):
                raise SchemaError(
                    f"two_type must be four finite real numbers (g, p, h1, m), got {values!r}"
                )
            object.__setattr__(self, "two_type", tuple(map(float, values)))
        # argparse limits --ordering; a config file does not
        planar_ordering(self.model, self.ordering)
        if self.model is not None and not 1 <= self.root_type <= self.model.k:
            raise SchemaError(f"root_type {self.root_type} outside 1..{self.model.k}")
        a_first = self.task == "validate" and "a_first" in _validate_statistics(self.model)
        if a_first and self.n_max > self.horizon - 1:
            # refuse before the law table is built rather than after
            raise SchemaError(
                f"validate on a finite-support model needs n_max <= horizon - 1, "
                f"got n_max={self.n_max}, horizon={self.horizon}"
            )
        if self.task == "dchain":
            # every standing pair is censored when a surviving root always
            # has exactly one standing descendant; the tolerance absorbs the
            # rounding that puts A1_tail a few ulps above 1
            try:
                lone = 1.0 - A1_tail(self.model, self.root_type, self.horizon) <= 1e-12
            except ImpossibleConditioningError:
                lone = False  # the task reports the impossible root itself
            if lone:
                raise SchemaError(
                    f"no pair can coalesce within horizon {self.horizon}: a surviving "
                    f"type-{self.root_type} root has exactly one standing descendant"
                )


@dataclass(frozen=True)
class EstimateRow:
    """One empirical tail estimate, optionally against an analytic value.

    at_risk counts the observations whose indicator at depth n is known;
    censored counts observations excluded from that set (possible only
    for rows deeper than the working horizon).
    """

    statistic: str
    n: int
    estimate: float
    std_error: float
    analytic_value: float | None = None
    z_score: float | None = None
    at_risk: int = 0
    censored: int = 0

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise SchemaError(f"standard error must be >= 0, got {self.std_error}")
        if self.n < 0:
            raise SchemaError(f"row depth must be >= 0, got {self.n}")
        if self.analytic_value is not None and self.std_error > 0:
            want = (self.estimate - self.analytic_value) / self.std_error
            if self.z_score is None or abs(self.z_score - want) > 1e-9:
                raise SchemaError(
                    f"z_score {self.z_score!r} inconsistent with "
                    f"(estimate - analytic) / std_error = {want!r}"
                )


def _make_row(statistic, n, hits, at_risk, censored, analytic) -> EstimateRow:
    est = hits / at_risk
    se = math.sqrt(est * (1.0 - est) / at_risk)
    z = None
    if analytic is not None and se > 0:
        z = (est - analytic) / se
    return EstimateRow(
        statistic=statistic,
        n=n,
        estimate=est,
        std_error=se,
        analytic_value=analytic,
        z_score=z,
        at_risk=at_risk,
        censored=censored,
    )


def estimates_to_csv(rows) -> str:
    lines = ["statistic,n,estimate,std_error,analytic_value,z_score,at_risk,censored"]
    for r in rows:
        analytic = "" if r.analytic_value is None else repr(r.analytic_value)
        z = "" if r.z_score is None else repr(r.z_score)
        lines.append(
            f"{r.statistic},{r.n},{r.estimate!r},{r.std_error!r},"
            f"{analytic},{z},{r.at_risk},{r.censored}"
        )
    return "\n".join(lines) + "\n"


# -- Monte Carlo engine ------------------------------------------------------


def _split_samples(samples: int) -> list[int]:
    reps = min(REPLICATES, samples)
    base, extra = divmod(samples, reps)
    return [base + (1 if r < extra else 0) for r in range(reps)]


def _run_replicates(worker, seed, statistic, samples):
    """Run `worker(count, rng)` per replicate; results in index order."""
    return [
        worker(count, stream(seed, "mc", statistic, r))
        for r, count in enumerate(_split_samples(samples))
    ]


def _first_pair_tallies(model, T, count, rng, ordering, root_type, n_max):
    """Per (n, top-type) conditioning cells from `count` independent chain
    starts (`dchain.init_quasistationary`), each the state of the leftmost
    standing individual of a depth-T tree conditioned on survival.

    cells[(n, t)] = [at_risk, hits]; a state is at risk for (n, t) when its
    depth-n ancestor has type t, and a hit when additionally no coalescence
    occurs at depth <= n.
    """
    k = model.k
    cells = {(n, t): [0, 0] for n in range(n_max + 1) for t in range(1, k + 1)}
    for _ in range(count):
        state = dchain.init_quasistationary(
            model, T, rng, ordering=ordering, root_type=root_type
        )
        a = state.coalescence_level()
        singleton_until = T if a is None else a - 1
        for n in range(n_max + 1):
            t = state.levels[n][0]
            cell = cells[(n, t)]
            cell[0] += 1
            if singleton_until >= n:
                cell[1] += 1
    return cells


def _chain_observations(model, T, rng, ordering, root_type):
    """Endless censored-restart chain: yields (standing type, A or None).

    Each item is one standing individual, its type and its coalescence
    depth with the next one.  None marks a pair that coalesces beyond the
    horizon: the chain cannot step from there and restarts on a new
    state, drawn only when the next item is asked for.
    """
    state = None
    while True:
        if state is None:
            state = dchain.init_quasistationary(
                model, T, rng, ordering=ordering, root_type=root_type
            )
        standing = state.levels[0][0]
        if state.coalescence_level() is None:
            state = None
            yield standing, None
            continue
        state, a, _ = dchain.dchain_step(model, state, rng, ordering=ordering)
        yield standing, a


def _stationary_tallies(model, T, count, rng, ordering, root_type, b_types):
    """Tail counts from `count` items of one censored-restart chain.

    Returns (a_values, a_censored, b_values, b_censored) where values are
    observed times in 1..T and censored counts observations known only to
    exceed T.  b_* are dicts keyed by standing type.
    """
    a_values: list[int] = []
    a_censored = 0
    b_values = {ell: [] for ell in b_types}
    b_censored = {ell: 0 for ell in b_types}
    open_gap = {ell: None for ell in b_types}
    chain = _chain_observations(model, T, rng, ordering, root_type)
    for standing, a in itertools.islice(chain, count):
        for ell in b_types:
            if standing == ell:
                if open_gap[ell] is not None:
                    b_values[ell].append(open_gap[ell])
                open_gap[ell] = 0
        if a is None:
            # the pair coalesces beyond the horizon; any open same-type gap
            # is censored with it
            a_censored += 1
            for ell in b_types:
                if open_gap[ell] is not None:
                    b_censored[ell] += 1
                    open_gap[ell] = None
            continue
        a_values.append(a)
        for ell in b_types:
            if open_gap[ell] is not None and a > open_gap[ell]:
                open_gap[ell] = a
    return a_values, a_censored, b_values, b_censored


def _tail_rows(model, ell, values, censored, T, n_max):
    """Tail rows of A (ell None) or B_ell; exact stationary laws, and so the
    analytic column, are known for LF models only."""
    statistic = "a_stationary" if ell is None else f"b_stationary:{ell}"
    exact = isinstance(model, LFParams)
    values = np.asarray(values, dtype=np.int64)
    total = len(values) + censored
    rows = []
    for n in range(n_max + 1):
        analytic = _exact_tail(model, ell, None, n) if exact else None
        if n <= T:
            # censored observations still resolve the indicator at depth n
            at_risk = total
            hits = int((values > n).sum()) + censored
            excluded = 0
        else:
            at_risk = len(values)
            hits = int((values > n).sum())
            excluded = censored
        if at_risk == 0:
            raise ValidationFailure(
                f"zero at-risk count for {statistic} at depth {n}"
            )
        rows.append(_make_row(statistic, n, hits, at_risk, excluded, analytic))
    return rows


def _exact_tail(model, ell: int | None, top: int | None, n: int) -> float:
    """Exact P(depth > n) of A (ell None) or B_ell; finite-support laws
    condition on the depth-n ancestor's type `top`, LF laws on none.  The
    law functions are called by this module's names, which a tracer wraps."""
    if isinstance(model, LFParams):
        return lf_coalescence_law(model, n) if ell is None else lf_sametype_law(model, ell, n)
    return A1_tail(model, top, n) if ell is None else B1_tail(model, ell, top, n)


def _stationary_pass(model, T, samples, seed, ordering, root_type, n_max, b_types):
    """One censored-restart chain pass of `samples` transitions over the
    replicate streams keyed "stationary": the rows of A and of each B_ell
    in `b_types`, and the observed A values.  Tallying B draws no random
    numbers, so the A part does not depend on `b_types`."""
    parts = _run_replicates(
        lambda count, rng: _stationary_tallies(model, T, count, rng, ordering, root_type, b_types),
        seed, "stationary", samples,
    )
    # each part is (a_values, a_censored, b_values, b_censored)
    a_values = [v for p in parts for v in p[0]]
    if not a_values:
        raise GuardError(
            f"all {samples} chain pairs were censored; the root type may rarely "
            f"reach two standing descendants at horizon {T}"
        )
    rows = _tail_rows(model, None, a_values, sum(p[1] for p in parts), T, n_max)
    for ell in b_types:
        b_values = [v for p in parts for v in p[2][ell]]
        rows += _tail_rows(model, ell, b_values, sum(p[3][ell] for p in parts), T, n_max)
    return rows, a_values


def mc_estimate(
    statistic: str,
    model,
    T: int,
    samples: int,
    seed: int,
    *,
    ordering: str | None = None,
    root_type: int = 1,
    n_max: int = 5,
) -> list[EstimateRow]:
    """Empirical tail estimates with binomial standard errors.

    Statistics:
      - "a_first": first-pair coalescence depth from independent initial
        states, one row per (depth n, ancestor type) conditioning cell,
        against the exact conditioned law `A1_tail`, on either model kind;
        `samples` counts independent states.
      - "stationary": pair coalescence depths (rows `a_stationary`) and
        same-type coalescence depths for every standing type ell (rows
        `b_stationary:<ell>`), all read from one censored-restart chain
        pass; `samples` counts chain transitions.  Analytic column filled
        for LF models.  A pass in which every pair is censored raises
        GuardError.

    Censored observations (deeper than T) stay in the at-risk set for
    rows with n <= T, where their indicator is known; for deeper rows
    they are excluded and the exclusion count is reported per row.
    """
    if samples < 1:
        raise SchemaError(f"samples must be >= 1, got {samples}")
    if T < 1:
        raise SchemaError(f"horizon must be >= 1, got {T}")
    if n_max < 0:
        raise SchemaError(f"n_max must be >= 0, got {n_max}")

    if statistic == "a_first":
        if n_max > T - 1:
            raise SchemaError(
                f"a_first needs n_max <= horizon - 1, got n_max={n_max}, T={T}"
            )
        parts = _run_replicates(
            lambda count, rng: _first_pair_tallies(
                model, T, count, rng, ordering, root_type, n_max
            ),
            seed,
            statistic,
            samples,
        )
        rows = []
        for n in range(n_max + 1):
            for t in range(1, model.k + 1):
                at_risk = sum(p[(n, t)][0] for p in parts)
                hits = sum(p[(n, t)][1] for p in parts)
                if at_risk == 0:
                    continue
                try:
                    analytic = A1_tail(model, t, n)
                except ImpossibleConditioningError:
                    analytic = None
                rows.append(
                    _make_row(f"a_first[top={t}]", n, hits, at_risk, 0, analytic)
                )
        if not rows:
            raise ValidationFailure("zero at-risk count in every conditioning cell")
        return rows

    if statistic == "stationary":
        b_types = range(1, model.k + 1)
        return _stationary_pass(model, T, samples, seed, ordering, root_type, n_max, b_types)[0]

    raise SchemaError(f"unknown statistic {statistic!r}; choose 'a_first' or 'stationary'")


# -- two-sample comparison ---------------------------------------------------


@dataclass(frozen=True)
class KSResult:
    distance: float
    critical: float
    passed: bool
    n_a: int
    n_b: int


def ks_compare(sample_a, sample_b) -> KSResult:
    """Two-sample Kolmogorov-Smirnov test at the 1% level.

    Integer-valued samples; the continuous critical value is used, which
    is conservative for discrete data.
    """
    a = np.asarray(sample_a, dtype=np.int64)
    b = np.asarray(sample_b, dtype=np.int64)
    if a.size == 0 or b.size == 0:
        raise SchemaError("both samples must be nonempty")
    support = np.union1d(a, b)
    cdf_a = np.searchsorted(np.sort(a), support, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), support, side="right") / b.size
    distance = float(np.max(np.abs(cdf_a - cdf_b)))
    critical = KS_COEFF_1PCT * math.sqrt((a.size + b.size) / (a.size * b.size))
    return KSResult(
        distance=distance,
        critical=critical,
        passed=distance <= critical,
        n_a=int(a.size),
        n_b=int(b.size),
    )


def ks_to_csv(results: dict[str, KSResult]) -> str:
    lines = ["comparison,n_a,n_b,distance,critical,passed"]
    for name in sorted(results):
        r = results[name]
        lines.append(
            f"{name},{r.n_a},{r.n_b},{r.distance!r},{r.critical!r},{int(r.passed)}"
        )
    return "\n".join(lines) + "\n"


# -- task implementations ----------------------------------------------------


def _law_table(cfg: RunConfig) -> LawTable:
    """a_tail rows, then b_tail rows by ell: one loop over the start points.

    On a finite-support model each row conditions on its depth-n ancestor's
    type, so rows with different n condition on different events and do
    not form a tail sequence of any one law; only LF tables are checked
    for monotone tails.
    """
    model = cfg.model
    is_lf = isinstance(model, LFParams)
    rows = []
    for ell in (None, *range(1, model.k + 1)):
        for n in range(cfg.n_max + 1):
            for top in (None,) if is_lf else range(1, model.k + 1):
                try:
                    value = _exact_tail(model, ell, top, n)
                except ImpossibleConditioningError:
                    continue
                conditioning = ",".join(
                    ([] if ell is None else [f"ell={ell}"])
                    + ([] if top is None else [f"anc@{n}={top}"])
                )
                rows.append(
                    LawRow(
                        formula="a_tail" if ell is None else "b_tail",
                        model=model.label,
                        n=n,
                        conditioning=conditioning,
                        value=value,
                    )
                )
    table = LawTable(rows=tuple(rows))
    if is_lf:
        table.check_tails_monotone()
    return table


def _task_laws(cfg: RunConfig, out: dict) -> list[dict]:
    table = _law_table(cfg)
    out["laws.csv"] = table.to_csv()
    return [
        {
            "name": "laws_emitted",
            "passed": True,
            "detail": f"{len(table.rows)} rows",
        }
    ]


def _validate_statistics(model) -> list[str]:
    """The statistics `validate` scores: the stationary laws where they are
    known exactly (LF models), the first-pair law otherwise."""
    return ["stationary"] if isinstance(model, LFParams) else ["a_first"]


def _task_validate(cfg: RunConfig, out: dict) -> list[dict]:
    checks = _task_laws(cfg, out)
    rows: list[EstimateRow] = []
    for statistic in _validate_statistics(cfg.model):
        rows.extend(
            mc_estimate(
                statistic,
                cfg.model,
                cfg.horizon,
                cfg.samples,
                cfg.seed,
                ordering=cfg.ordering,
                root_type=cfg.root_type,
                n_max=cfg.n_max,
            )
        )
    out["estimates.csv"] = estimates_to_csv(rows)
    scored = [r for r in rows if r.z_score is not None]
    worst = max((abs(r.z_score) for r in scored), default=0.0)
    ok = all(abs(r.z_score) <= Z_LIMIT for r in scored)
    # a degenerate row (empirical rate exactly 0 or 1) has no standard
    # error; it may only pass by agreeing with the analytic value exactly
    degenerate_ok = all(
        r.estimate == r.analytic_value
        for r in rows
        if r.analytic_value is not None and r.std_error == 0.0
    )
    checks.append(
        {
            "name": "z_scores_within_4",
            "passed": ok and degenerate_ok,
            "detail": f"{len(scored)} scored rows, max |z| = {worst:.3f}",
        }
    )
    if not (ok and degenerate_ok):
        raise ValidationFailure(
            f"validation failed: max |z| = {worst:.3f} over {len(scored)} rows"
            + ("" if degenerate_ok else "; degenerate row off its exact value")
        )
    return checks


def _task_simulate(cfg: RunConfig, out: dict) -> list[dict]:
    rng = stream(cfg.seed, "simulate", 0)
    tree = forest.simulate_standing(
        cfg.model,
        cfg.horizon,
        cfg.samples,
        rng,
        ordering=cfg.ordering,
        root_type=cfg.root_type,
    )
    records = forest.coalescence_times(tree)
    out["tree.tsv"] = forest.dump_tree(tree)
    out["records.csv"] = forest.records_to_csv(records)
    return [
        {
            "name": "standing_population",
            "passed": tree.width >= 1,
            "detail": f"width {tree.width}, {len(records)} consecutive pairs",
        }
    ]


def _task_compare_two_type(cfg: RunConfig, out: dict) -> list[dict]:
    g, p, h1, m = cfg.two_type
    comparison = two_type_compare(g, p, h1, m, max(cfg.n_max, 1))
    out["compare.csv"] = comparison.to_csv()
    checks = []
    tol = 1e-12
    dom1 = all(b1a >= b1s - tol for _, _, b1s, b1a, _, _ in comparison.rows)
    dom2 = all(b2a <= b2s + tol for _, _, _, _, b2s, b2a in comparison.rows)
    checks.append(
        {
            "name": "same_type_dominance",
            "passed": dom1 and dom2,
            "detail": "asymmetric B1 tail above symmetric, B2 tail below",
        }
    )
    if p >= 0.5:
        within = all(b1s >= b2s - tol for _, _, b1s, _, b2s, _ in comparison.rows)
        checks.append(
            {
                "name": "symmetric_internal_order",
                "passed": within,
                "detail": "B1 tail above B2 tail when p >= 1/2",
            }
        )
    if not all(c["passed"] for c in checks):
        raise ValidationFailure("two-type dominance ordering violated")
    return checks


def _task_dchain(cfg: RunConfig, out: dict) -> list[dict]:
    # the KS chain sample is the A values of the estimates' own pass
    rows, chain_vals = _stationary_pass(
        cfg.model, cfg.horizon, cfg.samples, cfg.seed, cfg.ordering,
        cfg.root_type, cfg.n_max, b_types=[],
    )
    out["estimates.csv"] = estimates_to_csv(rows)

    # the KS forest sample is the uncensored pairs of `samples` standing
    # individuals, as the chain's is; a pair across two trees reads A = 0
    tree = forest.simulate_standing(
        cfg.model,
        cfg.horizon,
        cfg.samples,
        stream(cfg.seed, "dchain", "forest-sample"),
        ordering=cfg.ordering,
        root_type=cfg.root_type,
    )
    a = forest.coalescence_times(tree).a
    forest_vals = a[a > 0]
    if not forest_vals.size:
        raise GuardError(
            f"no standing pair of the width-{tree.width} forest shares a tree; the "
            f"root type may rarely reach two standing descendants at horizon {cfg.horizon}"
        )

    result = ks_compare(chain_vals, forest_vals)
    out["compare.csv"] = ks_to_csv({"chain_vs_forest_A": result})
    checks = [
        {
            "name": "chain_matches_forest",
            "passed": result.passed,
            "detail": (
                f"KS distance {result.distance:.5f}, "
                f"critical {result.critical:.5f} at 1%"
            ),
        }
    ]
    if not result.passed:
        raise ValidationFailure(
            f"chain and forest coalescence samples diverge: "
            f"KS {result.distance:.5f} > {result.critical:.5f}"
        )
    return checks


_TASK_FN = {
    "simulate": _task_simulate,
    "laws": _task_laws,
    "validate": _task_validate,
    "compare-two-type": _task_compare_two_type,
    "dchain": _task_dchain,
}


def _report(
    cfg: RunConfig, checks: list[dict], outputs: list[str], error: dict | None = None
) -> str:
    doc = {
        "task": cfg.task,
        "model": "two-type" if cfg.model is None else cfg.model.label,
        "seed": cfg.seed,
        "samples": cfg.samples,
        "horizon": cfg.horizon,
        "outputs": sorted(outputs),
        "checks": checks,
        "passed": error is None and all(c["passed"] for c in checks),
    }
    if error is not None:
        doc["error"] = error
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _write_outputs(cfg: RunConfig, out: dict) -> None:
    """Write each file of `out` in binary mode.

    A value is either a str, encoded once here, or the bytes-like ASCII
    buffer of a forest formatter, written as it is, without a copy.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    for name, text in out.items():
        if isinstance(text, str):
            text = text.encode()
        with open(os.path.join(cfg.out_dir, name), "wb") as fh:
            fh.write(text)


def _failed(
    cfg: RunConfig, exc: Exception, status: int, out: dict, checks: list[dict]
) -> int:
    """Report a failed run on stderr and in report.json; return its status.

    `out` holds the files to write beside the report.
    """
    print(f"mtcpp: {type(exc).__name__}: {exc}", file=sys.stderr)
    error = {"class": type(exc).__name__, "message": str(exc), "exit": status}
    out["report.json"] = _report(cfg, checks, list(out) + ["report.json"], error)
    _write_outputs(cfg, out)
    return status


def run(config: RunConfig) -> int:
    """Execute one task; returns the process exit status.

    0 success, 1 schema/input errors, 2 resource-guard breaches,
    3 statistical validation or numeric-consistency failures, 4 I/O
    errors.  Every failure prints its exception class and message to
    stderr.  A failure other than an I/O error also writes report.json
    with "passed": false and an "error" block (class, message, exit
    status); a validation failure writes its checks and files with it.
    An I/O error writes no report, since the output directory may be
    what failed.
    """
    out: dict[str, str | bytearray] = {}
    try:
        try:
            checks = _TASK_FN[config.task](config, out)
        except ValidationFailure as exc:
            checks = [{"name": "validation", "passed": False, "detail": str(exc)}]
            return _failed(config, exc, 3, out, checks)
        except (SchemaError, ImpossibleConditioningError, InconsistentStateError) as exc:
            return _failed(config, exc, 1, {}, [])
        except (GuardError, CensoredError) as exc:
            return _failed(config, exc, 2, {}, [])
        except NumericConsistencyError as exc:
            return _failed(config, exc, 3, {}, [])
        out["report.json"] = _report(config, checks, list(out.keys()) + ["report.json"])
        _write_outputs(config, out)
        return 0
    except OSError as exc:
        print(f"mtcpp: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
