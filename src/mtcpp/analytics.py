"""Closed-form ancestry laws and the law table.

The central objects are the laws of the first coalescence time A1 (depth of
the most recent common ancestor of the first two standing individuals) and
its same-type counterpart B1, jointly with the types along the ancestral
lineage.  Everything here is deterministic.  Exact count-vector propagation
(conditioned_popsize_law) is an independent route that only the tests use;
the other test oracles live beside the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GuardError,
    ImpossibleConditioningError,
    NumericConsistencyError,
    SchemaError,
)
from .model import ModelSpec, _check_type, _orbit_start, complement_orbit, pgf_partial

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
        _check_type(self, ell)
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
# descendant for B_ell (orbit from s = 1 - e_ell).  Each body takes ell, and
# `spec` may be either model kind.


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
    _check_type(spec, ell)
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
    _check_type(spec, top_type)
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
    _check_type(spec, ell)
    return _tail(spec, ell, top_type, n)



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
