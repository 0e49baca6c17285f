"""Linear-fractional (LF) offspring calculus.

An LF offspring law is parametrized by a first-offspring weight matrix H,
a shared type distribution g for the geometric bulk, and the geometric
mean m: a type-ell parent has no children with probability
h_{ell,0} = 1 - sum(H[ell]); otherwise one child with type drawn from
H[ell] followed by a Geometric(mean m) number of further children drawn
i.i.d. from g.  The class is closed under generation composition, which
yields closed-form coalescence laws; everything here is exact arithmetic
on the parameters.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GuardError, NumericConsistencyError, SchemaError
from .model import ModelSpec, _is_json_int, _json_number, _orbit_start

__all__ = [
    "LFParams",
    "LFIterates",
    "TwoTypeComparison",
    "lf_pgf",
    "lf_mean_matrix",
    "lf_to_modelspec",
    "lf_sample_offspring",
    "lf_iterate",
    "lf_iterate_sequence",
    "lf_coalescence_law",
    "lf_sametype_law",
    "lf_typefree_laws",
    "two_type_models",
    "two_type_weight_poly",
    "two_type_compare",
]

#: Tolerance for the product-form vs closed-form cross assertions.
CONSISTENCY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LFParams:
    """Parameters (H, g, m) of a k-type linear-fractional offspring law."""

    k: int
    H: np.ndarray
    g: np.ndarray
    m: float

    def __post_init__(self) -> None:
        H = np.asarray(self.H, dtype=float)
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "g", g)
        if H.shape != (self.k, self.k):
            raise SchemaError(f"H has shape {H.shape}, expected ({self.k},{self.k})")
        if g.shape != (self.k,):
            raise SchemaError(f"g has shape {g.shape}, expected ({self.k},)")
        if not (np.all(np.isfinite(H)) and np.all(np.isfinite(g)) and math.isfinite(self.m)):
            raise SchemaError("H, g and m must be finite")
        if np.any(H < 0):
            raise SchemaError("H must be nonnegative")
        rows = H.sum(axis=1)
        bad = np.flatnonzero(rows > 1 + 1e-12)
        if bad.size:
            raise SchemaError(f"row {bad[0] + 1} of H sums to {rows[bad[0]]!r} > 1")
        if np.any(g < 0) or abs(g.sum() - 1.0) > 1e-12:
            raise SchemaError("g must be a probability vector (sum 1 within 1e-12)")
        if not self.m > 0:
            raise SchemaError(f"m must be > 0, got {self.m}")
        # sampling tables, built once: offspring draws sit in tight loops
        object.__setattr__(self, "_h0", 1.0 - rows)
        object.__setattr__(self, "_rowcum", np.cumsum(H, axis=1).tolist())
        object.__setattr__(self, "_gcum", np.cumsum(g).tolist())

    @property
    def h0(self) -> np.ndarray:
        """Per-type probability of having no offspring at all."""
        return self._h0

    def to_json(self) -> str:
        return json.dumps(
            {"k": self.k, "H": self.H.tolist(), "g": self.g.tolist(), "m": self.m},
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "LFParams":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"LF params are not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise SchemaError("LF params JSON must be an object")
        for key in ("k", "H", "g", "m"):
            if key not in doc:
                raise SchemaError(f"LF params JSON needs field {key!r}")
        k, H, g = doc["k"], doc["H"], doc["g"]
        if not _is_json_int(k) or k < 1:
            raise SchemaError(f"'k' must be a positive integer, got {k!r}")
        if not isinstance(H, list) or not all(
            isinstance(row, list) and len(row) == k for row in H
        ):
            raise SchemaError(f"'H' must be a list of rows of {k} numbers, got {H!r}")
        if not isinstance(g, list):
            raise SchemaError(f"'g' must be a list of numbers, got {g!r}")
        return cls(
            k=k,
            H=np.array([[_json_number(x, "'H' entry") for x in row] for row in H]),
            g=np.array([_json_number(x, "'g' entry") for x in g]),
            m=_json_number(doc["m"], "'m'"),
        )


@dataclass(frozen=True, eq=False)
class LFIterates:
    """LF parameters of the generation-n composition.

    For n = 0 the composition is the identity; by convention m_n = 0,
    g_n = g, H_n = I, h0_n = 0.
    """

    n: int
    m_n: float
    g_n: np.ndarray
    H_n: np.ndarray
    h0_n: np.ndarray


def lf_mean_matrix(params: LFParams) -> np.ndarray:
    """Mean matrix M = H + m * (H 1)^T g of the LF law."""
    return params.H + params.m * np.outer(params.H @ np.ones(params.k), params.g)


def _check_s(params: LFParams, s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.shape != (params.k,):
        raise SchemaError(f"argument vector has shape {s.shape}, expected ({params.k},)")
    if np.any(s < 0) or np.any(s > 1):
        raise SchemaError("generating functions are evaluated on [0,1]^k only")
    return s


def _check_type(params: LFParams, ell: int) -> None:
    if not 1 <= ell <= params.k:
        raise SchemaError(f"type index {ell} out of range 1..{params.k}")


def lf_pgf(params: LFParams, ell: int, s) -> float:
    """Offspring generating function h_{l0} + (H[l] . s) / (1 + m - m g.s)."""
    _check_type(params, ell)
    s = _check_s(params, s)
    denom = 1.0 + params.m - params.m * float(params.g @ s)
    assert denom > 0, "LF denominator must be positive on [0,1]^k"
    return float(params.h0[ell - 1] + (params.H[ell - 1] @ s) / denom)


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


def lf_sample_offspring(params: LFParams, ell: int, rng) -> list[int]:
    """Draw one ordered offspring list (1-based types; h-child leftmost)."""
    _check_type(params, ell)
    k = params.k
    h0 = params._h0[ell - 1]
    u = rng.random()
    if u < h0:
        return []
    # reuse u to pick the first child's type from the H row
    target = u - h0
    rowcum = params._rowcum[ell - 1]
    first = k
    for j in range(k):
        if target < rowcum[j]:
            first = j + 1
            break
    out = [first]
    q = params.m / (1.0 + params.m)
    n_extra = int(math.log(1.0 - rng.random()) / math.log(q))
    gcum = params._gcum
    for _ in range(n_extra):
        t = bisect.bisect_right(gcum, rng.random()) + 1
        out.append(t if t <= k else k)
    return out


def lf_iterate_sequence(params: LFParams, n: int) -> list[LFIterates]:
    """Iterates for generations 0..n.

    The scalar m_n and bulk distribution g_n come from running matrix sums
    S_j = I + M + ... + M^(j-1).  H_n and h0_n come from composing one
    generation at a time, which stays well conditioned for supercritical
    parameters where the closed form M^n - (m_n/(1+m_n)) (M^n 1) g_n loses
    all precision to cancellation.  The two routes are cross-checked
    wherever both are trustworthy.
    """
    if n < 0:
        raise SchemaError(f"generation count must be >= 0, got {n}")
    k, m, g = params.k, params.m, params.g
    h0 = params.h0
    M = lf_mean_matrix(params)
    ones = np.ones(k)
    out = [
        LFIterates(n=0, m_n=0.0, g_n=g.copy(), H_n=np.eye(k), h0_n=np.zeros(k))
    ]
    S = np.eye(k)          # I + M + ... + M^(j-1), starting at j = 1
    Mpow = M.copy()        # M^j
    H_prev = np.eye(k)
    h0_prev = np.zeros(k)
    for j in range(1, n + 1):
        gS = g @ S
        m_j = float(m * (gS @ ones))
        g_j = (m / m_j) * gS
        prev = out[j - 1]
        u = H_prev @ h0
        c = 1.0 + prev.m_n * (1.0 - float(prev.g_n @ h0))
        H_j = H_prev @ params.H + (prev.m_n / c) * np.outer(u, prev.g_n @ params.H)
        h0_j = h0_prev + u / c
        # second route for m_j and g_j through the one-step composition
        m_alt = m * c + prev.m_n * float(prev.g_n @ (params.H @ ones))
        if abs(m_alt - m_j) > CONSISTENCY_TOL * max(1.0, m_j):
            raise NumericConsistencyError(
                f"m iterate routes disagree at n={j}: {m_j!r} vs {m_alt!r}"
            )
        # the closed form for H_j is only meaningful while M^j is small
        if float(np.max(Mpow)) < 1e3:
            H_closed = Mpow - (m_j / (1.0 + m_j)) * np.outer(Mpow @ ones, g_j)
            if float(np.max(np.abs(H_closed - H_j))) > CONSISTENCY_TOL:
                raise NumericConsistencyError(
                    f"H iterate routes disagree at n={j}"
                )
        out.append(LFIterates(n=j, m_n=m_j, g_n=g_j, H_n=H_j, h0_n=h0_j))
        H_prev, h0_prev = H_j, h0_j
        if j < n:
            S = S + Mpow
            Mpow = Mpow @ M
    return out


def lf_iterate(params: LFParams, n: int) -> LFIterates:
    """LF parameters of Z^(n) started from one individual."""
    return lf_iterate_sequence(params, n)[n]


def _avoiding_h0(it: LFIterates, ell: int | None, k: int) -> np.ndarray:
    """Per-type probability of no standing descendant it.n generations on
    (of any type for A, ell None; of type ell for B_ell); the orbit start
    at n = 0."""
    if it.n == 0:
        return _orbit_start(k, ell)
    if ell is None:
        return it.h0_n
    shield = 1.0 / (1.0 + it.m_n * it.g_n[ell - 1])
    return it.h0_n + (1.0 - it.h0_n - it.H_n[:, ell - 1]) * shield


def _lf_tail(params: LFParams, ell: int | None, n: int) -> float:
    """Tail of A (ell None) or B_ell: the product over `_avoiding_h0`
    vectors must match 1/(1 + m^(n) w), w = 1 or g^(n)_ell, to 1e-9."""
    its = lf_iterate_sequence(params, n)
    m, g = params.m, params.g
    prod = 1.0
    for it in its[:n]:
        prod /= 1.0 + m - m * float(g @ _avoiding_h0(it, ell, params.k))
    weight = 1.0 if ell is None else its[n].g_n[ell - 1]
    closed = float(1.0 / (1.0 + its[n].m_n * weight))
    if abs(prod - closed) > CONSISTENCY_TOL:
        raise NumericConsistencyError(
            f"law routes disagree at n={n}, ell={ell}: product={prod!r} closed={closed!r}"
        )
    return closed


def lf_coalescence_law(params: LFParams, n: int) -> float:
    """P(A_1 > n): no coalescence with the right neighbour within n generations.

    Computed both as the per-generation product over h0 iterates and as
    1/(1 + m^(n)); the two routes must agree to 1e-9.
    """
    return _lf_tail(params, None, n)


def lf_sametype_law(params: LFParams, ell: int, n: int) -> float:
    """P(B_{ell,1} > n | first standing individual has type ell).

    Product route over modified h0 vectors versus the closed form
    1/(1 + m^(n) g^(n)_ell); agreement to 1e-9 asserted.
    """
    _check_type(params, ell)
    return _lf_tail(params, ell, n)


def lf_typefree_laws(h0: float, m: float, g, ell: int, n: int) -> tuple[float, float]:
    """(P(A_1 > n), P(B_{ell,1} > n)) when H = (1-h0) 1^T g (parent-type-free).

    The A tail has two branches depending on whether (1-h0)(1+m) equals 1.
    """
    g = np.asarray(g, dtype=float)
    if not 0.0 < h0 < 1.0:
        raise SchemaError(f"h0 must lie in (0,1), got {h0}")
    if np.any(g < 0) or abs(g.sum() - 1.0) > 1e-12:
        raise SchemaError("g must be a probability vector")
    if not 1 <= ell <= g.shape[0]:
        raise SchemaError(f"type index {ell} out of range 1..{g.shape[0]}")
    if n < 0:
        raise SchemaError(f"n must be >= 0, got {n}")
    rho = (1.0 - h0) * (1.0 + m)
    if abs(rho - 1.0) <= 1e-12:
        pA = (1.0 - h0) / (1.0 - h0 + n * h0)
    else:
        pA = (m - h0 * (1.0 + m)) / (m * (1.0 + m) ** n * (1.0 - h0) ** n - h0 * (1.0 + m))
    pB = pA / (1.0 - (1.0 - pA) * (1.0 - float(g[ell - 1])))
    return pA, pB


def two_type_models(g: float, p: float, h1: float, m: float) -> tuple[LFParams, LFParams]:
    """Symmetric and asymmetric two-type LF families with shared (g, 1-g) and m.

    The symmetric family keeps type p-loyal on both rows; the asymmetric
    one makes type 2 fully loyal.  g is restricted to [0, 0.5]; relabel
    types to reach the other half.
    """
    if not 0.0 <= g <= 0.5:
        raise SchemaError(f"g must lie in [0, 0.5], got {g}")
    if not 0.0 < p <= 1.0:
        raise SchemaError(f"p must lie in (0, 1], got {p}")
    if not 0.0 <= h1 <= 1.0:
        raise SchemaError(f"h1 must lie in [0, 1], got {h1}")
    if not m > 0:
        raise SchemaError(f"m must be > 0, got {m}")
    gvec = np.array([g, 1.0 - g])
    H_s = h1 * np.array([[p, 1.0 - p], [1.0 - p, p]])
    H_a = h1 * np.array([[p, 1.0 - p], [0.0, 1.0]])
    return (
        LFParams(k=2, H=H_s, g=gvec, m=m),
        LFParams(k=2, H=H_a, g=gvec, m=m),
    )


def _geom_series(rho: float, d: int) -> float:
    """1 + rho + ... + rho^(d-1), with the rho = 1 limit."""
    if abs(rho - 1.0) <= 1e-12:
        return float(d)
    return (rho**d - 1.0) / (rho - 1.0)


def two_type_weight_poly(n: int, h1: float, m: float, x: float) -> float:
    """Degree-(n-1) polynomial G carrying the generation-n type weights.

    g_a^(n) = (g G(p), 1 - g G(p)) and g_s^(n) = ((g-1/2) G(2p-1) + 1/2, ...)
    for the families of `two_type_models`.  With rho = h1 (1+m) and
    S_d = 1 + rho + ... + rho^(d-1),

        G(x) = sum_{j=0}^{n-1} h1^j (1 + h1 m S_{n-1-j}) x^j / S_n.

    All coefficients are nonnegative and G(1) = 1.
    """
    if n < 1:
        raise SchemaError(f"n must be >= 1, got {n}")
    rho = h1 * (1.0 + m)
    acc = 0.0
    for j in range(n):
        acc += h1**j * (1.0 + h1 * m * _geom_series(rho, n - 1 - j)) * x**j
    return acc / _geom_series(rho, n)


@dataclass(frozen=True)
class TwoTypeComparison:
    """Coalescence tails of the symmetric vs asymmetric two-type families."""

    g: float
    p: float
    h1: float
    m: float
    rows: tuple[tuple[int, float, float, float, float, float], ...] = field(repr=False)
    # each row: (n, pA, pB1_s, pB1_a, pB2_s, pB2_a)

    def to_csv(self) -> str:
        lines = ["n,pA,pB1_s,pB1_a,pB2_s,pB2_a"]
        for n, pA, b1s, b1a, b2s, b2a in self.rows:
            lines.append(f"{n},{pA!r},{b1s!r},{b1a!r},{b2s!r},{b2a!r}")
        return "\n".join(lines) + "\n"


def two_type_compare(g: float, p: float, h1: float, m: float, n_max: int) -> TwoTypeComparison:
    """Tail tables for both two-type families, cross-checked against closed forms.

    For every n <= n_max the iterate route (lf_iterate) must agree to 1e-9
    with the closed forms m^(n) = m S_n(h1(1+m)) and the weight polynomial
    of `two_type_weight_poly`; the shared-depth tails of the two families
    must agree to 1e-12.
    """
    params_s, params_a = two_type_models(g, p, h1, m)
    its_s = lf_iterate_sequence(params_s, n_max)
    its_a = lf_iterate_sequence(params_a, n_max)
    rho = h1 * (1.0 + m)
    rows = []
    for n in range(1, n_max + 1):
        m_closed = m * _geom_series(rho, n)
        Gp = two_type_weight_poly(n, h1, m, p)
        G2p = two_type_weight_poly(n, h1, m, 2.0 * p - 1.0)
        ga_closed = np.array([g * Gp, 1.0 - g * Gp])
        gs_closed = np.array([(g - 0.5) * G2p + 0.5, -(g - 0.5) * G2p + 0.5])
        for label, it, g_closed in (
            ("symmetric", its_s[n], gs_closed),
            ("asymmetric", its_a[n], ga_closed),
        ):
            if abs(it.m_n - m_closed) > CONSISTENCY_TOL * max(1.0, m_closed):
                raise NumericConsistencyError(
                    f"{label} m^({n}) iterate {it.m_n!r} != closed {m_closed!r}"
                )
            if np.max(np.abs(it.g_n - g_closed)) > CONSISTENCY_TOL:
                raise NumericConsistencyError(
                    f"{label} g^({n}) iterate {it.g_n!r} != closed {g_closed!r}"
                )
        pA_s = lf_coalescence_law(params_s, n)
        pA_a = lf_coalescence_law(params_a, n)
        if abs(pA_s - pA_a) > 1e-12:
            raise NumericConsistencyError(
                f"families disagree on P(A>n) at n={n}: {pA_s!r} vs {pA_a!r}"
            )
        rows.append(
            (
                n,
                pA_s,
                lf_sametype_law(params_s, 1, n),
                lf_sametype_law(params_a, 1, n),
                lf_sametype_law(params_s, 2, n),
                lf_sametype_law(params_a, 2, n),
            )
        )
    return TwoTypeComparison(g=g, p=p, h1=h1, m=m, rows=tuple(rows))
