"""Multi-type offspring laws and their generating-function calculus.

A model is a `ModelSpec`, which holds for each parent type a finite pmf
over offspring count-vectors, or an `lf.LFParams`, the linear-fractional
family.  Both answer the same questions through the same primitives: the
pgf vector f(s), one Jacobian entry df_l/ds_t, the complement step
q -> 1 - f(1 - q), the mean matrix, a `label` and the planar `orderings`
they allow.  For a `ModelSpec` each is an exact finite sum over the
support; for LF parameters each is a closed form.  The functions in this
module check their arguments once and work on either kind, so the
iterates, survival vectors and the laws in `analytics` have one body.

Type indices are 1-based everywhere in the public API, matching the tree
dump and CSV formats; the arrays underneath are 0-based.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, SchemaError

__all__ = [
    "ORDERINGS",
    "ModelSpec",
    "SpectralInfo",
    "NotPositiveRegularError",
    "planar_ordering",
    "pgf_eval",
    "pgf_eval_all",
    "pgf_iterate",
    "complement_orbit",
    "pgf_partial",
    "mean_matrix",
    "perron",
    "is_positive_regular",
    "survival_vector",
    "type_survival_vector",
]

#: Tolerance band around rho = 1 inside which a model is called critical.
CRITICAL_BAND = 1e-9

#: Convergence threshold on successive Rayleigh quotients in `perron`.
RAYLEIGH_TOL = 1e-13

#: Iteration cap for the power method.
POWER_ITER_CAP = 10**6

#: Planar offspring orders: shuffled, or the linear-fractional law's own.
ORDERINGS = ("uniform", "lf_first")


class NotPositiveRegularError(ValueError):
    """Mean matrix has no entrywise-positive power up to exponent k**2."""


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Multi-type offspring law with finite support.

    Attributes
    ----------
    k : int
        Number of types; types are labelled 1..k.
    counts : tuple of (rows, k) int arrays
        counts[ell-1] lists the offspring count-vectors of parent type ell.
    probs : tuple of (rows,) float arrays
        probs[ell-1][r] is the probability of count-vector counts[ell-1][r].
    names : tuple of str
        Display names, one per type.
    """

    k: int
    counts: tuple[np.ndarray, ...]
    probs: tuple[np.ndarray, ...]
    names: tuple[str, ...]
    #: Escape hatch for matrix-only tests; singular laws (every parent always
    #: has exactly one child) break the coalescent machinery downstream.
    allow_singular: bool = False

    #: Model kind, as laws.csv and report.json name it.
    label = "spec"
    #: Planar offspring orders this law allows, the default first.
    orderings = ("uniform",)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise SchemaError(f"k must be >= 1, got {self.k}")
        if len(self.counts) != self.k or len(self.probs) != self.k:
            raise SchemaError("need one pmf per parent type")
        if len(self.names) != self.k:
            raise SchemaError("need one name per type")
        singular = True
        for ell in range(1, self.k + 1):
            z = self.counts[ell - 1]
            p = self.probs[ell - 1]
            if z.ndim != 2 or z.shape[1] != self.k:
                raise SchemaError(f"parent type {ell}: count-vectors must have length k={self.k}")
            if z.shape[0] != p.shape[0] or p.ndim != 1:
                raise SchemaError(f"parent type {ell}: counts/probs row mismatch")
            if z.shape[0] == 0:
                raise SchemaError(f"parent type {ell}: empty pmf")
            if np.any(z < 0) or not np.issubdtype(z.dtype, np.integer):
                raise SchemaError(f"parent type {ell}: count-vectors must be nonnegative integers")
            bad = np.flatnonzero((p < 0) | ~np.isfinite(p))
            if bad.size:
                raise SchemaError(
                    f"parent type {ell}, row {bad[0]}: probability {p[bad[0]]!r} "
                    "is negative or not finite"
                )
            if abs(p.sum() - 1.0) > 1e-12:
                raise SchemaError(
                    f"parent type {ell}: probabilities sum to {p.sum()!r}, not 1 within 1e-12"
                )
            totals = z.sum(axis=1)
            if np.any((totals != 1) & (p > 0)):
                singular = False
        if singular and not self.allow_singular:
            raise SchemaError("singular model: every parent type always has exactly one child")
        # sampling tables, built once: a draw picks a support row by its
        # cumulative probability and shuffles a copy of the row's type list
        object.__setattr__(self, "_cum", [np.cumsum(p).tolist() for p in self.probs])
        expanded = [
            [[t + 1 for t, c in enumerate(z) for _ in range(c)] for z in zs.tolist()]
            for zs in self.counts
        ]
        object.__setattr__(self, "_expanded", expanded)

    # -- model interface, shared with lf.LFParams; the module functions check
    # the arguments and then call these primitives

    def pgf(self, s: np.ndarray) -> np.ndarray:
        """Vector (f_1(s), ..., f_k(s)) of offspring generating functions."""
        return np.array(
            [p @ np.prod(s[None, :] ** z, axis=1) for z, p in zip(self.counts, self.probs)]
        )

    def jacobian_entry(self, ell: int, wrt: int, s: np.ndarray) -> float:
        """Partial derivative of f_ell with respect to s_wrt, with 0**0 = 1."""
        z = self.counts[ell - 1]
        p = self.probs[ell - 1]
        keep = z[:, wrt - 1] >= 1
        if not np.any(keep):
            return 0.0
        zk = z[keep].copy()
        zk[:, wrt - 1] -= 1
        terms = z[keep, wrt - 1] * np.prod(s[None, :] ** zk, axis=1)
        return float(p[keep] @ terms)

    def complement_step(self, q: np.ndarray) -> np.ndarray:
        """1 - f(1 - q) without forming 1 - q.

        Each parent type's term is sum_z p_z (1 - prod_j (1 - q_j)**z_j),
        with the product taken as exp(sum_j z_j log1p(-q_j)).  Tiny
        survival probabilities keep their relative precision, where
        1 - f(s) cancels.
        """
        with np.errstate(divide="ignore"):
            logs = np.log1p(-q)  # -inf where q_j == 1
        out = np.empty(self.k)
        for ell in range(self.k):
            z = self.counts[ell]
            # z_j = 0 factors are 1 even when q_j == 1 (0**0 = 1); skip them
            # rather than form 0 * -inf
            expo = np.multiply(z, logs, out=np.zeros(z.shape), where=z > 0).sum(axis=1)
            out[ell] = self.probs[ell] @ -np.expm1(expo)
        # rounding can push a coordinate past 1; clip to stay in domain
        return np.clip(out, 0.0, 1.0)

    def mean_matrix(self) -> np.ndarray:
        """Matrix M with M[l, l'] = expected type-l' offspring of a type-l parent."""
        return np.vstack([self.probs[ell] @ self.counts[ell] for ell in range(self.k)]).astype(float)

    @property
    def max_support(self) -> int:
        """Largest total offspring count |z| in any parent type's support."""
        return int(max(z.sum(axis=1).max() for z in self.counts))

    @classmethod
    def from_pmf(
        cls,
        pmf: dict[int, dict[tuple[int, ...], float]],
        k: int | None = None,
        names: tuple[str, ...] | None = None,
        allow_singular: bool = False,
    ) -> "ModelSpec":
        """Build a spec from {parent type: {count-vector: probability}}."""
        if k is None:
            k = max(pmf)
        counts, probs = [], []
        for ell in range(1, k + 1):
            if ell not in pmf:
                raise SchemaError(f"parent type {ell}: missing pmf")
            rows = sorted(pmf[ell].items())
            counts.append(np.array([r[0] for r in rows], dtype=np.int64).reshape(len(rows), k))
            probs.append(np.array([r[1] for r in rows], dtype=np.float64))
        if names is None:
            names = tuple(str(ell) for ell in range(1, k + 1))
        return cls(
            k=k,
            counts=tuple(counts),
            probs=tuple(probs),
            names=tuple(names),
            allow_singular=allow_singular,
        )

    def pmf_dict(self, ell: int) -> dict[tuple[int, ...], float]:
        """Offspring pmf of parent type ell as a plain dict."""
        _check_type(self, ell)
        z = self.counts[ell - 1]
        p = self.probs[ell - 1]
        return {tuple(int(c) for c in row): float(q) for row, q in zip(z, p)}

    # -- JSON round trip ---------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "k": self.k,
            "types": list(self.names),
            "pmf": {
                str(ell): [
                    {"counts": [int(c) for c in row], "p": float(q)}
                    for row, q in zip(self.counts[ell - 1], self.probs[ell - 1])
                ]
                for ell in range(1, self.k + 1)
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"model spec is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or "k" not in doc or "pmf" not in doc:
            raise SchemaError("model spec JSON needs 'k' and 'pmf' fields")
        k = doc["k"]
        if not _is_json_int(k) or k < 1:
            raise SchemaError(f"'k' must be a positive integer, got {k!r}")
        names = doc.get("types", [str(ell) for ell in range(1, k + 1)])
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise SchemaError(f"'types' must be a list of names, got {names!r}")
        if not isinstance(doc["pmf"], dict):
            raise SchemaError(f"'pmf' must be an object keyed by parent type, got {doc['pmf']!r}")
        counts, probs = [], []
        for ell in range(1, k + 1):
            rows = doc["pmf"].get(str(ell))
            if rows is None:
                raise SchemaError(f"parent type {ell}: missing from 'pmf'")
            if not isinstance(rows, list):
                raise SchemaError(f"parent type {ell}: rows must be a list, got {rows!r}")
            cs, ps = [], []
            for r, row in enumerate(rows):
                where = f"parent type {ell}, row {r}"
                if not isinstance(row, dict) or "counts" not in row or "p" not in row:
                    raise SchemaError(f"{where}: needs 'counts' and 'p'")
                c = row["counts"]
                if (
                    not isinstance(c, list)
                    or len(c) != k
                    or not all(_is_json_int(x) and x >= 0 for x in c)
                ):
                    raise SchemaError(f"{where}: 'counts' must be {k} nonnegative integers")
                cs.append(c)
                ps.append(_json_number(row["p"], f"{where}: 'p'"))
            counts.append(np.array(cs, dtype=np.int64).reshape(len(cs), k))
            probs.append(np.array(ps, dtype=np.float64))
        return cls(k=k, counts=tuple(counts), probs=tuple(probs), names=tuple(names))


def _is_json_int(value) -> bool:
    # JSON true/false arrive as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _json_number(value, what: str) -> float:
    """A JSON number as a finite float; refuses strings, booleans, NaN and infinities."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{what} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise SchemaError(f"{what} must be finite, got {value!r}")
    return out


@dataclass(frozen=True)
class SpectralInfo:
    """Perron data of a mean matrix.

    `v` is the right eigenvector (M v = rho v), `u` the left one
    (u M = rho u), normalized so that u . 1 = 1 and u . v = 1.
    """

    rho: float
    u: np.ndarray
    v: np.ndarray
    criticality: str  # "sub" | "critical" | "super"


def _check_type(model, ell: int) -> None:
    if not 1 <= ell <= model.k:
        raise SchemaError(f"type index {ell} out of range 1..{model.k}")


def _check_s(model, s) -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (model.k,):
        raise SchemaError(f"argument vector has shape {s.shape}, expected ({model.k},)")
    if np.any(s < 0) or np.any(s > 1):
        raise SchemaError("generating functions are evaluated on [0,1]^k only")
    return s


def planar_ordering(model, ordering: str | None) -> str:
    """`ordering`, or the model's default (its first allowed) when None.

    Refuses an unknown ordering and one the model does not allow; with no
    model (the two-type comparison) only an unknown one.
    """
    allowed = ORDERINGS if model is None else model.orderings
    if ordering is None:
        return allowed[0]
    if ordering not in ORDERINGS:
        raise SchemaError(f"unknown ordering {ordering!r}; choose from {ORDERINGS}")
    if ordering not in allowed:
        raise SchemaError(f"ordering {ordering!r} needs linear-fractional parameters")
    return ordering


def pgf_eval(model, ell: int, s) -> float:
    """Evaluate the offspring generating function f_ell(s) = E[s^xi_ell]."""
    _check_type(model, ell)
    return float(model.pgf(_check_s(model, s))[ell - 1])


def pgf_eval_all(model, s) -> np.ndarray:
    """Vector (f_1(s), ..., f_k(s))."""
    return model.pgf(_check_s(model, s))


def pgf_iterate(model, n: int, s) -> np.ndarray:
    """n-fold composition f^(n)(s); f^(0)(s) = s."""
    if n < 0:
        raise SchemaError(f"iteration count must be >= 0, got {n}")
    out = _check_s(model, s)
    for _ in range(n):
        # rounding can push a coordinate to 1 + O(eps); clip to stay in domain
        out = np.clip(pgf_eval_all(model, out), 0.0, 1.0)
    return out


def pgf_partial(model, ell: int, wrt: int, s) -> float:
    """Partial derivative of f_ell with respect to s_wrt, with 0**0 = 1."""
    _check_type(model, ell)
    _check_type(model, wrt)
    return model.jacobian_entry(ell, wrt, _check_s(model, s))


def mean_matrix(model) -> np.ndarray:
    """Matrix M with M[l, l'] = expected type-l' offspring of a type-l parent."""
    return model.mean_matrix()


def is_positive_regular(M: np.ndarray) -> bool:
    """True iff some power M^n, n <= k**2, is entrywise positive."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise SchemaError("matrix must be square")
    if np.any(M < 0):
        raise SchemaError("matrix must be nonnegative")
    k = M.shape[0]
    B = M > 0
    P = B.copy()
    for _ in range(k * k):
        if P.all():
            return True
        P = P @ B
    return False


def _power_iterate(M: np.ndarray) -> tuple[float, np.ndarray]:
    """Dominant eigenpair by power iteration from the all-ones start vector.

    Stops once successive Rayleigh quotients differ by < 1e-13 and the
    eigenvector residual is small too; the Rayleigh quotient converges
    twice as fast as the vector, so the quotient test alone can stop with
    residuals far above the promised 1e-9.
    """
    v = np.ones(M.shape[0])
    rayleigh = np.inf
    for _ in range(POWER_ITER_CAP):
        w = M @ v
        v = w / np.linalg.norm(w)
        Mv = M @ v
        r = float(v @ Mv)
        residual = float(np.max(np.abs(Mv - r * v)))
        if abs(r - rayleigh) < RAYLEIGH_TOL and residual <= 1e-12 * max(1.0, abs(r)):
            return r, v
        rayleigh = r
    raise GuardError("power iteration did not converge within the iteration cap")


def perron(M: np.ndarray) -> SpectralInfo:
    """Perron eigenvalue and eigenvectors of a positive-regular matrix."""
    M = np.asarray(M, dtype=float)
    if not is_positive_regular(M):
        raise NotPositiveRegularError("matrix is not positive regular (no positive power up to k^2)")
    rho, v = _power_iterate(M)
    _, u = _power_iterate(M.T)
    u = u / u.sum()
    v = v / (u @ v)
    if abs(rho - 1.0) <= CRITICAL_BAND:
        crit = "critical"
    elif rho < 1.0:
        crit = "sub"
    else:
        crit = "super"
    return SpectralInfo(rho=rho, u=u, v=v, criticality=crit)


def complement_orbit(model, n: int, s) -> np.ndarray:
    """Rows 1 - f^(j)(s) for j = 0..n, as an (n+1, k) array.

    One pass along the orbit of s.  At s = 0 row j is the per-type survival
    probability over j generations; at s = 1 - e_ell it is the probability
    of having type-ell descendants j generations on.
    """
    if n < 0:
        raise SchemaError(f"iteration count must be >= 0, got {n}")
    out = np.empty((n + 1, model.k))
    out[0] = 1.0 - _check_s(model, s)
    for j in range(n):
        out[j + 1] = model.complement_step(out[j])
    return out


def _orbit_start(k: int, ell: int | None) -> np.ndarray:
    """Orbit start s whose complement rows are survival probabilities: 0 for
    any descendant (the pair law A), 1 - e_ell for a type-ell one (B_ell)."""
    return np.zeros(k) if ell is None else 1.0 - np.eye(k)[ell - 1]


def survival_vector(model, n: int) -> np.ndarray:
    """Probability that one individual of each type has descendants n generations on."""
    if n < 0:
        raise SchemaError(f"generation count must be >= 0, got {n}")
    return complement_orbit(model, n, _orbit_start(model.k, None))[n]


def type_survival_vector(model, n: int, ell: int) -> np.ndarray:
    """Probability of having at least one type-ell descendant n generations on."""
    if n < 0:
        raise SchemaError(f"generation count must be >= 0, got {n}")
    _check_type(model, ell)
    return complement_orbit(model, n, _orbit_start(model.k, ell))[n]
