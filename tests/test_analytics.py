from itertools import product

import numpy as np
import pytest

from mtcpp.analytics import (
    A1_tail,
    B1_tail,
    LawRow,
    LawTable,
    conditioned_popsize_law,
    joint_A1_law,
    joint_B1_law,
)
from mtcpp.errors import (
    GuardError,
    ImpossibleConditioningError,
    NumericConsistencyError,
    SchemaError,
)
from mtcpp.lf import (
    LFParams,
    lf_coalescence_law,
    lf_sametype_law,
    lf_to_modelspec,
    lf_typefree_laws,
)
from mtcpp.model import ModelSpec
from mtcpp.rng import stream
from oracles import (
    EventQuery,
    IntensityReport,
    intensity_check,
    oracle_enumerate,
    spine_decomposition_test,
)


@pytest.fixture
def single() -> ModelSpec:
    return ModelSpec.from_pmf({1: {(0,): 0.3, (1,): 0.4, (2,): 0.3}})


@pytest.fixture
def small3() -> ModelSpec:
    return ModelSpec.from_pmf(
        {
            1: {(0, 0, 0): 0.4, (1, 1, 0): 0.3, (0, 0, 2): 0.3},
            2: {(0, 0, 0): 0.5, (1, 0, 1): 0.5},
            3: {(0, 0, 0): 0.6, (0, 1, 0): 0.4},
        }
    )


# -- joint A law -------------------------------------------------------------


def test_joint_a_hand_values(e1):
    assert joint_A1_law(e1, (1, 1)) == 0.0
    assert joint_A1_law(e1, (1, 2)) == 1.0


def test_joint_a_depth_zero(e1):
    # a single standing individual coalesces deeper than 0 with certainty
    assert joint_A1_law(e1, (1,)) == 1.0
    assert joint_A1_law(e1, (2,)) == 1.0


def test_joint_a_matches_oracle(e1):
    for n in range(1, 4):
        for a in product((1, 2), repeat=n + 1):
            direct = joint_A1_law(e1, a)
            brute = oracle_enumerate(e1, n, EventQuery(kind="a_joint", a=a))
            assert abs(direct - brute) <= 1e-9, (a, direct, brute)


def test_joint_a_matches_oracle_three_types(small3):
    for n in range(1, 3):
        for a in product((1, 2, 3), repeat=n + 1):
            try:
                direct = joint_A1_law(small3, a)
            except ImpossibleConditioningError:
                with pytest.raises(ImpossibleConditioningError):
                    oracle_enumerate(small3, n, EventQuery(kind="a_joint", a=a))
                continue
            brute = oracle_enumerate(small3, n, EventQuery(kind="a_joint", a=a))
            assert abs(direct - brute) <= 1e-9, (a, direct, brute)


def test_joint_a_rejects_bad_strings(e1):
    with pytest.raises(SchemaError):
        joint_A1_law(e1, ())
    with pytest.raises(SchemaError):
        joint_A1_law(e1, (1, 3))


def test_joint_a_impossible_conditioning():
    spec = ModelSpec.from_pmf(
        {1: {(0, 2): 0.5, (0, 0): 0.5}, 2: {(0, 0): 1.0}}
    )
    with pytest.raises(ImpossibleConditioningError):
        joint_A1_law(spec, (1, 1, 1))


# -- A tail ------------------------------------------------------------------


def test_a_tail_trivial(e1):
    assert A1_tail(e1, 1, 0) == 1.0
    assert A1_tail(e1, 2, 1) == 1.0


def test_a_tail_prefix_sums(e1, small3):
    for spec in (e1, small3):
        types = range(1, spec.k + 1)
        for n in range(1, 4 if spec.k == 2 else 3):
            for top in types:
                try:
                    tail = A1_tail(spec, top, n)
                except ImpossibleConditioningError:
                    continue
                total = 0.0
                for mid in product(types, repeat=n):
                    total += joint_A1_law(spec, mid + (top,))
                assert abs(tail - total) <= 1e-9


def test_a_tail_matches_oracle(e1):
    for n in range(1, 4):
        for top in (1, 2):
            tail = A1_tail(e1, top, n)
            brute = oracle_enumerate(e1, n, EventQuery(kind="a_tail", top=top))
            assert abs(tail - brute) <= 1e-9


# -- joint B law and B tail --------------------------------------------------


def test_joint_b_hand_value(e1):
    assert joint_B1_law(e1, (1, 2), 1) == 1.0


def test_joint_b_single_type_reduces(single):
    for n in range(0, 4):
        a = (1,) * (n + 1)
        assert joint_B1_law(single, a, 1) == pytest.approx(joint_A1_law(single, a), abs=1e-12)


def test_joint_b_matches_oracle(e1):
    for ell in (1, 2):
        for n in range(1, 4):
            for mid in product((1, 2), repeat=n):
                a = (ell,) + mid
                try:
                    direct = joint_B1_law(e1, a, ell)
                except ImpossibleConditioningError:
                    with pytest.raises(ImpossibleConditioningError):
                        oracle_enumerate(e1, n, EventQuery(kind="b_joint", a=a, ell=ell))
                    continue
                brute = oracle_enumerate(e1, n, EventQuery(kind="b_joint", a=a, ell=ell))
                assert abs(direct - brute) <= 1e-9, (ell, a)


def test_joint_b_requires_matching_base(e1):
    with pytest.raises(SchemaError):
        joint_B1_law(e1, (2, 1), 1)


def test_b_tail_trivial(e1, single):
    assert B1_tail(e1, 1, 1, 0) == 1.0
    with pytest.raises(ImpossibleConditioningError):
        B1_tail(e1, 1, 2, 0)
    for n in range(0, 4):
        assert B1_tail(single, 1, 1, n) == pytest.approx(A1_tail(single, 1, n), abs=1e-12)


def test_b_tail_prefix_sums(e1):
    for ell in (1, 2):
        for n in range(1, 4):
            for top in (1, 2):
                try:
                    tail = B1_tail(e1, ell, top, n)
                except ImpossibleConditioningError:
                    continue
                total = 0.0
                for mid in product((1, 2), repeat=n - 1):
                    a = (ell,) + mid + (top,)
                    try:
                        total += joint_B1_law(e1, a, ell)
                    except ImpossibleConditioningError:
                        pass
                assert abs(tail - total) <= 1e-9, (ell, top, n)


def test_b_tail_lf_closed_form():
    params = LFParams(
        k=2,
        H=np.array([[0.25, 0.3], [0.35, 0.2]]),
        g=np.array([0.45, 0.55]),
        m=0.6,
    )
    spec = lf_to_modelspec(params, truncate_at=24)
    for n in range(1, 5):
        for ell in (1, 2):
            got = B1_tail(spec, ell, ell, n)
            want = lf_sametype_law(params, ell, n)
            # the converted spec drops and renormalizes a geometric tail of
            # mass below 1e-10, so agreement is to that budget, not exact
            assert abs(got - want) <= 1e-8, (n, ell, got, want)


def _tail_cells(k: int, n_max: int):
    """Every (ell, top, n) cell of a law table; ell None marks the A tail."""
    for n in range(n_max + 1):
        for top in range(1, k + 1):
            for ell in (None, *range(1, k + 1)):
                yield ell, top, n


def _tail_or_none(fn, *args):
    try:
        return fn(*args)
    except ImpossibleConditioningError:
        return None


def test_tails_match_popsize_oracle(e1, s3):
    # the Jacobian-product tails against the full count-vector law, on every
    # cell the E1 (n <= 8) and S3 (n <= 4) law tables can emit
    cap = 32
    for spec, n_max in ((e1, 8), (s3, 4)):
        laws = {}
        for ell, top, n in _tail_cells(spec.k, n_max):
            if (n, top) not in laws:
                laws[(n, top)] = conditioned_popsize_law(spec, n, top, cap)
            law = laws[(n, top)]
            if ell is None:
                got = _tail_or_none(A1_tail, spec, top, n)
                ones = [tuple(int(i == j) for i in range(spec.k)) for j in range(spec.k)]
                single = sum(law.prob(z) for z in ones)
                alive = 1.0 - law.prob((0,) * spec.k)
            else:
                got = _tail_or_none(B1_tail, spec, ell, top, n)
                marg = law.marginal(ell)
                single, alive = marg[1], 1.0 - marg[0]
            want = single / alive if alive >= 1e-14 else None
            assert (got is None) == (want is None), (spec.k, ell, top, n)
            if got is not None:
                assert abs(got - want) <= 1e-12, (spec.k, ell, top, n, got, want)


def _mp_tails(spec: ModelSpec, n: int, ell):
    """A (ell None) or B tails for every top type, by the Jacobian product
    at 50 digits, with survival as 1 - f^(n) in the direct form."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 50
    k = spec.k
    pmf = []
    for t in range(k):
        probs = [mp.mpf(float(p)) for p in spec.probs[t]]
        total = mp.fsum(probs)
        pmf.append([(tuple(int(c) for c in z), p / total) for z, p in zip(spec.counts[t], probs)])

    def power(s, z):
        out = mp.mpf(1)
        for sj, zj in zip(s, z):
            out *= sj**zj
        return out

    def f(s):
        return [mp.fsum(p * power(s, z) for z, p in pmf[t]) for t in range(k)]

    def jac(s):
        rows = []
        for t in range(k):
            row = []
            for j in range(k):
                terms = []
                for z, p in pmf[t]:
                    if z[j]:
                        zz = list(z)
                        zz[j] -= 1
                        terms.append(p * z[j] * power(s, zz))
                row.append(mp.fsum(terms))
            rows.append(row)
        return rows

    s = [mp.mpf(0)] * k if ell is None else [mp.mpf(int(j != ell - 1)) for j in range(k)]
    w = [mp.mpf(1)] * k if ell is None else [mp.mpf(int(j == ell - 1)) for j in range(k)]
    for _ in range(n):
        J = jac(s)
        w = [mp.fsum(J[i][j] * w[j] for j in range(k)) for i in range(k)]
        s = f(s)
    return [w[i] / (1 - s[i]) for i in range(k)]


def test_tails_deep_n_match_50_digit_product(s3):
    # survival near 1e-12 at n = 100: 1 - f^(n) in double precision would
    # keep only a few digits, the complement-form orbit keeps them all
    worst = 0.0
    for n in (30, 60, 100):
        for ell in (None, 1, 2, 3):
            want = _mp_tails(s3, n, ell)
            for top in (1, 2, 3):
                got = A1_tail(s3, top, n) if ell is None else B1_tail(s3, ell, top, n)
                worst = max(worst, float(abs(got - want[top - 1]) / want[top - 1]))
    assert worst <= 1e-12, worst


# -- population size law -----------------------------------------------------


def test_popsize_point_mass(e1):
    law = conditioned_popsize_law(e1, 0, 2, 8)
    assert law.probs == {(0, 1): 1.0}
    assert law.deficit == 0.0


def test_popsize_one_generation(e1):
    law = conditioned_popsize_law(e1, 1, 1, 8)
    assert set(law.probs) == {(0, 0), (1, 1)}
    assert law.prob((0, 0)) == pytest.approx(0.5, abs=1e-12)
    assert law.prob((1, 1)) == pytest.approx(0.5, abs=1e-12)


def test_popsize_mass_accounting(e1, single, small3):
    for spec, n_max in ((e1, 6), (single, 6), (small3, 4)):
        for n in range(0, n_max + 1):
            law = conditioned_popsize_law(spec, n, 1, 64)
            assert law.total_mass() + law.deficit == pytest.approx(1.0, abs=1e-12)
            assert law.total_mass() >= 1.0 - 1e-10


def test_popsize_cap_too_small():
    # supercritical doubling walks off any small box quickly
    spec = ModelSpec.from_pmf({1: {(2,): 0.9, (0,): 0.1}})
    with pytest.raises(GuardError, match="cap"):
        conditioned_popsize_law(spec, 6, 1, 8)


def test_popsize_bad_args(e1):
    with pytest.raises(SchemaError):
        conditioned_popsize_law(e1, -1, 1, 8)
    with pytest.raises(SchemaError):
        conditioned_popsize_law(e1, 1, 3, 8)
    with pytest.raises(SchemaError):
        conditioned_popsize_law(e1, 1, 1, 1)


def test_popsize_marginal(e1):
    law = conditioned_popsize_law(e1, 2, 1, 16)
    marg = law.marginal(1)
    assert marg.sum() == pytest.approx(1.0, abs=1e-12)
    direct = {}
    for z, p in law.probs.items():
        direct[z[0]] = direct.get(z[0], 0.0) + p
    for j, p in direct.items():
        assert marg[j] == pytest.approx(p, abs=1e-15)
    with pytest.raises(SchemaError):
        law.marginal(3)


def test_dense_and_sparse_paths_agree(e1):
    from mtcpp.analytics import _propagate_sparse

    for n in range(0, 5):
        dense = conditioned_popsize_law(e1, n, 1, 32)
        sparse, deficit = _propagate_sparse(e1, n, 1, 32)
        assert deficit <= 1e-12
        for z in set(dense.probs) | set(sparse):
            assert dense.prob(z) == pytest.approx(sparse.get(z, 0.0), abs=1e-11), (n, z)


# -- enumeration oracle ------------------------------------------------------


def test_oracle_total_probability(e1):
    for n in range(1, 4):
        for top in (1, 2):
            parts = 0.0
            for mid in product((1, 2), repeat=n):
                parts += oracle_enumerate(
                    e1, n, EventQuery(kind="a_joint", a=mid + (top,))
                )
            tail = oracle_enumerate(e1, n, EventQuery(kind="a_tail", top=top))
            assert abs(parts - tail) <= 1e-12


def test_oracle_guards(e1):
    with pytest.raises(GuardError):
        oracle_enumerate(e1, 5, EventQuery(kind="a_tail", top=1))
    fat = ModelSpec.from_pmf({1: {(4,): 0.5, (0,): 0.5}})
    with pytest.raises(GuardError):
        oracle_enumerate(fat, 1, EventQuery(kind="a_tail", top=1))
    with pytest.raises(SchemaError):
        oracle_enumerate(e1, 1, EventQuery(kind="nope", top=1))
    with pytest.raises(SchemaError):
        oracle_enumerate(e1, 1, EventQuery(kind="a_joint", a=(1,)))


# -- intensity bookkeeping ---------------------------------------------------


def _typefree_tails(h0, m, g):
    g = np.asarray(g, dtype=float)
    pA = lambda n: lf_typefree_laws(h0, m, g, 1, n)[0]
    pBs = [
        (lambda e: (lambda n: lf_typefree_laws(h0, m, g, e, n)[1]))(ell)
        for ell in range(1, len(g) + 1)
    ]
    return pA, pBs, g


def test_intensity_identity_grid():
    rng = np.random.default_rng(12)
    for _ in range(8):
        k = int(rng.integers(2, 4))
        g = rng.uniform(0.2, 1.0, size=k)
        g /= g.sum()
        h0 = float(rng.uniform(0.05, 0.6))
        m = float(rng.uniform(0.3, 2.0))
        pA, pBs, g = _typefree_tails(h0, m, g)
        report = intensity_check(pA, pBs, g, 12)
        assert isinstance(report, IntensityReport)
        assert report.max_identity_gap <= 1e-9
        assert report.subpartition_strict


def test_intensity_single_type_collapses():
    pA, pBs, g = _typefree_tails(0.3, 0.8, np.array([1.0]))
    report = intensity_check(pA, pBs, g, 10)
    for row in report.rows:
        assert row.nu_b[0] == pytest.approx(row.nu_a, abs=1e-12)


def test_intensity_degenerate_depths():
    # tails pinned at 1 up to depth 2: no coalescence mass on either side
    pA = lambda n: 1.0 if n <= 2 else 0.5 ** (n - 2)
    g = np.array([0.5, 0.5])

    def make_pb(gl):
        def pb(n):
            ta = pA(n)
            ca = 1.0 - ta
            return 1.0 - ca * gl / (ta + ca * gl)

        return pb

    report = intensity_check(pA, [make_pb(0.5), make_pb(0.5)], g, 6)
    assert report.rows[0].nu_a == 0.0
    assert report.rows[0].nu_b == (0.0, 0.0)


def test_intensity_violation_raises():
    pA, pBs, g = _typefree_tails(0.3, 0.8, np.array([0.4, 0.6]))
    crooked = [lambda n: max(pBs[0](n) - 1e-6, 0.0), pBs[1]]
    with pytest.raises(NumericConsistencyError):
        intensity_check(pA, crooked, g, 8)


def test_intensity_bad_args():
    pA, pBs, g = _typefree_tails(0.3, 0.8, np.array([0.4, 0.6]))
    with pytest.raises(SchemaError):
        intensity_check(pA, pBs, np.array([0.4, 0.7]), 5)
    with pytest.raises(SchemaError):
        intensity_check(pA, pBs[:1], g, 5)
    with pytest.raises(SchemaError):
        intensity_check(pA, pBs, g, 0)


# -- spine decomposition -----------------------------------------------------


def test_spine_report_e1(e1):
    report = spine_decomposition_test(e1, 1, 20_000, stream(31, "spine-a"))
    assert report.passed
    assert report.joint_cells == 4
    # a type-1 root conditioned on grandchildren always has one child of
    # each type, so the survival-conditioned subtree law is degenerate
    assert report.chi2_pvalues["at"] == 1.0


def test_spine_single_child_trivial(e1):
    # type-2 roots have at most one child: the partition is trivial and the
    # joint law collapses to a single certain cell
    report = spine_decomposition_test(e1, 1, 4_000, stream(37, "spine-b"), root_type=2)
    assert report.passed
    assert report.joint_cells == 1


def test_spine_deeper(e1):
    report = spine_decomposition_test(e1, 2, 20_000, stream(41, "spine-c"))
    assert report.passed
    assert report.post_mean_max_z <= 3.0


def test_spine_bad_depth(e1):
    with pytest.raises(SchemaError):
        spine_decomposition_test(e1, 0, 100, stream(0, "x"))


# -- law tables --------------------------------------------------------------


def test_law_table_csv_golden():
    rows = (
        LawRow(formula="a_tail", model="demo", n=0, conditioning="top=1", value=1.0),
        LawRow(formula="a_tail", model="demo", n=1, conditioning="top=1", value=0.625),
        LawRow(formula="a_tail", model="demo", n=2, conditioning="top=1", value=0.25),
    )
    table = LawTable(rows=rows)
    table.check_tails_monotone()
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "formula,model,n,conditioning,value"
    assert lines[1] == "a_tail,demo,0,top=1,1.0"
    assert lines[3] == "a_tail,demo,2,top=1,0.25"


def test_law_table_lf_tails_monotone(lf1):
    rows = tuple(
        LawRow(formula="coalescence_tail", model="lf1", n=n, conditioning="",
               value=lf_coalescence_law(lf1, n))
        for n in range(1, 7)
    )
    LawTable(rows=rows).check_tails_monotone()


def test_law_table_rejects_bad_rows():
    with pytest.raises(SchemaError):
        LawRow(formula="x", model="m", n=1, conditioning="", value=1.5)
    with pytest.raises(SchemaError):
        LawRow(formula="x", model="m", n=-1, conditioning="", value=0.5)


def test_law_table_monotonicity_enforced():
    rows = (
        LawRow(formula="a_tail", model="m", n=1, conditioning="", value=0.4),
        LawRow(formula="a_tail", model="m", n=2, conditioning="", value=0.6),
    )
    with pytest.raises(NumericConsistencyError):
        LawTable(rows=rows).check_tails_monotone()
