import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcpp.errors import SchemaError
from mtcpp.model import (
    ModelSpec,
    NotPositiveRegularError,
    complement_orbit,
    is_positive_regular,
    mean_matrix,
    perron,
    pgf_eval,
    pgf_iterate,
    pgf_partial,
    survival_vector,
    type_survival_vector,
)


# -- strategies -------------------------------------------------------------


@st.composite
def small_specs(draw) -> ModelSpec:
    k = draw(st.integers(min_value=1, max_value=3))
    pmf = {}
    vectors = [
        tuple(v)
        for v in np.ndindex(*([3] * k))
        if 0 < sum(v) <= 3
    ]
    for ell in range(1, k + 1):
        support = draw(
            st.lists(st.sampled_from(vectors), min_size=1, max_size=4, unique=True)
        )
        weights = draw(
            st.lists(
                st.floats(min_value=0.05, max_value=1.0),
                min_size=len(support) + 1,
                max_size=len(support) + 1,
            )
        )
        total = sum(weights)
        rows = {(0,) * k: weights[0] / total}
        for z, w in zip(support, weights[1:]):
            rows[z] = rows.get(z, 0.0) + w / total
        pmf[ell] = rows
    return ModelSpec.from_pmf(pmf, k=k)


# -- frozen values ----------------------------------------------------------


def test_pgf_eval_frozen(e1):
    assert pgf_eval(e1, 1, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)
    assert pgf_eval(e1, 1, [0.0, 0.0]) == pytest.approx(0.5, abs=1e-15)
    assert pgf_eval(e1, 2, [0.5, 0.9]) == pytest.approx(0.75, abs=1e-15)


def test_pgf_eval_rejects_bad_input(e1):
    with pytest.raises(SchemaError):
        pgf_eval(e1, 1, [0.5])
    with pytest.raises(SchemaError):
        pgf_eval(e1, 1, [-0.1, 0.5])
    with pytest.raises(SchemaError):
        pgf_eval(e1, 3, [0.5, 0.5])


def test_pgf_iterate_frozen(e1):
    np.testing.assert_allclose(pgf_iterate(e1, 0, [0.3, 0.7]), [0.3, 0.7], atol=0)
    np.testing.assert_allclose(pgf_iterate(e1, 1, [0.0, 0.0]), [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(pgf_iterate(e1, 2, [0.0, 0.0]), [0.625, 0.75], atol=1e-15)


def test_pgf_partial_frozen(e1):
    assert pgf_partial(e1, 1, 1, [1.0, 1.0]) == pytest.approx(0.5, abs=1e-15)
    assert pgf_partial(e1, 1, 1, [0.0, 0.0]) == pytest.approx(0.0, abs=0)
    assert pgf_partial(e1, 2, 1, [0.0, 0.0]) == pytest.approx(0.5, abs=1e-15)


def test_mean_matrix_frozen(e1):
    np.testing.assert_allclose(mean_matrix(e1), [[0.5, 0.5], [0.5, 0.0]], atol=1e-15)


def test_singular_model_refused():
    with pytest.raises(SchemaError):
        ModelSpec.from_pmf({1: {(1, 0): 1.0}, 2: {(0, 1): 1.0}})


def test_perron_e1(e1):
    info = perron(mean_matrix(e1))
    assert info.rho == pytest.approx((1 + math.sqrt(5)) / 4, abs=1e-12)
    assert info.criticality == "sub"


def test_perron_symmetric_critical():
    info = perron(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert info.rho == pytest.approx(1.0, abs=1e-12)
    assert info.criticality == "critical"
    np.testing.assert_allclose(info.v / info.v[0], [1.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(info.u, [0.5, 0.5], atol=1e-9)


def test_perron_rejects_non_positive_regular():
    with pytest.raises(NotPositiveRegularError):
        perron(np.eye(2))
    with pytest.raises(NotPositiveRegularError):
        perron(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_is_positive_regular():
    assert not is_positive_regular(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert is_positive_regular(np.array([[0.5, 0.5], [0.5, 0.0]]))
    assert is_positive_regular(np.full((3, 3), 0.1))
    with pytest.raises(SchemaError):
        is_positive_regular(np.array([[0.5, -0.1], [0.2, 0.3]]))


def test_survival_vector_frozen(e1):
    np.testing.assert_allclose(survival_vector(e1, 0), [1.0, 1.0], atol=0)
    np.testing.assert_allclose(survival_vector(e1, 1), [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(survival_vector(e1, 2), [0.375, 0.25], atol=1e-15)


def test_type_survival_vector_frozen(e1):
    np.testing.assert_allclose(type_survival_vector(e1, 0, 1), [1.0, 0.0], atol=0)
    np.testing.assert_allclose(type_survival_vector(e1, 1, 1), [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(type_survival_vector(e1, 1, 2), [0.5, 0.0], atol=1e-15)


def test_json_round_trip(e1):
    back = ModelSpec.from_json(e1.to_json())
    assert back.k == e1.k
    for ell in range(1, 3):
        assert back.pmf_dict(ell) == e1.pmf_dict(ell)


def test_json_schema_errors():
    with pytest.raises(SchemaError, match="JSON"):
        ModelSpec.from_json("{not json")
    with pytest.raises(SchemaError, match="parent type 2"):
        ModelSpec.from_json(
            '{"k": 2, "pmf": {"1": [{"counts": [0, 0], "p": 0.5}, {"counts": [2, 0], "p": 0.5}]}}'
        )
    with pytest.raises(SchemaError, match="row 1"):
        ModelSpec.from_json(
            '{"k": 1, "pmf": {"1": [{"counts": [0], "p": 0.5}, {"counts": [-1], "p": 0.5}]}}'
        )


# -- properties -------------------------------------------------------------


@given(spec=small_specs())
@settings(max_examples=60, deadline=None)
def test_pgf_at_one_is_one(spec):
    for ell in range(1, spec.k + 1):
        assert pgf_eval(spec, ell, np.ones(spec.k)) == pytest.approx(1.0, abs=1e-12)


@given(spec=small_specs(), n=st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_survival_monotone(spec, n):
    a = survival_vector(spec, n - 1)
    b = survival_vector(spec, n)
    assert np.all(b <= a + 1e-12)


@given(spec=small_specs(), n=st.integers(min_value=0, max_value=5))
@settings(max_examples=60, deadline=None)
def test_type_survival_below_survival(spec, n):
    s = survival_vector(spec, n)
    for ell in range(1, spec.k + 1):
        assert np.all(type_survival_vector(spec, n, ell) <= s + 1e-12)


@given(spec=small_specs())
@settings(max_examples=60, deadline=None)
def test_partial_at_one_is_mean_matrix(spec):
    M = mean_matrix(spec)
    ones = np.ones(spec.k)
    for ell in range(1, spec.k + 1):
        for wrt in range(1, spec.k + 1):
            assert pgf_partial(spec, ell, wrt, ones) == pytest.approx(
                M[ell - 1, wrt - 1], abs=1e-12
            )


@given(
    spec=small_specs(),
    a=st.integers(min_value=0, max_value=3),
    b=st.integers(min_value=0, max_value=3),
    s=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_iterate_semigroup(spec, a, b, s):
    s = np.array(s[: spec.k])
    lhs = pgf_iterate(spec, a + b, s)
    rhs = pgf_iterate(spec, a, pgf_iterate(spec, b, s))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@given(
    spec=small_specs(),
    n=st.integers(min_value=0, max_value=6),
    s=st.lists(st.sampled_from([0.0, 0.3, 0.9, 1.0]), min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_complement_orbit_matches_iterate(spec, n, s):
    s = np.array(s[: spec.k])
    orbit = complement_orbit(spec, n, s)
    assert orbit.shape == (n + 1, spec.k)
    for j in range(n + 1):
        np.testing.assert_allclose(orbit[j], 1.0 - pgf_iterate(spec, j, s), atol=1e-12)


@given(spec=small_specs())
@settings(max_examples=40, deadline=None)
def test_perron_residuals(spec):
    M = mean_matrix(spec)
    if not is_positive_regular(M):
        return
    info = perron(M)
    assert np.max(np.abs(M @ info.v - info.rho * info.v)) <= 1e-9
    assert np.max(np.abs(info.u @ M - info.rho * info.u)) <= 1e-9
    assert info.u @ info.v == pytest.approx(1.0, abs=1e-9)
    assert info.u.sum() == pytest.approx(1.0, abs=1e-9)
