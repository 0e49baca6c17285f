from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcpp.errors import SchemaError
from mtcpp.lf import (
    LFParams,
    lf_coalescence_law,
    lf_iterate,
    lf_iterate_sequence,
    lf_sample_offspring,
    lf_sametype_law,
    lf_typefree_laws,
    two_type_compare,
    two_type_models,
    two_type_weight_poly,
)
from mtcpp.analytics import A1_tail, B1_tail
from mtcpp.model import complement_orbit, mean_matrix, pgf_eval, pgf_eval_all, pgf_partial
from mtcpp.rng import stream
from oracles import lf_to_modelspec

from conftest import random_lf_params


@st.composite
def lf_params(draw) -> LFParams:
    k = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return random_lf_params(np.random.default_rng(seed), k)


# -- frozen values ----------------------------------------------------------


def test_lf_pgf_frozen(lf1):
    assert pgf_eval(lf1, 1, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
    assert pgf_eval(lf1, 1, [0.0, 0.0]) == pytest.approx(0.3, abs=1e-12)
    assert pgf_eval(lf1, 1, [1.0, 0.0]) == pytest.approx(0.3 + 0.3 / 1.9, abs=1e-12)


def test_lf_params_validation():
    with pytest.raises(SchemaError, match="row 1"):
        LFParams(k=2, H=np.array([[0.8, 0.4], [0.1, 0.1]]), g=np.array([0.5, 0.5]), m=1.0)
    with pytest.raises(SchemaError, match="probability vector"):
        LFParams(k=2, H=np.array([[0.3, 0.3], [0.1, 0.1]]), g=np.array([0.5, 0.6]), m=1.0)
    with pytest.raises(SchemaError, match="m must be"):
        LFParams(k=2, H=np.array([[0.3, 0.3], [0.1, 0.1]]), g=np.array([0.5, 0.5]), m=0.0)


def test_lf_json_round_trip(lf1):
    back = LFParams.from_json(lf1.to_json())
    np.testing.assert_allclose(back.H, lf1.H, atol=0)
    np.testing.assert_allclose(back.g, lf1.g, atol=0)
    assert back.m == lf1.m


def test_lf_to_modelspec_matches_pgf(lf1):
    spec = lf_to_modelspec(lf1, truncate_at=60)
    for ell in (1, 2):
        for s in ([0.5, 0.5], [0.0, 1.0], [0.3, 0.8]):
            assert pgf_eval(spec, ell, s) == pytest.approx(pgf_eval(lf1, ell, s), abs=1e-9)


def test_lf_to_modelspec_mean_matrix(lf1):
    spec = lf_to_modelspec(lf1, truncate_at=60)
    np.testing.assert_allclose(mean_matrix(spec), mean_matrix(lf1), atol=1e-9)


# -- the model interface: LF closed forms behind the generic routes ---------

#: Three-type LF model, rho ~ 1.26.
LF3 = LFParams(
    k=3,
    H=np.array([[0.3, 0.2, 0.2], [0.1, 0.4, 0.2], [0.2, 0.2, 0.3]]),
    g=np.array([0.5, 0.3, 0.2]),
    m=0.8,
)


@pytest.mark.parametrize("model", ["lf1", "lf3"])
def test_lf_complement_step_is_one_minus_f(model, request):
    params = LF3 if model == "lf3" else request.getfixturevalue(model)
    rng = np.random.default_rng(5)
    for q in [np.zeros(params.k), np.ones(params.k), *rng.uniform(size=(200, params.k))]:
        want = 1.0 - pgf_eval_all(params, 1.0 - q)
        np.testing.assert_allclose(params.complement_step(q), want, rtol=0, atol=1e-15)


def test_lf_jacobian_at_one_is_the_mean_matrix(lf1):
    # M = H + m (H 1) g^T: the first child, then m g-typed ones on average
    M = lf1.H + lf1.m * np.outer(lf1.H.sum(axis=1), lf1.g)
    np.testing.assert_allclose(mean_matrix(lf1), M, rtol=0, atol=1e-15)
    for i, t in product(range(1, 3), repeat=2):
        assert pgf_partial(lf1, i, t, np.ones(2)) == pytest.approx(M[i - 1, t - 1], abs=1e-14)


@pytest.mark.parametrize("model", ["lf1", "lf3"])
def test_generic_first_pair_laws_are_the_lf_laws(model, request):
    # a third route for the LF laws: the Jacobian-product walk on the LF
    # closed forms, conditioned on any ancestor type
    params = LF3 if model == "lf3" else request.getfixturevalue(model)
    types = range(1, params.k + 1)
    for n in range(11):
        want = lf_coalescence_law(params, n)
        for top in types:
            assert abs(A1_tail(params, top, n) - want) <= 1e-9
        for ell, top in product(types, types):
            if n == 0 and top != ell:
                continue  # a type-top individual is not of type ell
            want = lf_sametype_law(params, ell, n)
            assert abs(B1_tail(params, ell, top, n) - want) <= 1e-9


def test_generic_sametype_law_matches_the_truncated_spec(lf1):
    spec = lf_to_modelspec(lf1, truncate_at=60)
    for ell, top, n in product((1, 2), (1, 2), range(9)):
        if n == 0 and top != ell:
            continue  # a type-top individual is not of type ell
        assert abs(B1_tail(lf1, ell, top, n) - B1_tail(spec, ell, top, n)) <= 1e-9


def test_lf_survival_orbit_matches_the_truncated_spec(lf1):
    spec = lf_to_modelspec(lf1, truncate_at=60)
    for s in ([0.0, 0.0], [0.0, 1.0], [1.0, 0.0]):
        np.testing.assert_allclose(
            complement_orbit(lf1, 12, s), complement_orbit(spec, 12, s), rtol=1e-9, atol=0
        )


def test_lf_to_modelspec_tiny_m():
    params = LFParams(
        k=2, H=np.array([[0.3, 0.4], [0.2, 0.5]]), g=np.array([0.4, 0.6]), m=1e-8
    )
    spec = lf_to_modelspec(params, truncate_at=3)
    pmf = spec.pmf_dict(1)
    assert pmf[(0, 0)] == pytest.approx(0.3, abs=1e-7)
    assert pmf[(1, 0)] == pytest.approx(0.3, abs=1e-7)
    assert pmf[(0, 1)] == pytest.approx(0.4, abs=1e-7)


def test_lf_to_modelspec_refuses_bad_truncation(lf1):
    from mtcpp.errors import GuardError

    with pytest.raises(GuardError):
        lf_to_modelspec(lf1, truncate_at=5)


def test_lf_sample_offspring_degenerate():
    params = LFParams(
        k=2, H=np.array([[0.0, 0.0], [0.2, 0.5]]), g=np.array([0.4, 0.6]), m=1.0
    )
    rng = stream(1234, "degenerate")
    assert all(lf_sample_offspring(params, 1, rng) == [] for _ in range(200))


def test_lf_sample_offspring_moments(lf1):
    rng = stream(99, "lf-moments")
    n = 100_000
    n_empty = 0
    lengths = []
    for _ in range(n):
        off = lf_sample_offspring(lf1, 1, rng)
        if not off:
            n_empty += 1
        else:
            lengths.append(len(off))
    h0 = 0.3
    se_empty = np.sqrt(h0 * (1 - h0) / n)
    assert abs(n_empty / n - h0) < 3 * se_empty
    mean_len = np.mean(lengths)
    sd_len = np.sqrt(lf1.m * (1 + lf1.m))
    assert abs(mean_len - (1 + lf1.m)) < 3 * sd_len / np.sqrt(len(lengths))


def test_lf_iterate_n1_is_input(lf1):
    it = lf_iterate(lf1, 1)
    assert it.m_n == pytest.approx(lf1.m, abs=1e-12)
    np.testing.assert_allclose(it.g_n, lf1.g, atol=1e-12)
    np.testing.assert_allclose(it.H_n, lf1.H, atol=1e-12)


def test_lf_iterate_n0_convention(lf1):
    it = lf_iterate(lf1, 0)
    assert it.m_n == 0.0
    np.testing.assert_allclose(it.g_n, lf1.g, atol=0)
    np.testing.assert_allclose(it.H_n, np.eye(2), atol=0)
    np.testing.assert_allclose(it.h0_n, [0.0, 0.0], atol=0)


def test_lf_iterate_single_type_geometric_series():
    h1, m = 0.6, 0.8
    params = LFParams(k=1, H=np.array([[h1]]), g=np.array([1.0]), m=m)
    rho = h1 * (1 + m)
    for n in range(1, 8):
        expected = m * sum(rho**j for j in range(n))
        assert lf_iterate(params, n).m_n == pytest.approx(expected, abs=1e-12)


def test_lf_coalescence_law_frozen(lf1):
    assert lf_coalescence_law(lf1, 0) == 1.0
    assert lf_coalescence_law(lf1, 1) == pytest.approx(0.4, abs=1e-12)


def test_lf_sametype_law_frozen(lf1):
    assert lf_sametype_law(lf1, 1, 0) == 1.0
    assert lf_sametype_law(lf1, 2, 0) == 1.0


def test_lf_sametype_single_type_equals_coalescence():
    params = LFParams(k=1, H=np.array([[0.7]]), g=np.array([1.0]), m=1.2)
    for n in range(8):
        assert lf_sametype_law(params, 1, n) == pytest.approx(
            lf_coalescence_law(params, n), abs=1e-12
        )


def test_lf_typefree_frozen_equality_branch():
    pA, _ = lf_typefree_laws(0.25, 1.0 / 3.0, [0.5, 0.5], 1, 2)
    assert pA == pytest.approx(0.6, abs=1e-12)
    pA0, pB0 = lf_typefree_laws(0.25, 1.0 / 3.0, [0.5, 0.5], 1, 0)
    assert pA0 == 1.0 and pB0 == 1.0


def test_lf_typefree_matches_lf_laws():
    g = np.array([0.35, 0.65])
    for h0, m in [(0.4, 0.9), (0.5, 1.0), (0.2, 0.6)]:
        params = LFParams(k=2, H=(1 - h0) * np.outer(np.ones(2), g), g=g, m=m)
        for n in range(7):
            pA, pB = lf_typefree_laws(h0, m, g, 2, n)
            assert pA == pytest.approx(lf_coalescence_law(params, n), abs=1e-12)
            assert pB == pytest.approx(lf_sametype_law(params, 2, n), abs=1e-12)


def test_two_type_models():
    s, a = two_type_models(0.3, 0.7, 0.8, 1.0)
    np.testing.assert_allclose(a.H[1], [0.0, 0.8], atol=0)
    np.testing.assert_allclose(s.H, 0.8 * np.array([[0.7, 0.3], [0.3, 0.7]]), atol=1e-15)
    s1, a1 = two_type_models(0.2, 1.0, 0.5, 1.0)
    np.testing.assert_allclose(s1.H, 0.5 * np.eye(2), atol=0)
    np.testing.assert_allclose(a1.H, 0.5 * np.eye(2), atol=0)
    with pytest.raises(SchemaError):
        two_type_models(0.7, 0.5, 0.5, 1.0)
    with pytest.raises(SchemaError):
        two_type_models(0.3, 0.0, 0.5, 1.0)


def test_two_type_degenerate_case_is_typefree():
    # equal H rows plus g = 1/2 make the offspring law parent-type-free
    cmp = two_type_compare(0.5, 0.5, 0.8, 1.0, 6)
    for n, pA, b1s, _, b2s, _ in cmp.rows:
        pA_tf, pB_tf = lf_typefree_laws(0.2, 1.0, [0.5, 0.5], 1, n)
        assert pA == pytest.approx(pA_tf, abs=1e-12)
        assert b1s == pytest.approx(pB_tf, abs=1e-12)
        assert b2s == pytest.approx(pB_tf, abs=1e-12)


def test_two_type_compare_runs_on_awkward_corners():
    # rho = h1 (1+m) = 1 exactly, and the p = 1 no-cross-type corner
    for combo in [(0.2, 0.5, 0.5, 1.0), (0.1, 1.0, 0.8, 2.0), (0.5, 0.9, 0.5, 1.0)]:
        cmp = two_type_compare(*combo, n_max=8)
        assert len(cmp.rows) == 8


def test_two_type_weight_poly_at_one():
    for n in (1, 2, 5, 9):
        for h1, m in [(0.5, 1.0), (0.8, 0.5), (0.8, 2.0), (0.3, 1.7)]:
            assert two_type_weight_poly(n, h1, m, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_two_type_csv_shape():
    text = two_type_compare(0.3, 0.7, 0.8, 1.0, 3).to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "n,pA,pB1_s,pB1_a,pB2_s,pB2_a"
    assert len(lines) == 4


# -- properties -------------------------------------------------------------


@given(params=lf_params())
@settings(max_examples=30, deadline=None)
def test_iterate_identities(params):
    k, g = params.k, params.g
    M = mean_matrix(params)
    ones = np.ones(k)
    its = lf_iterate_sequence(params, 50)
    Mpow = np.eye(k)
    for n in range(1, 51):
        Mpow = Mpow @ M
        it = its[n]
        # row sums of H_n and h0_n stay consistent
        np.testing.assert_allclose(it.h0_n, 1.0 - it.H_n @ ones, atol=1e-9)
        assert np.all(it.h0_n >= -1e-12)
        assert it.g_n @ ones == pytest.approx(1.0, abs=1e-9)
        # composed-first-offspring identity used by the product-form laws
        lhs = float(g @ it.H_n @ ones)
        rhs = float(g @ Mpow @ ones) / (1.0 + it.m_n)
        assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))


@given(params=lf_params())
@settings(max_examples=30, deadline=None)
def test_iterate_telescoping(params):
    k, m, g = params.k, params.m, params.g
    M = mean_matrix(params)
    ones = np.ones(k)
    its = lf_iterate_sequence(params, 50)
    Mpow = np.eye(k)
    for n in range(1, 51):
        expected = its[n - 1].m_n + m * float(g @ Mpow @ ones)
        assert its[n].m_n == pytest.approx(expected, abs=1e-9 * max(1.0, expected))
        Mpow = Mpow @ M


@given(params=lf_params(), n=st.integers(min_value=1, max_value=20))
@settings(max_examples=30, deadline=None)
def test_laws_monotone_in_unit_interval(params, n):
    a_prev = lf_coalescence_law(params, n - 1)
    a = lf_coalescence_law(params, n)
    assert 0.0 < a <= a_prev <= 1.0
    for ell in range(1, params.k + 1):
        b_prev = lf_sametype_law(params, ell, n - 1)
        b = lf_sametype_law(params, ell, n)
        assert 0.0 < b <= b_prev + 1e-15 <= 1.0 + 1e-15
