import numpy as np
import pytest

from mtcpp.lf import LFParams
from mtcpp.model import ModelSpec


def e1_model() -> ModelSpec:
    """Two-type fixture: f1(s) = 1/2 + s1 s2 / 2, f2(s) = 1/2 + s1 / 2."""
    return ModelSpec.from_pmf(
        {
            1: {(0, 0): 0.5, (1, 1): 0.5},
            2: {(0, 0): 0.5, (1, 0): 0.5},
        }
    )


def s3_model() -> ModelSpec:
    """Subcritical three-type model (rho ~ 0.77) with one-step lineage changes."""
    return ModelSpec.from_pmf(
        {
            1: {(0, 0, 0): 0.45, (1, 1, 0): 0.3, (0, 0, 1): 0.25},
            2: {(0, 0, 0): 0.5, (1, 0, 0): 0.3, (0, 1, 1): 0.2},
            3: {(0, 0, 0): 0.5, (0, 1, 0): 0.25, (1, 0, 1): 0.25},
        }
    )


def lf1_model() -> LFParams:
    """Supercritical two-type LF fixture."""
    return LFParams(
        k=2,
        H=np.array([[0.3, 0.4], [0.2, 0.5]]),
        g=np.array([0.4, 0.6]),
        m=1.5,
    )


# the fixtures build fresh models per test; the builders also serve code that
# runs outside pytest (`python tests/test_golden.py`)
@pytest.fixture
def e1() -> ModelSpec:
    return e1_model()


@pytest.fixture
def s3() -> ModelSpec:
    return s3_model()


@pytest.fixture
def lf1() -> LFParams:
    return lf1_model()


def random_lf_params(rng: np.random.Generator, k: int, m_range=(0.3, 2.5)) -> LFParams:
    """Random LF parameters with strictly positive g and nonzero death mass."""
    H = rng.uniform(0.05, 1.0, size=(k, k))
    H *= rng.uniform(0.55, 0.9) / H.sum(axis=1, keepdims=True)
    g = rng.uniform(0.2, 1.0, size=k)
    g /= g.sum()
    m = float(rng.uniform(*m_range))
    return LFParams(k=k, H=H, g=g, m=m)
