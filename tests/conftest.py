import numpy as np
import pytest

from dualtet import Mat2, Point, Tangent, act
from dualtet.geometry import model_from_coords, model_gram
from dualtet.verify import random_isometry

LAMBDAS = (-1, 0, 1)


def random_point(rng: np.random.Generator, space: str, lam: int) -> Point:
    return act(random_isometry(rng, lam), Point.origin(space, lam))


def random_tangent(rng: np.random.Generator, space: str, lam: int,
                   sigma: int | None = None) -> Tangent:
    """Unit tangent at the origin with the requested causal class."""
    g = model_gram(space, lam)
    while True:
        coords = rng.normal(size=3)
        q = coords @ g @ coords
        if sigma in (None, 1) and q > 0.05:
            return Tangent(space, model_from_coords(space, coords / np.sqrt(q), lam))
        if sigma == -1 and q < -0.05:
            return Tangent(space, model_from_coords(space, coords / np.sqrt(-q), lam))


def taylor_exp(m: Mat2, terms: int = 48) -> Mat2:
    """Plain power-series matrix exponential (test oracle)."""
    acc = Mat2.identity(m.lam)
    term = Mat2.identity(m.lam)
    for k in range(1, terms):
        term = term @ m * (1.0 / k)
        acc = acc + term
    return acc


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
