"""Hand-built fluxes shared by the test modules: linear fluxes f = u (split
a = 1, g = u) that go non-finite below u = -0.45."""

import numpy as np
import pytest

from pmelab import problem as pr


def _unit_split(g):
    return dict(a=lambda x: np.ones(np.shape(x)), div_a=lambda x: np.zeros(np.shape(x)[1:]),
                g=g)


@pytest.fixture
def nan_below_flux():
    """f = u, and its split's g, NaN below -0.45; df_du and |g'| stay 1."""
    def f(x, u):
        u = np.asarray(u, dtype=float)
        return np.where(u < -0.45, np.nan, u)[None]

    def g(u, out):
        return np.where(u < -0.45, np.nan, u), None, np.ones_like(u)

    return pr.FluxModel(name="nan-below", f=f,
                        df_du=lambda x, u: np.ones((1,) + np.shape(u)), **_unit_split(g))


@pytest.fixture
def nan_below_derivative():
    """f = u, whose df_du and split's |g'| are NaN below -0.45."""
    def df_du(x, u):
        return np.where(np.asarray(u, dtype=float) < -0.45, np.nan, 1.0)[None]

    def g(u, out):
        return u, None, np.where(u < -0.45, np.nan, 1.0)

    return pr.FluxModel(name="nan-df-below", f=lambda x, u: np.asarray(u, float)[None],
                        df_du=df_du, **_unit_split(g))
