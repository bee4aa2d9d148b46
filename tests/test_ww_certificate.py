"""The closed-form product-certificate solve behind both Werner-Wolf searches.

Near-boundary sets sit at margins +-1e-3, +-1e-5 and +-1e-7, reached by
scaling the couplings (E, F) or (c1, c2) along a ray; a certificate must
come back exactly when the margin is nonnegative, and must fit under the CM.
"""

import numpy as np
import pytest
import sympy

from cvwitness import criteria
from cvwitness.criteria import WernerWolf2x2Params
from cvwitness.symplectic import StandardForm, validate_cm

MARGINS = (1e-3, -1e-3, 1e-5, -1e-5, 1e-7, -1e-7)


def _ray_scale(A, B, C, D, e0, f0, margin):
    """Smallest t >= 0 with margin(t e0, t f0) = margin for the (A..D) margin.

    The Werner-Wolf margin along the ray is a quadratic in s = t^2 whose
    value at s = 0 is (AB - 1)(CD - 1); the Simon margin is the case
    A = B = a, C = D = b.
    """
    c0 = (A * B - 1.0) * (C * D - 1.0) - margin
    lin = A * C * f0 * f0 + B * D * e0 * e0 + 2.0 * abs(e0 * f0)
    quad = e0 * e0 * f0 * f0
    return np.sqrt(2.0 * c0 / (lin + np.sqrt(lin * lin - 4.0 * quad * c0)))


def _near_boundary(kind, margin, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        if kind == "ww":
            A, B, C, D = rng.uniform(0.5, 4.0, size=4)
        else:
            a, b = rng.uniform(1.0, 4.0, size=2)
            A, B, C, D = a, a, b, b
        theta = rng.uniform(0.0, 2.0 * np.pi)
        e0, f0 = np.cos(theta), np.sin(theta)
        if (A * B - 1.0) * (C * D - 1.0) <= margin:
            continue
        t = _ray_scale(A, B, C, D, e0, f0, margin)
        if kind == "ww":
            state = WernerWolf2x2Params(A, B, C, D, t * e0, t * f0)
        else:
            state = StandardForm(a=A, b=C, c1=t * e0, c2=t * f0)
        try:
            validate_cm(state.to_cm())
        except Exception:
            continue
        out.append(state)
    return out


def _ww_locals(x, y):
    """Pure local CMs of a Werner-Wolf certificate, two modes per party."""
    return np.diag([1.0 / x, x, 1.0 / x, x]), np.diag([1.0 / y, y, 1.0 / y, y])


def _sf_locals(x, y):
    """Pure local CMs of a refined_ww_search certificate."""
    return np.diag([1.0 / x, x]), np.diag([y, 1.0 / y])


@pytest.mark.parametrize("margin", MARGINS)
def test_ww_pair_near_boundary(margin):
    for p in _near_boundary("ww", margin, 300, seed=13):
        m = criteria.werner_wolf_2x2(p).margin
        assert np.sign(m) == np.sign(margin)
        assert criteria.ww_pair_exists(p) == (m >= 0)
        if m >= 0:
            pair = criteria._product_certificate(p.A, p.B, p.C, p.D, p.E, p.F)
            assert criteria.refined_ww_check(p.to_cm(), *_ww_locals(*pair))


@pytest.mark.parametrize("margin", MARGINS)
def test_refined_search_near_boundary(margin):
    for sf in _near_boundary("simon", margin, 300, seed=17):
        m = criteria.simon_criterion(sf).margin
        assert np.sign(m) == np.sign(margin)
        found = criteria.refined_ww_search(sf)
        assert (found is not None) == (m >= 0)
        if found is not None:
            assert criteria.refined_ww_check(sf.to_cm(), *_sf_locals(*found))


def test_vacuum_certificate():
    assert criteria.refined_ww_search(StandardForm(a=1.0, b=1.0, c1=0.0, c2=0.0)) == (1.0, 1.0)


@pytest.mark.parametrize("a, b", [(1.0, 2.5), (1.7, 1.0), (3.0, 1.3), (np.float64(2.2), 4.0)])
def test_product_state_certificate(a, b):
    sf = StandardForm(a=a, b=b, c1=0.0, c2=0.0)
    found = criteria.refined_ww_search(sf)
    assert found is not None
    assert criteria.refined_ww_check(sf.to_cm(), *_sf_locals(*found))


@pytest.mark.parametrize("c1, c2", [(0.0, 0.6), (0.0, -1.15), (0.9, 0.0), (1.15, 0.0)])
def test_one_quadrature_uncoupled(c1, c2):
    # with c1 c2 = 0 the state is physical exactly when the Simon margin is
    # nonnegative, so every such state has a certificate
    sf = StandardForm(a=1.9, b=1.6, c1=c1, c2=c2)
    validate_cm(sf.to_cm())
    found = criteria.refined_ww_search(sf)
    assert found is not None
    assert criteria.refined_ww_check(sf.to_cm(), *_sf_locals(*found))


@pytest.mark.parametrize(
    "params",
    [(2.0, 1.5, 1.8, 2.5, 0.0, 0.9), (1.2, 3.0, 2.0, 0.8, 0.0, -0.4),
     (2.0, 1.5, 1.8, 2.5, 1.1, 0.0), (3.0, 0.7, 1.4, 2.0, -0.5, 0.0),
     (2.0, 2.0, 2.0, 2.0, 0.0, 0.0)],
)
def test_one_coupling_zero(params):
    # h is monotone: its maximum sits on an interval end where one factor
    # of the vanishing coupling is exactly 0
    A, B, C, D, E, F = params
    p = WernerWolf2x2Params(*params).validate()
    assert criteria.werner_wolf_2x2(p).margin > 0
    assert criteria.ww_pair_exists(p)
    x, y = criteria._product_certificate(*params)
    assert min(A - 1.0 / x, C - 1.0 / y, B - x, D - y) >= 0
    assert (A - 1.0 / x) * (C - 1.0 / y) >= E * E
    assert (B - x) * (D - y) >= F * F


def test_empty_interval():
    assert not criteria.ww_pair_exists(WernerWolf2x2Params(1.0, 1.0, 2.0, 2.0, 0.0, 0.3))


def test_stationarity_quadratic_matches_symbolic_derivative():
    A, B, C, D, E, F, u = sympy.symbols("A B C D E F u", positive=True)
    h = (C - E**2 / (A - u)) * (D - F**2 * u / (B * u - 1))
    numer = sympy.numer(sympy.together(sympy.diff(sympy.log(h), u)))
    a2, a1, a0 = criteria._stationarity_coefficients(A, B, C, D, E, F)
    quad = a2 * u**2 + a1 * u + a0
    ratio = sympy.factor(sympy.cancel(numer / quad))
    assert not ratio.has(u)
    assert ratio != 0
    # the form the solver's docstring states
    stated = (F**2 * C * (A - u) ** 2 - E**2 * D * (B * u - 1) ** 2
              + E**2 * F**2 * (B * u**2 - A))
    assert sympy.expand(stated - quad) == 0
