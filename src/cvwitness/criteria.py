"""Closed-form separability criteria.

Every criterion returns a :class:`Verdict` whose margin is normalized so
that margin >= 0 means the criterion is satisfied, regardless of the
direction of the underlying inequality.
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import families
from .errors import ImpureLocalCM, NegativeC
from .symplectic import CovarianceMatrix, StandardForm, validate_cm

MARGIN_TOL = 1e-12

# three-mode biseparability constants (exact surds)
_S11 = np.sqrt(11.0)
BISEP_THRESHOLD_C = 1.0 / np.sqrt(5.0 + 2.0 * _S11)
BISEP_LARGE_C_BOUND = (
    4.0 * np.sqrt(14.0 + 2.0 * _S11) + np.sqrt(29.0 + 8.0 * _S11) - 9.0
) / (6.0 * np.sqrt(5.0 + 2.0 * _S11))


class Classification(enum.Enum):
    ENTANGLED = "entangled"
    CRITERION_SATISFIED = "satisfied"


@dataclass(frozen=True)
class Verdict:
    criterion_id: str
    margin: float

    @property
    def classification(self):
        if self.margin < -MARGIN_TOL:
            return Classification.ENTANGLED
        return Classification.CRITERION_SATISFIED

    @property
    def entangled(self):
        return self.classification is Classification.ENTANGLED


@dataclass(frozen=True)
class WernerWolf2x2Params:
    """Scalars of the generalized Werner-Wolf covariance matrix."""

    A: float
    B: float
    C: float
    D: float
    E: float
    F: float

    def to_cm(self):
        return families.werner_wolf_cm(self.A, self.B, self.C, self.D, self.E, self.F)

    def validate(self):
        validate_cm(self.to_cm())
        return self


@dataclass(frozen=True)
class SymmetricMultimodeParams:
    n: int
    a: float
    b: float
    c1: float
    c2: float

    def to_cm(self):
        return families.symmetric_multimode_cm(self.n, self.a, self.b, self.c1, self.c2)

    def validate(self):
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("the symmetric family is stated for c1 > 0, c2 > 0")
        validate_cm(self.to_cm())
        return self


@dataclass(frozen=True)
class GHZParams:
    """The n-mode GHZ-type family: diagonal a, coupling c (see ghz_full_sep)."""

    n: int
    a: float
    c: float


def simon_criterion(sf):
    """Simon criterion for a two-mode standard form (PPT-equivalent)."""
    a, b, c1, c2 = sf.a, sf.b, sf.c1, sf.c2
    margin = (a * b - c1**2) * (a * b - c2**2) - 2 * abs(c1 * c2) - a**2 - b**2 + 1
    return Verdict("simon", float(margin))


def symmetric_two_mode(a, c1, c2):
    """(a - c1)(a - c2) >= 1 for the symmetric two-mode Gaussian family."""
    return Verdict("symmetric_two_mode", float((a - c1) * (a - c2) - 1.0))


def squeezed_thermal(a, b, c):
    """(a - 1)(b - 1) >= c^2 for two-mode squeezed thermal states."""
    return Verdict("squeezed_thermal", float((a - 1.0) * (b - 1.0) - c * c))


def werner_wolf_2x2(p):
    """Closed-form criterion for the generalized Werner-Wolf 2x2 state."""
    a, b, c, d, e, f = p.A, p.B, p.C, p.D, p.E, p.F
    margin = (a * c - e * e) * (b * d - f * f) - 2 * abs(e * f) - c * d - a * b + 1
    return Verdict("werner_wolf_2x2", float(margin))


def _refine_window(feasible, x0, y0):
    """First feasible (x, y), row-major, on an 80 x 80 window around (x0, y0).

    The window spans +-5% geometrically on each axis; ``feasible`` maps
    broadcast x, y arrays to a boolean grid. Returns None when no window
    point is feasible.
    """
    x = np.geomspace(x0 / 1.05, x0 * 1.05, 80)[:, None]
    y = np.geomspace(y0 / 1.05, y0 * 1.05, 80)[None, :]
    ok = feasible(x, y)
    if not ok.any():
        return None
    i, j = np.unravel_index(np.argmax(ok), ok.shape)
    return float(x[i, 0]), float(y[0, j])


def ww_pair_exists(p):
    """Grid search for (x, y) > 0 satisfying the pure-product certificate pair.

    Looks for (A - 1/x)(C - 1/y) >= E^2 and (B - x)(D - y) >= F^2 over a
    logarithmic grid with one local refinement pass.
    """

    def feasible(x, y):
        return (
            (p.A - 1.0 / x >= 0)
            & (p.C - 1.0 / y >= 0)
            & (p.B - x >= 0)
            & (p.D - y >= 0)
            & ((p.A - 1.0 / x) * (p.C - 1.0 / y) >= p.E * p.E)
            & ((p.B - x) * (p.D - y) >= p.F * p.F)
        )

    grid = np.logspace(-3.0, 3.0, 600)
    xs = grid[(1.0 / grid <= p.A) & (grid <= p.B)]
    ys = grid[(1.0 / grid <= p.C) & (grid <= p.D)]
    if xs.size == 0 or ys.size == 0:
        return False
    t1 = np.outer(p.A - 1.0 / xs, p.C - 1.0 / ys) - p.E * p.E
    t2 = np.outer(p.B - xs, p.D - ys) - p.F * p.F
    ok = (t1 >= 0) & (t2 >= 0)
    if np.any(ok):
        return True
    # refine around the least-infeasible grid point
    score = np.minimum(t1, t2)
    i, j = np.unravel_index(np.argmax(score), score.shape)
    return _refine_window(feasible, xs[i], ys[j]) is not None


def multimode_symmetric_full_sep(p):
    """(a - c1)(b - (n-1) c2) >= 1 for full separability of the symmetric family."""
    margin = (p.a - p.c1) * (p.b - (p.n - 1) * p.c2) - 1.0
    return Verdict("multimode_symmetric_full_sep", float(margin))


def ghz_full_sep(a, c, n):
    """Full-separability margin for the n-mode GHZ-type family (b = a + (n-2)c)."""
    if c > 0:
        margin = a - c - 1.0
    else:
        b = a + (n - 2) * c
        margin = b + c - 1.0
    return Verdict("ghz_full_sep", float(margin))


def three_mode_biseparable(a, c):
    """Biseparability margin for the three-mode symmetric family (b = a + c).

    Two branches joined continuously at c = 1/sqrt(5 + 2*sqrt(11)).
    """
    if c < 0:
        raise NegativeC("the biseparability bound is derived for c >= 0")
    if c >= BISEP_THRESHOLD_C:
        margin = (a - c) - BISEP_LARGE_C_BOUND
    else:
        margin = a - (
            0.5 * np.sqrt(c * c + 4.0 / 9.0)
            + 2.0 * np.sqrt(c * c + 1.0 / 9.0)
            - 0.5 * c
        )
    return Verdict("three_mode_biseparable", float(margin))


def biseparability_certificate(a, c):
    """Certificate (x, s) and constraint residuals for the symmetric 1/3-mixture.

    Large-c branch: sinh(2s) = sqrt(9/(5 + 2*sqrt(11))); small-c branch:
    sinh(2s) = 3c. In both, x > 0 solves x - 1/x + sinh(2s) = 0, which makes
    the first and fourth residuals coincide.
    """
    if c < 0:
        raise NegativeC("the biseparability certificate is derived for c >= 0")
    if c >= BISEP_THRESHOLD_C:
        sh = np.sqrt(9.0 / (5.0 + 2.0 * _S11))
    else:
        sh = 3.0 * c
    x = 0.5 * (-sh + np.sqrt(sh * sh + 4.0))
    ch = np.sqrt(1.0 + sh * sh)
    b = a + c
    residuals = (
        (a - c) - (x + 2 * ch - sh) / 3.0,
        (a + 2 * c) - (x + 2 * ch + 2 * sh) / 3.0,
        (b + c) - (1.0 / x + 2 * ch + sh) / 3.0,
        (b - 2 * c) - (1.0 / x + 2 * ch - 2 * sh) / 3.0,
    )
    s = 0.5 * np.arcsinh(sh)
    return float(x), float(s), tuple(float(r) for r in residuals)


def cauchy_schwarz_bound(sf):
    """(sqrt(ab) - c1)(sqrt(ab) - c2) >= 1, the Cauchy-Schwarz upper-bound criterion."""
    m = np.sqrt(sf.a * sf.b)
    return Verdict("cauchy_schwarz", float((m - sf.c1) * (m - sf.c2) - 1.0))


def refined_ww_check(gamma, *locals_, det_tol=1e-6, psd_tol=1e-9):
    """True iff gamma - (direct sum of pure local CMs) is positive semidefinite.

    Each local CM must be pure (determinant 1 within ``det_tol``); works for
    any number of parties.
    """
    g = gamma.entries if isinstance(gamma, CovarianceMatrix) else np.asarray(gamma, float)
    blocks = []
    for loc in locals_:
        m = loc.entries if isinstance(loc, CovarianceMatrix) else np.asarray(loc, float)
        d = np.linalg.det(m)
        if abs(d - 1.0) > det_tol:
            raise ImpureLocalCM(f"local CM determinant {d!r} deviates from 1")
        blocks.append(m)
    direct_sum = np.zeros_like(g)
    off = 0
    for m in blocks:
        k = m.shape[0]
        direct_sum[off : off + k, off : off + k] = m
        off += k
    if off != g.shape[0]:
        raise ValueError("local CM dimensions do not match the full CM")
    w = np.linalg.eigvalsh(g - direct_sum)
    return bool(w[0] >= -psd_tol)


def refined_ww_search(sf):
    """Search for a pure-product certificate for a two-mode standard form.

    Tries gamma_A = diag(1/x, x), gamma_B = diag(y, 1/y) over a logarithmic
    grid with local refinement; returns (x, y) or None.
    """

    def feasible(x, y):
        # PSD of the difference decouples into an x-sector and a p-sector
        t1 = (sf.a - 1.0 / x) * (sf.b - y) - sf.c1 * sf.c1
        t2 = (sf.a - x) * (sf.b - 1.0 / y) - sf.c2 * sf.c2
        return (
            (sf.a - 1.0 / x >= 0)
            & (sf.b - y >= 0)
            & (sf.a - x >= 0)
            & (sf.b - 1.0 / y >= 0)
            & (t1 >= 0)
            & (t2 >= 0)
        )

    grid = np.logspace(-3.0, 3.0, 600)
    xs = grid[(grid <= sf.a) & (1.0 / grid <= sf.a)]
    ys = grid[(grid <= sf.b) & (1.0 / grid <= sf.b)]
    if xs.size == 0 or ys.size == 0:
        # a or b below 1: only the exact vacuum certificate could work
        return (1.0, 1.0) if feasible(1.0, 1.0) else None
    t1 = np.outer(sf.a - 1.0 / xs, sf.b - ys) - sf.c1 * sf.c1
    t2 = np.outer(sf.a - xs, sf.b - 1.0 / ys) - sf.c2 * sf.c2
    score = np.minimum(t1, t2)
    i, j = np.unravel_index(np.argmax(score), score.shape)
    if score[i, j] >= 0:
        return float(xs[i]), float(ys[j])
    return _refine_window(feasible, xs[i], ys[j])


def certificate_cms(x, y):
    """The pure local CMs named by a refined_ww_search certificate."""
    return np.diag([1.0 / x, x]), np.diag([y, 1.0 / y])
