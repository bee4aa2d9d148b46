"""Gaussian detect-operator machinery.

Houses the six-parameter detect operator, the product-vacuum maximum
Lambda, and the determinant-ratio statistic minimized over the detect
family.
"""

import enum
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import NotPhysical, OptimFailure
from .symplectic import CovarianceMatrix, _symplectic_form, six_param_cm, standard_form

_EPS = np.finfo(float).eps


class PositivityMode(enum.Enum):
    """Which positivity condition a detect operator is required to satisfy."""

    OPERATOR_PSD = "gamma_psd"        # gamma_M >= 0
    QUANTUM_STATE = "quantum_state"   # gamma_M + i*sigma >= 0


@dataclass(frozen=True)
class SixParamDetect:
    """Six-parameter two-mode detect-operator CM.

    The assembled matrix couples x1-x2 with +M5 and p1-p2 with -M6.
    """

    m1: float
    m2: float
    m3: float
    m4: float
    m5: float
    m6: float
    positivity: PositivityMode

    def __post_init__(self):
        g = self.cm()
        if self.positivity is PositivityMode.QUANTUM_STATE:
            g = g + 1j * _symplectic_form(2)
        w = np.linalg.eigvalsh(g)
        if w[0] < -1e-9:
            raise NotPhysical(w[0])

    def cm(self):
        return six_param_cm(self.m1, self.m2, self.m3, self.m4, self.m5, self.m6)

    def swapped(self):
        """Interchange the two parties (M1<->M3, M2<->M4)."""
        return SixParamDetect(
            self.m3, self.m4, self.m1, self.m2, self.m5, self.m6, self.positivity
        )


def detect_determinant(d, x, y):
    """det(gamma_M + diag(x, 1/x, y, 1/y)), factorized over the x and p sectors."""
    fx = (d.m1 + x) * (d.m3 + y) - d.m5**2
    fp = (d.m2 + 1.0 / x) * (d.m4 + 1.0 / y) - d.m6**2
    return fx * fp


def stationarity_residuals(d, x, y):
    """The two stationarity equations of the pre-squeeze parameters, verbatim."""
    r1 = (d.m3 + y) * (d.m2 * (d.m4 + 1.0 / y) - d.m6**2) - (1.0 / x**2) * (
        d.m4 + 1.0 / y
    ) * (d.m1 * (d.m3 + y) - d.m5**2)
    r2 = (d.m1 + x) * (d.m4 * (d.m2 + 1.0 / x) - d.m6**2) - (1.0 / y**2) * (
        d.m2 + 1.0 / x
    ) * (d.m3 * (d.m1 + x) - d.m5**2)
    return float(r1), float(r2)


def _bracket_end(slope, t, direction):
    """Step t outward in doubling steps until slope(t) has the sign of direction."""
    step = 1.0
    while not direction * slope(t) > 0.0:
        if step > 256.0:
            raise OptimFailure("determinant minimum is not attained at finite y")
        t += direction * step
        step *= 2.0
    return t


def lambda_product_vacuum(d):
    """Maximal mean of the detect operator over product states (vacuum optimum).

    Minimizes det(gamma_M + diag(x, 1/x, y, 1/y)) over x, y > 0: x in closed
    form, then t = log y as the root of the slope of a sum of two functions
    convex in t (Brent's method, bracketed by their own minimizers);
    returns (Lambda, x*, y*). Raises OptimFailure when the minimum is only
    approached at the edge (x or y -> 0 or infinity).
    """
    # det = (alpha*x + beta)(gamma/x + delta) is least at x* below, where it is
    # (sqrt(alpha*gamma) + sqrt(beta*delta))^2; both products read c + a*y + b/y,
    # and a constant one drops out of the slope
    p, q = d.m1 * d.m3 - d.m5**2, d.m2 * d.m4 - d.m6**2
    terms = [(d.m4, d.m3, d.m3 * d.m4 + 1.0), (d.m1 * q, d.m2 * p, p * q + d.m1 * d.m2)]
    terms = [(a, b, c) for a, b, c in terms if a or b]

    def slope(t):
        y = np.exp(t)
        return sum((a * y - b / y) / np.sqrt(c + a * y + b / y) for a, b, c in terms)

    mins = [0.5 * np.log(b / a) for a, b, _ in terms if a > 0 and b > 0]
    lo = _bracket_end(slope, min(mins, default=0.0) - 1.0, -1.0)
    hi = _bracket_end(slope, max(mins, default=0.0) + 1.0, 1.0)
    y = np.exp(brentq(slope, lo, hi, xtol=_EPS, rtol=4.0 * _EPS))
    alpha, gamma = d.m3 + y, d.m4 + 1.0 / y
    beta, delta = d.m1 * alpha - d.m5**2, d.m2 * gamma - d.m6**2
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.sqrt(beta * gamma / (alpha * delta))
    if not (0.0 < x < np.inf and 0.0 < y < np.inf):
        raise OptimFailure(
            f"determinant minimum is not attained (x = {float(x)!r}, y = {float(y)!r})"
        )
    lam = 4.0 / np.sqrt(detect_determinant(d, x, y))
    return float(lam), float(x), float(y)


def L_ratio(gamma, d):
    """det(gamma + gamma_M) / min_{x,y} det(diag(x,1/x,y,1/y) + gamma_M)."""
    g = gamma.entries if isinstance(gamma, CovarianceMatrix) else np.asarray(gamma, float)
    numer = float(np.linalg.det(g + d.cm()))
    lam, _, _ = lambda_product_vacuum(d)
    return numer / (16.0 / lam**2)


def _schedule_detect(m1, u):
    """Paper-structured detect operator: symmetric blocks, M5^2 = (M1+1)(M3-1)."""
    m3, m5 = 1.0 + u * u * (m1 + 1.0), u * (m1 + 1.0)
    return SixParamDetect(m1, m1, m3, m3, m5, m5, PositivityMode.OPERATOR_PSD)


# The schedule's M1 values; u above sqrt(M1/(M1+1)) makes the x-sector block
# of gamma_M indefinite, so u runs over [1e-4, hi].
_SCHEDULE_M1 = np.array([1e2, 1e3, 1e4])
_SCHEDULE_HI = np.sqrt(_SCHEDULE_M1 / (_SCHEDULE_M1 + 1.0)) * (1.0 - 1e-9)
# On the schedule gamma_M = D + K V V^T, with K = M1 + 1, D = diag(-1, -1, 1, 1)
# and V = [e0 + u e2, e1 - u e3]. With G = g + D, the Laplace expansion of the
# rank-two update reads
#   det(g + gamma_M) = det G + K sum_ij W_ij det G[i', j']
#                      + K^2 sum_ST v_S v_T det G[S', T'],
# W = V V^T, v_S the minor of V on the row pair S, ' the complement. W_ij is 0
# unless i = j mod 2, and the pairs with v_S != 0 have odd index sums, so no
# cofactor sign enters. Each W_ij and v_S v_T is a signed power of u: per sum,
# the complements, then each term's sign and power of u.
_SCHEDULE_D = np.diag([-1.0, -1.0, 1.0, 1.0])
_ROW_TERMS = (np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]),
              np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0]) * np.tile(np.eye(2), (2, 2)),
              np.add.outer([0, 0, 1, 1], [0, 0, 1, 1]))
_PAIR_TERMS = (np.array([[2, 3], [1, 2], [0, 3], [0, 1]]),    # v_S = 1, -u, -u, -u^2
               np.outer([1.0, -1.0, -1.0, -1.0], [1.0, -1.0, -1.0, -1.0]),
               np.add.outer([0, 1, 1, 2], [0, 1, 1, 2]))


def _minor_quartic(G, complements, signs, powers):
    """Coefficients, lowest power first, of sum_ST signs_ST u^powers_ST det G[S', T']."""
    minors = np.linalg.det(G[complements[:, None, :, None], complements[None, :, None, :]])
    return np.bincount(powers.ravel(), (signs * minors).ravel(), minlength=5)


def _schedule_quartics(g):
    """Coefficients (3, 5), lowest power first, of det(g + gamma_M) / (4 (M1+1)^2)
    as quartics in u, one row per schedule M1."""
    G = g + _SCHEDULE_D
    k = _SCHEDULE_M1[:, None] + 1.0
    coeffs = _minor_quartic(G, *_PAIR_TERMS) + _minor_quartic(G, *_ROW_TERMS) / k
    coeffs[:, :1] += np.linalg.det(G) / (k * k)
    return 0.25 * coeffs


def _cubic_roots(d):
    """Roots (k, 3) of the cubics with coefficients d (k, 4), highest power first.

    They are the eigenvalues of the companion matrices, as np.roots finds
    them. A leading coefficient at rounding level next to the largest one, 0
    included, is dropped and a trailing 0 appended: that trades a root near
    infinity for one at 0. A zero cubic gets three roots at 0.
    """
    d = np.array(d, dtype=float)
    tiny = _EPS * np.abs(d).max(axis=-1)
    for _ in range(3):
        lead = np.abs(d[:, 0]) <= tiny
        if not lead.any():
            break
        d[lead, :-1] = d[lead, 1:]
        d[lead, -1] = 0.0
    d[d[:, 0] == 0.0, 0] = 1.0
    comp = np.zeros((len(d), 3, 3))
    comp[:, 0] = -d[:, 1:] / d[:, :1]
    comp[:, 1, 0] = comp[:, 2, 1] = 1.0
    return np.linalg.eigvals(comp)


def minimize_L(gamma):
    """Minimize the determinant ratio over the structured detect family.

    Minimizes a large-parameter schedule exactly for each M1 and compares the
    analytic infinite-parameter limit (b+1)/2 - c^2/(2(a-1)); returns
    (L, best_detect) where best_detect is None when the analytic limit wins.
    """
    sf = standard_form(gamma) if isinstance(gamma, CovarianceMatrix) else gamma
    a, b = (sf.a, sf.b) if sf.a >= sf.b else (sf.b, sf.a)
    c = 0.5 * (sf.c1 + sf.c2)
    g = gamma.entries if isinstance(gamma, CovarianceMatrix) else sf.to_cm()

    # The sector factors of det(gamma_M + diag(x, 1/x, y, 1/y)) are posynomials
    # in (x, y), with constant term M1 - u^2 (M1+1) >= 0 up to hi, that trade
    # places under (x, y) -> (1/x, 1/y); so the log-convex determinant is least
    # at x = y = 1, where it is 4 (M1+1)^2 for every u.
    coeffs = _schedule_quartics(g)
    # the quartic is least at an end or a real stationary point (complex ones
    # clipped, as spare candidates); the clip takes the ends in as 0 and inf
    roots = _cubic_roots(coeffs[:, :0:-1] * np.arange(4.0, 0.0, -1.0))
    us = np.clip(np.hstack(([[0.0, np.inf]] * 3, roots.real)), 1e-4, _SCHEDULE_HI[:, None])
    vals = (us[..., None] ** np.arange(5) * coeffs[:, None]).sum(axis=-1)
    k, i = divmod(int(np.argmin(vals)), vals.shape[-1])
    best_val = float(vals[k, i])
    best_d = _schedule_detect(float(_SCHEDULE_M1[k]), float(us[k, i]))
    if a > 1.0:
        limit = 0.5 * (b + 1.0) - c * c / (2.0 * (a - 1.0))
        if limit < best_val:
            best_val = float(limit)
            best_d = None
    return best_val, best_d
