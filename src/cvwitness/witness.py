"""Gaussian detect-operator machinery.

Houses the six-parameter detect operator, the product-vacuum maximum
Lambda, and the determinant-ratio statistic minimized over the detect
family.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import NotPhysical, OptimFailure, ValidationError
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
        if self.positivity is PositivityMode.QUANTUM_STATE:
            least = np.linalg.eigvalsh(self.cm() + 1j * _symplectic_form(2))[0]
        else:
            least = self.least_eigenvalue(self.m1, self.m2, self.m3, self.m4, self.m5, self.m6)
        if least < -1e-9:
            raise NotPhysical(least)

    @staticmethod
    def least_eigenvalue(m1, m2, m3, m4, m5, m6):
        """Least eigenvalue of the assembled matrix: of its blocks [[m1, m5], [m5, m3]] and
        [[m2, -m6], [-m6, m4]], each [[p, r], [r, q]] giving (p + q)/2 - hypot((p - q)/2, r)."""
        return min(0.5 * (m1 + m3) - math.hypot(0.5 * (m1 - m3), m5),
                   0.5 * (m2 + m4) - math.hypot(0.5 * (m2 - m4), m6))

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


def _schedule_quartics(a, b, c1, c2):
    """Coefficients (3, 5), lowest power first, of det(sf + gamma_M) / (4 (M1+1)^2)
    as quartics in u, one row per schedule M1, for the standard form (a, b, c1, c2).

    Both matrices have the six-parameter layout, so the determinant is the
    product of the x- and p-sector determinants; divided by 2K, K = M1 + 1,
    each is ((a + M1)(b + 1) - c^2) / (2K) - c u + (a - 1) u^2 / 2, with c = c1
    in the x sector and c = c2 in the p sector.
    """
    s, rows = 0.5 * (a - 1.0), []
    cubic, quartic = -(c1 + c2) * s, s * s
    for m1 in _SCHEDULE_M1.tolist():
        base, k2 = (a + m1) * (b + 1.0), 2.0 * (m1 + 1.0)
        x0, p0 = (base - c1 * c1) / k2, (base - c2 * c2) / k2
        rows.append((x0 * p0, -(c2 * x0 + c1 * p0), (x0 + p0) * s + c1 * c2, cubic, quartic))
    return np.array(rows)


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

    Minimizes a large-parameter schedule exactly for each M1 on the standard
    form sf of gamma in both party orders, so L is the same in every local
    frame and party order, and compares the analytic infinite-parameter limit
    (b+1)/2 - c^2/(2(a-1)). Returns (L, best_detect): best_detect is None when
    the limit wins, else it is in the frame of sf, L_ratio(sf.to_cm(),
    best_detect) == L. Raises ValidationError when sf is not finite in float64.
    """
    sf = standard_form(gamma) if isinstance(gamma, CovarianceMatrix) else gamma
    a, b = (sf.a, sf.b) if sf.a >= sf.b else (sf.b, sf.a)
    c = 0.5 * (sf.c1 + sf.c2)
    if not math.isfinite(a + b + c):
        raise ValidationError("the standard form is beyond float64 range")

    # The sector factors of det(gamma_M + diag(x, 1/x, y, 1/y)) are posynomials
    # in (x, y), with constant term M1 - u^2 (M1+1) >= 0 up to hi, that trade
    # places under (x, y) -> (1/x, 1/y); so the log-convex determinant is least
    # at x = y = 1, where it is 4 (M1+1)^2 for every u. Rows 3-5 take the
    # parties swapped, (b, a, c1, c2).
    coeffs = np.vstack((_schedule_quartics(sf.a, sf.b, sf.c1, sf.c2),
                        _schedule_quartics(sf.b, sf.a, sf.c1, sf.c2)))
    # the quartic is least at an end or a real stationary point (complex ones
    # clipped, as spare candidates); the clip takes the ends in as 0 and inf
    roots = _cubic_roots(coeffs[:, :0:-1] * np.arange(4.0, 0.0, -1.0))
    hi = np.tile(_SCHEDULE_HI, 2)[:, None]
    us = np.clip(np.hstack(([[0.0, np.inf]] * len(coeffs), roots.real)), 1e-4, hi)
    vals = (us[..., None] ** np.arange(5) * coeffs[:, None]).sum(axis=-1)
    row, i = divmod(int(np.argmin(vals)), vals.shape[-1])
    best_val = float(vals[row, i])
    best_d = _schedule_detect(float(_SCHEDULE_M1[row % len(_SCHEDULE_M1)]), float(us[row, i]))
    if row >= len(_SCHEDULE_M1):
        best_d = best_d.swapped()
    if a > 1.0:
        limit = 0.5 * (b + 1.0) - c * c / (2.0 * (a - 1.0))
        if limit < best_val:
            best_val = float(limit)
            best_d = None
    return best_val, best_d
