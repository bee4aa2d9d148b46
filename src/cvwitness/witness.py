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

from . import symplectic
from .errors import OptimFailure, ValidationError
from .symplectic import CovarianceMatrix, require_psd, six_param_cm, standard_form, validate_cm

_EPS = 2.0**-52
_THIRD_TURN = 2.0 * math.pi / 3.0


class PositivityMode(enum.Enum):
    """A detect operator's one positivity rule, gamma_M >= 0 (it need not be a state's CM).
    It stays an enum as perfbench/workloads.py passes it to SixParamDetect positionally."""

    OPERATOR_PSD = "gamma_psd"  # gamma_M >= 0


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
        params = (self.m1, self.m2, self.m3, self.m4, self.m5, self.m6)
        if not all(map(math.isfinite, params)):
            raise ValidationError("detect operator has a NaN or infinite parameter")
        require_psd(self.least_eigenvalue(*params))

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
    # Python floats: math's scalar functions are cheaper than numpy's on one number
    terms = [(float(a), float(b), float(c)) for a, b, c in terms if a or b]

    def slope(t):
        try:
            y = math.exp(t)
            return sum((a * y - b / y) / math.sqrt(c + a * y + b / y) for a, b, c in terms)
        except (ArithmeticError, ValueError):
            # y overflowing or 0, or a radicand below 0 (an M_i in [-PSD_ATOL, 0)),
            # is NaN: it reads as no sign, so _bracket_end ends in OptimFailure
            return math.nan

    # a ratio b / a that underflows to 0 puts its minimizer at -inf
    mins = [0.5 * math.log(r) if r else -math.inf
            for r in (b / a for a, b, _ in terms if a > 0 and b > 0)]
    lo = _bracket_end(slope, min(mins, default=0.0) - 1.0, -1.0)
    hi = _bracket_end(slope, max(mins, default=0.0) + 1.0, 1.0)
    # numpy's exp, not math's: they differ in the last bit on some arguments
    y = float(np.exp(brentq(slope, lo, hi, xtol=_EPS, rtol=4.0 * _EPS)))
    alpha, gamma = d.m3 + y, d.m4 + 1.0 / y
    beta, delta = d.m1 * alpha - d.m5**2, d.m2 * gamma - d.m6**2
    try:
        x = math.sqrt(beta * gamma / (alpha * delta))
    except (ZeroDivisionError, ValueError):
        x = math.nan  # alpha * delta is 0, or the ratio is negative
    if not (0.0 < x < math.inf and 0.0 < y < math.inf):
        raise OptimFailure(f"determinant minimum is not attained (x = {x!r}, y = {y!r})")
    return 4.0 / math.sqrt(detect_determinant(d, x, y)), x, y


def L_ratio(gamma, d):
    """det(gamma + gamma_M) / min_{x,y} det(diag(x,1/x,y,1/y) + gamma_M). A raw array
    gamma passes validate_cm first; a CovarianceMatrix is taken as it is."""
    g = (gamma if isinstance(gamma, CovarianceMatrix) else validate_cm(gamma)).entries
    numer = float(np.linalg.det(g + d.cm()))
    lam, _, _ = lambda_product_vacuum(d)
    return numer / (16.0 / lam**2)


def _schedule_detect(m1, u):
    """Paper-structured detect operator: symmetric blocks, M5^2 = (M1+1)(M3-1)."""
    m3, m5 = 1.0 + u * u * (m1 + 1.0), u * (m1 + 1.0)
    return SixParamDetect(m1, m1, m3, m3, m5, m5, PositivityMode.OPERATOR_PSD)


# The schedule's M1 values; u above sqrt(M1/(M1+1)) makes the x-sector block
# of gamma_M indefinite, so u runs over [1e-4, hi].
_SCHEDULE_M1 = (1e2, 1e3, 1e4)
_SCHEDULE_HI = tuple(math.sqrt(m1 / (m1 + 1.0)) * (1.0 - 1e-9) for m1 in _SCHEDULE_M1)


def _stationary_points(d3, d2, d1, d0):
    """Real roots of the cubic d3 u^3 + d2 u^2 + d1 u + d0, and the real part
    of a complex pair as a spare candidate: minimize_L's schedule cubic, and,
    with d3 = 0, criteria._product_certificate's stationarity quadratic.

    Roots come in closed form (trigonometric for three real roots, Cardano's
    otherwise, the quadratic formula without cancellation), and each real one
    takes two Newton steps. A leading coefficient at rounding level next to
    the largest, 0 included, is dropped, which loses a root near infinity
    rather than dividing by it; a zero cubic has no roots.
    """
    tiny = _EPS * max(abs(d3), abs(d2), abs(d1), abs(d0))
    spare = []
    if abs(d3) > tiny:
        b, c, e = d2 / d3, d1 / d3, d0 / d3
        shift, q = b / 3.0, (b * b - 3.0 * c) / 9.0
        r = (b * (2.0 * b * b - 9.0 * c) + 27.0 * e) / 54.0
        if r * r < q * q * q:
            cos3 = max(-1.0, min(1.0, r / (q * math.sqrt(q))))
            t, m = math.acos(cos3) / 3.0, -2.0 * math.sqrt(q)
            roots = [m * math.cos(t + k) - shift for k in (0.0, _THIRD_TURN, -_THIRD_TURN)]
        else:
            big = -math.copysign((abs(r) + math.sqrt(r * r - q * q * q)) ** (1.0 / 3.0), r)
            real = big + (q / big if big else 0.0)
            roots, spare = [real - shift], [-0.5 * real - shift]
    elif abs(d2) > tiny:
        disc = d1 * d1 - 4.0 * d2 * d0
        if disc < 0.0:
            return [-0.5 * d1 / d2]
        h = -0.5 * (d1 + math.copysign(math.sqrt(disc), d1))
        roots = [h / d2, d0 / h] if h else [0.0]
    elif abs(d1) > tiny:
        roots = [-d0 / d1]
    else:
        return []
    for i, u in enumerate(roots):
        for _ in range(2):
            slope = (3.0 * d3 * u + 2.0 * d2) * u + d1
            if slope:
                u -= (((d3 * u + d2) * u + d1) * u + d0) / slope
        roots[i] = u
    return roots + spare


def minimize_L(gamma):
    """Minimize the determinant ratio over the structured detect family.

    Minimizes a large-parameter schedule exactly for each M1 on the standard
    form sf of gamma in both party orders, so L is the same in every local
    frame and party order, and compares the analytic infinite-parameter limit
    1 + ((a-1)(b-1) - c^2)/(2(a-1)), a >= b and c = (c1 + c2)/2, one ratio of exact
    ints rounded once. A StandardForm gamma is used as given, in standard_form's
    frame, c1 >= |c2|; a CovarianceMatrix is taken as validated, and a raw array
    passes validate_cm first. Returns (L, best_detect): best_detect is None when
    the limit wins, else L_ratio(sf.to_cm(), best_detect) agrees with L for sf in
    that frame up to the rounding of L_ratio's 4x4 det: on 148 random schedule
    wins it was exact on none and 5.0e-12 relative off at worst.
    """
    sf = gamma if isinstance(gamma, symplectic.StandardForm) else standard_form(
        gamma if isinstance(gamma, CovarianceMatrix) else validate_cm(gamma))
    sa, sb, c1, c2 = float(sf.a), float(sf.b), float(sf.c1), float(sf.c2)
    # local rotations swap c1 and c2 and flip both signs; det C = -c1 c2 stays
    c1, c2 = max(abs(c1), abs(c2)), math.copysign(min(abs(c1), abs(c2)), c1 * c2)
    a, b = (sa, sb) if sa >= sb else (sb, sa)

    # The sector factors of det(gamma_M + diag(x, 1/x, y, 1/y)) are posynomials
    # in (x, y), with constant term M1 - u^2 (M1+1) >= 0 up to hi, that trade
    # places under (x, y) -> (1/x, 1/y); so the log-convex determinant is least
    # at x = y = 1, where it is 4 (M1+1)^2 for every u. Both matrices have the
    # six-parameter layout, so det(sf + gamma_M) / (4 (M1+1)^2) is the product of
    # the x- and p-sector quadratics x0 - c1 u + s u^2 and p0 - c2 u + s u^2;
    # the swapped party order takes (b, a, c1, c2).
    best_val, best = math.inf, None
    for swapped, (p, q) in enumerate(((sa, sb), (sb, sa))):
        s = 0.5 * (p - 1.0)
        for m1, hi in zip(_SCHEDULE_M1, _SCHEDULE_HI):
            base, k2 = (p + m1) * (q + 1.0), 2.0 * (m1 + 1.0)
            x0, p0 = (base - c1 * c1) / k2, (base - c2 * c2) / k2
            # the quartic is least at an end or a stationary point
            roots = _stationary_points(4.0 * s * s, -3.0 * s * (c1 + c2),
                                       2.0 * (s * (x0 + p0) + c1 * c2), -(c2 * x0 + c1 * p0))
            for u in (1e-4, hi, *roots):
                # clipped to [1e-4, hi], NaN to 1e-4
                u = hi if u > hi else u if u > 1e-4 else 1e-4
                val = (x0 + u * (s * u - c1)) * (p0 + u * (s * u - c2))
                if val < best_val:
                    best_val, best = val, (m1, u, swapped)
    if a > 1.0:
        # 1 + ((a-1)(b-1) - c^2) / (2(a-1)), c = (c1 + c2)/2, in ints at scale 2^k
        # (k >= 52, as 1.0 is among the values), rounded once
        (A, B, C1, C2, one), k = symplectic._scaled_ints((a, b, c1, c2, 1.0))
        den = 8 * (A - one) << k
        limit = symplectic.unscale(den + 4 * (A - one) * (B - one) - (C1 + C2) ** 2, den, 0)
        if limit < best_val:
            return limit, None
    m1, u, swapped = best
    best_d = _schedule_detect(m1, u)
    return best_val, best_d.swapped() if swapped else best_d
