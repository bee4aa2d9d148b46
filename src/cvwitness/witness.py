"""Gaussian detect-operator machinery.

Houses the six-parameter detect operator, the two-fold kernel of the
characteristic-function integral equation, the fixed-point equations for
the extremal local CMs, the product-vacuum maximum Lambda, and the
determinant-ratio statistic minimized over the detect family.
"""

import enum
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import NoConvergence, NotPhysical, OptimFailure, SingularGamma2
from .symplectic import CovarianceMatrix, _symplectic_form, standard_form

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
        g = np.diag([self.m1, self.m2, self.m3, self.m4]).astype(float)
        g[0, 2] = g[2, 0] = self.m5
        g[1, 3] = g[3, 1] = -self.m6
        return g

    @property
    def gamma1(self):
        return np.diag([self.m1, self.m2]).astype(float)

    @property
    def gamma2(self):
        return np.diag([self.m3, self.m4]).astype(float)

    @property
    def gamma3(self):
        return np.diag([self.m5, -self.m6]).astype(float)

    def swapped(self):
        """Interchange the two parties (M1<->M3, M2<->M4)."""
        return SixParamDetect(
            self.m3, self.m4, self.m1, self.m2, self.m5, self.m6, self.positivity
        )


@dataclass(frozen=True)
class OmegaMembership:
    residual_a: float
    residual_b: float

    @property
    def is_member(self):
        return self.residual_a < 1e-9 and self.residual_b < 1e-9


@dataclass(frozen=True)
class TwoFoldKernelCM:
    zeta: np.ndarray
    omega: np.ndarray
    gamma_2m: np.ndarray


def two_fold_kernel(gamma1, gamma2, gamma3):
    """Assemble the two-fold symmetric kernel CM from detect-operator blocks."""
    if abs(np.linalg.det(gamma2)) < 1e-12:
        raise SingularGamma2("gamma_2 block is singular")
    omega = -0.5 * gamma3 @ np.linalg.inv(gamma2) @ gamma3.T
    zeta = gamma1 + omega
    gamma_2m = np.block([[zeta, omega], [omega, zeta]])
    return TwoFoldKernelCM(zeta=zeta, omega=omega, gamma_2m=gamma_2m)


def fixed_point_AB(gamma1, gamma2, gamma3, tol=1e-12, max_iter=10000):
    """Alternating substitution for the extremal local CMs.

    Starts from gamma_B = identity; returns (gamma_A, gamma_B, iterations).
    """
    dim = gamma2.shape[0]
    gb = np.eye(dim)
    ga = gamma1 - gamma3 @ np.linalg.inv(gamma2 + gb) @ gamma3.T
    for it in range(1, max_iter + 1):
        ga_new = gamma1 - gamma3 @ np.linalg.inv(gamma2 + gb) @ gamma3.T
        gb_new = gamma2 - gamma3.T @ np.linalg.inv(gamma1 + ga_new) @ gamma3
        delta = max(np.max(np.abs(ga_new - ga)), np.max(np.abs(gb_new - gb)))
        ga, gb = ga_new, gb_new
        if delta < tol:
            return ga, gb, it
    raise NoConvergence(f"fixed point not reached after {max_iter} iterations")


def omega_residuals(d):
    """Residuals of the two membership constraints of the detect-operator set Omega."""
    ra = abs(d.m1 * d.m2 - d.m3 * d.m4)
    rb = abs((d.m1 * d.m3 - d.m5**2) * (d.m2 * d.m4 - d.m6**2) - 1.0)
    return OmegaMembership(residual_a=float(ra), residual_b=float(rb))


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


def min_detect_determinant(d):
    """min over x, y of det(gamma_M + diag(x, 1/x, y, 1/y))."""
    lam, _, _ = lambda_product_vacuum(d)
    return 16.0 / lam**2


def L_ratio(gamma, d):
    """det(gamma + gamma_M) / min_{x,y} det(diag(x,1/x,y,1/y) + gamma_M)."""
    g = gamma.entries if isinstance(gamma, CovarianceMatrix) else np.asarray(gamma, float)
    numer = float(np.linalg.det(g + d.cm()))
    denom = min_detect_determinant(d)
    return numer / denom


def _schedule_params(m1, u):
    """M3 and M5 of the schedule operator at (M1, u)."""
    return 1.0 + u * u * (m1 + 1.0), u * (m1 + 1.0)


def _schedule_detect(m1, u):
    """Paper-structured detect operator: symmetric blocks, M5^2 = (M1+1)(M3-1)."""
    m3, m5 = _schedule_params(m1, u)
    return SixParamDetect(m1, m1, m3, m3, m5, m5, PositivityMode.OPERATOR_PSD)


def _schedule_cms(m1, u):
    """CMs (..., 4, 4) of the schedule operators at broadcast arrays m1 and u."""
    m3, m5 = _schedule_params(m1, u)
    cms = np.zeros(np.broadcast(m1, u).shape + (4, 4))
    cms[..., 0, 0] = cms[..., 1, 1] = m1
    cms[..., 2, 2] = cms[..., 3, 3] = m3
    cms[..., 0, 2] = cms[..., 2, 0] = m5
    cms[..., 1, 3] = cms[..., 3, 1] = -m5
    return cms


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

    m1 = np.array([1e2, 1e3, 1e4])
    # u above sqrt(M1/(M1+1)) makes the x-sector block of gamma_M indefinite
    hi = np.sqrt(m1 / (m1 + 1.0)) * (1.0 - 1e-9)
    # det(g + gamma_M) is a quartic in u, least at an end or a real stationary
    # point: fit it through five nodes per M1, ends included, and compare the
    # nodes with every stationary point (complex ones clipped, as spare candidates).
    nodes = np.linspace(1e-4, hi, 5, axis=-1)
    dets = np.linalg.det(g + _schedule_cms(m1[:, None], nodes))
    us = [np.concatenate((x, np.clip(np.roots(np.polyder(np.polyfit(x, y, 4))).real, 1e-4, h)))
          for x, y, h in zip(nodes, dets, hi)]
    m1s = np.repeat(m1, [len(u) for u in us])
    us = np.concatenate(us)
    cms = _schedule_cms(m1s, us)
    # gamma_M >= 0 as SixParamDetect checks it, for every candidate at once
    w = np.linalg.eigvalsh(cms)[:, 0]
    bad = np.flatnonzero(w < -1e-9)
    if bad.size:
        raise NotPhysical(w[bad[0]])
    # The sector factors of det(gamma_M + diag(x, 1/x, y, 1/y)) are posynomials
    # in (x, y), with constant term M1 - u^2 (M1+1) >= 0 up to hi, that trade
    # places under (x, y) -> (1/x, 1/y); so the log-convex determinant is least
    # at x = y = 1, where it is 4 (M1+1)^2 for every u.
    vals = np.linalg.det(g + cms) / (4.0 * (m1s + 1.0) ** 2)
    i = int(np.argmin(vals))
    best_val, best_d = float(vals[i]), _schedule_detect(float(m1s[i]), float(us[i]))
    if a > 1.0:
        limit = 0.5 * (b + 1.0) - c * c / (2.0 * (a - 1.0))
        if limit < best_val:
            best_val = float(limit)
            best_d = None
    return best_val, best_d
