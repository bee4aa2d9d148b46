"""Photon-added and photon-subtracted Gaussian states.

The state is rho = N a^dagger^k a^m rho_G a^dagger^m a^k built on a
Gaussian kernel rho_G. Traces against a Gaussian operator reduce to
Taylor coefficients of quadratic-form exponentials in four groups of
formal variables (eps, xi, eta, zeta), one entry per mode; the
coefficients come from the recursive table of symplectic.gaussian_taylor.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import criteria
from .errors import SingularSum, UnsupportedOrder
from .symplectic import (CovarianceMatrix, _ccm_matrix, gaussian_taylor, standard_form,
                         validate_cm)
from . import witness

# largest Taylor table, prod(alpha_i + 1) entries, a trace may allocate; it
# fills the numerator's and the denominator's tables as one stack of two
MAX_TABLE_SIZE = 2**22


@dataclass(frozen=True)
class NGPASGSpec:
    """A Gaussian kernel with per-mode photon addition and subtraction counts."""

    kernel: CovarianceMatrix
    adds: tuple
    subs: tuple

    def __post_init__(self):
        n = self.kernel.n
        if len(self.adds) != n or len(self.subs) != n:
            raise ValueError("count vectors must have one entry per mode")
        for c in (*self.adds, *self.subs):
            if int(c) != c or c < 0:
                raise ValueError("photon counts must be non-negative integers")

    @property
    def n(self):
        return self.kernel.n

    @property
    def total_order(self):
        return int(sum(self.adds) + sum(self.subs))


@lru_cache
def _sigma1_in(n):
    s = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(n))
    s.flags.writeable = False
    return s


@lru_cache
def _pq_maps(n):
    """Linear maps sending v = (eps, xi, eta, zeta) to (eps, -zeta) and (eta, -xi).

    Built once per mode count and shared, so the arrays are read-only.
    """
    z = np.zeros((n, n))
    i = np.eye(n)
    p = np.block([[i, z, z, z], [z, z, z, -i]])
    q = np.block([[z, z, i, z], [z, -i, z, z]])
    p.flags.writeable = q.flags.writeable = False
    return p, q


def _a0_matrix(gamma_g):
    """Quadratic form of the kernel characteristic function: chi = exp(v A0 v / 2)."""
    g = gamma_g.entries if isinstance(gamma_g, CovarianceMatrix) else np.asarray(gamma_g, float)
    n = g.shape[0] // 2
    ccm = _ccm_matrix(g)
    gp = ccm + _sigma1_in(n)
    gm = ccm - _sigma1_in(n)
    p, q = _pq_maps(n)
    a0 = -0.5 * (p.T @ gp @ p + q.T @ gm @ q + p.T @ gm @ q + q.T @ gm @ p)
    return 0.5 * (a0 + a0.T)


def _af_matrix(gamma_g, gamma_m):
    """Quadratic form of the detect-operator correction f = v Af v / 2."""
    g = gamma_g.entries if isinstance(gamma_g, CovarianceMatrix) else np.asarray(gamma_g, float)
    m = gamma_m.entries if isinstance(gamma_m, CovarianceMatrix) else np.asarray(gamma_m, float)
    n = g.shape[0] // 2
    ccm_g = _ccm_matrix(g)
    ccm_m = _ccm_matrix(m)
    gp = ccm_g + _sigma1_in(n)
    gm = ccm_g - _sigma1_in(n)
    p, q = _pq_maps(n)
    lmap = gp @ p + gm @ q
    w = np.linalg.inv(ccm_g + ccm_m)
    af = 0.5 * lmap.T @ w @ lmap
    return 0.5 * (af + af.T)


def q_char_zero(gamma_g, eps, xi, eta, zeta):
    """Characteristic function of the Q generating operator at z = 0."""
    a0 = _a0_matrix(gamma_g)
    v = np.concatenate([np.asarray(x, float) for x in (eps, xi, eta, zeta)])
    val = np.exp(0.5 * v @ a0 @ v)
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise ArithmeticError("characteristic function has unexpected imaginary part")
    return float(val.real)


def _count_alpha(s):
    """Exponent vector for the four variable groups: (k, m, m, k)."""
    k = tuple(int(x) for x in s.adds)
    m = tuple(int(x) for x in s.subs)
    return k + m + m + k


def ngpasg_trace_finite(s, gamma_m):
    """Tr(rho M) for a photon-added/subtracted state against a Gaussian operator."""
    alpha = _count_alpha(s)
    if np.prod(np.add(alpha, 1.0)) > MAX_TABLE_SIZE:
        raise UnsupportedOrder(
            f"photon counts need a Taylor table above {MAX_TABLE_SIZE} entries"
        )
    g = s.kernel.entries
    m = gamma_m.entries if isinstance(gamma_m, CovarianceMatrix) else np.asarray(gamma_m, float)
    n = s.n
    det = float(np.linalg.det(g + m))
    if abs(det) < 1e-300:
        raise SingularSum("det(gamma_G + gamma_M) vanishes")
    overlap = 2.0**n / np.sqrt(abs(det))
    if s.total_order == 0:
        return float(overlap)
    a0 = _a0_matrix(g)
    af = _af_matrix(g, m)
    # both coefficients carry the same 1/sqrt(alpha!), which cancels
    numer, denom = gaussian_taylor(np.stack((a0 + af, a0)), alpha)[(Ellipsis,) + alpha]
    if abs(denom) < 1e-300:
        raise SingularSum("normalization coefficient vanishes")
    ratio = numer / denom
    if abs(ratio.imag) > 1e-8 * max(1.0, abs(ratio.real)):
        raise ArithmeticError("trace has unexpected imaginary part")
    return float(ratio.real * overlap)


def ngpasg_trace_limit(s, gamma_m):
    """Large-detect-operator limit: 2^n / sqrt|det(gamma_G + gamma_M)|, count-free."""
    g = s.kernel.entries
    m = gamma_m.entries if isinstance(gamma_m, CovarianceMatrix) else np.asarray(gamma_m, float)
    det = float(np.linalg.det(g + m))
    if abs(det) < 1e-300:
        raise SingularSum("det(gamma_G + gamma_M) vanishes")
    return float(2.0**s.n / np.sqrt(abs(det)))


def kernel_verdict(gamma, tol=1e-9):
    """Separability verdict for a two-mode Gaussian kernel CM.

    Dispatches to the closed-form symmetric or squeezed-thermal criterion
    when the standard form matches, else to the determinant-ratio bound.
    """
    cm = gamma if isinstance(gamma, CovarianceMatrix) else validate_cm(gamma)
    if cm.n != 2:
        raise ValueError("kernel classification is defined for two-mode states")
    sf = standard_form(cm)
    if abs(sf.a - sf.b) <= tol * max(1.0, sf.a):
        return criteria.symmetric_two_mode(sf.a, sf.c1, sf.c2)
    if abs(sf.c1 - sf.c2) <= tol * max(1.0, sf.c1):
        return criteria.squeezed_thermal(sf.a, sf.b, sf.c1)
    lval, _ = witness.minimize_L(cm)
    return criteria.Verdict("determinant_ratio", float(lval - 1.0))


def photon_added_criterion(s):
    """Separability verdict of the non-Gaussian state, via its kernel.

    The verdict depends only on the Gaussian kernel; the add/subtract
    counts leave it unchanged.
    """
    return kernel_verdict(s.kernel)


def fig2a_boundary(n_th):
    """Squeezing threshold atanh(N/(N+1)) for a thermal kernel with N photons."""
    if n_th < 0:
        raise ValueError("thermal photon number must be non-negative")
    return float(np.arctanh(n_th / (n_th + 1.0)))
