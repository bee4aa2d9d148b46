"""Photon-added and photon-subtracted Gaussian states.

The state is rho = N a^dagger^k a^m rho_G a^dagger^m a^k built on a
Gaussian kernel rho_G. Traces against a Gaussian operator reduce to
Taylor coefficients of quadratic-form exponentials in four groups of
formal variables (eps, xi, eta, zeta), one entry per mode; the
coefficients come from the recursive table of symplectic.gaussian_taylor.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .criteria import kernel_verdict
from .errors import SingularSum, UnsupportedOrder
from .symplectic import (CovarianceMatrix, _ccm_matrix, gaussian_overlap, gaussian_taylor,
                         require_psd, require_symmetric)

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
            if isinstance(c, (bool, np.bool_)) or int(c) != c or c < 0:
                raise ValueError("photon counts must be non-negative integers")

    @property
    def n(self):
        return self.kernel.n


@lru_cache
def _form_maps(n):
    """Constant affine maps behind :func:`_char_forms`, built once per mode count.

    With x = (vec g, vec m) for a kernel CM g and a detect CM m, lin @ x +
    const stacks vec A0, vec L and vec ccm(g + m), where L = [g+, g-] S,
    g+- = ccm(g) +- sigma1 and S is the signed permutation sending
    v = (eps, xi, eta, zeta) to (eps, -zeta, eta, -xi); A0 = -S^T [[g+, g-],
    [g-, g-]] S / 2, symmetrized. Every part is affine in g, so the columns
    are its images of the unit CMs. The arrays are shared, so read-only.
    """
    d = 2 * n
    z, i = np.zeros((n, n)), np.eye(n)
    s = np.block([[i, z, z, z], [z, z, z, -i], [z, z, i, z], [z, -i, z, z]])
    sigma1 = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), i)

    def forms(ccm, shift):
        gp, gm = ccm + shift, ccm - shift
        top = np.concatenate((gp, gm), axis=-1)
        a0 = -0.5 * s.T @ np.concatenate((top, np.concatenate((gm, gm), axis=-1)), axis=-2) @ s
        a0 = 0.5 * (a0 + np.swapaxes(a0, -1, -2))
        return np.concatenate((a0.reshape(-1, 4 * d * d), (top @ s).reshape(-1, 2 * d * d),
                               ccm.reshape(-1, d * d)), axis=-1)

    g_part = forms(_ccm_matrix(np.eye(d * d).reshape(d * d, d, d)), 0.0).T
    m_part = g_part.copy()
    m_part[: 6 * d * d] = 0.0  # m enters ccm(g + m) alone
    lin = np.concatenate((g_part, m_part), axis=1)
    const = forms(np.zeros((d, d), dtype=complex), sigma1)[0]
    lin.flags.writeable = const.flags.writeable = False
    return lin, const


def _char_forms(g, m):
    """Quadratic forms of the kernel characteristic function and the detect correction.

    Returns (A0, Af) for a kernel CM g and a detect CM m, with chi = exp(v A0
    v / 2) and f = v Af v / 2. One matmul by the constant maps of
    :func:`_form_maps` gives A0, L and ccm(g + m), and
    Af = L^T ccm(g + m)^-1 L / 2.
    """
    d = g.shape[0]
    lin, const = _form_maps(d // 2)
    forms = lin @ np.concatenate((g.ravel(), m.ravel())) + const
    a0 = forms[: 4 * d * d].reshape(2 * d, 2 * d)
    lmap = forms[4 * d * d : 6 * d * d].reshape(d, 2 * d)
    af = lmap.T @ np.linalg.solve(forms[6 * d * d :].reshape(d, d), lmap)
    return a0, 0.25 * (af + af.T)  # the half of L^T ccm^-1 L, symmetrized


def _count_alpha(s):
    """Exponent vector for the four variable groups: (k, m, m, k)."""
    k = tuple(int(x) for x in s.adds)
    m = tuple(int(x) for x in s.subs)
    return k + m + m + k


@lru_cache
def _alpha_layout(alpha):
    """Taylor-table size, caps and live-block indices of an exponent vector.

    A variable with count 0 is set to 0, so the table runs over the others
    alone; the indices pick their block out of a flattened 4n x 4n form.
    """
    live = np.flatnonzero(alpha)
    block = (live[:, None] * len(alpha) + live).ravel()
    block.flags.writeable = False
    return math.prod(a + 1 for a in alpha), tuple(alpha[i] for i in live), block


def _detect_overlap(kernel, gamma_m):
    """gamma_M, checked as validate_cm checks a CM, and the overlap Tr(rho_G M); a
    detect operator is positive, so the least eigenvalue of gamma_M must pass require_psd."""
    m = gamma_m.entries if isinstance(gamma_m, CovarianceMatrix) else np.asarray(gamma_m, float)
    m = require_symmetric(m)
    overlap = gaussian_overlap(kernel, m)
    require_psd(np.linalg.eigvalsh(m)[0])
    return m, overlap


def ngpasg_trace_finite(s, gamma_m):
    """Tr(rho M) for a photon-added/subtracted state against a Gaussian operator."""
    size, caps, block = _alpha_layout(_count_alpha(s))
    if size > MAX_TABLE_SIZE:
        raise UnsupportedOrder(
            f"photon counts need a Taylor table above {MAX_TABLE_SIZE} entries"
        )
    m, overlap = _detect_overlap(s.kernel, gamma_m)
    if not caps:
        return overlap
    a0, af = _char_forms(s.kernel.entries, m)
    a0 = a0.take(block)
    forms = np.concatenate((a0 + af.take(block), a0)).reshape(2, len(caps), len(caps))
    # both coefficients carry the same 1/sqrt(alpha!), which cancels
    numer, denom = gaussian_taylor(forms, caps)[(Ellipsis,) + caps]
    if abs(denom) < 1e-300:
        raise SingularSum("normalization coefficient vanishes")
    ratio = numer / denom
    if abs(ratio.imag) > 1e-8 * max(1.0, abs(ratio.real)):
        raise ArithmeticError("trace has unexpected imaginary part")
    return float(ratio.real * overlap)


def ngpasg_trace_limit(s, gamma_m):
    """Large-detect-operator limit: 2^n / sqrt(det(gamma_G + gamma_M)), count-free."""
    return _detect_overlap(s.kernel, gamma_m)[1]


def photon_added_criterion(s):
    """Separability verdict of the non-Gaussian state: criteria.kernel_verdict of
    its Gaussian kernel, which the add/subtract counts leave unchanged."""
    return kernel_verdict(s.kernel)


def fig2a_boundary(n_th):
    """Squeezing threshold atanh(N/(N+1)) for a thermal kernel with N photons."""
    if n_th < 0:
        raise ValueError("thermal photon number must be non-negative")
    return float(np.arctanh(n_th / (n_th + 1.0)))
