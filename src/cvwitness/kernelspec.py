"""Analytic spectrum of the basic Gaussian kernel and its quadrature oracle.

The kernel kappa(x, y) = exp[-alpha (x^2 + y^2) + 2 alpha r x y] has
eigenfunctions which are harmonic-oscillator wave functions with width
parameter beta = alpha * sqrt(1 - r^2), and a geometric eigenvalue ladder.
"""

from dataclasses import dataclass

import numpy as np

# Gauss-Legendre nodes of the Nystrom grid
NYSTROM_NODES = 256


@dataclass(frozen=True)
class KernelSpec:
    alpha: float
    r: float

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        if not abs(self.r) < 1:
            raise ValueError("|r| must be below 1")
        # kappa doubles alpha, and x^2 + y^2 on the grid reaches twice the
        # square of its half-width 8/sqrt(beta); both must be finite in float64
        with np.errstate(over="ignore", divide="ignore"):
            bounds = (2.0 * self.alpha, 2.0 * (8.0 / np.sqrt(self.beta)) ** 2)
        if not np.all(np.isfinite(bounds)):
            raise ValueError("alpha is beyond the float64 range of the kernel and its grid")

    @property
    def beta(self):
        return self.alpha * np.sqrt(1.0 - self.r * self.r)

    def kappa(self, x, y):
        return np.exp(
            -self.alpha * (np.asarray(x) ** 2 + np.asarray(y) ** 2)
            + 2.0 * self.alpha * self.r * np.asarray(x) * np.asarray(y)
        )


def analytic_eigenvalue(k, n):
    """mu_n = sqrt(pi/(alpha+beta)) * (alpha r / (alpha+beta))^n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    mu0 = np.sqrt(np.pi / (k.alpha + k.beta))
    q = k.alpha * k.r / (k.alpha + k.beta)
    return float(mu0 * q**n)


def trace_identity(k):
    """Sum of all eigenvalues, sqrt(pi / (2 alpha (1 - r))).

    Taken as two roots, so a subnormal 2 alpha (1 - r) does not overflow.
    """
    return float(np.sqrt(np.pi / (2.0 * k.alpha)) / np.sqrt(1.0 - k.r))


def legendre_grid(k):
    """Gauss-Legendre nodes and weights on [-L, L], L = 8/sqrt(beta)."""
    half_width = 8.0 / np.sqrt(k.beta)
    xs, ws = np.polynomial.legendre.leggauss(NYSTROM_NODES)
    return xs * half_width, ws * half_width


def nystrom_spectrum(k):
    """Eigenvalues of the symmetrized quadrature discretization of the kernel.

    Sorted by absolute value, descending.
    """
    xs, ws = legendre_grid(k)
    sw = np.sqrt(ws)
    mat = sw[:, None] * k.kappa(xs[:, None], xs[None, :]) * sw[None, :]
    vals = np.linalg.eigvalsh(mat)
    order = np.argsort(-np.abs(vals))
    return [float(v) for v in vals[order]]
