"""Analytic spectrum of the basic Gaussian kernel and its quadrature oracle.

The kernel kappa(x, y) = exp[-alpha (x^2 + y^2) + 2 alpha r x y] has
eigenfunctions which are harmonic-oscillator wave functions with width
parameter beta = alpha * sqrt(1 - r^2), and a geometric eigenvalue ladder.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridTooNarrow


@dataclass(frozen=True)
class KernelSpec:
    alpha: float
    r: float

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        if not abs(self.r) < 1:
            raise ValueError("|r| must be below 1")
        # kappa doubles alpha, and x^2 + y^2 on the default grid reaches twice the
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
    """Sum of all eigenvalues, sqrt(pi / (2 alpha (1 - r)))."""
    return float(np.sqrt(np.pi / (2.0 * k.alpha * (1.0 - k.r))))


def hermite_values(n, eta):
    """Physicists' Hermite H_n evaluated by the three-term recurrence."""
    eta = np.asarray(eta, dtype=float)
    h_prev = np.ones_like(eta)
    if n == 0:
        return h_prev
    h = 2.0 * eta
    for m in range(1, n):
        h, h_prev = 2.0 * eta * h - 2.0 * m * h_prev, h
    return h


def eigenfunction(k, n, x):
    """L2-normalized eigenfunction phi_n(x)."""
    beta = k.beta
    eta = np.sqrt(2.0 * beta) * np.asarray(x, dtype=float)
    # ||e^{-beta x^2} H_n(sqrt(2 beta) x)||^2 = 2^n n! sqrt(pi / (2 beta))
    log_norm_sq = (
        n * np.log(2.0)
        + np.sum(np.log(np.arange(1, n + 1)))
        + 0.5 * np.log(np.pi / (2.0 * beta))
    )
    norm = np.exp(-0.5 * log_norm_sq)
    return norm * np.exp(-beta * np.asarray(x, dtype=float) ** 2) * hermite_values(n, eta)


def legendre_grid(k, half_width=None, nodes=256):
    """Gauss-Legendre nodes and weights on [-L, L], L defaulting to 8/sqrt(beta)."""
    if half_width is None:
        half_width = 8.0 / np.sqrt(k.beta)
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    return xs * half_width, ws * half_width


def apply_kernel(k, values, grid):
    """Integral transform of a sampled function on a Gauss-Legendre grid.

    ``grid`` is the (nodes, weights) pair from :func:`legendre_grid`.
    """
    xs, ws = grid
    half_width = float(np.max(np.abs(xs)))
    if np.exp(-k.beta * half_width**2) > 1e-10:
        raise GridTooNarrow(
            f"grid half-width {half_width:.3g} leaves tail mass above 1e-10"
        )
    kernel = k.kappa(xs[:, None], xs[None, :])
    return kernel @ (ws * np.asarray(values, dtype=float))


def nystrom_spectrum(k, grid_size=256):
    """Eigenvalues of the symmetrized quadrature discretization of the kernel.

    Sorted by absolute value, descending.
    """
    if grid_size < 64:
        raise ValueError("grid size must be at least 64")
    xs, ws = legendre_grid(k, nodes=grid_size)
    sw = np.sqrt(ws)
    mat = sw[:, None] * k.kappa(xs[:, None], xs[None, :]) * sw[None, :]
    vals = np.linalg.eigvalsh(mat)
    order = np.argsort(-np.abs(vals))
    return [float(v) for v in vals[order]]
