"""Covariance matrices of the named state families used throughout the package."""

import numpy as np

from .symplectic import six_param_cm


def squeezed_thermal_cm(a, b, c):
    """Blocks a*I, b*I with coupling c*sigma_3 (x-x coupling +c, p-p coupling -c)."""
    return six_param_cm(a, a, b, b, c, c)


def symmetric_squeezed_thermal(n_th, r):
    """Symmetric two-mode squeezed thermal state with thermal number n_th."""
    nu = 2.0 * n_th + 1.0
    return squeezed_thermal_cm(nu * np.cosh(2 * r), nu * np.cosh(2 * r), nu * np.sinh(2 * r))


def werner_wolf_cm(a, b, c, d, e, f):
    """Generalized Werner-Wolf 2x2-mode CM (two modes per party).

    Diagonal blocks diag(A,B,A,B) and diag(C,D,C,D); the coupling block
    couples x1-x3 with +E, x2-x4 with -E, p1-p4 and p2-p3 with -F.
    """
    g = np.diag(np.array([a, b, a, b, c, d, c, d], float))
    g[0, 4] = g[4, 0] = e
    g[2, 6] = g[6, 2] = -e
    g[1, 7] = g[7, 1] = g[3, 5] = g[5, 3] = -f
    return g


def symmetric_multimode_cm(n, a, b, c1, c2):
    """n-mode gamma^x (+) gamma^p: diagonals a / b, off-diagonals c1 / -c2."""
    gx = np.full((n, n), c1)
    np.fill_diagonal(gx, a)
    gp = np.full((n, n), -c2)
    np.fill_diagonal(gp, b)
    g = np.zeros((2 * n, 2 * n))
    g[0::2, 0::2], g[1::2, 1::2] = gx, gp
    return g


def ghz_cm(n, a, c):
    """GHZ-type symmetric CM: b = a + (n-2)c on the momentum diagonal."""
    return symmetric_multimode_cm(n, a, a + (n - 2) * c, c, c)
