"""Independent Fock-basis constructions used to cross-check phase-space formulas.

These helpers build density matrices directly from ladder operators and
matrix exponentials, with no shared code with the package internals, and
self-check that the constructed state reproduces the requested covariance
matrix before returning it.
"""

import math

import numpy as np
from numpy.polynomial.hermite import hermval
from scipy.linalg import expm


def ladder(cutoff):
    return np.diag(np.sqrt(np.arange(1, cutoff)), 1)


def quadratures(cutoff):
    a = ladder(cutoff)
    ad = a.conj().T
    x = (a + ad) / np.sqrt(2.0)
    p = (a - ad) / (1j * np.sqrt(2.0))
    return x, p


def cm_of_rho(rho, n_modes, cutoff):
    """Covariance matrix gamma_ij = Tr(rho {R_i, R_j}) of a zero-mean state."""
    x1, p1 = quadratures(cutoff)
    quads = []
    for m in range(n_modes):
        ops = [np.eye(cutoff)] * n_modes
        for q in (x1, p1):
            ops_m = list(ops)
            ops_m[m] = q
            full = ops_m[0]
            for o in ops_m[1:]:
                full = np.kron(full, o)
            quads.append(full)
    dim = 2 * n_modes
    g = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(dim):
            g[i, j] = np.real(np.trace(rho @ (quads[i] @ quads[j] + quads[j] @ quads[i])))
    return g


def thermal_rho(nbar, cutoff):
    if nbar <= 0:
        r = np.zeros(cutoff)
        r[0] = 1.0
        return np.diag(r)
    return np.diag((nbar / (nbar + 1.0)) ** np.arange(cutoff)) / (nbar + 1.0)


def single_mode_gaussian_rho(gamma, cutoff, check_tol=1e-7):
    """Density matrix of the single-mode Gaussian state with CM gamma.

    Decomposes gamma = nu R(phi) diag(e^2r, e^-2r) R(phi)^T and applies a
    rotation and a squeeze to a thermal state; the sign conventions are
    resolved by checking the reconstructed CM against the target.
    """
    gamma = np.asarray(gamma, float)
    nu = np.sqrt(np.linalg.det(gamma))
    w, vecs = np.linalg.eigh(gamma / nu)
    r = 0.5 * np.log(w[1])
    v = vecs[:, 1]
    phi = np.arctan2(v[1], v[0])
    a = ladder(cutoff)
    ad = a.conj().T
    th = thermal_rho((nu - 1.0) / 2.0, cutoff)
    best_err, best_rho = np.inf, None
    for sr in (r, -r):
        for sphi in (phi, -phi):
            sq = expm(0.5 * sr * (a @ a - ad @ ad))
            rot = expm(1j * sphi * (ad @ a))
            u = rot @ sq
            rho = u @ th @ u.conj().T
            err = np.max(np.abs(cm_of_rho(rho, 1, cutoff) - gamma))
            if err < best_err:
                best_err, best_rho = err, rho
    assert best_err < check_tol, f"oracle self-check failed: CM error {best_err:.3e}"
    return best_rho


def two_mode_squeezed_thermal_rho(nbar, r, cutoff, check_tol=1e-6):
    """Two-mode squeezed thermal state rho, cutoff per mode.

    Applies the two-mode squeezer to a product of equal thermal states;
    the target CM has blocks nu*cosh(2r) I and coupling nu*sinh(2r) sigma_3.
    """
    a = ladder(cutoff)
    ad = a.conj().T
    a1 = np.kron(a, np.eye(cutoff))
    a2 = np.kron(np.eye(cutoff), a)
    th = np.kron(thermal_rho(nbar, cutoff), thermal_rho(nbar, cutoff))
    nu = 2.0 * nbar + 1.0
    target = np.diag([nu * np.cosh(2 * r)] * 4).astype(float)
    target[0, 2] = target[2, 0] = nu * np.sinh(2 * r)
    target[1, 3] = target[3, 1] = -nu * np.sinh(2 * r)
    best_err, best_rho = np.inf, None
    for sr in (r, -r):
        u = expm(sr * (a1 @ a2 - a1.conj().T @ a2.conj().T))
        rho = u @ th @ u.conj().T
        err = np.max(np.abs(cm_of_rho(rho, 2, cutoff) - target))
        if err < best_err:
            best_err, best_rho = err, rho
    assert best_err < check_tol, f"oracle self-check failed: CM error {best_err:.3e}"
    return best_rho


def kernel_eigenfunction(beta, n, x):
    """L2-normalized phi_n(x) = exp(-beta x^2) H_n(sqrt(2 beta) x) / norm, the
    n-th eigenfunction of a Gaussian kernel with width parameter beta."""
    x = np.asarray(x, dtype=float)
    # ||e^{-beta x^2} H_n(sqrt(2 beta) x)||^2 = 2^n n! sqrt(pi / (2 beta))
    norm = np.sqrt(2.0**n * math.factorial(n) * np.sqrt(np.pi / (2.0 * beta)))
    return np.exp(-beta * x * x) * hermval(np.sqrt(2.0 * beta) * x, [0] * n + [1]) / norm
