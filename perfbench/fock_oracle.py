"""Ladder-operator Fock oracle for single-mode photon-added/subtracted traces.

Builds rho_G from a thermal state, a squeeze and a rotation in a
truncated Fock basis, applies a^dagger^k a^m on both sides, normalizes,
and takes the trace against the Gaussian operator with CM lambda*I (a
thermal state with nbar = (lambda - 1)/2, diagonal in the Fock basis).
Because that operator is rotation invariant, the squeeze direction and
the rotation sign conventions cannot change the result.
"""

import numpy as np


def _ladder(dim):
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def _unitary_exp(generator):
    """exp(K) for anti-Hermitian K, via the eigenbasis of the Hermitian -iK."""
    w, v = np.linalg.eigh(-1j * generator)
    return (v * np.exp(1j * w)) @ v.conj().T


def gaussian_rho(gamma, dim):
    """Density matrix of the single-mode Gaussian state with 2x2 CM gamma.

    Built in a basis of 2*dim states and truncated to dim, so the
    truncated squeeze does not distort the low photon numbers kept.
    """
    gamma = np.asarray(gamma, dtype=float)
    nu = float(np.sqrt(np.linalg.det(gamma)))
    w = np.linalg.eigvalsh(gamma / nu)
    r = 0.25 * np.log(w[1] / w[0])
    big = 2 * dim
    a = _ladder(big)
    nbar = (nu - 1.0) / 2.0
    if nbar > 0:
        th = np.diag((nbar / (nbar + 1.0)) ** np.arange(big) / (nbar + 1.0))
    else:
        th = np.zeros((big, big))
        th[0, 0] = 1.0
    s = _unitary_exp(0.5 * r * (a @ a - a.T @ a.T))
    rho = (s @ th @ s.conj().T)[:dim, :dim]
    # self-check: trace 1 and mean photon number (tr gamma - 2) / 4
    n_mean = float(np.real(np.trace(rho @ np.diag(np.arange(dim)))))
    if abs(np.real(np.trace(rho)) - 1.0) > 1e-10 or abs(
        n_mean - (np.trace(gamma) - 2.0) / 4.0
    ) > 1e-8:
        raise ArithmeticError("oracle truncation too small for this kernel")
    return rho


def photon_trace(gamma, add, sub, lam, dim=60):
    """Tr(rho M) for rho ~ a^dag^add a^sub rho_G a^dag^sub a^add, M with CM lam*I."""
    rho_g = gaussian_rho(gamma, dim + add)
    a = _ladder(dim + add)
    op = np.linalg.matrix_power(a.T, add) @ np.linalg.matrix_power(a, sub)
    rho = op @ rho_g @ op.T
    rho = rho[:dim, :dim] / np.real(np.trace(rho))
    nbar = (lam - 1.0) / 2.0
    m_diag = (nbar / (nbar + 1.0)) ** np.arange(dim) / (nbar + 1.0)
    return float(np.real(np.sum(np.diag(rho) * m_diag)))
