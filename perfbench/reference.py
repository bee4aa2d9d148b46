"""Reference computations the benchmark checks the program against.

Everything here uses numpy alone and shares no code with the package or
its tests, so an edit to either cannot change what a check accepts.
Conventions match the package: quadratures (x1, p1, ..., xn, pn) and a
vacuum covariance matrix equal to the identity.
"""

import numpy as np


def sigma(n):
    """Block-diagonal symplectic form, (0, 1; -1, 0) per mode."""
    return np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def physical_min_eig(g):
    """Smallest eigenvalue of gamma + i*sigma (>= 0 for a physical state)."""
    return float(np.linalg.eigvalsh(g + 1j * sigma(g.shape[0] // 2))[0])


def pt_min_symplectic(g, modes_b):
    """Smallest symplectic eigenvalue of the partial transpose on ``modes_b``."""
    n = g.shape[0] // 2
    flip = np.ones(2 * n)
    for m in modes_b:
        flip[2 * m + 1] = -1.0
    gt = flip[:, None] * g * flip[None, :]
    # the spectrum of sigma*gt is +-i*nu_k; eigvalsh of i*sigma*gt after a
    # similarity with gt^(1/2) keeps it Hermitian
    w, v = np.linalg.eigh(gt)
    half = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    herm = half @ (1j * sigma(n)) @ half
    return float(np.min(np.abs(np.linalg.eigvalsh(herm))))


def two_mode_symplectic(g):
    """Symplectic eigenvalues (nu_-, nu_+) of a two-mode CM from its invariants.

    nu^2 = (D -+ sqrt(D^2 - 4 det g)) / 2 with D = det A + det B + 2 det C.
    """
    det_a = np.linalg.det(g[:2, :2])
    det_b = np.linalg.det(g[2:, 2:])
    det_c = np.linalg.det(g[:2, 2:])
    big = det_a + det_b + 2.0 * det_c
    disc = np.sqrt(max(big * big - 4.0 * np.linalg.det(g), 0.0))
    return float(np.sqrt(max((big - disc) / 2.0, 0.0))), float(np.sqrt((big + disc) / 2.0))


def block_dets(g):
    """det A, det B, det C and det gamma of a two-mode CM."""
    return (
        float(np.linalg.det(g[:2, :2])),
        float(np.linalg.det(g[2:, 2:])),
        float(np.linalg.det(g[:2, 2:])),
        float(np.linalg.det(g)),
    )


def standard_form_cm(a, b, c1, c2):
    g = np.diag([a, a, b, b])
    g[0, 2] = g[2, 0] = c1
    g[1, 3] = g[3, 1] = -c2
    return g


def detect_cm(m):
    """Six-parameter detect-operator CM: x1-x2 coupled by +m5, p1-p2 by -m6."""
    g = np.diag(m[:4])
    g[0, 2] = g[2, 0] = m[4]
    g[1, 3] = g[3, 1] = -m[5]
    return g


def werner_wolf_cm(a, b, c, d, e, f):
    """The 2x2-mode Werner-Wolf CM, written out from its definition."""
    g = np.diag([a, b, a, b, c, d, c, d])
    for i, j, v in ((0, 4, e), (2, 6, -e), (1, 7, -f), (3, 5, -f)):
        g[i, j] = g[j, i] = v
    return g


def gaussian_overlap(g1, g2):
    """Tr(rho_1 rho_2) = 2^n / sqrt det(gamma_1 + gamma_2)."""
    n = g1.shape[0] // 2
    return float(2.0**n / np.sqrt(np.linalg.det(g1 + g2)))


def kernel_eigenvalue(alpha, r, n):
    """mu_n = sqrt(pi/(alpha+beta)) q^n, beta = alpha sqrt(1-r^2), q = alpha r/(alpha+beta)."""
    beta = alpha * np.sqrt(1.0 - r * r)
    return float(np.sqrt(np.pi / (alpha + beta)) * (alpha * r / (alpha + beta)) ** n)


def product_mean(tensor, a, b):
    """<a b| M |a b> for a rank-4 element tensor indexed [k1, k2, m1, m2]."""
    return complex(np.einsum("ijkl,i,j,k,l->", tensor, np.conj(a), np.conj(b), a, b))
