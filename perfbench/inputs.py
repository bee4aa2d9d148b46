"""Seeded input generators for the benchmark workloads.

Every generator takes a numpy Generator and returns plain numbers and
arrays; the program only ever sees these generated inputs. Category
shares are fixed, so that two seeds ask for the same kinds of work and
differ only in the values drawn.
"""

import numpy as np

from reference import (
    physical_min_eig,
    pt_min_symplectic,
    standard_form_cm,
    werner_wolf_cm,
)


def _passive(rng):
    """Random passive (orthogonal symplectic) 4x4 map from a Haar 2x2 unitary."""
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    s = np.zeros((4, 4))
    for j in range(2):
        for k in range(2):
            re, im = u[j, k].real, u[j, k].imag
            s[2 * j : 2 * j + 2, 2 * k : 2 * k + 2] = [[re, -im], [im, re]]
    return s


def _rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _local(rng, max_squeeze=0.6):
    """Random local symplectic R(theta) diag(e^-s, e^s) R(phi) on each mode."""
    out = np.zeros((4, 4))
    for m in range(2):
        s = rng.uniform(-max_squeeze, max_squeeze)
        blk = _rot(rng.uniform(0, np.pi)) @ np.diag([np.exp(-s), np.exp(s)])
        out[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = blk @ _rot(rng.uniform(0, np.pi))
    return out


def _dress(rng, g):
    s = _local(rng)
    return s @ g @ s.T


def general_two_mode(rng, entangled):
    """Global and local symplectics applied to a thermal state, redrawn until
    the PPT eigenvalue lies clearly on the requested side of 1."""
    while True:
        nu = rng.uniform(1.0, 2.5, size=2)
        r = rng.uniform(0.0, 0.8, size=2)
        squeeze = np.diag([np.exp(-r[0]), np.exp(r[0]), np.exp(-r[1]), np.exp(r[1])])
        s = _local(rng) @ _passive(rng) @ squeeze @ _passive(rng)
        g = s @ np.diag([nu[0], nu[0], nu[1], nu[1]]) @ s.T
        g = 0.5 * (g + g.T)
        pt = pt_min_symplectic(g, [1])
        if (pt < 0.95) if entangled else (pt > 1.05):
            return g


def symmetric_two_mode(rng, entangled):
    """Standard form with a = b, dressed by local symplectics."""
    while True:
        a = rng.uniform(1.2, 3.0)
        c1, c2 = rng.uniform(0.0, a - 0.05, size=2)
        g = standard_form_cm(a, a, c1, c2)
        if physical_min_eig(g) < 1e-6:
            continue
        pt = pt_min_symplectic(g, [1])
        if (pt < 0.95) if entangled else (pt > 1.05):
            return _dress(rng, g)


def squeezed_thermal(rng, entangled):
    """Two-mode squeezed thermal standard form, c on either side of the
    separability boundary c* = sqrt((a-1)(b-1))."""
    while True:
        a, b = rng.uniform(1.2, 3.5, size=2)
        c_sep = np.sqrt((a - 1.0) * (b - 1.0))
        c_max = np.sqrt((min(a, b) - 1.0) * (max(a, b) + 1.0))
        c = rng.uniform(c_sep * 1.05, c_max * 0.97) if entangled else rng.uniform(0.0, c_sep * 0.95)
        g = standard_form_cm(a, b, c, c)
        if physical_min_eig(g) > 1e-6:
            return _dress(rng, g)


def near_boundary(rng, entangled):
    """Squeezed thermal state with c a relative 1e-3 across the boundary."""
    a, b = rng.uniform(1.5, 3.5, size=2)
    c = np.sqrt((a - 1.0) * (b - 1.0)) * (1.0 + 1e-3 if entangled else 1.0 - 1e-3)
    return _dress(rng, standard_form_cm(a, b, c, c))


def werner_wolf(rng, entangled):
    """Physical Werner-Wolf parameter sets (A..F) on a stated side of the
    family's closed-form boundary, 0.05 or more away from it.

    The family is PPT, so the side is set by the closed form itself; the
    entangled sets are bound entangled."""
    while True:
        a, b, c, d = rng.uniform(0.5, 4.0, size=4)
        e, f = rng.uniform(-1.5, 1.5, size=2)
        if physical_min_eig(werner_wolf_cm(a, b, c, d, e, f)) < 1e-6:
            continue
        margin = (a * c - e * e) * (b * d - f * f) - 2 * abs(e * f) - c * d - a * b + 1
        if (margin < -0.05) if entangled else (margin > 0.05):
            return (a, b, c, d, e, f)


def single_mode_kernel(rng):
    """gamma = nu R diag(e^2r, e^-2r) R^T with moderate nu and r."""
    nu = rng.uniform(1.0, 2.5)
    r = rng.uniform(0.0, 0.4)
    rot = _rot(rng.uniform(0, np.pi))
    g = nu * rot @ np.diag([np.exp(2 * r), np.exp(-2 * r)]) @ rot.T
    return 0.5 * (g + g.T)


def two_mode_kernel(rng, family):
    """Photon-trace kernels: a symmetric squeezed thermal state or a general CM."""
    if family == "sts":
        n_th = rng.uniform(0.0, 1.5)
        r = rng.uniform(0.05, 0.6)
        nu = 2.0 * n_th + 1.0
        ch, sh = nu * np.cosh(2 * r), nu * np.sinh(2 * r)
        return standard_form_cm(ch, ch, sh, sh)
    return general_two_mode(rng, entangled=bool(rng.integers(2)))


def detect_operator(rng):
    """Six-parameter detect-operator entries, drawn as the CLI's generator does:
    the (x1,x2) and (p1,p2) couplings of R R^T + 1e-3 I, kept when positive.
    Parties are ordered so the first carries the smaller M1*M2 weight."""
    while True:
        r = rng.normal(size=(4, 4))
        g = r @ r.T + 1e-3 * np.eye(4)
        cand = np.diag(np.diag(g))
        cand[0, 2] = cand[2, 0] = g[0, 2]
        cand[1, 3] = cand[3, 1] = g[1, 3]
        if np.linalg.eigvalsh(cand)[0] < 0.0:
            continue
        m = [g[0, 0], g[1, 1], g[2, 2], g[3, 3], g[0, 2], -g[1, 3]]
        if m[0] * m[1] > m[2] * m[3]:
            m = [m[2], m[3], m[0], m[1], m[4], m[5]]
        return tuple(float(x) for x in m)
