"""Covariance-matrix algebra for continuous-variable states.

Conventions: quadratures are ordered (x1, p1, ..., xn, pn), the vacuum
covariance matrix is the identity, and a matrix gamma is physical iff
gamma + i*sigma >= 0 with sigma the block-diagonal symplectic form.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateBlock,
    NotPhysical,
    NotSymmetric,
    OddDimension,
    SingularSum,
)

SYM_RTOL = 1e-12
PSD_ATOL = 1e-9


def symplectic_form(n):
    """The 2n x 2n symplectic form, (0, 1; -1, 0) per mode."""
    return _symplectic_form(n).copy()


@lru_cache
def _symplectic_form(n):
    """Read-only shared :func:`symplectic_form`, built once per mode count."""
    s = np.zeros((2 * n, 2 * n))
    for j in range(n):
        s[2 * j, 2 * j + 1] = 1.0
        s[2 * j + 1, 2 * j] = -1.0
    s.flags.writeable = False
    return s


@dataclass(frozen=True)
class CovarianceMatrix:
    """A validated 2n x 2n real covariance matrix.

    Construct through :func:`validate_cm`; direct construction skips checks.
    """

    entries: np.ndarray

    @property
    def n(self):
        return self.entries.shape[0] // 2

    def block(self, rows, cols):
        """Sub-block selecting the quadratures of the given mode lists."""
        ri = [q for m in rows for q in (2 * m, 2 * m + 1)]
        ci = [q for m in cols for q in (2 * m, 2 * m + 1)]
        return self.entries[np.ix_(ri, ci)]


@dataclass(frozen=True)
class ModePartition:
    """Assignment of each mode to a party label, e.g. ("A", "A", "B")."""

    parties: tuple

    def __post_init__(self):
        labels = set(self.parties)
        if len(labels) < 2:
            raise ValueError("a partition needs at least two parties")

    @property
    def n(self):
        return len(self.parties)

    def modes_of(self, party):
        return [i for i, p in enumerate(self.parties) if p == party]

    @property
    def labels(self):
        seen = []
        for p in self.parties:
            if p not in seen:
                seen.append(p)
        return seen

    @staticmethod
    def bipartite(n_a, n_b):
        return ModePartition(("A",) * n_a + ("B",) * n_b)


@dataclass(frozen=True)
class ComplexCM:
    """2n x 2n complex covariance matrix in (a, a^dagger) block ordering."""

    matrix: np.ndarray

    @property
    def n(self):
        return self.matrix.shape[0] // 2


@dataclass(frozen=True)
class StandardForm:
    """Two-mode standard form (a, a | b, b) diagonal blocks, diag(c1, -c2) coupling."""

    a: float
    b: float
    c1: float
    c2: float

    def to_cm(self):
        g = np.diag([self.a, self.a, self.b, self.b]).astype(float)
        g[0, 2] = g[2, 0] = self.c1
        g[1, 3] = g[3, 1] = -self.c2
        return g


def validate_cm(entries):
    """Validate a candidate covariance matrix.

    Raises OddDimension, NotSymmetric or NotPhysical; NotPhysical carries
    the most negative eigenvalue of gamma + i*sigma.
    """
    g = np.asarray(entries, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise OddDimension(f"expected a square matrix, got shape {g.shape}")
    if g.shape[0] % 2 != 0 or g.shape[0] == 0:
        raise OddDimension(f"dimension {g.shape[0]} is not a positive even number")
    scale = max(1.0, float(np.max(np.abs(g))))
    if np.max(np.abs(g - g.T)) > SYM_RTOL * scale:
        raise NotSymmetric("matrix is not symmetric to within tolerance")
    g = 0.5 * (g + g.T)
    n = g.shape[0] // 2
    herm = g + 1j * _symplectic_form(n)
    w = np.linalg.eigvalsh(herm)
    if w[0] < -PSD_ATOL:
        raise NotPhysical(w[0])
    return CovarianceMatrix(entries=g)


def symplectic_eigenvalues(cm):
    """Symplectic spectrum: positive eigenvalue moduli of i*sigma*gamma, descending."""
    g = cm.entries
    n = cm.n
    w = np.linalg.eigvals(1j * _symplectic_form(n) @ g)
    mods = np.sort(np.abs(w))[::-1]
    # eigenvalues come in +/- pairs of equal modulus
    return [float(mods[2 * k]) for k in range(n)]


def partial_transpose(cm, partition):
    """Sign-flip the momenta of party-B modes.

    Returns a raw matrix: the output may violate gamma + i*sigma >= 0,
    which is exactly what a PPT test inspects.
    """
    labels = partition.labels
    if len(labels) != 2:
        raise ValueError("partial transpose needs a bipartite partition")
    flip = np.ones(2 * partition.n)
    for m in partition.modes_of(labels[1]):
        flip[2 * m + 1] = -1.0
    lam = np.diag(flip)
    return lam @ cm.entries @ lam


def min_pt_symplectic_eigenvalue(cm, partition=None):
    """Smallest symplectic eigenvalue of the partial transpose (PPT statistic)."""
    if partition is None:
        partition = ModePartition.bipartite(1, cm.n - 1)
    gt = partial_transpose(cm, partition)
    w = np.abs(np.linalg.eigvals(1j * _symplectic_form(cm.n) @ gt))
    return float(np.min(w))


def _local_symplectic_to_scalar(block):
    """S such that S @ block @ S.T = sqrt(det block) * I, with det S = 1."""
    d = float(np.linalg.det(block))
    if d <= 1e-12:
        raise DegenerateBlock("singular 2x2 diagonal block")
    # B = block / sqrt(d) has det 1, so B^(-1/2) = (adj(B) + I) / sqrt(tr B + 2)
    b = block / np.sqrt(d)
    adj = np.array([[b[1, 1], -b[0, 1]], [-b[1, 0], b[0, 0]]])
    return (adj + np.eye(2)) / np.sqrt(np.trace(b) + 2.0)


def standard_form(cm):
    """Reduce a two-mode CM to its standard form by local symplectics."""
    if cm.n != 2:
        raise ValueError("standard form is defined for two-mode states")
    g = cm.entries
    blk_a, blk_b, blk_c = g[:2, :2], g[2:, 2:], g[:2, 2:]
    a_loc = _local_symplectic_to_scalar(blk_a)
    b_loc = _local_symplectic_to_scalar(blk_b)
    a = float(np.sqrt(np.linalg.det(blk_a)))
    b = float(np.sqrt(np.linalg.det(blk_b)))
    c = a_loc @ blk_c @ b_loc.T
    u, s, vt = np.linalg.svd(c)
    # force proper rotations (det +1), which are local symplectics
    du = np.diag([1.0, np.sign(np.linalg.det(u)) or 1.0])
    dv = np.diag([1.0, np.sign(np.linalg.det(vt)) or 1.0])
    ra = (u @ du).T
    rb = (vt.T @ dv).T
    cd = ra @ c @ rb.T
    return StandardForm(a=a, b=b, c1=float(cd[0, 0]), c2=float(-cd[1, 1]))


def to_complex_cm(cm):
    """Transform a real CM into the complex covariance matrix (a, a^dagger ordering)."""
    return ComplexCM(matrix=_ccm_matrix(cm.entries))


def _ccm_matrix(entries):
    """Complex CM of real CMs of shape (..., 2n, 2n), gathered block by block."""
    n = entries.shape[-1] // 2
    gx, gp = entries[..., 0::2, 0::2], entries[..., 1::2, 1::2]
    gxp, gpx = entries[..., 0::2, 1::2], entries[..., 1::2, 0::2]
    out = np.empty(entries.shape, dtype=complex)
    re, im = out.real, out.imag
    re[..., :n, :n] = re[..., n:, n:] = 0.5 * (gp - gx)
    re[..., :n, n:] = re[..., n:, :n] = 0.5 * (gp + gx)
    im[..., :n, :n] = 0.5 * (gxp + gpx)
    im[..., n:, n:] = -im[..., :n, :n]
    im[..., :n, n:] = 0.5 * (gxp - gpx)
    im[..., n:, :n] = -im[..., :n, n:]
    return out


def gaussian_taylor(g, caps):
    """Normalized Taylor coefficients of exp(v^T g v / 2) at v = 0.

    Returns the table T[a] = d^a exp(v^T g v / 2)|_0 / sqrt(a!) for every
    multi-index 0 <= a_i <= caps[i]; g is symmetric, real or complex. The
    table is filled one axis at a time by the recurrence
    T(a + e_i) = [sum_j g_ij sqrt(a_j) T(a - e_j)] / sqrt(a_i + 1)
    (Miatto & Quesada, Quantum 4, 366 (2020)); while axis i is filled every
    later axis is still at 0, so only j <= i contribute. A stack of matrices,
    g of shape (..., n, n), gives a stack of tables: the leading axes of g
    lead the table, and each table is the one its matrix gives alone.
    """
    g = np.asarray(g)
    caps = tuple(int(c) for c in caps)
    n = len(caps)
    lead = g.shape[:-2]
    t = np.zeros(lead + tuple(c + 1 for c in caps), dtype=np.result_type(g.dtype, float))
    t[(Ellipsis,) + (0,) * n] = 1.0
    root = np.sqrt(np.arange(max(caps, default=0) + 1.0))
    # g_ij broadcast against the i axes of a table slice; plain scalars without batch axes
    coef = [[g[..., i, j].reshape(lead + (1,) * i) if lead else g[i, j] for j in range(i + 1)]
            for i in range(n)]
    pre = (slice(None),) * len(lead)
    for i in range(n):
        block = t[pre + (slice(None),) * (i + 1) + (0,) * (n - i - 1)]
        for s in range(caps[i]):
            cur, nxt = block[..., s], block[..., s + 1]
            if s:
                nxt += coef[i][i] * root[s] * block[..., s - 1]
            for j in range(i):
                lower = pre + (slice(None),) * j + (slice(None, -1),)
                upper = pre + (slice(None),) * j + (slice(1, None),)
                w = root[1 : caps[j] + 1].reshape((-1,) + (1,) * (i - j - 1))
                nxt[upper] += coef[i][j] * w * cur[lower]
            nxt /= root[s + 1]
    return t


def from_complex_cm(ccm):
    """Invert :func:`to_complex_cm`."""
    m = ccm.matrix
    n = ccm.n
    b11, b12 = m[:n, :n], m[:n, n:]
    g = np.empty(m.shape)
    g[0::2, 0::2] = np.real(b12 - b11)
    g[1::2, 1::2] = np.real(b11 + b12)
    g[0::2, 1::2] = np.imag(b11 + b12)
    g[1::2, 0::2] = np.imag(b11 - b12)
    return g


def gaussian_overlap(g1, g2):
    """Tr(rho_G M) for zero-mean Gaussian CMs: 2^n det(g1+g2)^(-1/2)."""
    e1 = g1.entries if isinstance(g1, CovarianceMatrix) else np.asarray(g1, float)
    e2 = g2.entries if isinstance(g2, CovarianceMatrix) else np.asarray(g2, float)
    if e1.shape != e2.shape:
        raise ValueError("mode counts differ")
    n = e1.shape[0] // 2
    d = float(np.linalg.det(e1 + e2))
    if d <= 1e-300:
        raise SingularSum("det(gamma1 + gamma2) is not positive")
    return float(2.0**n / np.sqrt(d))
