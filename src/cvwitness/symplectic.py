"""Covariance-matrix algebra for continuous-variable states.

Conventions: quadratures are ordered (x1, p1, ..., xn, pn), the vacuum
covariance matrix is the identity, and a matrix gamma is physical iff
gamma + i*sigma >= 0 with sigma the block-diagonal symplectic form.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateBlock,
    NotPhysical,
    NotSymmetric,
    OddDimension,
    SingularSum,
    ValidationError,
)

SYM_RTOL = 1e-12
PSD_ATOL = 1e-9


@lru_cache
def _symplectic_form(n):
    """The 2n x 2n symplectic form, (0, 1; -1, 0) per mode, read-only and
    built once per mode count."""
    s = np.zeros((2 * n, 2 * n))
    for j in range(n):
        s[2 * j, 2 * j + 1] = 1.0
        s[2 * j + 1, 2 * j] = -1.0
    s.flags.writeable = False
    return s


def six_param_cm(m1, m2, m3, m4, m5, m6):
    """Two-mode matrix diag(m1, m2, m3, m4) with x1-x2 coupling +m5 and p1-p2 coupling -m6."""
    g = np.diag([m1, m2, m3, m4]).astype(float)
    g[0, 2] = g[2, 0] = m5
    g[1, 3] = g[3, 1] = -m6
    return g


@dataclass(frozen=True)
class CovarianceMatrix:
    """A validated 2n x 2n real covariance matrix.

    Construct through :func:`validate_cm`; direct construction skips checks.
    """

    entries: np.ndarray

    @property
    def n(self):
        return self.entries.shape[0] // 2


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
class StandardForm:
    """Two-mode standard form (a, a | b, b) diagonal blocks, diag(c1, -c2) coupling."""

    a: float
    b: float
    c1: float
    c2: float

    def to_cm(self):
        return six_param_cm(self.a, self.a, self.b, self.b, self.c1, self.c2)

    def validate(self):
        validate_cm(self.to_cm())
        return self


def validate_cm(entries):
    """Validate a candidate covariance matrix.

    Raises OddDimension, ValidationError for a NaN or infinite entry,
    NotSymmetric or NotPhysical; NotPhysical carries the most negative
    eigenvalue of gamma + i*sigma.
    """
    g = np.asarray(entries, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise OddDimension(f"expected a square matrix, got shape {g.shape}")
    if g.shape[0] % 2 != 0 or g.shape[0] == 0:
        raise OddDimension(f"dimension {g.shape[0]} is not a positive even number")
    largest = float(np.max(np.abs(g)))
    # NaN propagates through max; inf - inf is NaN, which passes every tolerance test below
    if not largest < math.inf:
        raise ValidationError("matrix has a NaN or infinite entry")
    scale = max(1.0, largest)
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
    """Symplectic spectrum: positive eigenvalue moduli of i*sigma*gamma, descending.

    Two modes take the closed form of _two_mode_spectrum, more modes the
    eigenvalues of i*sigma*gamma.
    """
    if cm.n == 2:
        return list(_two_mode_spectrum(cm, transpose=False))
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
    """Smallest symplectic eigenvalue of the partial transpose (PPT statistic).

    Two modes have the one partition 1|1 and take the closed form of
    _two_mode_spectrum; more modes take the eigenvalues of i*sigma*gamma^T_B.
    """
    if cm.n == 2:
        return _two_mode_spectrum(cm, transpose=True)[1]
    if partition is None:
        partition = ModePartition.bipartite(1, cm.n - 1)
    gt = partial_transpose(cm, partition)
    w = np.abs(np.linalg.eigvals(1j * _symplectic_form(cm.n) @ gt))
    return float(np.min(w))


# Dekker's splitter for float64, 2^27 + 1
_SPLIT = 134217729.0


def _dot2(*pairs):
    """The sum of x * y over pairs (x, y) as if in twice the working precision,
    rounded once: each product is split exactly (Dekker 1971) and the sum
    compensated (Dot2 of Ogita, Rump & Oishi 2005)."""
    s = e = 0.0
    for x, y in pairs:
        p = x * y
        t = _SPLIT * x
        xh = t - (t - x)
        t = _SPLIT * y
        yh = t - (t - y)
        xl, yl = x - xh, y - yh
        t = s + p
        z = t - s
        e += ((s - (t - z)) + (p - z)) + (((xh * yh - p) + xh * yl + xl * yh) + xl * yl)
        s = t
    return s + e


def _two_mode_spectrum(cm, transpose):
    """(nu_+, nu_-) of a two-mode CM, or of its partial transpose, in closed form.

    On the standard form (a, b, c1, c2), nu_+^2 and nu_-^2 are the roots of
    x^2 - D x + det gamma with det gamma = (ab - c1^2)(ab - c2^2) and
    D = a^2 + b^2 - 2 c1 c2; the partial transpose flips c2. The larger root
    takes the discriminant in factored form, (a^2 - b^2)^2 - 4 (a c1 - b c2)
    (a c2 - b c1), which is exactly 0 where a = b and c1 = c2, and
    nu_-^2 = det gamma / nu_+^2, so nothing cancels outside _dot2.
    """
    sf = standard_form(cm)
    a, b, c1 = sf.a, sf.b, sf.c1
    c2 = -sf.c2 if transpose else sf.c2
    det = _dot2((a, b), (-c1, c1)) * _dot2((a, b), (-c2, c2))
    d = _dot2((a, a), (b, b), (-2.0 * c1, c2))
    e, f, h = _dot2((a, a), (-b, b)), _dot2((a, c1), (-b, c2)), _dot2((a, c2), (-b, c1))
    plus = 0.5 * (d + math.sqrt(max(_dot2((e, e), (-4.0 * f, h)), 0.0)))
    # where nu_+ = nu_-, rounding may put the quotient an ulp above nu_+^2
    return math.sqrt(plus), math.sqrt(min(det / plus, plus))


def _reduce_block(p, q, r):
    """sqrt(det B) and the entries (s, t, u) of S = (B / sqrt(det B))^(-1/2).

    For B = [[p, q], [q, r]], S = [[s, t], [t, u]] is the local symplectic
    with S @ B @ S = sqrt(det B) * I; a det-1 B has B^(-1/2) = (adj B + I) /
    sqrt(tr B + 2).
    """
    d = p * r - q * q
    if d <= 1e-12:
        raise DegenerateBlock("singular 2x2 diagonal block")
    root = math.sqrt(d)
    k = 1.0 / math.sqrt((p + r) / root + 2.0)
    return root, (r / root + 1.0) * k, -q / root * k, (p / root + 1.0) * k


def standard_form(cm):
    """Reduce a two-mode CM to its standard form by local symplectics.

    Each diagonal block is brought to a multiple of the identity in closed
    form, which leaves the coupling C' = S_A C S_B. Rotations on both sides
    make C' = diag(c1, -c2), and its signed singular values come from the
    two rotation-invariant parts of C', with no SVD: the part commuting with
    rotations has modulus (c1 - c2) / 2, the part anticommuting with them
    (c1 + c2) / 2, so c1 >= |c2|.
    """
    if cm.n != 2:
        raise ValueError("standard form is defined for two-mode states")
    (g00, g01, g02, g03), (_, g11, g12, g13), (_, _, g22, g23), (_, _, _, g33) = (
        cm.entries.tolist())
    a, as_, at, au = _reduce_block(g00, g01, g11)
    b, bs, bt, bu = _reduce_block(g22, g23, g33)
    # C' = (S_A C) S_B
    x0, x1 = as_ * g02 + at * g12, as_ * g03 + at * g13
    y0, y1 = at * g02 + au * g12, at * g03 + au * g13
    m00, m01 = x0 * bs + x1 * bt, x0 * bt + x1 * bu
    m10, m11 = y0 * bs + y1 * bt, y0 * bt + y1 * bu
    q = math.hypot(0.5 * (m00 + m11), 0.5 * (m10 - m01))
    r = math.hypot(0.5 * (m00 - m11), 0.5 * (m10 + m01))
    return StandardForm(a=a, b=b, c1=q + r, c2=r - q)


def _ccm_matrix(entries):
    """Complex CM, in (a, a^dagger) block ordering, of real CMs of shape
    (..., 2n, 2n), gathered block by block."""
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


# terms one plan step gathers per table, n for each entry it fills: this bounds
# the step's temporaries, which are fresh memory on every call when they are large
_STEP_TERMS = 4096
# plans kept between calls, least recently used first, with their bytes; a plan
# above _PLAN_CACHE_BYTES serves its own call only
_PLAN_CACHE_BYTES = 16 << 20
_plans = {}


def _degree_groups(dims, strides):
    """Flat offsets of the sub-box with these dims, grouped by degree.

    Returns (flat, start, count): flat sorted by degree; degree s occupies
    flat[start[s] : start[s] + count[s]].
    """
    idx = np.indices(dims).reshape(len(dims), math.prod(dims))
    deg = idx.sum(axis=0)
    order = np.argsort(deg, kind="stable")
    count = np.bincount(deg, minlength=sum(dims) - len(dims) + 1)
    return (strides @ idx)[order], np.cumsum(count) - count, count


def _build_plan(caps):
    """The level plan of gaussian_taylor for caps: even degrees only, in order.

    Entry b = a + e_i, with i the last nonzero axis of b, takes
    T[b] = sum_j g_ij sqrt(a_j) T[a - e_j] / sqrt(b_i) from degree |b| - 2.
    Entries are stored degree by degree, each degree sorted by flat box
    position. A step fills entries lo:hi, all of one degree, from the
    previous degree, stored at plo:lo; it holds the indices of a - e_j
    there and of g_ij sqrt(a_j) in gaussian_taylor's weight table, with
    rows ordered j = i, then the other axes in order, and b_i. A term with
    a_j = 0 takes weight index 0, a sqrt(0) weight, and source 0.
    Returns (steps, flat box positions of the entries, the flat indices of
    g's lower triangle, sqrt(0..max caps), bytes).
    """
    n = len(caps)
    dims = tuple(c + 1 for c in caps)
    strides = np.array([math.prod(dims[k + 1 :]) for k in range(n)], dtype=np.int64)
    top = max(caps, default=0)
    npairs = n * (n + 1) // 2
    w_t = np.min_scalar_type(npairs * (top + 1) - 1)
    half = n // 2
    left, _, left_count = _degree_groups(dims[:half], strides[:half])
    right, right_start, right_count = _degree_groups(dims[half:], strides[half:])
    left_deg = np.repeat(np.arange(len(left_count)), left_count)
    rows = np.arange(n)[:, None]
    levels, steps, lo, plo = [np.zeros(1, np.int64)], [], 1, 0
    for d in range(2, sum(caps) + 1, 2):
        # pair each entry of the left axes, of degree s, with the right ones of degree d - s
        s = np.clip(d - left_deg, 0, len(right_count) - 1)
        cnt = np.where(d - left_deg == s, right_count[s], 0)
        first = np.cumsum(cnt) - cnt
        at = np.arange(cnt.sum()) - np.repeat(first - right_start[s], cnt)
        level = np.sort(np.repeat(left, cnt) + right[at])
        if len(level) == 1:
            # numpy sums the terms of a single entry pairwise and those of several
            # in order; a second copy keeps every step, and every stack, in order
            level = np.repeat(level, 2)
        prev = levels[-1]
        src_t = np.min_scalar_type(len(prev) - 1)
        for pos in np.array_split(level, max(1, len(level) * n // _STEP_TERMS)):
            b = pos[:, None] // strides % dims
            i = n - 1 - np.argmax(b[:, ::-1] > 0, axis=1)
            bi = b[np.arange(len(pos)), i]
            j = np.where(rows == 0, i, rows - 1 + (rows - 1 >= i))
            aj = np.take_along_axis(b.T, j, axis=0) - (j == i)
            live = aj > 0
            src = np.searchsorted(prev, pos - strides[i] - strides[j])
            steps.append((plo, lo, lo + len(pos), np.where(live, src, 0).astype(src_t),
                          np.where(live, aj * npairs + i * (i + 1) // 2 + j, 0).astype(w_t),
                          bi.astype(np.min_scalar_type(top))))
            lo += len(pos)
        plo = lo - len(level)
        levels.append(level)
    positions = np.concatenate(levels).astype(np.min_scalar_type(math.prod(dims) - 1))
    nbytes = positions.nbytes + sum(x.nbytes for step in steps for x in step[3:])
    ti, tj = np.tril_indices(n)
    return steps, positions, ti * n + tj, np.sqrt(np.arange(top + 1.0)), nbytes


def _taylor_plan(caps):
    """The plan of :func:`_build_plan`, cached within _PLAN_CACHE_BYTES."""
    plan = _plans.pop(caps, None)
    if plan is None:
        plan = _build_plan(caps)
        if plan[-1] > _PLAN_CACHE_BYTES:
            return plan
        while sum(p[-1] for p in _plans.values()) + plan[-1] > _PLAN_CACHE_BYTES:
            del _plans[next(iter(_plans))]
    _plans[caps] = plan
    return plan


def gaussian_taylor(g, caps):
    """Normalized Taylor coefficients of exp(v^T g v / 2) at v = 0.

    Returns the table T[a] = d^a exp(v^T g v / 2)|_0 / sqrt(a!) for every
    multi-index 0 <= a_i <= caps[i]; g is symmetric, real or complex. The
    recurrence T(a + e_i) = [sum_j g_ij sqrt(a_j) T(a - e_j)] / sqrt(a_i + 1)
    (Miatto & Quesada, Quantum 4, 366 (2020)) fills the table degree by
    degree, with i the last nonzero axis of a + e_i, so only j <= i
    contribute. Odd degrees vanish and are never computed. The steps come
    from a plan built once per caps. A stack of matrices, g of shape
    (..., n, n), gives a stack of tables: the leading axes of g lead the
    table, and each table is the one its matrix gives alone.
    """
    g = np.asarray(g)
    caps = tuple(int(c) for c in caps)
    lead = g.shape[:-2]
    stack = math.prod(lead)
    steps, positions, tril, root, _ = _taylor_plan(caps)
    dtype = np.result_type(g.dtype, float)
    box = tuple(x + 1 for x in caps)
    t = np.zeros(lead + box, dtype=dtype)
    # the even-degree entries in plan order, each a row over the stack, so
    # that a degree is a contiguous block
    c = np.empty((positions.size, stack), dtype=dtype)
    c[0] = 1.0
    if steps:
        # g_ij sqrt(a) at a * len(tril) + the index of (i, j) in tril
        pairs = g.reshape(stack, len(caps) ** 2).take(tril, axis=1).T
        weights = (root[:, None, None] * pairs).reshape(root.size * tril.size, stack)
        for plo, lo, hi, src, widx, bi in steps:
            terms = weights.take(widx, axis=0)
            terms *= c[plo:lo].take(src, axis=0)
            np.divide(terms.sum(axis=0), root.take(bi)[:, None], out=c[lo:hi])
    t.reshape(stack, math.prod(box)).T[positions] = c
    return t


def gaussian_overlap(g1, g2):
    """Tr(rho_G M) for zero-mean Gaussian CMs: 2^n det(g1+g2)^(-1/2).

    Raises SingularSum unless g1 + g2 is positive definite; sqrt(det) is the
    product of the diagonal of its Cholesky factor.
    """
    e1 = g1.entries if isinstance(g1, CovarianceMatrix) else np.asarray(g1, float)
    e2 = g2.entries if isinstance(g2, CovarianceMatrix) else np.asarray(g2, float)
    if e1.shape != e2.shape:
        raise ValueError("mode counts differ")
    try:
        root = math.prod(np.linalg.cholesky(e1 + e2).diagonal().tolist())
    except np.linalg.LinAlgError:  # the sum is not positive definite
        root = 0.0
    if not root > 1e-150:
        raise SingularSum("gamma1 + gamma2 is not positive definite")
    return 2.0 ** (e1.shape[0] // 2) / root
