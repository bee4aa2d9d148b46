"""Covariance-matrix algebra for continuous-variable states.

Conventions: quadratures are ordered (x1, p1, ..., xn, pn), the vacuum
covariance matrix is the identity, and a matrix gamma is physical iff
gamma + i*sigma >= 0 with sigma the block-diagonal symplectic form.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    return np.array([m1, 0.0, m5, 0.0, 0.0, m2, 0.0, -m6,
                     m5, 0.0, m3, 0.0, 0.0, -m6, 0.0, m4], float).reshape(4, 4)


@dataclass(frozen=True)
class CovarianceMatrix:
    """A validated 2n x 2n real covariance matrix.

    Construct through :func:`validate_cm`; direct construction skips checks.
    """

    entries: np.ndarray

    @property
    def n(self):
        return self.entries.shape[0] // 2

    @cached_property
    def invariants(self):
        """two_mode_invariants of the entries, computed once: nothing writes them."""
        return two_mode_invariants(self.entries)

    @cached_property
    def standard_form(self):
        """symplectic.standard_form(self), computed once: nothing writes the entries."""
        if self.n != 2:
            raise ValueError("standard form is defined for two-mode states")
        det_a, det_b, det_c, det, k = self.invariants
        tiny, den = (1e-12).as_integer_ratio()  # det / 4^k <= tiny / den, in ints
        if (min(self.entries[0, 0], self.entries[2, 2]) <= 0
                or min(det_a, det_b) * den << max(-2 * k, 0) <= tiny << max(2 * k, 0)):
            raise DegenerateBlock("2x2 diagonal block is singular or not positive definite")
        # a, b at scale 2^(k + t), and c1^2 = sq / root at scale 4^k
        t = max(0, 54 + _GUARD - min(det_a.bit_length(), det_b.bit_length()) // 2)
        ra, rb = math.isqrt(det_a << 2 * t), math.isqrt(det_b << 2 * t)
        prod = det_a * det_b
        n = prod + det_c * det_c - det
        sq = (n << 2 * t) + math.isqrt(n * n - 4 * det_c * det_c * prod << 4 * t)
        root = 2 * ra * rb
        u = max(0, (root.bit_length() - sq.bit_length()) // 2 + 54 + _GUARD)
        r = math.isqrt((sq << 2 * u) // root)  # c1 at scale 2^(k + u)
        c1 = unscale(r, 1, k + u)
        c2 = max(-c1, min(unscale(-det_c << u, r, k), c1)) if r else 0.0
        return StandardForm(a=unscale(ra, 1, k + t), b=unscale(rb, 1, k + t), c1=c1, c2=c2)


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


class _ParamState:
    """A state given by parameters whose to_cm() builds its CM. validate() returns
    the state iff that CM passes validate_cm, and raises what validate_cm raises."""

    def validate(self):
        validate_cm(self.to_cm())
        return self


@dataclass(frozen=True)
class StandardForm(_ParamState):
    """Two-mode standard form (a, a | b, b) diagonal blocks, diag(c1, -c2) coupling.

    Construction raises ValidationError unless a^2 + b^2 + c1^2 + c2^2 is finite.
    """

    a: float
    b: float
    c1: float
    c2: float

    def __post_init__(self):
        # products of Python floats: a float power raises OverflowError, a numpy product warns
        a, b, c1, c2 = map(float, (self.a, self.b, self.c1, self.c2))
        if not math.isfinite(a * a + b * b + c1 * c1 + c2 * c2):
            raise ValidationError("the standard form is beyond float64 range")

    def to_cm(self):
        return six_param_cm(self.a, self.a, self.b, self.b, self.c1, self.c2)

    @cached_property
    def invariants(self):
        """two_mode_invariants of to_cm(), computed once: the form is frozen."""
        return two_mode_invariants(self.to_cm())


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
    g = require_symmetric(g)
    require_psd(np.linalg.eigvalsh(g + 1j * _symplectic_form(g.shape[0] // 2))[0])
    return CovarianceMatrix(entries=g)


def require_symmetric(g):
    """A square float array g made exactly symmetric; raises ValidationError for a NaN
    or infinite entry, NotSymmetric for a gap above SYM_RTOL * max(1, max |g|)."""
    largest = float(np.abs(g).max())
    # NaN propagates through max; inf - inf is NaN, which passes every tolerance test below
    if not largest < math.inf:
        raise ValidationError("matrix has a NaN or infinite entry")
    # halves first, exact in the normal range: g + g^T overflows for entries above ~9e307
    half, half_t = 0.5 * g, 0.5 * g.T
    if float(np.abs(half - half_t).max()) > 0.5 * SYM_RTOL * max(1.0, largest):
        raise NotSymmetric("matrix is not symmetric to within tolerance")
    return half + half_t


def require_psd(least):
    """The positivity test: NotPhysical when least, a least eigenvalue, is below -PSD_ATOL."""
    if least < -PSD_ATOL:
        raise NotPhysical(least)


def _moduli(g):
    """Eigenvalue moduli of i*sigma*g, descending, as Python floats; for a
    symmetric g they come in +/- pairs of equal modulus."""
    w = np.linalg.eigvals(1j * _symplectic_form(len(g) // 2) @ g)
    return sorted(np.abs(w).tolist(), reverse=True)


def symplectic_eigenvalues(cm):
    """Symplectic spectrum: positive eigenvalue moduli of i*sigma*gamma, descending.

    Two modes take _two_mode_spectrum, exact up to one rounding each, at any
    scale; more modes one modulus per pair of _moduli.
    """
    if cm.n == 2:
        return list(_two_mode_spectrum(cm, transpose=False))
    return _moduli(cm.entries)[::2]


def partial_transpose(cm, partition):
    """Sign-flip the momenta of the modes of the partition's second party.

    Raises ValueError unless partition is a bipartition of the CM's own modes.
    Returns a raw matrix: the output may violate gamma + i*sigma >= 0,
    which is exactly what a PPT test inspects.
    """
    labels = partition.labels
    if partition.n != cm.n or len(labels) != 2:
        raise ValueError("partial transpose needs a bipartition of the CM's modes")
    flip = np.ones(2 * cm.n)
    for m in partition.modes_of(labels[1]):
        flip[2 * m + 1] = -1.0
    return flip[:, None] * cm.entries * flip


def min_pt_symplectic_eigenvalue(cm, partition=None):
    """Smallest symplectic eigenvalue of the partial transpose (PPT statistic).

    Two modes, with no partition or one of two modes, take _two_mode_spectrum,
    exact up to one rounding at any scale; otherwise the least of _moduli of
    partial_transpose across partition, 1|(n-1) by default.
    """
    if cm.n == 2 and (partition is None or partition.n == 2):
        return _two_mode_spectrum(cm, transpose=True)[1]
    return _moduli(partial_transpose(cm, partition or ModePartition.bipartite(1, cm.n - 1)))[-1]


# guard bits of the integer square roots, below the one rounding to float
_GUARD = 64


def _scaled_ints(values):
    """The finite floats values as exact ints at scale 2^K, and K. 2^-K is the
    least place value of their 53-bit mantissas, so scaling every value by a power
    of two leaves the ints alone. Each value is its mantissa's int shifted by its
    exponent plus K, exact from subnormals to 1.7e308."""
    k = 53 - math.frexp(min(map(abs, filter(None, values)), default=0.5))[1]
    return [int(math.ldexp(m, 53)) << (e - 53 + k) if m else 0
            for m, e in map(math.frexp, values)], k


def two_mode_invariants(entries):
    """det A, det B, det C and det gamma of a two-mode CM as exact ints at scale
    2^K, and K, from _scaled_ints of the ten upper-triangle entries. det gamma
    expands along rows (0, 1) into six products of 2x2 minors."""
    (g00, g01, g02, g03), (_, g11, g12, g13), (_, _, g22, g23), (_, _, _, g33) = (
        entries.tolist())
    (g00, g01, g02, g03, g11, g12, g13, g22, g23, g33), k = _scaled_ints(
        (g00, g01, g02, g03, g11, g12, g13, g22, g23, g33))
    det_a, det_b = g00 * g11 - g01 * g01, g22 * g33 - g23 * g23
    det_c = g02 * g13 - g03 * g12
    det = (det_a * det_b + det_c * det_c
           - (g00 * g12 - g02 * g01) * (g12 * g33 - g23 * g13)
           + (g00 * g13 - g03 * g01) * (g12 * g23 - g22 * g13)
           + (g01 * g12 - g02 * g11) * (g02 * g33 - g23 * g03)
           - (g01 * g13 - g03 * g11) * (g02 * g23 - g22 * g03))
    return det_a, det_b, det_c, det, k


def unscale(num, den, k):
    """num / (den 2^k) for ints num and den > 0, rounded once; +-inf beyond float64 range."""
    try:
        return num / (den << k) if k >= 0 else (num << -k) / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _root(num, den, k):
    """sqrt(num / den) / 2^k for ints num >= 0 and den > 0, rounded once."""
    t = max(0, (den.bit_length() - num.bit_length()) // 2 + 54 + _GUARD)
    root = unscale(math.isqrt((num << 2 * t) // den), 1, k + t)
    if root == math.inf:
        raise ValidationError("a symplectic eigenvalue is beyond float64 range")
    return root


def _two_mode_spectrum(cm, transpose):
    """(nu_+, nu_-) of a two-mode CM, or of its partial transpose, each exact up
    to one rounding: the roots of x^2 - Delta x + det gamma, with
    Delta = det A + det B + 2 det C (the partial transpose flips det C), from
    the exact invariants. nu_+^2 = (Delta + sqrt(Delta^2 - 4 det gamma)) / 2
    takes an integer square root with _GUARD guard bits, and
    nu_-^2 = det gamma / nu_+^2 cancels nowhere."""
    det_a, det_b, det_c, det, k = cm.invariants
    delta = det_a + det_b + (-2 if transpose else 2) * det_c
    plus = (delta << _GUARD) + math.isqrt(max(delta * delta - 4 * det, 0) << 2 * _GUARD)
    nu_plus = _root(plus, 1 << _GUARD + 1, k)
    # Delta = det gamma = 0 for the float CM of a two-mode squeezed vacuum at
    # r = 10, and det gamma < 0 for some rounded pure states: nu_- = 0 there.
    # Where nu_+ = nu_-, the floors may put nu_- a rounding above nu_+
    return nu_plus, min(_root(max(det, 0) << _GUARD + 1, plus, k), nu_plus) if plus else 0.0


def standard_form(cm):
    """The standard form (a, b, c1, c2), c1 >= |c2|, of a two-mode CM from its exact
    invariants: a^2 = det A, b^2 = det B, c1 c2 = -det C and, with P = det A det B and
    N = P + det C^2 - det gamma = a b (c1^2 + c2^2), c1^2 = (N + sqrt(D)) / (2 sqrt(P)),
    where the int D = N^2 - 4 det C^2 P is P (c1^2 - c2^2)^2: nothing cancels, and
    each output is rounded once. Raises DegenerateBlock for a block with first
    entry <= 0 or det <= 1e-12, exactly. Computed once per CovarianceMatrix, as its
    standard_form; an error is not cached, so each call raises it again."""
    return cm.standard_form


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
    deg_t = np.min_scalar_type(sum(caps))
    deg = sum(np.indices(dims, deg_t, sparse=True), np.zeros((), deg_t)).ravel()
    # the even entries in flat order, stably sorted by degree
    flat = np.flatnonzero(deg % 2 == 0).astype(np.min_scalar_type(math.prod(dims) - 1))
    half = deg[flat] // 2
    order = flat[np.argsort(half, kind="stable")]
    count = np.bincount(half)
    del deg, flat, half  # box-sized, not needed by the steps
    # numpy sums the terms of a single entry pairwise and those of several in
    # order; a second copy of a lone entry keeps every step, and every stack, in order
    copies = np.append(1, np.where(count[1:] == 1, 2, 1))
    positions = np.repeat(order, np.repeat(copies, count))
    stored = (copies * count).tolist()
    # each entry's index within its degree, by flat box position
    within = np.zeros(math.prod(dims), np.min_scalar_type(count.max() - 1))
    rows = np.arange(n)[:, None]
    steps, lo = [], 1
    for level in range(1, len(count)):
        plo, src_t = lo - stored[level - 1], np.min_scalar_type(stored[level - 1] - 1)
        within[positions[plo : plo + count[level - 1]]] = np.arange(count[level - 1])
        for pos in np.array_split(positions[lo : lo + stored[level]],
                                  max(1, stored[level] * n // _STEP_TERMS)):
            b = pos[:, None] // strides % dims
            i = n - 1 - np.argmax(b[:, ::-1] > 0, axis=1)
            bi = b[np.arange(len(pos)), i]
            j = np.where(rows == 0, i, rows - 1 + (rows - 1 >= i))
            aj = np.take_along_axis(b.T, j, axis=0) - (j == i)
            live = aj > 0
            # a term with a_j = 0 may point outside the box; clip, then drop it
            src = within.take(pos - strides[i] - strides[j], mode="clip")
            steps.append((plo, lo, lo + len(pos), np.where(live, src, 0).astype(src_t),
                          np.where(live, aj * npairs + i * (i + 1) // 2 + j, 0).astype(w_t),
                          bi.astype(np.min_scalar_type(top))))
            lo += len(pos)
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
