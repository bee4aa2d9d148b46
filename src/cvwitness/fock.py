"""Fock-space numerics for the two-mode detect operator.

Matrix elements come from a four-variable generating function whose
exponent, after pre-squeezing to the stationary (x, y), has only cross
couplings. The module also hosts the alternating product-state
maximization and the randomized sweep harness.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrix, StationarityViolated
from .symplectic import _ccm_matrix, gaussian_taylor
from .witness import PositivityMode, SixParamDetect, lambda_product_vacuum

_SIGMA1_I2 = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
_SIGMA3_DIAG = np.array([1.0, 1.0, -1.0, -1.0])
# M0 above which the alternating maximization counts as converged to the vacuum
_M0_TARGET = 0.99999
_JITTER = 1e-3


@dataclass(frozen=True)
class GeneratingCoeffs:
    """Cross-coupling coefficients of the pre-squeezed generating function."""

    n1: float
    n2: float
    n3: float
    n4: float
    k: tuple            # K1..K6 intermediates
    x: float
    y: float


@dataclass(frozen=True)
class FockOperator:
    """Truncated rank-4 tensor of detect-operator matrix elements.

    ``tensor[k1, k2, m1, m2]`` is the element between |k1 k2> and |m1 m2>;
    the (0,0,0,0) element equals ``sqrt_det_beta``.
    """

    tensor: np.ndarray
    cutoff: int
    sqrt_det_beta: float


@dataclass(frozen=True)
class ProductStateVec:
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for v in (self.a, self.b):
            if abs(np.linalg.norm(v) - 1.0) > 1e-12:
                raise ValueError("product-state factors must be normalized")


@dataclass(frozen=True)
class IterationResult:
    m0: float
    psi: ProductStateVec
    rounds: int
    photon_trace: tuple
    m0_trace: tuple
    converged: bool


def _generating_matrices(cms, x, y):
    """beta of detect-operator CMs (..., 4, 4) pre-squeezed at x, y of shape (...).

    The pre-squeeze conjugates each CM by diag(1/sqrt(x), sqrt(x), 1/sqrt(y),
    sqrt(y)); raises SingularMatrix when any of the matrices is singular or
    not real.
    """
    s = np.stack([1.0 / np.sqrt(x), np.sqrt(x), 1.0 / np.sqrt(y), np.sqrt(y)], axis=-1)
    ccm = _ccm_matrix(s[..., :, None] * cms * s[..., None, :])
    a = 0.5 * (ccm + _SIGMA1_I2)
    if np.any(np.abs(np.linalg.det(a)) < 1e-300):
        raise SingularMatrix("generating-function matrix is singular")
    # conjugation by sigma3 x I2 flips the signs of the cross-mode blocks
    beta = _SIGMA3_DIAG[:, None] * np.linalg.inv(a) * _SIGMA3_DIAG
    if np.any(np.abs(beta.imag) > 1e-9):
        raise SingularMatrix("beta has unexpected imaginary part")
    return beta.real


def generating_coeffs(d, x=None, y=None):
    """K and N coefficients at the stationary pre-squeeze parameters.

    N1..N4 are 2 T_12, Q_11, Q_12 and Q_22 of the exponent [[2T, Q], [Q, 2T]]; its
    prefactor sqrt(det beta) is Lambda, from lambda_product_vacuum. When (x, y) are
    omitted they are obtained there too; the diagonal of T must vanish at them.
    """
    if x is None or y is None:
        _, x, y = lambda_product_vacuum(d)
    m1, m2, m3, m4, m5, m6 = d.m1, d.m2, d.m3, d.m4, d.m5, d.m6
    k1 = 0.5 * (m2 * x - m1 / x)
    k2 = 0.5 * (m2 * x + m1 / x) + 1.0
    k3 = 0.5 * (m4 * y - m3 / y)
    k4 = 0.5 * (m4 * y + m3 / y) + 1.0
    k5 = -0.5 * (np.sqrt(x * y) * m6 + m5 / np.sqrt(x * y))
    k6 = 0.5 * (-np.sqrt(x * y) * m6 + m5 / np.sqrt(x * y))
    u = np.array([[k1, k5], [k5, k3]])
    v = np.array([[k2, k6], [k6, k4]])
    # inv([[U, V], [V, U]]) = [[T, -U^{-1}VT], [-U^{-1}VT, T]] with
    # T = (U - VU^{-1}V)^{-1}; this form stays finite when U is singular
    c_inv = np.linalg.inv(np.block([[u, v], [v, u]]))
    t = c_inv[:2, :2]
    if max(abs(t[0, 0]), abs(t[1, 1])) > 1e-6:
        raise StationarityViolated(
            f"T diagonal {t[0, 0]!r}, {t[1, 1]!r} does not vanish; "
            "(x, y) is not a stationary point"
        )
    q = np.eye(2) - 2.0 * c_inv[:2, 2:]
    q = 0.5 * (q + q.T)
    return GeneratingCoeffs(
        n1=float(2.0 * t[0, 1]),
        n2=float(q[0, 0]),
        n3=float(q[0, 1]),
        n4=float(q[1, 1]),
        k=(k1, k2, k3, k4, k5, k6),
        x=float(x),
        y=float(y),
    )


def _summation_terms(g, cutoff):
    """All six-index summation terms below the cutoff.

    Yields (k1, k2, m1, m2, weight) arrays where weight is the term of the
    normalized sum: N-powers times sqrt(k1! k2! m1! m2!)/(k! l! m! n! i! j!).
    Only m0_eval uses it, which keeps M0 independent of the recursive
    kernel behind fock_elements.
    """
    idx = np.arange(cutoff)
    kk, ll, mm, nn = [a.ravel() for a in np.meshgrid(idx, idx, idx, idx, indexing="ij")]
    lg = np.array([math.lgamma(k + 1.0) for k in range(2 * cutoff + 1)])
    out = []
    for i in range(cutoff):
        for j in range(cutoff):
            k1 = kk + mm + i
            k2 = ll + nn + i
            m1 = kk + nn + j
            m2 = ll + mm + j
            sel = (k1 < cutoff) & (k2 < cutoff) & (m1 < cutoff) & (m2 < cutoff)
            k1s, k2s, m1s, m2s = k1[sel], k2[sel], m1[sel], m2[sel]
            ks, ls, ms, ns = kk[sel], ll[sel], mm[sel], nn[sel]
            log_w = 0.5 * (lg[k1s] + lg[k2s] + lg[m1s] + lg[m2s]) - (
                lg[ks] + lg[ls] + lg[ms] + lg[ns] + lg[i] + lg[j]
            )
            w = (
                g.n1 ** (i + j)
                * g.n2**ks
                * g.n3 ** (ms + ns)
                * g.n4**ls
                * np.exp(log_w)
            )
            out.append((k1s, k2s, m1s, m2s, w))
    return out


def _element_tensors(cms, x, y, sqrt_det_beta, cutoff):
    """Element tensors of detect-operator CMs (..., 4, 4) at their stationary (x, y).

    x, y and sqrt_det_beta have the leading shape of cms; so do the tensors.
    """
    beta = _generating_matrices(cms, x, y)
    tensor = gaussian_taylor(beta + _SIGMA1_I2, (cutoff - 1,) * 4)
    tensor *= np.asarray(sqrt_det_beta)[..., None, None, None, None]
    return tensor


def fock_elements(d, cutoff):
    """Matrix-element tensor of the pre-squeezed detect operator."""
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    # Lambda = 4 / sqrt(det) at the stationary point is sqrt(det beta) there
    sqrt_det_beta, x, y = lambda_product_vacuum(d)
    tensor = _element_tensors(d.cm(), x, y, sqrt_det_beta, cutoff)
    return FockOperator(tensor=tensor, cutoff=cutoff, sqrt_det_beta=sqrt_det_beta)


def m0_eval(g, psi, truncation=None):
    """Normalized product-state mean via the generating-function sum.

    <M> = sqrt(det beta) * M0; the product vacuum gives exactly 1.
    """
    a, b = np.asarray(psi.a), np.asarray(psi.b)
    cutoff = min(len(a), len(b)) if truncation is None else truncation
    total = 0.0 + 0.0j
    for k1, k2, m1, m2, w in _summation_terms(g, cutoff):
        total += np.sum(np.conj(a[k1]) * np.conj(b[k2]) * a[m1] * b[m2] * w)
    if abs(total.imag) > 1e-9 * max(1.0, abs(total.real)):
        raise ArithmeticError("product-state mean has non-negligible imaginary part")
    return float(total.real)


def _conditional(tensors, vecs, mode):
    """Contract one mode of element tensors (..., c, c, c, c) with unit vectors (..., c).

    mode=2 contracts the second mode (a matrix over mode 1) and vice versa;
    each result is made Hermitian. Each contracted index is one matmul on a
    reshaped view of the tensors: the last (mode 2) or first (mode 1) index
    against the whole tensor, then the other index for each row. The caller
    checks that the vectors are unit.
    """
    lead, c = tensors.shape[:-4], tensors.shape[-1]
    conj = vecs.conj()
    if mode == 2:
        # T[a, k, b, l] v_l, then conj(v_k) for each a
        half = tensors.reshape(lead + (c**3, c)) @ vecs[..., :, None]
        other = conj
    else:
        # conj(v_k) T[k, a, l, b], then v_l for each a
        half = conj[..., None, :] @ tensors.reshape(lead + (c, c**3))
        other = vecs
    mat = (other[..., None, None, :] @ half.reshape(lead + (c, c, c))).reshape(lead + (c, c))
    herm = mat.conj().swapaxes(-1, -2)
    herm += mat
    herm *= 0.5
    return herm


def _mean_photons(vecs):
    return (np.arange(vecs.shape[-1]) * np.abs(vecs) ** 2).sum(axis=-1)


def random_state_vector(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _maximize(tensors, sqrt_det_beta, b, max_rounds):
    """Alternating maximization over a stack of element tensors (k, c, c, c, c).

    Starts from unit mode-2 vectors b (k, c), with sqrt_det_beta a sequence
    of k numbers. Every round contracts the samples still running at once and
    takes one stacked eigh; a sample whose M0 passes _M0_TARGET leaves the
    stack, so its rounds and values are those it would have alone. Returns
    (rounds, converged, m0, factors), arrays over the k samples: sample i ran
    rounds[i] rounds, m0[i, r] is its M0 after round r + 1, and factors[i]
    holds its factors in the order they were set, the vacuum a and the start
    b first, then the new factor of each round (a in odd rounds, b in even
    ones), so that its last pair is factors[i, rounds[i]:rounds[i] + 2].
    Entries past a sample's rounds are 0.
    """
    norms = np.sqrt((np.abs(b) ** 2).sum(axis=-1)).tolist()
    if any(abs(norm - 1.0) > 1e-10 for norm in norms):
        raise ValueError("conditioning vector must be normalized")
    k, c = b.shape
    # the contractions take complex vectors: cast the tensors once, not in every matmul
    tensors = tensors.astype(complex)
    # round-major, so that a round writes one row
    m0 = np.zeros((max_rounds, k))
    factors = np.zeros((max_rounds + 2, k, c), dtype=complex)
    factors[0, :, 0] = 1.0
    factors[1] = b
    a = factors[0]
    rounds, converged = np.full(k, max_rounds), np.zeros(k, dtype=bool)
    live, s, m = np.arange(k), list(sqrt_det_beta), None
    for r in range(max_rounds):
        if not live.size:
            break
        # eigh returns unit eigenvectors, so only b needs the check above
        if r % 2 == 0:
            w, vecs = np.linalg.eigh(_conditional(tensors, b, mode=2))
            a = new = vecs[..., -1]
        else:
            w, vecs = np.linalg.eigh(_conditional(tensors, a, mode=1))
            b = new = vecs[..., -1]
        prev, m = m, [top / x for top, x in zip(w[:, -1].tolist(), s)]
        if prev and any(x < y - 1e-9 for x, y in zip(m, prev)):
            raise ArithmeticError("M0 decreased between rounds")
        m0[r, live] = m
        factors[r + 2, live] = new
        done = [x > _M0_TARGET for x in m]
        if any(done):
            keep = np.logical_not(done)
            rounds[live[done]], converged[live[done]] = r + 1, True
            s, m = ([x for x, d in zip(seq, done) if not d] for seq in (s, m))
            live, tensors, a, b = live[keep], tensors[keep], a[keep], b[keep]
    return rounds, converged, m0.T, factors.transpose(1, 0, 2)


def alternate_maximize(op, seed=None, max_rounds=100, initial=None):
    """Alternating largest-eigenvector maximization of the product-state mean.

    Each round contracts one mode with the current factor and replaces the
    other factor by the top eigenvector, so M0 never decreases. Callers
    should pass an operator whose first party has the smaller M1*M2 weight
    (swap the detect operator otherwise).
    """
    if initial is not None:
        b = np.asarray(initial, dtype=complex)
        b = b / np.linalg.norm(b)
    else:
        rng = np.random.default_rng(seed)
        b = random_state_vector(rng, op.cutoff)
    rounds, converged, m0, factors = _maximize(
        op.tensor[None], [op.sqrt_det_beta], b[None], max_rounds)
    r, factors = int(rounds[0]), factors[0]
    # the last two factors set are the final pair; odd rounds set a
    a, b = factors[r:r + 2] if r % 2 == 0 else factors[r + 1:r - 1:-1]
    photons = _mean_photons(factors[1:r + 2]).tolist()
    m0_trace = tuple(m0[0, :r].tolist())
    return IterationResult(
        m0=m0_trace[-1] if m0_trace else -np.inf,
        psi=ProductStateVec(a=a / np.linalg.norm(a), b=b / np.linalg.norm(b)),
        rounds=r,
        # round r pairs its new factor with that of round r - 1 (the start vector first)
        photon_trace=tuple(0.5 * (p + q) for p, q in zip(photons[1:], photons)),
        m0_trace=m0_trace,
        converged=bool(converged[0]),
    )


def random_detect_operator(seed):
    """Random positive detect operator, deterministic per seed.

    Draws R, forms R R^T + _JITTER*I, and keeps only the six-parameter
    sparsity pattern: the operator is that matrix with its x-p entries set to
    zero. One draw always suffices, as its x and p blocks are the principal
    submatrices of R R^T + _JITTER*I on (x1, x2) and on (p1, p2), each with
    least eigenvalue at least _JITTER.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    r = rng.normal(size=(4, 4))
    g = (r @ r.T).tolist()
    return SixParamDetect(g[0][0] + _JITTER, g[1][1] + _JITTER, g[2][2] + _JITTER,
                          g[3][3] + _JITTER, g[0][2], -g[1][3], PositivityMode.OPERATOR_PSD)


def iteration_detect(d):
    """Swap parties so the first party carries the smaller M1*M2 weight."""
    if d.m1 * d.m2 > d.m3 * d.m4:
        return d.swapped()
    return d


@dataclass(frozen=True)
class SweepRow:
    seed: int
    avg_photon: float
    m0: float
    rounds: int
    converged: bool


def sweep_fig1(samples, cutoff=6, seed=0, max_rounds=100):
    """Randomized product-state sweep over random detect operators.

    For each sample: draw a detect operator and a random unit vector for
    mode 2 (a vacuum-biased mixture so the photon-number axis is covered)
    and run the alternating maximization from it; its first round maximizes
    mode 1 exactly, and the row records that pair's photon number and M0
    with the rounds the iteration took to converge.
    Returns (rows, failures) where failures holds any vacuum-optimality
    counterexamples (M0 > 1 beyond tolerance).
    """
    if max_rounds < 1:
        raise ValueError("each sample needs at least one maximization round")
    ds, starts = [], []
    for s in range(samples):
        rng = np.random.default_rng([int(seed), s])
        ds.append(iteration_detect(random_detect_operator(rng)))
        tau = rng.uniform(0.0, 3.0)
        b = np.zeros(cutoff, dtype=complex)
        b[0] = 1.0
        noise = rng.normal(size=cutoff) + 1j * rng.normal(size=cutoff)
        b = b + tau * noise / np.linalg.norm(noise)
        starts.append(b / np.linalg.norm(b))
    # Lambda is sqrt(det beta) at the stationary (x, y), as in fock_elements
    lam, x, y = np.array([lambda_product_vacuum(d) for d in ds]).reshape(-1, 3).T
    cms = np.array([d.cm() for d in ds]).reshape(-1, 4, 4)
    tensors = _element_tensors(cms, x, y, lam, cutoff)
    rounds, converged, m0, factors = _maximize(
        tensors, lam.tolist(), np.array(starts).reshape(-1, cutoff), max_rounds)
    # a row is the first round: its M0 and the photon number of the pair it set
    first_m0 = m0[:, 0].tolist()
    photons = _mean_photons(factors[:, 1:3])
    avg_photon = (0.5 * (photons[:, 1] + photons[:, 0])).tolist()
    rows = [SweepRow(seed=s, avg_photon=p, m0=m, rounds=n, converged=c)
            for s, (p, m, n, c) in enumerate(zip(avg_photon, first_m0, rounds.tolist(),
                                                  converged.tolist()))]
    failures = [(s, d, m) for s, (d, m) in enumerate(zip(ds, first_m0)) if m > 1.0 + 1e-6]
    return rows, failures
