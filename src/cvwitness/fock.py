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
from .witness import PositivityMode, SixParamDetect, detect_determinant, lambda_product_vacuum

_SIGMA1_I2 = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
_SIGMA3_I2 = np.kron(np.array([[1.0, 0.0], [0.0, -1.0]]), np.eye(2))


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
    sqrt_det_beta: float


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


def presqueezed_cm(d, x, y):
    """CM of the detect operator conjugated by the local squeeze diag(sqrt(x), ...)."""
    s_inv = np.diag([1.0 / np.sqrt(x), np.sqrt(x), 1.0 / np.sqrt(y), np.sqrt(y)])
    return s_inv @ d.cm() @ s_inv


def beta_fock(d, x, y):
    """Generating-function matrix beta of the pre-squeezed detect operator.

    Returns (beta, sqrt_det_beta); sqrt_det_beta doubles as the vacuum
    matrix element and the normalization of the element tensor.
    """
    ccm = _ccm_matrix(presqueezed_cm(d, x, y))
    a = 0.5 * (ccm + _SIGMA1_I2)
    if abs(np.linalg.det(a)) < 1e-300:
        raise SingularMatrix("generating-function matrix is singular")
    beta = _SIGMA3_I2 @ np.linalg.inv(a) @ _SIGMA3_I2
    if np.max(np.abs(beta.imag)) > 1e-9:
        raise SingularMatrix("beta has unexpected imaginary part")
    beta = beta.real
    sqrt_det_beta = 4.0 / np.sqrt(detect_determinant(d, x, y))
    return beta, float(sqrt_det_beta)


def generating_coeffs(d, x=None, y=None):
    """K and N coefficients at the stationary pre-squeeze parameters.

    When (x, y) are omitted they are obtained from the product-vacuum
    optimization; the diagonal of T must vanish there.
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
    g = np.block([[2.0 * t, q], [q, 2.0 * t]])
    sqrt_det_beta = 4.0 / np.sqrt(detect_determinant(d, x, y))
    return GeneratingCoeffs(
        n1=float(g[0, 1]),
        n2=float(g[0, 2]),
        n3=float(g[0, 3]),
        n4=float(g[1, 3]),
        k=(k1, k2, k3, k4, k5, k6),
        x=float(x),
        y=float(y),
        sqrt_det_beta=float(sqrt_det_beta),
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
            if not np.any(sel):
                continue
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


def fock_elements(d, cutoff):
    """Matrix-element tensor of the pre-squeezed detect operator."""
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    beta, sqrt_det_beta = beta_fock(d, *lambda_product_vacuum(d)[1:])
    tensor = gaussian_taylor(beta + _SIGMA1_I2, (cutoff - 1,) * 4) * sqrt_det_beta
    return FockOperator(tensor=tensor, cutoff=cutoff, sqrt_det_beta=sqrt_det_beta)


def fock_trace(d, cutoff):
    """Fock-basis trace of the detect operator up to the cutoff.

    The full trace is 1 (the characteristic function at the origin).
    """
    return float(np.einsum("ijij->", fock_elements(d, cutoff).tensor))


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


def conditional_matrix(op, vec, mode=2):
    """Contract one mode of the element tensor with a unit vector.

    mode=2 contracts the second mode (returns a matrix over mode 1) and
    vice versa; the result is Hermitian.
    """
    v = np.asarray(vec)
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("conditioning vector must be normalized")
    if mode == 2:
        mat = np.einsum("akbl,k,l->ab", op.tensor, np.conj(v), v)
    elif mode == 1:
        mat = np.einsum("kalb,k,l->ab", op.tensor, np.conj(v), v)
    else:
        raise ValueError("mode must be 1 or 2")
    return 0.5 * (mat + mat.conj().T)


def mean_photon(vec):
    v = np.asarray(vec)
    return float(np.sum(np.arange(len(v)) * np.abs(v) ** 2))


def random_state_vector(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def alternate_maximize(op, seed=None, max_rounds=100, initial=None, m0_target=0.99999):
    """Alternating largest-eigenvector maximization of the product-state mean.

    Each round contracts one mode with the current factor and replaces the
    other factor by the top eigenvector, so M0 never decreases. Callers
    should pass an operator whose first party has the smaller M1*M2 weight
    (swap the detect operator otherwise).
    """
    d = op.cutoff
    if initial is not None:
        b = np.asarray(initial, dtype=complex)
        b = b / np.linalg.norm(b)
    else:
        rng = np.random.default_rng(seed)
        b = random_state_vector(rng, d)
    a = np.zeros(d, dtype=complex)
    a[0] = 1.0
    m0 = -np.inf
    photon_trace = []
    m0_trace = []
    converged = False
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        if rounds % 2 == 1:
            mat = conditional_matrix(op, b, mode=2)
            w, vecs = np.linalg.eigh(mat)
            a = vecs[:, -1]
        else:
            mat = conditional_matrix(op, a, mode=1)
            w, vecs = np.linalg.eigh(mat)
            b = vecs[:, -1]
        m0_new = float(w[-1]) / op.sqrt_det_beta
        if m0_new < m0 - 1e-9:
            raise ArithmeticError("M0 decreased between rounds")
        m0 = m0_new
        photon_trace.append(0.5 * (mean_photon(a) + mean_photon(b)))
        m0_trace.append(m0)
        if m0 > m0_target:
            converged = True
            break
    psi = ProductStateVec(a=a / np.linalg.norm(a), b=b / np.linalg.norm(b))
    return IterationResult(
        m0=m0,
        psi=psi,
        rounds=rounds,
        photon_trace=tuple(photon_trace),
        m0_trace=tuple(m0_trace),
        converged=converged,
    )


def random_detect_operator(seed, jitter=1e-3, max_tries=1000):
    """Random positive detect operator, deterministic per seed.

    Draws R, forms R R^T + jitter*I, and keeps only the six-parameter
    sparsity pattern; the projected matrix is re-checked for positivity.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    for _ in range(max_tries):
        r = rng.normal(size=(4, 4))
        g = r @ r.T + jitter * np.eye(4)
        cand = np.diag(np.diag(g))
        cand[0, 2] = cand[2, 0] = g[0, 2]
        cand[1, 3] = cand[3, 1] = g[1, 3]
        if np.linalg.eigvalsh(cand)[0] < 0.0:
            continue
        return SixParamDetect(
            m1=g[0, 0], m2=g[1, 1], m3=g[2, 2], m4=g[3, 3],
            m5=g[0, 2], m6=-g[1, 3],
            positivity=PositivityMode.OPERATOR_PSD,
        )
    raise RuntimeError("rejection sampling failed to produce a positive operator")


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
    rows = []
    failures = []
    for s in range(samples):
        rng = np.random.default_rng([int(seed), s])
        d = iteration_detect(random_detect_operator(rng))
        op = fock_elements(d, cutoff)
        tau = rng.uniform(0.0, 3.0)
        b = np.zeros(cutoff, dtype=complex)
        b[0] = 1.0
        noise = rng.normal(size=cutoff) + 1j * rng.normal(size=cutoff)
        b = b + tau * noise / np.linalg.norm(noise)
        res = alternate_maximize(op, initial=b, max_rounds=max_rounds)
        m0, avg_photon = res.m0_trace[0], res.photon_trace[0]
        rows.append(SweepRow(seed=s, avg_photon=avg_photon, m0=m0,
                             rounds=res.rounds, converged=res.converged))
        if m0 > 1.0 + 1e-6:
            failures.append((s, d, m0))
    return rows, failures
