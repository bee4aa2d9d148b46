"""Closed-form separability criteria.

Every criterion returns a :class:`Verdict` whose margin is normalized so
that margin >= 0 means the criterion is satisfied, regardless of the
direction of the underlying inequality; :attr:`Verdict.classification`
is the one place a margin becomes a word.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import families, symplectic, witness
from .errors import ImpureLocalCM, NegativeC, SchemaError, ValidationError
from .symplectic import PSD_ATOL, CovarianceMatrix, StandardForm, standard_form, validate_cm

MARGIN_TOL = 1e-12
BOUNDARY_TOL = 1e-9
# refined_ww_check's band on |det - 1| of each local CM
LOCAL_DET_TOL = 1e-6
# relative gap below which a ~ b or c1 ~ c2 in a standard form count as equal
FAMILY_MATCH_TOL = 1e-9

# three-mode biseparability constants (exact surds)
_S11 = np.sqrt(11.0)
BISEP_THRESHOLD_C = 1.0 / np.sqrt(5.0 + 2.0 * _S11)
BISEP_LARGE_C_BOUND = (
    4.0 * np.sqrt(14.0 + 2.0 * _S11) + np.sqrt(29.0 + 8.0 * _S11) - 9.0
) / (6.0 * np.sqrt(5.0 + 2.0 * _S11))


class Classification(enum.Enum):
    ENTANGLED = "entangled"
    BOUNDARY = "boundary"
    CRITERION_SATISFIED = "satisfied"


@dataclass(frozen=True)
class Verdict:
    criterion_id: str
    margin: float

    def __post_init__(self):
        if math.isnan(self.margin):
            raise ValidationError(f"{self.criterion_id} margin is NaN")

    @property
    def classification(self):
        """ENTANGLED below -MARGIN_TOL, BOUNDARY within BOUNDARY_TOL of 0, else satisfied."""
        if self.margin < -MARGIN_TOL:
            return Classification.ENTANGLED
        if abs(self.margin) <= BOUNDARY_TOL:
            return Classification.BOUNDARY
        return Classification.CRITERION_SATISFIED

    @property
    def entangled(self):
        return self.classification is Classification.ENTANGLED


@dataclass(frozen=True)
class WernerWolf2x2Params(symplectic._ParamState):
    """Scalars of the generalized Werner-Wolf covariance matrix."""

    A: float
    B: float
    C: float
    D: float
    E: float
    F: float

    def to_cm(self):
        return families.werner_wolf_cm(self.A, self.B, self.C, self.D, self.E, self.F)


@dataclass(frozen=True)
class SymmetricMultimodeParams(symplectic._ParamState):
    n: int
    a: float
    b: float
    c1: float
    c2: float

    def to_cm(self):
        return families.symmetric_multimode_cm(self.n, self.a, self.b, self.c1, self.c2)

    def validate(self):
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("the symmetric family is stated for c1 > 0, c2 > 0")
        return super().validate()


@dataclass(frozen=True)
class GHZParams(symplectic._ParamState):
    """The n-mode GHZ-type family: diagonal a, coupling c (see ghz_full_sep)."""

    n: int
    a: float
    c: float

    def to_cm(self):
        return families.ghz_cm(self.n, self.a, self.c)


def family_match(u, v):
    """Whether u ~ v within FAMILY_MATCH_TOL times max(1, u): a family_verdicts candidate."""
    return abs(u - v) <= FAMILY_MATCH_TOL * max(1.0, u)


def family_verdicts(sf, simon):
    """The Simon factors that decide a standard form: squeezed thermal if c1 ~ c2, then
    symmetric if a ~ b, each kept unless its sign is strictly opposite to simon's, the
    exact Simon margin of the state sf stands for, which the caller forms."""
    a, b, c1, c2 = sf.a, sf.b, sf.c1, sf.c2
    out = []
    if family_match(c1, c2):
        out.append(squeezed_thermal(a, b, c1))
    if family_match(a, b):
        out.append(symmetric_two_mode(a, c1, c2))
    return [v for v in out if not (v.margin < 0 < simon or simon < 0 < v.margin)]


def simon_criterion(state):
    """Simon criterion (PPT-equivalent) for a two-mode CovarianceMatrix or StandardForm:
    the exact margin det gamma - det A - det B - 2 |det C| + 1 of state.invariants, the
    CM's own or the standard form's CM's, rounded once (+-inf past float64)."""
    det_a, det_b, det_c, det, k = state.invariants  # det gamma at scale 2^4k, the rest at 2^2k
    margin = det - (det_a + det_b + 2 * abs(det_c) << 2 * k) + (1 << 4 * k)
    return Verdict("simon", symplectic.unscale(margin, 1, 4 * k))


def symmetric_two_mode(a, c1, c2):
    """(a - |c1|)(a - |c2|) >= 1 for the symmetric two-mode family, couplings of any sign."""
    return Verdict("symmetric_two_mode", float((a - abs(c1)) * (a - abs(c2)) - 1.0))


def squeezed_thermal(a, b, c):
    """(a - 1)(b - 1) >= c^2 for two-mode squeezed thermal states."""
    return Verdict("squeezed_thermal", float((a - 1.0) * (b - 1.0) - c * c))


def werner_wolf_2x2(p):
    """Closed-form criterion for the generalized Werner-Wolf 2x2 state."""
    a, b, c, d, e, f = p.A, p.B, p.C, p.D, p.E, p.F
    margin = (a * c - e * e) * (b * d - f * f) - 2 * abs(e * f) - c * d - a * b + 1
    return Verdict("werner_wolf_2x2", float(margin))


def _slack(c, e, t):
    """max(c - e^2/t, 0), read as c when e = 0 and as 0 when t <= 0 < |e|."""
    if not e:
        return c
    return max(c - e * e / t, 0.0) if t > 0 else 0.0


def _stationarity_coefficients(A, B, C, D, E, F):
    """(a2, a1, a0) of F^2 C (A - u)^2 - E^2 D (B u - 1)^2 + E^2 F^2 (B u^2 - A)."""
    e2, f2 = E * E, F * F
    return (f2 * C - e2 * D * B * B + e2 * f2 * B,
            2 * (e2 * D * B - f2 * C * A),
            f2 * C * A * A - e2 * D - e2 * f2 * A)


def _product_certificate(A, B, C, D, E, F):
    """(x, y) > 0 with (A - 1/x)(C - 1/y) >= E^2 and (B - x)(D - y) >= F^2 in float, or None.

    With u = 1/x, a y exists iff h(u) = f1 f2 >= 1, where f1 = C - E^2/(A - u)
    and f2 = D - F^2/(B - 1/u); y is then any point of [1/f1, f2]. Both
    factors are concave and nonnegative on [D/(BD - F^2), A - E^2/C], so h
    is log-concave there, and d/du log h = 0 cleared of denominators is the
    quadratic F^2 C (A - u)^2 - E^2 D (B u - 1)^2 + E^2 F^2 (B u^2 - A) = 0.
    The maximum of h is the best of the interval ends and the quadratic's roots
    inside, which witness._stationary_points gives with d3 = 0.
    y is the geometric middle of its range, and x the geometric middle of
    its range given y, so both inequalities keep slack where they can. The
    pair is returned only if it passes the inequalities, each factor >= 0,
    as float64 evaluates them: rounding can put a solved pair an ulp outside.
    """
    if min(C, D, B * D - F * F) <= 0:
        return None
    lo, hi = D / (B * D - F * F), A - E * E / C
    us = [lo, hi, *witness._stationary_points(0.0, *_stationarity_coefficients(A, B, C, D, E, F))]
    f1, f2 = max(((_slack(C, E, A - u), _slack(D, F, B - 1.0 / u)) for u in us if lo <= u <= hi),
                 key=lambda f: f[0] * f[1], default=(0.0, 0.0))
    if f1 * f2 < 1:
        return None
    y = math.sqrt(f2 / f1)
    umax, xmax = _slack(A, E, C - 1.0 / y), _slack(B, F, D - y)
    if umax * xmax < 1:
        return None
    x = math.sqrt(xmax / umax)
    s1, s2, s3, s4 = A - 1.0 / x, C - 1.0 / y, B - x, D - y
    if min(s1, s2, s3, s4) >= 0 and s1 * s2 >= E * E and s3 * s4 >= F * F:
        return x, y
    return None


def ww_pair_exists(p):
    """Whether _product_certificate finds (x, y) > 0 with (A - 1/x)(C - 1/y) >= E^2
    and (B - x)(D - y) >= F^2, the pure-product certificate pair, in float."""
    return _product_certificate(p.A, p.B, p.C, p.D, p.E, p.F) is not None


def multimode_symmetric_full_sep(p):
    """(a - c1)(b - (n-1) c2) >= 1 for full separability of the symmetric family."""
    margin = (p.a - p.c1) * (p.b - (p.n - 1) * p.c2) - 1.0
    return Verdict("multimode_symmetric_full_sep", float(margin))


def ghz_full_sep(a, c, n):
    """Full-separability margin for the n-mode GHZ-type family (b = a + (n-2)c)."""
    if c > 0:
        margin = a - c - 1.0
    else:
        b = a + (n - 2) * c
        margin = b + c - 1.0
    return Verdict("ghz_full_sep", float(margin))


def three_mode_biseparable(a, c):
    """Biseparability margin for the three-mode symmetric family (b = a + c).

    Two branches joined continuously at c = 1/sqrt(5 + 2*sqrt(11)).
    """
    if c < 0:
        raise NegativeC("the biseparability bound is derived for c >= 0")
    if c >= BISEP_THRESHOLD_C:
        margin = (a - c) - BISEP_LARGE_C_BOUND
    else:
        margin = a - (
            0.5 * np.sqrt(c * c + 4.0 / 9.0)
            + 2.0 * np.sqrt(c * c + 1.0 / 9.0)
            - 0.5 * c
        )
    return Verdict("three_mode_biseparable", float(margin))


def biseparability_certificate(a, c):
    """Certificate (x, s) and constraint residuals for the symmetric 1/3-mixture.

    Large-c branch: sinh(2s) = sqrt(9/(5 + 2*sqrt(11))); small-c branch:
    sinh(2s) = 3c. In both, x > 0 solves x - 1/x + sinh(2s) = 0, which makes
    the first and fourth residuals coincide.
    """
    if c < 0:
        raise NegativeC("the biseparability certificate is derived for c >= 0")
    if c >= BISEP_THRESHOLD_C:
        sh = np.sqrt(9.0 / (5.0 + 2.0 * _S11))
    else:
        sh = 3.0 * c
    x = 0.5 * (-sh + np.sqrt(sh * sh + 4.0))
    ch = np.sqrt(1.0 + sh * sh)
    b = a + c
    residuals = (
        (a - c) - (x + 2 * ch - sh) / 3.0,
        (a + 2 * c) - (x + 2 * ch + 2 * sh) / 3.0,
        (b + c) - (1.0 / x + 2 * ch + sh) / 3.0,
        (b - 2 * c) - (1.0 / x + 2 * ch - 2 * sh) / 3.0,
    )
    s = 0.5 * np.arcsinh(sh)
    return float(x), float(s), tuple(float(r) for r in residuals)


def determinant_ratio(L):
    """L >= 1 for the determinant-ratio statistic minimized over the detect family."""
    return Verdict("determinant_ratio", float(L - 1.0))


def decide(state):
    """The verdicts check-gaussian prints for a parsed state: Simon's and the closed
    forms family_verdicts keeps for a standard form, Simon's on the CM's own exact
    invariants for a two-mode CM, and its own criterion for a named family."""
    if isinstance(state, StandardForm):
        simon = simon_criterion(state)
        return [simon, *family_verdicts(state, simon.margin)]
    if isinstance(state, CovarianceMatrix):
        if state.n == 2:
            # result unused: this refuses a degenerate block or a form beyond float64 range
            standard_form(state)
            return [simon_criterion(state)]
        raise SchemaError("raw multimode CMs need a named-family description")
    if isinstance(state, WernerWolf2x2Params):
        return [werner_wolf_2x2(state)]
    if isinstance(state, SymmetricMultimodeParams):
        return [multimode_symmetric_full_sep(state)]
    if isinstance(state, GHZParams):
        return [ghz_full_sep(state.a, state.c, state.n)]
    raise SchemaError("state type not supported by check-gaussian")


def kernel_verdict(gamma):
    """Separability verdict for a two-mode Gaussian kernel CM.

    The last closed form family_verdicts keeps for the standard form
    (symmetric before squeezed thermal) against the Simon margin of the CM's
    own invariants, else the determinant-ratio bound that witness.minimize_L
    gives on that same standard form. A separable state has L >= 1, so an
    L below 1 where that exact margin is positive comes from rounding the
    form: the Simon verdict is returned instead. A CM of another mode count gets
    standard_form's ValueError.
    """
    cm = gamma if isinstance(gamma, CovarianceMatrix) else validate_cm(gamma)
    sf = standard_form(cm)
    simon = simon_criterion(cm)
    closed = family_verdicts(sf, simon.margin) or [determinant_ratio(witness.minimize_L(sf)[0])]
    return simon if closed[-1].margin < 0 < simon.margin else closed[-1]


def refined_ww_check(gamma, *locals_):
    """True iff gamma - (direct sum of pure local CMs) is positive semidefinite.

    Each local CM must be pure (determinant 1 within LOCAL_DET_TOL); works for
    any number of parties. A raw array, gamma or local, passes validate_cm
    first, as in kernel_verdict; a CovarianceMatrix is taken as it is. Locals
    whose dimensions do not add up to gamma's, too few or too many, get one
    ValueError, after every local has passed its own checks.
    """
    g = (gamma if isinstance(gamma, CovarianceMatrix) else validate_cm(gamma)).entries.copy()
    off = 0
    for loc in locals_:
        m = (loc if isinstance(loc, CovarianceMatrix) else validate_cm(loc)).entries
        d = np.linalg.det(m)
        if abs(d - 1.0) > LOCAL_DET_TOL:
            raise ImpureLocalCM(f"local CM determinant {d!r} deviates from 1")
        end = off + len(m)
        if end <= len(g):
            g[off:end, off:end] -= m
        off = end
    if off != len(g):
        raise ValueError("local CM dimensions do not match the full CM")
    return bool(np.linalg.eigvalsh(g)[0] >= -PSD_ATOL)


def refined_ww_search(sf):
    """Pure-product certificate (x, y) for a two-mode standard form, or None.

    gamma_A = diag(1/x, x) and gamma_B = diag(y, 1/y) fit under gamma iff
    (a - 1/x)(b - y) >= c1^2 and (a - x)(b - 1/y) >= c2^2: the Werner-Wolf
    pair for (a, a, b, b, c1, c2) with y -> 1/y, whose margin there is the
    Simon margin. _product_certificate checks its pair in float, and (x, 1/y)
    of that pair is returned.
    """
    pair = _product_certificate(sf.a, sf.a, sf.b, sf.b, sf.c1, sf.c2)
    return None if pair is None else (pair[0], 1.0 / pair[1])
