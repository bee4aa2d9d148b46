from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, expm

from cvwitness import criteria, families, symplectic
from cvwitness.errors import (DegenerateBlock, NotPhysical, NotSymmetric, OddDimension,
                              SingularSum, ValidationError)
from cvwitness.symplectic import (
    CovarianceMatrix,
    ModePartition,
    StandardForm,
    _ccm_matrix,
    _symplectic_form,
    gaussian_overlap,
    gaussian_taylor,
    min_pt_symplectic_eigenvalue,
    partial_transpose,
    standard_form,
    symplectic_eigenvalues,
    validate_cm,
)

from oracles import cm_of_rho, single_mode_gaussian_rho


def symplectic_2x2(s, t1, t2):
    """R(t1) diag(e^s, e^-s) R(t2), a 2x2 symplectic of squeezing s."""
    def rot(t):
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

    return rot(t1) @ np.diag([np.exp(s), np.exp(-s)]) @ rot(t2)


def random_symplectic_2x2(rng, squeeze=0.5):
    """Random 2x2 symplectic (det 1): rotation * squeeze * rotation, |s| <= squeeze."""
    return symplectic_2x2(rng.uniform(-squeeze, squeeze), rng.uniform(0, np.pi),
                          rng.uniform(0, np.pi))


def test_symplectic_form_structure():
    s = _symplectic_form(3)
    assert np.array_equal(s, -s.T)
    assert np.array_equal(s @ s, -np.eye(6))


def test_validate_vacuum():
    cm = validate_cm(np.eye(4))
    assert cm.n == 2
    assert symplectic_eigenvalues(cm) == pytest.approx([1.0, 1.0])


def test_validate_rejects_odd_dimension():
    with pytest.raises(OddDimension):
        validate_cm(np.eye(3))


def test_validate_rejects_asymmetric():
    g = np.eye(2)
    g[0, 1] = 0.5
    with pytest.raises(NotSymmetric):
        validate_cm(g)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_validate_rejects_non_finite_entries(bad):
    # inf - inf is NaN in the symmetry test, which no tolerance comparison rejects
    g = np.eye(4)
    g[0, 0] = bad
    with pytest.raises(ValidationError, match="NaN or infinite"):
        validate_cm(g)


def test_validate_rejects_unphysical():
    with pytest.raises(NotPhysical) as exc:
        validate_cm(0.5 * np.eye(2))
    assert exc.value.min_eigenvalue < -1e-9


NON_STATES_WITH_STATE_INVARIANTS = [
    np.block([[np.eye(2), 2 * np.eye(2)], [2 * np.eye(2), np.eye(2)]]),  # eigenvalues -1, -1, 3, 3
    np.diag([1.0, 1.0, -1.0, -1.0]),
]


@pytest.mark.parametrize("g", NON_STATES_WITH_STATE_INVARIANTS, ids=["coupled", "diagonal"])
def test_validate_refuses_non_states_with_every_invariant_sign_of_a_state(g):
    # a positive definite first block, det gamma > 0, Delta >= 2 and
    # 1 - Delta + det gamma >= 0 hold here, so a rule made of those signs alone
    # would accept them; gamma > 0 also needs (det A B - C^T adj(A) C)_00 > 0
    det_a, det_b, det_c, det, k = symplectic.two_mode_invariants(g)
    delta = det_a + det_b + 2 * det_c
    assert g[0, 0] > 0 and det_a > 0 and det > 0
    assert delta >= 2 << 2 * k and (1 << 4 * k) - (delta << 2 * k) + det == 0
    a, b, c = g[:2, :2], g[2:, 2:], g[:2, 2:]
    adj_a = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])
    assert (np.linalg.det(a) * b - c.T @ adj_a @ c)[0, 0] < 0
    with pytest.raises(NotPhysical) as exc:
        validate_cm(g)
    assert exc.value.min_eigenvalue == pytest.approx(-2.0)


def test_thermal_symplectic_eigenvalues():
    cm = validate_cm(np.diag([3.0, 3.0, 1.5, 1.5]))
    assert symplectic_eigenvalues(cm) == pytest.approx([3.0, 1.5])


def test_tmsv_is_pure_and_ppt_detects_it():
    r = 0.6
    cm = validate_cm(families.symmetric_squeezed_thermal(0.0, r))
    assert symplectic_eigenvalues(cm) == pytest.approx([1.0, 1.0], abs=1e-10)
    nu = min_pt_symplectic_eigenvalue(cm, ModePartition.bipartite(1, 1))
    assert nu == pytest.approx(np.exp(-2 * r), abs=1e-10)


def test_partial_transpose_keeps_separable_physical():
    cm = validate_cm(np.diag([2.0, 2.0, 3.0, 3.0]))
    nu = min_pt_symplectic_eigenvalue(cm)
    assert nu >= 1.0 - 1e-12


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_partial_transpose_involution(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(4, 4))
    g = m @ m.T + 2.0 * np.eye(4)
    cm = validate_cm(g)
    part = ModePartition.bipartite(1, 1)
    once = partial_transpose(cm, part)
    twice = partial_transpose(CovarianceMatrix(entries=once), part)
    assert np.allclose(twice, cm.entries, atol=1e-13)


def test_standard_form_recovers_parameters():
    rng = np.random.default_rng(5)
    target = StandardForm(a=2.0, b=1.5, c1=0.9, c2=0.4)
    for _ in range(20):
        sa = random_symplectic_2x2(rng)
        sb = random_symplectic_2x2(rng)
        s = np.block([[sa, np.zeros((2, 2))], [np.zeros((2, 2)), sb]])
        g = s @ target.to_cm() @ s.T
        sf = standard_form(validate_cm(g))
        assert sf.a == pytest.approx(target.a, abs=1e-9)
        assert sf.b == pytest.approx(target.b, abs=1e-9)
        assert sf.c1 == pytest.approx(target.c1, abs=1e-9)
        assert sf.c2 == pytest.approx(target.c2, abs=1e-9)
        assert sf.c1 >= abs(sf.c2)


def test_standard_form_invariant_under_local_symplectics():
    # symplectic invariants a, b, c1*c2 are preserved, c1 >= |c2| fixed
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4))
    cm = validate_cm(m @ m.T + 3.0 * np.eye(4))
    sf = standard_form(cm)
    assert sf.a == pytest.approx(np.sqrt(np.linalg.det(cm.entries[:2, :2])))
    assert sf.b == pytest.approx(np.sqrt(np.linalg.det(cm.entries[2:, 2:])))
    assert sf.c1 * (-sf.c2) == pytest.approx(np.linalg.det(cm.entries[:2, 2:]), abs=1e-9)


def test_complex_cm_of_vacuum():
    ccm = _ccm_matrix(validate_cm(np.eye(4)).entries)
    sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(ccm, np.kron(sigma1, np.eye(2)))


def test_complex_cm_matches_permutation_formula():
    # the gather equals the block formula of the interleaving permutation, bit for bit
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        m = rng.normal(size=(2 * n, 2 * n))
        g = m @ m.T
        perm = np.zeros((2 * n, 2 * n))
        for i in range(n):
            perm[i, 2 * i] = perm[n + i, 2 * i + 1] = 1.0
        h = perm @ g @ perm.T
        gx, gp, gxp, gpx = h[:n, :n], h[n:, n:], h[:n, n:], h[n:, :n]
        want = np.block([
            [0.5 * (gp - gx + 1j * (gxp + gpx)), 0.5 * (gp + gx + 1j * (gxp - gpx))],
            [0.5 * (gp + gx - 1j * (gxp - gpx)), 0.5 * (gp - gx - 1j * (gxp + gpx))],
        ])
        assert np.array_equal(_ccm_matrix(g), want)
        stack = np.array([g, 2.0 * g, g + np.eye(2 * n)])
        assert all(np.array_equal(_ccm_matrix(stack)[i], _ccm_matrix(stack[i])) for i in range(3))


def test_complex_cm_is_complex_symmetric():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4))
    ccm = _ccm_matrix(validate_cm(m @ m.T + 3.0 * np.eye(4)).entries)
    assert np.allclose(ccm, ccm.T, atol=1e-12)


def test_gaussian_overlap_vacua():
    assert gaussian_overlap(np.eye(4), np.eye(4)) == pytest.approx(1.0)


def test_gaussian_overlap_thermal_states():
    # Tr(rho1 rho2) for thermal states has the closed form 1/(n1+n2+1)
    for n1, n2 in [(0.5, 0.3), (1.0, 2.0)]:
        g1 = (2 * n1 + 1) * np.eye(2)
        g2 = (2 * n2 + 1) * np.eye(2)
        assert gaussian_overlap(g1, g2) == pytest.approx(1.0 / (n1 + n2 + 1))


def test_gaussian_overlap_against_fock_oracle():
    rng = np.random.default_rng(9)
    cut = 40

    def mild_cm():
        r = rng.uniform(0.0, 0.5)
        phi = rng.uniform(0.0, np.pi)
        nu = rng.uniform(1.0, 2.0)
        c, s = np.cos(phi), np.sin(phi)
        rot = np.array([[c, -s], [s, c]])
        return nu * rot @ np.diag([np.exp(2 * r), np.exp(-2 * r)]) @ rot.T

    for _ in range(3):
        g1 = mild_cm()
        g2 = mild_cm()
        rho1 = single_mode_gaussian_rho(g1, cut)
        rho2 = single_mode_gaussian_rho(g2, cut)
        brute = float(np.real(np.trace(rho1 @ rho2)))
        assert gaussian_overlap(g1, g2) == pytest.approx(brute, abs=1e-8)


@pytest.mark.parametrize("g1, g2", [
    (np.eye(2), np.diag([-3.0, 1.0])),              # det(g1 + g2) < 0
    (np.eye(2), -3.0 * np.eye(2)),                  # det > 0, negative definite
    (np.eye(4), np.diag([-2.0, -2.0, 3.0, 3.0])),   # det > 0, indefinite
    (np.eye(2), -np.eye(2)),                        # singular
])
def test_gaussian_overlap_rejects_sum_not_positive_definite(g1, g2):
    with pytest.raises(SingularSum):
        gaussian_overlap(g1, g2)


def test_gaussian_overlap_against_50_digit_determinant():
    # sqrt(det) from the Cholesky factor; an LU determinant at lambda = 1e4
    # is off by up to 3e-15
    rng = np.random.default_rng(31)
    for n in (1, 2):
        for lam in (10.0, 1e4):
            for _ in range(10):
                m = rng.normal(size=(2 * n, 2 * n))
                g = m @ m.T + np.eye(2 * n)
                with mpmath.workdps(50):
                    det = mpmath.det(mpmath.matrix((g + lam * np.eye(2 * n)).tolist()))
                    want = float(2**n / mpmath.sqrt(det))
                assert abs(gaussian_overlap(g, lam * np.eye(2 * n)) - want) <= 1e-15 * want


def test_oracle_cm_reconstruction():
    g = np.array([[1.8, 0.3], [0.3, 1.2]])
    rho = single_mode_gaussian_rho(g, 40)
    assert np.allclose(cm_of_rho(rho, 1, 40), g, atol=1e-8)


def test_mode_partition_helpers():
    part = ModePartition(("A", "B", "A"))
    assert part.modes_of("A") == [0, 2]
    assert part.labels == ["A", "B"]
    with pytest.raises(ValueError):
        ModePartition(("A", "A"))


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("caps", [(3, 0, 2, 1), (0, 0), (2, 4, 0)])
def test_gaussian_taylor_batch_equals_slices(lead, dtype, caps):
    rng = np.random.default_rng(len(lead) + 10 * len(caps))
    n = len(caps)
    g = rng.normal(size=lead + (n, n))
    if dtype is complex:
        g = g + 1j * rng.normal(size=lead + (n, n))
    g = g + np.swapaxes(g, -1, -2)
    table = gaussian_taylor(g, caps)
    assert table.shape == lead + tuple(c + 1 for c in caps)
    assert table.dtype == np.dtype(dtype)
    for idx in np.ndindex(*lead):
        assert np.array_equal(table[idx], gaussian_taylor(g[idx], caps))


def slice_taylor(g, caps):
    """gaussian_taylor by axis-by-axis slice updates of the whole table.

    While axis i is filled every later axis is still at 0, so only j <= i
    contribute to T(a + e_i) = [sum_j g_ij sqrt(a_j) T(a - e_j)] / sqrt(a_i + 1).
    """
    g = np.asarray(g)
    n = len(caps)
    lead = g.shape[:-2]
    t = np.zeros(lead + tuple(c + 1 for c in caps), dtype=np.result_type(g.dtype, float))
    t[(Ellipsis,) + (0,) * n] = 1.0
    root = np.sqrt(np.arange(max(caps, default=0) + 1.0))
    coef = [[g[..., i, j].reshape(lead + (1,) * i) if lead else g[i, j] for j in range(i + 1)]
            for i in range(n)]
    pre = (slice(None),) * len(lead)
    for i in range(n):
        block = t[pre + (slice(None),) * (i + 1) + (0,) * (n - i - 1)]
        terms = [(pre + (slice(None),) * j + (slice(1, None),),
                  pre + (slice(None),) * j + (slice(None, -1),),
                  coef[i][j] * root[1 : caps[j] + 1].reshape((-1,) + (1,) * (i - j - 1)))
                 for j in range(i)]
        for s in range(caps[i]):
            cur, nxt = block[..., s], block[..., s + 1]
            if s:
                nxt += coef[i][i] * root[s] * block[..., s - 1]
            for upper, lower, w in terms:
                nxt[upper] += w * cur[lower]
            nxt /= root[s + 1]
    return t


TAYLOR_CAPS = [(), (0, 0, 0), (3, 0, 2, 1), (2, 4, 0), (1,) * 8, (2,) * 8,
               (2, 1, 1, 2, 1, 2, 2, 1), (13,) * 4, (5,) * 4, (1000,), (30, 30), (2,) * 4]


@pytest.mark.parametrize("lead, caps", [(lead, caps) for caps in TAYLOR_CAPS
                                        for lead in [(), (3,), (2, 3), (24,)]])
@pytest.mark.parametrize("dtype", [float, complex])
def test_gaussian_taylor_matches_slice_recurrence(lead, caps, dtype):
    rng = np.random.default_rng(len(caps) + 7 * len(lead))
    n = len(caps)
    g = 0.4 * rng.normal(size=lead + (n, n))
    if dtype is complex:
        g = g + 0.4j * rng.normal(size=lead + (n, n))
    g = g + np.swapaxes(g, -1, -2)
    table = gaussian_taylor(g, caps)
    want = slice_taylor(g, caps)
    assert table.shape == want.shape and table.dtype == want.dtype
    assert np.array_equal(table, want)
    # exp(v^T g v / 2) is even in v: odd degrees are never filled
    odd = np.indices(want.shape[len(lead):]).sum(axis=0) % 2 == 1
    assert np.all(table[..., odd] == 0.0)


def test_taylor_plan_cache_stays_within_its_bytes(monkeypatch):
    monkeypatch.setattr(symplectic, "_PLAN_CACHE_BYTES", 130_000)
    monkeypatch.setattr(symplectic, "_plans", {})
    plans = symplectic._plans
    for caps in [(2,) * 8, (13,) * 4, (5,) * 4, (2,) * 8, (3,) * 6]:
        table = gaussian_taylor(0.1 * np.eye(len(caps)), caps)
        assert np.array_equal(table, slice_taylor(0.1 * np.eye(len(caps)), caps))
        assert sum(plan[-1] for plan in plans.values()) <= 130_000
    # (13,)^4 needs 285 kB and is never kept; (3,)^6 pushed out the least
    # recently used plan, (5,)^4, since (2,)^8 was used again after it
    assert list(plans) == [(2,) * 8, (3,) * 6]


def test_taylor_plan_bytes():
    # index arrays of the smallest dtypes, one step row per term: the plan for
    # the cutoff-14 Fock table takes fewer bytes than the float64 table it fills
    caps = (13,) * 4
    assert symplectic._build_plan(caps)[-1] <= 8 * 14**4


def test_gaussian_taylor_single_mode_hermite():
    # exp(g v^2 / 2): T[a] = g^(a/2) (a-1)!! / sqrt(a!) for even a, 0 for odd a
    g = 0.7
    table = gaussian_taylor(np.array([[g]]), (6,))
    want = [1.0, 0.0, g / np.sqrt(2.0), 0.0, 3 * g**2 / np.sqrt(24.0), 0.0,
            15 * g**3 / np.sqrt(720.0)]
    assert np.allclose(table, want, rtol=1e-14, atol=0.0)


def dressed_cm(sf, rng, squeeze=0.5):
    """The CM of a standard form under a random local symplectic S_A (+) S_B,
    each of squeezing |s| <= squeeze."""
    s = np.zeros((4, 4))
    s[:2, :2] = random_symplectic_2x2(rng, squeeze)
    s[2:, 2:] = random_symplectic_2x2(rng, squeeze)
    g = s @ sf.to_cm() @ s.T
    return CovarianceMatrix(entries=0.5 * (g + g.T))


def exact(g):
    """The float matrix g as exact rationals."""
    return [[Fraction(v) for v in row] for row in g.tolist()]


def exact_minor(m, i, j):
    """The 2x2 minor of m at rows i, i + 1 and columns j, j + 1."""
    return m[i][j] * m[i + 1][j + 1] - m[i][j + 1] * m[i + 1][j]


def exact_det(m):
    """The determinant of a square matrix of Fractions, by exact elimination."""
    m, det = [list(row) for row in m], Fraction(1)
    for k in range(len(m)):
        p = next((i for i in range(k, len(m)) if m[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            m[k], m[p], det = m[p], m[k], -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def mpf(q):
    """An exact rational as an mpmath number at the working precision."""
    return mpmath.mpf(q.numerator) / q.denominator


def mp_standard_form(g):
    """(a, b, c1, c2) of the float CM g, taken as exact.

    Uses the local invariants a^2 = det A, b^2 = det B, c1 c2 = -det C and
    c1^2 + c2^2 = tr(adj A C adj B C^T) / (a b), not det gamma, which the
    package's standard_form reads.
    Every determinant and the trace are exact rationals; mpmath takes only
    the square roots, at 50 digits.
    """
    m = exact(g)
    adj_a = [[m[1][1], -m[0][1]], [-m[1][0], m[0][0]]]
    adj_b = [[m[3][3], -m[2][3]], [-m[3][2], m[2][2]]]
    c = [row[2:] for row in m[:2]]
    trace = sum(adj_a[i][j] * c[j][k] * adj_b[k][l] * c[i][l]
                for i in range(2) for j in range(2) for k in range(2) for l in range(2))
    prod = -exact_minor(m, 0, 2)
    with mpmath.workdps(50):
        a, b = mpmath.sqrt(mpf(exact_minor(m, 0, 0))), mpmath.sqrt(mpf(exact_minor(m, 2, 2)))
        f = mpf(trace) / (a * b)
        plus, minus = mpmath.sqrt(f + 2 * mpf(prod)), mpmath.sqrt(max(f - 2 * mpf(prod), 0))
        return [float(x) for x in (a, b, (plus + minus) / 2, (plus - minus) / 2)]


def svd_standard_form(g):
    """(a, b, c1, c2) by eigendecompositions of the local blocks and an SVD."""
    def reducer(blk):
        w, v = np.linalg.eigh(blk)
        return v @ np.diag(np.prod(w) ** 0.25 / np.sqrt(w)) @ v.T

    cp = reducer(g[:2, :2]) @ g[:2, 2:] @ reducer(g[2:, 2:])
    s = np.linalg.svd(cp, compute_uv=False)
    return [np.sqrt(np.linalg.det(g[:2, :2])), np.sqrt(np.linalg.det(g[2:, 2:])), s[0],
            -np.sign(np.linalg.det(cp)) * s[1]]


def standard_form_cases():
    """Seeded dressed standard forms: two-mode squeezed vacua up to r = 6
    (|c1| = |c2|), c2 = 0, C = 0 and random couplings of either sign."""
    rng = np.random.default_rng(23)
    forms = [StandardForm(np.cosh(2 * r), np.cosh(2 * r), np.sinh(2 * r), np.sinh(2 * r))
             for r in np.linspace(0.0, 6.0, 25)]
    for _ in range(20):
        a, b = rng.uniform(1.0, 4.0, size=2)
        c = rng.uniform(-1.0, 1.0, size=2) * np.sqrt(a * b)
        forms += [StandardForm(a, b, c[0], 0.0), StandardForm(a, b, 0.0, 0.0),
                  StandardForm(a, b, c[0], c[1]), StandardForm(a, b, c[0], -c[0])]
    return [dressed_cm(sf, rng) for sf in forms for _ in range(2)]


def test_standard_form_matches_svd_and_50_digit_references():
    for cm in standard_form_cases():
        g = cm.entries
        sf = standard_form(cm)
        got = [sf.a, sf.b, sf.c1, sf.c2]
        scale = max(sf.a, sf.b, 1.0)
        assert sf.c1 >= abs(sf.c2)
        for ref in (mp_standard_form(g), svd_standard_form(g)):
            assert np.max(np.abs(np.subtract(got, ref))) <= 1e-14 * scale
        # det A, det B, det C and det gamma are local invariants
        h = sf.to_cm()
        for blk in (np.s_[:2, :2], np.s_[2:, 2:], np.s_[:2, 2:]):
            assert abs(np.linalg.det(h[blk]) - np.linalg.det(g[blk])) <= 1e-14 * scale**2
        assert abs(np.linalg.det(h) - np.linalg.det(g)) <= 1e-14 * scale**4


@pytest.mark.parametrize("block", [0, 2])
def test_standard_form_rejects_near_singular_block(block):
    g = StandardForm(2.0, 2.0, 0.5, 0.5).to_cm()
    g[block:block + 2, block:block + 2] = [[1.0, 1.0], [1.0, 1.0 + 1e-13]]
    with pytest.raises(DegenerateBlock):
        standard_form(CovarianceMatrix(entries=g))


@pytest.mark.parametrize("block", [0, 2])
def test_standard_form_rejects_negative_definite_block(block):
    # -2 I has the determinant of 2 I: only its diagonal tells them apart
    g = StandardForm(2.0, 2.0, 0.5, 0.5).to_cm()
    g[block:block + 2, block:block + 2] = -2.0 * np.eye(2)
    with pytest.raises(DegenerateBlock):
        standard_form(CovarianceMatrix(entries=g))


def test_standard_form_is_computed_once_per_cm_and_errors_are_not_cached():
    cm = validate_cm(StandardForm(2.0, 3.0, 0.5, 0.3).to_cm())
    assert standard_form(cm) is standard_form(cm) == StandardForm(2.0, 3.0, 0.5, 0.3)
    g = StandardForm(2.0, 2.0, 0.5, 0.5).to_cm()
    g[:2, :2] = -2.0 * np.eye(2)
    bad = CovarianceMatrix(entries=g)
    for _ in range(2):
        with pytest.raises(DegenerateBlock):
            standard_form(bad)


def strongly_squeezed_cases():
    """Seeded standard forms dressed with local squeezing |s| <= 4: two-mode
    squeezed vacua up to r = 3 (c1 = c2), c2 = 0, C = 0 and random couplings
    of either sign."""
    rng = np.random.default_rng(37)
    forms = [StandardForm(np.cosh(2 * r), np.cosh(2 * r), np.sinh(2 * r), np.sinh(2 * r))
             for r in np.linspace(0.0, 3.0, 13)]
    for _ in range(20):
        a, b = rng.uniform(1.0, 4.0, size=2)
        c = rng.uniform(-1.0, 1.0, size=2) * np.sqrt(a * b)
        forms += [StandardForm(a, b, c[0], 0.0), StandardForm(a, b, 0.0, 0.0),
                  StandardForm(a, b, c[0], c[1]), StandardForm(a, b, c[0], -c[0])]
    return [dressed_cm(sf, rng, squeeze=4.0) for sf in forms for _ in range(3)]


def test_standard_form_of_strongly_squeezed_cms_against_50_digit_oracle():
    # a float reduction of these CMs through S_A C S_B was up to 1.3e-10 off;
    # each output rounded once from the exact invariants is within an ulp
    for cm in strongly_squeezed_cases():
        sf = standard_form(cm)
        assert sf.c1 >= abs(sf.c2)
        err = np.subtract([sf.a, sf.b, sf.c1, sf.c2], mp_standard_form(cm.entries))
        assert np.max(np.abs(err)) <= 1e-15 * max(sf.a, sf.b, 1.0)


def mp_two_mode_spectrum(g, transpose):
    """(nu_+, nu_-) of the float CM g, or of its partial transpose, taken as
    exact, from the invariants Delta = det A + det B +- 2 det C and det gamma
    of the matrix itself. Both are exact rationals; mpmath takes only the
    square roots, at 60 digits."""
    m = exact(g)
    delta = (exact_minor(m, 0, 0) + exact_minor(m, 2, 2)
             + (-2 if transpose else 2) * exact_minor(m, 0, 2))
    det = exact_det(m)
    with mpmath.workdps(60):
        plus = (mpf(delta) + mpmath.sqrt(mpf(max(delta * delta - 4 * det, 0)))) / 2
        return mpmath.sqrt(plus), mpmath.sqrt(mpf(det) / plus)


def two_mode_spectrum_cases():
    """symmetric_squeezed_thermal(n, r) for n in {0, 0.5, 2} and r up to 5, whose
    nu_+ = nu_-, seeded standard forms dressed by local symplectics, the squeezed
    vacua at r = 7 and 9, then diag(1e200, 2e-200, 3, 3), whose entries span 400
    decades (its spectra are 3 and about sqrt(2))."""
    cms = [validate_cm(families.symmetric_squeezed_thermal(n, r))
           for n in (0.0, 0.5, 2.0) for r in np.linspace(0.0, 5.0, 21)]
    rng = np.random.default_rng(29)
    while len(cms) < 163:
        a, b = rng.uniform(1.0, 4.0, size=2)
        c1, c2 = rng.uniform(-1.0, 1.0, size=2) * np.sqrt(a * b)
        try:
            sf = StandardForm(a, b, c1, c2).validate()
        except NotPhysical:
            continue
        cms.append(dressed_cm(sf, rng))
    return cms + [validate_cm(families.symmetric_squeezed_thermal(0.0, r)) for r in (7.0, 9.0)] + [
        validate_cm(np.diag([1e200, 2e-200, 3.0, 3.0]))]


def assert_spectra_match_oracle(cm, rtol=1e-15):
    """Both spectra of cm, through the public functions, within rtol of the
    60-digit spectra of the same float CM."""
    plus, minus = symplectic_eigenvalues(cm)
    pt_plus, pt_minus = symplectic._two_mode_spectrum(cm, transpose=True)
    assert min_pt_symplectic_eigenvalue(cm) == pt_minus
    for got, want in zip((plus, minus, pt_plus, pt_minus),
                         mp_two_mode_spectrum(cm.entries, False)
                         + mp_two_mode_spectrum(cm.entries, True)):
        assert abs(got - want) <= rtol * want


def test_two_mode_spectra_against_60_digit_oracle():
    # the spectra against the same float input in exact-enough arithmetic; the
    # dressed squeezed vacua of standard_form_cases() were 2.9e-6 off while the
    # spectra were taken from the rounded standard form
    for cm in two_mode_spectrum_cases() + standard_form_cases():
        assert_spectra_match_oracle(cm)


@pytest.mark.parametrize("scale", [1e150, 1e200, 1e300, 1.7e308])
def test_two_mode_spectra_of_huge_cms(scale):
    # the invariants are ints, so nothing overflows before the one rounding;
    # at 1e200 the spectra used to be NaN
    assert_spectra_match_oracle(validate_cm(scale * np.eye(4)))


def test_two_mode_spectra_of_huge_dressed_cm():
    g = dressed_cm(StandardForm(2.0, 1.5, 0.9, 0.4), np.random.default_rng(7)).entries
    assert_spectra_match_oracle(validate_cm(1e290 * g))


def test_two_mode_spectra_of_entries_far_apart():
    # 1e200 and 2e-200 are 2^1328 apart: their common-scale ints need shifts,
    # as 2^1328 times the larger one overflows a float. The modes decouple, so
    # the oracle is sqrt(det A) (mpmath.det takes 2e-200 for a zero pivot)
    cm = validate_cm(np.diag([1e200, 2e-200, 3.0, 3.0]))
    with mpmath.workdps(60):
        want = mpmath.sqrt(mpmath.mpf(1e200) * mpmath.mpf(2e-200))
    assert symplectic_eigenvalues(cm)[0] == 3.0
    for got in (symplectic_eigenvalues(cm)[1], min_pt_symplectic_eigenvalue(cm)):
        assert abs(got - want) <= 1e-15 * want


def wide_symmetric_matrices(count, seed):
    """Seeded symmetric 4x4 matrices of random signs and mantissas, about a fifth
    of the entries 0. Half draw their binary exponents from a window of 60, half
    from subnormals to 1.7e308."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        width = rng.choice([60, 2098])
        low = rng.integers(-1126, 973 - width)
        mantissas = rng.integers(1, 2**53, size=10) * rng.choice([-1.0, 1.0], size=10)
        upper = np.ldexp(mantissas, rng.integers(low, low + width, size=10))
        upper[rng.random(10) < 0.2] = 0.0
        g = np.zeros((4, 4))
        g[np.triu_indices(4)] = upper
        yield g + np.triu(g, 1).T


def test_two_mode_invariants_equal_exact_rational_determinants():
    # det A, det B and det C at scale 2^K are the Fraction minors times 4^K, and
    # det gamma is the Fraction determinant times 16^K, at every spread of entries
    for g in wide_symmetric_matrices(4000, seed=1):
        det_a, det_b, det_c, _, k = symplectic.two_mode_invariants(g)
        m, scale = exact(g), Fraction(4) ** k
        assert (det_a, det_b, det_c) == tuple(
            exact_minor(m, i, j) * scale for i, j in ((0, 0), (2, 2), (0, 2))), g.tolist()
    for g in wide_symmetric_matrices(1000, seed=2):
        _, _, _, det, k = symplectic.two_mode_invariants(g)
        assert det == exact_det(exact(g)) * Fraction(16) ** k, g.tolist()


def test_two_mode_spectra_where_rounding_makes_det_gamma_negative():
    # a squeezed vacuum at r = 9.03 with its couplings 3 ulps apart: validate_cm
    # accepts it, yet det gamma < 0 exactly, so nu_- reads 0 as at r = 10
    a, c = np.cosh(18.06), np.sinh(18.06)
    cm = validate_cm(symplectic.six_param_cm(a, a, a, a, c - 3 * np.spacing(c),
                                             c + 3 * np.spacing(c)))
    assert symplectic.two_mode_invariants(cm.entries)[3] < 0
    assert symplectic_eigenvalues(cm)[1] == 0.0
    assert min_pt_symplectic_eigenvalue(cm) == 0.0


def test_two_mode_spectrum_beyond_float64_range_is_refused():
    # a = b = c1 = c2 = 1e308: the partial transpose's nu_+ is 2e308
    cm = CovarianceMatrix(entries=symplectic.six_param_cm(*[1e308] * 6))
    assert symplectic._two_mode_spectrum(cm, False) == (0.0, 0.0)
    with pytest.raises(ValidationError, match="beyond float64 range"):
        symplectic._two_mode_spectrum(cm, True)


@given(a=st.floats(1.0, 30.0), b=st.floats(1.0, 30.0), u1=st.floats(-1.0, 1.0),
       u2=st.floats(-1.0, 1.0), sa=st.floats(-6.0, 6.0), sb=st.floats(-6.0, 6.0),
       angles=st.tuples(*[st.floats(0.0, np.pi)] * 4), j=st.integers(0, 900))
@settings(max_examples=150, deadline=None)
def test_two_mode_spectra_scale_by_powers_of_two_exactly(a, b, u1, u2, sa, sb, angles, j):
    # the invariants of 2^j gamma are those of gamma at scale 2^(K - j), so every
    # spectrum scales by 2^j bit for bit
    sf = StandardForm(a, b, u1 * np.sqrt(a * b), u2 * np.sqrt(a * b))
    try:
        sf.validate()
    except NotPhysical:
        assume(False)
    s = np.zeros((4, 4))
    s[:2, :2] = symplectic_2x2(sa, *angles[:2])
    s[2:, 2:] = symplectic_2x2(sb, *angles[2:])
    g = s @ sf.to_cm() @ s.T
    cm = CovarianceMatrix(entries=0.5 * (g + g.T))
    assert_spectra_match_oracle(cm)
    scaled = CovarianceMatrix(entries=2.0**j * cm.entries)
    assert symplectic_eigenvalues(scaled) == [2.0**j * x for x in symplectic_eigenvalues(cm)]
    assert symplectic._two_mode_spectrum(scaled, True) == tuple(
        2.0**j * x for x in symplectic._two_mode_spectrum(cm, True))
    assert min_pt_symplectic_eigenvalue(scaled) == 2.0**j * min_pt_symplectic_eigenvalue(cm)


def test_two_mode_spectra_of_squeezed_vacuum_at_r_10_are_zero():
    # in float the vacuum's a^2 - c^2 = 1 is lost: a = b = c1 = c2, whose spectra are 0
    cm = validate_cm(families.symmetric_squeezed_thermal(0.0, 10.0))
    assert symplectic_eigenvalues(cm) == [0.0, 0.0]
    assert min_pt_symplectic_eigenvalue(cm) == 0.0


def near_degenerate_standard_forms(count=400):
    """Seeded physical standard forms with nu_+ ~ nu_- and strong coupling: a up
    to 1e4, b = a (1 +- delta) for delta down to 1e-12, c1^2 = a^2 - k for k in
    [1, 4], and c2 = +-c1 (1 +- eps) for eps in [1e-16, 1e-12]."""
    rng = np.random.default_rng(31)
    sign = (-1.0, 1.0)
    forms = []
    while len(forms) < count:
        a = 10.0 ** rng.uniform(0.0, 4.0)
        c1 = rng.choice(sign) * np.sqrt(max(a * a - rng.uniform(1.0, 4.0), 0.0))
        b = a * (1.0 + rng.choice(sign) * 10.0 ** rng.uniform(-12.0, -3.0))
        c2 = rng.choice(sign) * c1 * (1.0 + rng.choice(sign) * 10.0 ** rng.uniform(-16.0, -12.0))
        try:
            forms.append(StandardForm(a, b, c1, c2).validate())
        except NotPhysical:
            continue
    return forms


def test_near_degenerate_two_mode_spectra_against_60_digit_oracle():
    # here Delta^2 - 4 det gamma cancels, and det gamma nearly does: any rounding
    # of the invariants before the square root shows
    for sf in near_degenerate_standard_forms():
        assert_spectra_match_oracle(validate_cm(sf.to_cm()))


def random_symplectic(rng, n, scale=0.3):
    """expm(J H) for a seeded symmetric 2n x 2n H: a symplectic matrix, with J
    built here, not taken from the package."""
    j = np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]])
    h = rng.normal(scale=scale, size=(2 * n, 2 * n))
    return expm(j @ (h + h.T))


def williamson_cm(rng, nu):
    """S diag(nu_1, nu_1, ..., nu_n, nu_n) S^T for a random symplectic S: a CM
    whose symplectic spectrum is nu by Williamson's theorem."""
    s = random_symplectic(rng, len(nu))
    return s @ np.diag(np.repeat(nu, 2)) @ s.T


@pytest.mark.parametrize("n", [3, 4])
def test_multimode_spectrum_is_the_williamson_spectrum(n):
    rng = np.random.default_rng(n)
    for _ in range(200):
        nu = sorted(rng.uniform(1.0, 5.0, n).tolist(), reverse=True)
        cm = validate_cm(williamson_cm(rng, nu))
        assert symplectic_eigenvalues(cm) == pytest.approx(nu, rel=1e-12, abs=0)


@pytest.mark.parametrize("n_a, n_b", [(1, 2), (2, 2), (1, 3)])
def test_ppt_statistic_is_invariant_under_local_symplectics_and_party_swap(n_a, n_b):
    # the swap lists B's modes first, so that the transpose falls on A's momenta
    rng = np.random.default_rng(10 * n_a + n_b)
    part, swapped = ModePartition.bipartite(n_a, n_b), ModePartition.bipartite(n_b, n_a)
    order = [2 * m + q for m in [*range(n_a, n_a + n_b), *range(n_a)] for q in (0, 1)]
    for _ in range(50):
        g = williamson_cm(rng, rng.uniform(1.0, 3.0, n_a + n_b))
        nu = min_pt_symplectic_eigenvalue(validate_cm(g), part)
        local = block_diag(random_symplectic(rng, n_a), random_symplectic(rng, n_b))
        dressed = validate_cm(local @ g @ local.T)
        assert min_pt_symplectic_eigenvalue(dressed, part) == pytest.approx(nu, rel=1e-11)
        reordered = validate_cm(g[np.ix_(order, order)])
        assert min_pt_symplectic_eigenvalue(reordered, swapped) == pytest.approx(nu, rel=1e-11)


@pytest.mark.parametrize("n_a, n_b", [(1, 2), (2, 2)])
def test_ppt_statistic_of_a_product_state_is_its_least_local_eigenvalue(n_a, n_b):
    # the partial transpose maps g_B to another CM with g_B's symplectic spectrum
    rng = np.random.default_rng(20 + 10 * n_a + n_b)
    for _ in range(50):
        nu_a, nu_b = rng.uniform(1.0, 4.0, n_a), rng.uniform(1.0, 4.0, n_b)
        cm = validate_cm(block_diag(williamson_cm(rng, nu_a), williamson_cm(rng, nu_b)))
        got = min_pt_symplectic_eigenvalue(cm, ModePartition.bipartite(n_a, n_b))
        assert got == pytest.approx(min(nu_a.min(), nu_b.min()), rel=1e-12)


def test_werner_wolf_example_is_ppt_yet_entangled():
    # Werner & Wolf's (A..F) = (2, 1, 2, 4, 1, 1) across its 2|2 partition: the least
    # symplectic eigenvalue of the partial transpose is exactly 1, so Simon's test
    # does not decide, yet the closed form reads entangled
    p = criteria.WernerWolf2x2Params(2.0, 1.0, 2.0, 4.0, 1.0, 1.0)
    cm = validate_cm(p.to_cm())
    nu = min_pt_symplectic_eigenvalue(cm, ModePartition(("A", "A", "B", "B")))
    assert nu == pytest.approx(1.0, rel=0, abs=1e-12)
    verdict = criteria.werner_wolf_2x2(p)
    assert verdict.margin == -2.0 and verdict.entangled


@pytest.mark.parametrize("n, parties", [(2, ("A", "B", "A")), (3, ("A", "B")),
                                        (3, ("A", "B", "C"))],
                         ids=["three-labels-on-two-modes", "two-labels-on-three-modes",
                              "three-parties"])
def test_ppt_statistic_refuses_a_partition_that_is_not_a_bipartition_of_the_modes(n, parties):
    cm = validate_cm(2.0 * np.eye(2 * n))
    with pytest.raises(ValueError, match="needs a bipartition of the CM's modes"):
        min_pt_symplectic_eigenvalue(cm, ModePartition(parties))
