import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvwitness import families, symplectic
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


def random_symplectic_2x2(rng):
    """Random 2x2 symplectic (det 1): rotation * squeeze * rotation."""

    def rot(t):
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

    r = rng.uniform(-0.5, 0.5)
    return rot(rng.uniform(0, np.pi)) @ np.diag([np.exp(r), np.exp(-r)]) @ rot(
        rng.uniform(0, np.pi)
    )


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


def dressed_cm(sf, rng):
    """The CM of a standard form under a random local symplectic S_A (+) S_B."""
    s = np.zeros((4, 4))
    s[:2, :2], s[2:, 2:] = random_symplectic_2x2(rng), random_symplectic_2x2(rng)
    g = s @ sf.to_cm() @ s.T
    return CovarianceMatrix(entries=0.5 * (g + g.T))


def mp_standard_form(g):
    """(a, b, c1, c2) of the float CM g, taken as exact, in 50-digit arithmetic.

    Uses the local invariants a^2 = det A, b^2 = det B, c1 c2 = -det C and
    c1^2 + c2^2 = a b tr(A^-1 C B^-1 C^T), not the reduction itself.
    """
    with mpmath.workdps(50):
        m = mpmath.matrix(g.tolist())
        blk_a, blk_b, blk_c = m[0:2, 0:2], m[2:4, 2:4], m[0:2, 2:4]
        a, b = mpmath.sqrt(mpmath.det(blk_a)), mpmath.sqrt(mpmath.det(blk_b))
        prod = -mpmath.det(blk_c)
        f = a * b * sum((blk_a**-1 * blk_c * blk_b**-1 * blk_c.T)[i, i] for i in range(2))
        plus, minus = mpmath.sqrt(f + 2 * prod), mpmath.sqrt(max(f - 2 * prod, 0))
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


def mp_two_mode_spectrum(g, transpose):
    """(nu_+, nu_-) of the float CM g, or of its partial transpose, taken as
    exact, from the invariants det A + det B +- 2 det C and det gamma of the
    matrix itself, in 60-digit arithmetic."""
    with mpmath.workdps(60):
        m = mpmath.matrix(g.tolist())
        sign = -1 if transpose else 1
        d = (mpmath.det(m[0:2, 0:2]) + mpmath.det(m[2:4, 2:4])
             + 2 * sign * mpmath.det(m[0:2, 2:4]))
        det = mpmath.det(m)
        plus = (d + mpmath.sqrt(max(d * d - 4 * det, 0))) / 2
        return mpmath.sqrt(plus), mpmath.sqrt(det / plus)


def two_mode_spectrum_cases():
    """symmetric_squeezed_thermal(n, r) for n in {0, 0.5, 2} and r up to 5, whose
    nu_+ = nu_-, then seeded standard forms dressed by local symplectics."""
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
    return cms


def test_two_mode_spectra_against_60_digit_oracle():
    # the closed form against the same float input in exact-enough arithmetic
    for cm in two_mode_spectrum_cases():
        plus, minus = symplectic_eigenvalues(cm)
        pt_plus, pt_minus = symplectic._two_mode_spectrum(cm, transpose=True)
        assert min_pt_symplectic_eigenvalue(cm) == pt_minus
        for got, want in zip((plus, minus, pt_plus, pt_minus),
                             mp_two_mode_spectrum(cm.entries, False)
                             + mp_two_mode_spectrum(cm.entries, True)):
            assert abs(got - want) <= 1e-14 * want
