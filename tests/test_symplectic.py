import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvwitness import families
from cvwitness.errors import NotPhysical, NotSymmetric, OddDimension
from cvwitness.symplectic import (
    ComplexCM,
    CovarianceMatrix,
    ModePartition,
    StandardForm,
    _ccm_matrix,
    from_complex_cm,
    gaussian_overlap,
    gaussian_taylor,
    min_pt_symplectic_eigenvalue,
    partial_transpose,
    standard_form,
    symplectic_eigenvalues,
    symplectic_form,
    to_complex_cm,
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
    s = symplectic_form(3)
    assert np.array_equal(s, -s.T)
    assert np.array_equal(s @ s, -np.eye(6))


def test_symplectic_form_copies_are_mutable():
    # the form is built once per mode count; callers get their own copy
    s = symplectic_form(2)
    s[0, 1] = 7.0
    assert symplectic_form(2)[0, 1] == 1.0


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


def test_validate_rejects_unphysical():
    with pytest.raises(NotPhysical) as exc:
        validate_cm(0.5 * np.eye(2))
    assert exc.value.min_eigenvalue < -1e-9


def test_thermal_symplectic_eigenvalues():
    cm = validate_cm(np.diag([3.0, 3.0, 1.5, 1.5]))
    assert symplectic_eigenvalues(cm) == pytest.approx([3.0, 1.5])


def test_tmsv_is_pure_and_ppt_detects_it():
    r = 0.6
    cm = validate_cm(families.two_mode_squeezed_vacuum(r))
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
    ccm = to_complex_cm(validate_cm(np.eye(4)))
    sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(ccm.matrix, np.kron(sigma1, np.eye(2)))


@given(st.integers(0, 2**31 - 1), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_complex_cm_round_trip(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(2 * n, 2 * n))
    cm = validate_cm(m @ m.T + 2.0 * n * np.eye(2 * n))
    back = from_complex_cm(to_complex_cm(cm))
    assert np.allclose(back, cm.entries, atol=1e-12)


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
    ccm = to_complex_cm(validate_cm(m @ m.T + 3.0 * np.eye(4)))
    assert np.allclose(ccm.matrix, ccm.matrix.T, atol=1e-12)


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


def test_gaussian_taylor_single_mode_hermite():
    # exp(g v^2 / 2): T[a] = g^(a/2) (a-1)!! / sqrt(a!) for even a, 0 for odd a
    g = 0.7
    table = gaussian_taylor(np.array([[g]]), (6,))
    want = [1.0, 0.0, g / np.sqrt(2.0), 0.0, 3 * g**2 / np.sqrt(24.0), 0.0,
            15 * g**3 / np.sqrt(720.0)]
    assert np.allclose(table, want, rtol=1e-14, atol=0.0)
