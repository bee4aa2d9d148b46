import numpy as np
import pytest

from cvwitness import families, nongaussian
from cvwitness.errors import (NotPhysical, NotSymmetric, SingularSum, UnsupportedOrder,
                              ValidationError)
from cvwitness.nongaussian import NGPASGSpec
from cvwitness.symplectic import _ccm_matrix, gaussian_overlap, gaussian_taylor, validate_cm

from oracles import ladder, single_mode_gaussian_rho, two_mode_squeezed_thermal_rho


def random_single_mode_cm(rng):
    r = rng.uniform(0.0, 0.5)
    phi = rng.uniform(0.0, np.pi)
    nu = rng.uniform(1.0, 2.0)
    c, s = np.cos(phi), np.sin(phi)
    rot = np.array([[c, -s], [s, c]])
    return nu * rot @ np.diag([np.exp(2 * r), np.exp(-2 * r)]) @ rot.T


def added_subtracted_rho(rho_g, k, m, cutoff):
    a = ladder(cutoff)
    ad = a.conj().T
    op = np.linalg.matrix_power(ad, k) @ np.linalg.matrix_power(a, m)
    rho = op @ rho_g @ op.conj().T
    return rho / np.trace(rho)


def test_spec_validation():
    kernel = validate_cm(np.eye(2))
    with pytest.raises(ValueError):
        NGPASGSpec(kernel=kernel, adds=(1, 1), subs=(0,))
    with pytest.raises(ValueError):
        NGPASGSpec(kernel=kernel, adds=(-1,), subs=(0,))


def test_spec_rejects_boolean_counts():
    kernel = validate_cm(np.eye(2))
    for counts in ((True,), (np.False_,)):
        with pytest.raises(ValueError):
            NGPASGSpec(kernel=kernel, adds=counts, subs=(0,))


def q_char_zero(g, *v):
    """Characteristic function exp(v A0 v / 2) of the Q generating operator at z = 0."""
    a0, _ = nongaussian._char_forms(g.entries, np.eye(2 * g.n))
    x = np.concatenate([np.asarray(p, float) for p in v])
    return np.exp(0.5 * x @ a0 @ x)


def test_q_char_zero_at_origin():
    g = validate_cm(families.squeezed_thermal_cm(1.5, 1.5, 0.4))
    z = np.zeros(2)
    assert q_char_zero(g, z, z, z, z) == pytest.approx(1.0)


def test_q_char_vacuum_kernel_single_mode():
    # vacuum CCM is sigma1, so the (eps, -zeta) form with eps=(t) gives
    # exponent -[t 0] (sigma1 + sigma1) [t 0]^T / 4 = 0
    g = validate_cm(np.eye(2))
    t = 0.7
    val = q_char_zero(g, [t], [0.0], [0.0], [0.0])
    assert val == pytest.approx(1.0)
    # with zeta too the quadratic form is -(gamma_plus coupling) t*z
    val2 = q_char_zero(g, [t], [0.0], [0.0], [t])
    assert val2 == pytest.approx(np.exp(t * t))


def test_zero_counts_reduce_to_gaussian_overlap():
    g = validate_cm(families.squeezed_thermal_cm(1.8, 1.4, 0.5))
    s = NGPASGSpec(kernel=g, adds=(0, 0), subs=(0, 0))
    gm = np.diag([1.5, 1.5, 2.0, 2.0])
    assert nongaussian.ngpasg_trace_finite(s, gm) == pytest.approx(
        gaussian_overlap(g.entries, gm), rel=1e-12
    )


def test_unsupported_order(monkeypatch):
    # the bound is on the Taylor table, prod(alpha_i + 1) entries with
    # alpha = (k, m, m, k); it must be enforced before any table is built
    def no_table(*args):
        raise AssertionError("table allocated past the size bound")

    monkeypatch.setattr(nongaussian, "gaussian_taylor", no_table)
    g = validate_cm(np.eye(2))
    assert 2049**2 > nongaussian.MAX_TABLE_SIZE
    for adds, subs in [((2000,), (2000,)), ((2048,), (0,))]:
        s = NGPASGSpec(kernel=g, adds=adds, subs=subs)
        with pytest.raises(UnsupportedOrder):
            nongaussian.ngpasg_trace_finite(s, np.eye(2))


def test_single_mode_against_fock_oracle():
    rng = np.random.default_rng(7)
    cut = 40
    for _ in range(3):
        gam = random_single_mode_cm(rng)
        lam = rng.uniform(1.2, 3.0)
        gm = np.diag([lam, lam])
        rho_g = single_mode_gaussian_rho(gam, cut)
        m_op = single_mode_gaussian_rho(gm, cut)
        spec_cm = validate_cm(gam)
        for k, m in [(1, 0), (0, 1), (1, 1), (2, 0), (2, 2),
                     (3, 0), (0, 3), (3, 2), (3, 3), (4, 1), (4, 4)]:
            rho = added_subtracted_rho(rho_g, k, m, cut)
            brute = float(np.real(np.trace(rho @ m_op)))
            s = NGPASGSpec(kernel=spec_cm, adds=(k,), subs=(m,))
            assert nongaussian.ngpasg_trace_finite(s, gm) == pytest.approx(
                brute, abs=1e-6
            )


def test_two_mode_against_fock_oracle():
    cut = 12
    nbar, r = 0.15, 0.25
    rho_g = two_mode_squeezed_thermal_rho(nbar, r, cut)
    gam = validate_cm(families.symmetric_squeezed_thermal(nbar, r))
    a = ladder(cut)
    a1 = np.kron(a, np.eye(cut))
    a2 = np.kron(np.eye(cut), a)
    lam = 1.6
    gm = lam * np.eye(4)
    # thermal tail at this cutoff leaves a ~1e-6 CM residual, fine for a
    # 1e-5 trace comparison
    m_single = single_mode_gaussian_rho(np.diag([lam, lam]), cut, check_tol=1e-5)
    m_op = np.kron(m_single, m_single)
    for adds, subs in [((1, 0), (0, 0)), ((1, 1), (0, 0)), ((0, 0), (1, 1))]:
        op = np.eye(cut * cut)
        for mode_op, count in ((a1.conj().T, adds[0]), (a2.conj().T, adds[1])):
            op = np.linalg.matrix_power(mode_op, count) @ op
        sub_op = np.eye(cut * cut)
        for mode_op, count in ((a1, subs[0]), (a2, subs[1])):
            sub_op = np.linalg.matrix_power(mode_op, count) @ sub_op
        rho = op @ sub_op @ rho_g @ sub_op.conj().T @ op.conj().T
        rho = rho / np.trace(rho)
        brute = float(np.real(np.trace(rho @ m_op)))
        s = NGPASGSpec(kernel=gam, adds=adds, subs=subs)
        assert nongaussian.ngpasg_trace_finite(s, gm) == pytest.approx(brute, abs=1e-5)


def test_limit_equals_overlap_and_ignores_counts():
    g = validate_cm(families.squeezed_thermal_cm(1.8, 1.4, 0.5))
    gm = np.diag([3.0, 3.0, 2.0, 2.0])
    base = nongaussian.ngpasg_trace_limit(
        NGPASGSpec(kernel=g, adds=(0, 0), subs=(0, 0)), gm
    )
    assert base == pytest.approx(gaussian_overlap(g.entries, gm), rel=1e-12)
    other = nongaussian.ngpasg_trace_limit(
        NGPASGSpec(kernel=g, adds=(1, 1), subs=(2, 0)), gm
    )
    assert other == base


def test_finite_trace_converges_to_limit():
    g = validate_cm(families.squeezed_thermal_cm(1.5, 1.5, 0.5))
    s = NGPASGSpec(kernel=g, adds=(1, 1), subs=(0, 0))
    gaps = []
    for lam in (10.0, 100.0, 1000.0):
        gm = lam * np.eye(4)
        fin = nongaussian.ngpasg_trace_finite(s, gm)
        lim = nongaussian.ngpasg_trace_limit(s, gm)
        gaps.append(abs(fin - lim))
    assert gaps[0] > gaps[1] > gaps[2]


def test_photon_added_criterion_count_invariant():
    g = validate_cm(families.symmetric_squeezed_thermal(1.0, 0.7))
    verdicts = set()
    for k in range(3):
        for m in range(3):
            s = NGPASGSpec(kernel=g, adds=(k, k), subs=(m, m))
            v = nongaussian.photon_added_criterion(s)
            verdicts.add((v.criterion_id, round(v.margin, 10)))
    assert len(verdicts) == 1


def test_fig2a_boundary_values():
    assert nongaussian.fig2a_boundary(0.0) == 0.0
    assert nongaussian.fig2a_boundary(1.0) == pytest.approx(np.arctanh(0.5))
    ns = np.linspace(0.0, 4.0, 30)
    bs = [nongaussian.fig2a_boundary(n) for n in ns]
    assert all(b2 > b1 for b1, b2 in zip(bs, bs[1:]))
    with pytest.raises(ValueError):
        nongaussian.fig2a_boundary(-0.5)


def test_criterion_margin_vanishes_on_fig2a_boundary():
    for n_th in (0.3, 1.0, 2.5):
        r = nongaussian.fig2a_boundary(n_th)
        g = validate_cm(families.symmetric_squeezed_thermal(n_th, r))
        s = NGPASGSpec(kernel=g, adds=(1, 1), subs=(0, 0))
        v = nongaussian.photon_added_criterion(s)
        assert v.margin == pytest.approx(0.0, abs=1e-9)
        # below the boundary: separable; above: entangled
        g_lo = validate_cm(families.symmetric_squeezed_thermal(n_th, r * 0.9))
        g_hi = validate_cm(families.symmetric_squeezed_thermal(n_th, r * 1.1))
        assert not nongaussian.photon_added_criterion(
            NGPASGSpec(kernel=g_lo, adds=(1, 1), subs=(0, 0))
        ).entangled
        assert nongaussian.photon_added_criterion(
            NGPASGSpec(kernel=g_hi, adds=(1, 1), subs=(0, 0))
        ).entangled


def test_kernel_verdict_dispatch():
    sym = validate_cm(families.symmetric_squeezed_thermal(0.5, 0.3))
    assert nongaussian.kernel_verdict(sym).criterion_id == "symmetric_two_mode"
    asym = validate_cm(families.squeezed_thermal_cm(2.0, 1.5, 0.6))
    assert nongaussian.kernel_verdict(asym).criterion_id == "squeezed_thermal"


# add/sub patterns of the photon-trace benchmark workload (two-mode, then
# single-mode), and every two-mode pattern with counts 0 or 1, which puts a
# zero in each of the eight positions of alpha = (adds, subs, subs, adds)
TWO_MODE_PATTERNS = (
    ((0, 0), (0, 0)), ((1, 0), (0, 0)), ((1, 1), (0, 0)), ((0, 1), (1, 0)), ((2, 2), (0, 0)),
    ((0, 0), (2, 2)), ((1, 1), (1, 1)), ((2, 1), (1, 0)), ((2, 2), (2, 2)), ((2, 0), (0, 0)),
    ((2, 1), (1, 2)),
) + tuple(((a1, a2), (s1, s2)) for a1 in (0, 1) for a2 in (0, 1) for s1 in (0, 1) for s2 in (0, 1))
SINGLE_MODE_PATTERNS = (((1,), (0,)), ((0,), (1,)), ((1,), (1,)), ((2,), (0,)), ((2,), (1,)),
                        ((2,), (2,)), ((3,), (0,)), ((0,), (3,)), ((3,), (2,)))


def full_table_trace(s, gm):
    """ngpasg_trace_finite with the Taylor table over all 4n variables."""
    alpha = nongaussian._count_alpha(s)
    a0, af = nongaussian._char_forms(s.kernel.entries, gm)
    numer, denom = gaussian_taylor(np.stack((a0 + af, a0)), alpha)[(Ellipsis,) + alpha]
    return (numer / denom).real * gaussian_overlap(s.kernel.entries, gm)


def test_pruned_table_matches_full_table():
    rng = np.random.default_rng(43)
    m = rng.normal(size=(4, 4))
    kernels = [validate_cm(families.squeezed_thermal_cm(1.8, 1.8, 0.9)),
               validate_cm(m @ m.T + np.eye(4))]
    cases = [(k, p) for k in kernels for p in TWO_MODE_PATTERNS]
    cases += [(validate_cm(random_single_mode_cm(rng)), p) for p in SINGLE_MODE_PATTERNS]
    for kernel, (adds, subs) in cases:
        s = NGPASGSpec(kernel=kernel, adds=adds, subs=subs)
        for lam in (10.0, 1e4):
            gm = lam * np.eye(2 * s.n)
            got = nongaussian.ngpasg_trace_finite(s, gm)
            assert abs(got - full_table_trace(s, gm)) <= 1e-15 * abs(got)


def matmul_char_forms(g, m):
    """_char_forms from the complex CMs by block stacking and matmuls.

    S sends v = (eps, xi, eta, zeta) to (eps, -zeta, eta, -xi); with
    g+- = ccm(g) +- sigma1, A0 = -S^T [[g+, g-], [g-, g-]] S / 2 and, for a
    detect CM m, Af = L^T (ccm(g) + ccm(m))^-1 L / 2 with L = [g+, g-] S.
    """
    n = g.shape[0] // 2
    z, i = np.zeros((n, n)), np.eye(n)
    s = np.block([[i, z, z, z], [z, z, z, -i], [z, z, i, z], [z, -i, z, z]]).astype(complex)
    sigma1 = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), i)
    ccm = _ccm_matrix(np.stack((g, m)))
    ccm_g = ccm[0]
    gp, gm = ccm_g + sigma1, ccm_g - sigma1
    top = np.hstack((gp, gm))
    a0 = -0.5 * s.T @ np.vstack((top, np.hstack((gm, gm)))) @ s
    a0 = 0.5 * (a0 + a0.T)
    lmap = top @ s
    af = 0.5 * lmap.T @ np.linalg.solve(ccm_g + ccm[1], lmap)
    return a0, 0.5 * (af + af.T)


def random_cm(rng, n, floor):
    m = rng.normal(size=(2 * n, 2 * n))
    return m @ m.T + floor * np.eye(2 * n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_char_forms_match_matmul_forms(n):
    rng = np.random.default_rng(60 + n)
    for _ in range(10):
        g = validate_cm(random_cm(rng, n, 1.0)).entries
        for m in (rng.uniform(1.0, 1e4) * np.eye(2 * n), random_cm(rng, n, 0.5)):
            for got, want in zip(nongaussian._char_forms(g, m), matmul_char_forms(g, m)):
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("gm", [np.diag([-3.0, 1.0]),   # det(gamma_G + gamma_M) < 0
                                -3.0 * np.eye(2)])       # det > 0, negative definite
def test_traces_reject_sum_not_positive_definite(gm):
    s = NGPASGSpec(kernel=validate_cm(np.eye(2)), adds=(1,), subs=(0,))
    for trace in (nongaussian.ngpasg_trace_finite, nongaussian.ngpasg_trace_limit):
        with pytest.raises(SingularSum):
            trace(s, gm)


def test_traces_reject_detect_cm_not_positive_semidefinite(monkeypatch):
    # gamma_G + gamma_M = 0.5 I is positive definite, but gamma_M = -0.5 I is
    # no detect operator (the traces read -12.0 and 4.0 if let through); the
    # check comes before any Taylor table
    def no_table(*args):
        raise AssertionError("table built for a detect CM that is not PSD")

    monkeypatch.setattr(nongaussian, "gaussian_taylor", no_table)
    s = NGPASGSpec(kernel=validate_cm(np.eye(2)), adds=(1,), subs=(0,))
    for trace in (nongaussian.ngpasg_trace_finite, nongaussian.ngpasg_trace_limit):
        with pytest.raises(NotPhysical):
            trace(s, -0.5 * np.eye(2))


@pytest.mark.parametrize("gm, error, text", [
    # each triangle of an asymmetric gamma_M gave its own trace (0.16 and 0.1746)
    ([[3.0, 2.0], [0.0, 3.0]], NotSymmetric, "not symmetric"),
    ([[3.0, 0.0], [2.0, 3.0]], NotSymmetric, "not symmetric"),
    ([[3.0, np.nan], [np.nan, 3.0]], ValidationError, "NaN or infinite"),
    ([[np.inf, 0.0], [0.0, 3.0]], ValidationError, "NaN or infinite"),
])
def test_traces_check_detect_cm_as_validate_cm_does(gm, error, text):
    s = NGPASGSpec(kernel=validate_cm(np.diag([2.0, 2.0])), adds=(1,), subs=(0,))
    for trace in (nongaussian.ngpasg_trace_finite, nongaussian.ngpasg_trace_limit):
        with pytest.raises(error, match=text):
            trace(s, np.array(gm))


def test_limit_gap_is_C_over_lambda():
    # acceptance 8's 20 kernels: the relative gap between the finite trace and
    # its limit is C / lambda, with C >= 2 and already settled at lambda = 1e4,
    # so no lambda of that order meets a 1e-4 gap
    rng = np.random.default_rng(8)
    cs = []
    while len(cs) < 20:
        a = rng.uniform(1.1, 2.5)
        b = rng.uniform(1.1, 2.5)
        c = rng.uniform(0.0, np.sqrt((a - 1.0) * (b - 1.0)))
        try:
            g = validate_cm(families.squeezed_thermal_cm(a, b, c))
        except NotPhysical:
            continue
        s = NGPASGSpec(kernel=g, adds=(1, 1), subs=(0, 0))
        row = []
        for lam in (1e3, 1e4, 1e5):
            gm = lam * np.eye(4)
            lim = nongaussian.ngpasg_trace_limit(s, gm)
            row.append(lam * abs(nongaussian.ngpasg_trace_finite(s, gm) - lim) / abs(lim))
        cs.append(row)
    cs = np.array(cs)
    assert cs.min() >= 2.0
    assert np.all(np.abs(cs[:, 2] - cs[:, 1]) < 5e-3 * cs[:, 1])
