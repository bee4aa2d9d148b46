from fractions import Fraction

import numpy as np
import pytest

from cvwitness import families, fock, witness
from cvwitness.errors import NotPhysical, OptimFailure, SingularGamma2
from cvwitness.symplectic import StandardForm, validate_cm
from cvwitness.witness import PositivityMode, SixParamDetect


def omega_member(m, m5):
    """Symmetric Omega member: M1..M4 = m, M6 fixed by the purity constraint."""
    m6 = np.sqrt(m * m - 1.0 / (m * m - m5 * m5))
    return SixParamDetect(m, m, m, m, m5, m6, PositivityMode.OPERATOR_PSD)


def test_detect_operator_positivity_check():
    with pytest.raises(NotPhysical):
        SixParamDetect(1.0, 1.0, 1.0, 1.0, 2.0, 0.0, PositivityMode.OPERATOR_PSD)


def test_detect_operator_quantum_state_mode():
    # gamma = I is a quantum state; gamma = 0.5 I is PSD but not a state
    SixParamDetect(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, PositivityMode.QUANTUM_STATE)
    SixParamDetect(0.5, 0.5, 0.5, 0.5, 0.0, 0.0, PositivityMode.OPERATOR_PSD)
    with pytest.raises(NotPhysical):
        SixParamDetect(0.5, 0.5, 0.5, 0.5, 0.0, 0.0, PositivityMode.QUANTUM_STATE)


def test_cm_assembly_signs():
    d = SixParamDetect(1.0, 2.0, 3.0, 4.0, 0.5, 0.25, PositivityMode.OPERATOR_PSD)
    g = d.cm()
    assert g[0, 2] == 0.5
    assert g[1, 3] == -0.25
    assert np.allclose(g, g.T)


def test_swapped_exchanges_parties():
    d = SixParamDetect(1.0, 2.0, 3.0, 4.0, 0.5, 0.25, PositivityMode.OPERATOR_PSD)
    s = d.swapped()
    assert (s.m1, s.m2, s.m3, s.m4) == (3.0, 4.0, 1.0, 2.0)
    assert (s.m5, s.m6) == (d.m5, d.m6)


def test_two_fold_kernel_blocks():
    d = omega_member(2.0, 1.2)
    k = witness.two_fold_kernel(d.gamma1, d.gamma2, d.gamma3)
    expected_omega = -0.5 * d.gamma3 @ np.linalg.inv(d.gamma2) @ d.gamma3.T
    assert np.allclose(k.omega, expected_omega)
    assert np.allclose(k.zeta, d.gamma1 + expected_omega)
    assert np.allclose(k.gamma_2m[:2, 2:], k.omega)


def test_two_fold_kernel_singular_gamma2():
    with pytest.raises(SingularGamma2):
        witness.two_fold_kernel(np.eye(2), np.zeros((2, 2)), np.eye(2))


def test_fixed_point_solves_equations():
    d = omega_member(2.0, 1.2)
    ga, gb, it = witness.fixed_point_AB(d.gamma1, d.gamma2, d.gamma3)
    assert it < 1000
    ra = ga - (d.gamma1 - d.gamma3 @ np.linalg.inv(d.gamma2 + gb) @ d.gamma3.T)
    rb = gb - (d.gamma2 - d.gamma3.T @ np.linalg.inv(d.gamma1 + ga) @ d.gamma3)
    assert np.max(np.abs(ra)) < 1e-10
    assert np.max(np.abs(rb)) < 1e-10


def test_fixed_point_locals_pure_for_omega_members():
    for m, m5 in [(2.0, 1.2), (1.5, 0.8), (3.0, 2.0)]:
        d = omega_member(m, m5)
        assert witness.omega_residuals(d).is_member
        ga, gb, _ = witness.fixed_point_AB(d.gamma1, d.gamma2, d.gamma3)
        assert np.linalg.det(ga) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.det(gb) == pytest.approx(1.0, abs=1e-9)
        # closed form for the symmetric case
        assert ga[0, 0] == pytest.approx(np.sqrt(m * m - m5**2), abs=1e-9)
        assert ga[1, 1] == pytest.approx(np.sqrt(m * m - d.m6**2), abs=1e-9)


def test_omega_residuals_nonmember():
    d = SixParamDetect(1.0, 1.0, 2.0, 2.0, 0.0, 0.0, PositivityMode.OPERATOR_PSD)
    assert not witness.omega_residuals(d).is_member


def test_detect_determinant_matches_direct():
    rng = np.random.default_rng(6)
    for _ in range(20):
        g = rng.normal(size=(4, 4))
        g = g @ g.T + 1e-2 * np.eye(4)
        d = SixParamDetect(
            g[0, 0], g[1, 1], g[2, 2], g[3, 3], g[0, 2], -g[1, 3],
            PositivityMode.OPERATOR_PSD,
        )
        x, y = rng.uniform(0.2, 5.0, size=2)
        direct = np.linalg.det(d.cm() + np.diag([x, 1.0 / x, y, 1.0 / y]))
        assert witness.detect_determinant(d, x, y) == pytest.approx(direct, rel=1e-10)


def test_stationarity_holds_at_optimum():
    rng = np.random.default_rng(8)
    for _ in range(10):
        g = rng.normal(size=(4, 4))
        g = g @ g.T + 1e-2 * np.eye(4)
        d = SixParamDetect(
            g[0, 0], g[1, 1], g[2, 2], g[3, 3], g[0, 2], -g[1, 3],
            PositivityMode.OPERATOR_PSD,
        )
        val, x, y = witness.lambda_product_vacuum(d)
        r1, r2 = witness.stationarity_residuals(d, x, y)
        scale = witness.detect_determinant(d, x, y)
        assert abs(r1) < 1e-12 * scale
        assert abs(r2) < 1e-12 * scale


def grid_determinants(d, xs, ys):
    """np.linalg.det(gamma_M + diag(x, 1/x, y, 1/y)) over the grid xs x ys."""
    xg, yg = [a.ravel() for a in np.meshgrid(xs, ys, indexing="ij")]
    m = np.zeros((xg.size, 4, 4)) + d.cm()
    m[:, 0, 0] += xg
    m[:, 1, 1] += 1.0 / xg
    m[:, 2, 2] += yg
    m[:, 3, 3] += 1.0 / yg
    return np.linalg.det(m), xg, yg


def exact_determinant(d, x, y):
    """det(gamma_M + diag(x, 1/x, y, 1/y)) in rational arithmetic, by elimination."""
    m = [[Fraction(float(v)) for v in row] for row in d.cm()]
    for i, v in enumerate((Fraction(x), 1 / Fraction(x), Fraction(y), 1 / Fraction(y))):
        m[i][i] += v
    det = Fraction(1)
    for k in range(4):
        p = next(i for i in range(k, 4) if m[i][k] != 0)
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, 4):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


SCHEDULE_M1 = (1e2, 1e3, 1e4)


def schedule_u_max(m1):
    return np.sqrt(m1 / (m1 + 1.0)) * (1.0 - 1e-9)


def schedule_ops():
    """(M1, detect) for 17 schedule operators per M1, up to u_max."""
    return [(m1, witness._schedule_detect(m1, schedule_u_max(m1) * (1.0 - f)))
            for m1 in SCHEDULE_M1 for f in np.geomspace(1e-9, 0.5, 17)]


def test_lambda_is_grid_minimum():
    ops = [fock.random_detect_operator(seed) for seed in range(150)]
    ops += [d for _, d in schedule_ops()]
    wide = np.logspace(-4.0, 4.0, 121)
    near = np.geomspace(0.98, 1.02, 41)
    for d in ops:
        lam, x, y = witness.lambda_product_vacuum(d)
        vmin = 16.0 / lam**2
        for xs, ys in ((wide, wide), (x * near, y * near)):
            vals, xg, yg = grid_determinants(d, xs, ys)
            low = vals < vmin * (1.0 - 1e-12)
            # On near-singular schedule operators both float determinants round
            # at the 1e-12 level; settle a point below the bound exactly.
            for xi, yi in zip(xg[low], yg[low]):
                assert exact_determinant(d, xi, yi) >= exact_determinant(d, x, y) * (
                    1 - Fraction(1, 10**12)
                )


@pytest.mark.parametrize("params, lam, xy", [
    ((1.0, 1.0, 1.0, 1.0, 1.0, 1.0), 4.0 / 3.0, 1.0),
    ((1.0, 1.0, 1.0, 1.0, 1.0, 0.0), None, 0.5 * (np.sqrt(5.0) - 1.0)),
])
def test_lambda_singular_sector_block(params, lam, xy):
    d = SixParamDetect(*params, PositivityMode.OPERATOR_PSD)
    got, x, y = witness.lambda_product_vacuum(d)
    if lam is not None:
        assert got == pytest.approx(lam, rel=1e-12)
    assert x == pytest.approx(xy, rel=1e-12)
    assert y == pytest.approx(xy, rel=1e-12)
    r1, r2 = witness.stationarity_residuals(d, x, y)
    assert max(abs(r1), abs(r2)) < 1e-12 * witness.detect_determinant(d, x, y)


def test_lambda_bracket_widens_both_ways():
    # a singular p-sector block leaves a y-term that only decreases, so the
    # root lies past max + 1; its x <-> p mirror image puts it below min - 1
    d = SixParamDetect(1.0, 100.0, 1.0, 1.0, 0.0, 10.0, PositivityMode.OPERATOR_PSD)
    mirror = SixParamDetect(100.0, 1.0, 1.0, 1.0, 10.0, 0.0, PositivityMode.OPERATOR_PSD)
    lam, x, y = witness.lambda_product_vacuum(d)
    lam_m, x_m, y_m = witness.lambda_product_vacuum(mirror)
    assert (lam_m, x_m, y_m) == pytest.approx((lam, 1.0 / x, 1.0 / y), rel=1e-12)
    for op, xo, yo in ((d, x, y), (mirror, x_m, y_m)):
        r1, r2 = witness.stationarity_residuals(op, xo, yo)
        assert max(abs(r1), abs(r2)) < 1e-12 * witness.detect_determinant(op, xo, yo)


@pytest.mark.filterwarnings("error")
def test_lambda_unattained_minimum_raises():
    # zero M1: the determinant only approaches its infimum as x -> 0
    d = SixParamDetect(0.0, 1.0, 1.0, 1.0, 0.0, 0.0, PositivityMode.OPERATOR_PSD)
    with pytest.raises(OptimFailure):
        witness.lambda_product_vacuum(d)


def test_lambda_vacuum_detect():
    d = SixParamDetect(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, PositivityMode.OPERATOR_PSD)
    lam, x, y = witness.lambda_product_vacuum(d)
    assert lam == pytest.approx(1.0, abs=1e-9)
    assert x == pytest.approx(1.0, abs=1e-6)
    assert y == pytest.approx(1.0, abs=1e-6)


def test_L_ratio_vacuum_state_vacuum_detect():
    d = SixParamDetect(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, PositivityMode.OPERATOR_PSD)
    assert witness.L_ratio(np.eye(4), d) == pytest.approx(1.0, abs=1e-9)


def test_minimize_L_on_boundary_states():
    for a in (1.5, 2.0, 3.0):
        c = a - 1.0  # on (a-1)(b-1) = c^2 with b = a
        g = validate_cm(families.squeezed_thermal_cm(a, a, c))
        lval, _ = witness.minimize_L(g)
        assert lval == pytest.approx(1.0, abs=1e-3)


def test_minimize_L_signs():
    g_sep = validate_cm(families.squeezed_thermal_cm(2.0, 2.0, 0.5))
    l_sep, _ = witness.minimize_L(g_sep)
    assert l_sep > 1.0 - 1e-9
    g_ent = validate_cm(families.two_mode_squeezed_vacuum(0.4))
    l_ent, d = witness.minimize_L(g_ent)
    assert l_ent < 1.0


def test_schedule_denominator_is_closed_form():
    # minimize_L divides by 4 (M1+1)^2, the determinant at x = y = 1
    for m1, d in schedule_ops():
        lam, x, y = witness.lambda_product_vacuum(d)
        assert abs(x - 1.0) < 1e-12 and abs(y - 1.0) < 1e-12
        assert abs(lam * (m1 + 1.0) / 2.0 - 1.0) < 1e-11


def test_schedule_cms_match_schedule_detect():
    m1 = np.array(SCHEDULE_M1)[:, None]
    us = np.linspace(1e-4, 0.99, 7)
    cms = witness._schedule_cms(m1, us)
    assert cms.shape == (len(SCHEDULE_M1), 7, 4, 4)
    for i, j in np.ndindex(*cms.shape[:2]):
        assert np.array_equal(cms[i, j], witness._schedule_detect(m1[i, 0], us[j]).cm())


def local_symplectic(rng):
    """Random R(theta) diag(e^-s, e^s) R(phi) on each of two modes."""
    def rot(t):
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

    out = np.zeros((4, 4))
    for k in (0, 2):
        s = rng.uniform(-0.6, 0.6)
        out[k:k + 2, k:k + 2] = (rot(rng.uniform(0.0, np.pi)) @ np.diag([np.exp(-s), np.exp(s)])
                                 @ rot(rng.uniform(0.0, np.pi)))
    return out


def minimize_L_inputs():
    """Seeded two-mode inputs: 100 random CMs, then 110 standard forms passed
    as CMs dressed by local symplectics and 110 passed as they are."""
    rng = np.random.default_rng(71)
    out = []
    while len(out) < 100:
        m = rng.normal(size=(4, 4))
        try:
            out.append(validate_cm(m @ m.T + rng.uniform(0.5, 2.0) * np.eye(4)))
        except NotPhysical:
            continue
    while len(out) < 320:
        a, b = rng.uniform(1.0, 4.0, size=2)
        c1, c2 = rng.uniform(0.0, 1.0, size=2) * np.sqrt(a * b)
        sf = StandardForm(a=a, b=b, c1=c1, c2=c2)
        try:
            validate_cm(sf.to_cm())
        except NotPhysical:
            continue
        if len(out) < 210:
            s = local_symplectic(rng)
            out.append(validate_cm(s @ sf.to_cm() @ s.T))
        else:
            out.append(sf)
    return out


def schedule_ratios(g, m1, us):
    """det(g + gamma_M) / (4 (M1+1)^2) for the schedule operators at each u."""
    m = np.zeros((us.size, 4, 4)) + g
    m[:, 0, 0] += m1
    m[:, 1, 1] += m1
    m[:, 2, 2] += 1.0 + us * us * (m1 + 1.0)
    m[:, 3, 3] += 1.0 + us * us * (m1 + 1.0)
    for i, j, sign in ((0, 2, 1.0), (2, 0, 1.0), (1, 3, -1.0), (3, 1, -1.0)):
        m[:, i, j] += sign * us * (m1 + 1.0)
    return np.linalg.det(m) / (4.0 * (m1 + 1.0) ** 2)


def test_minimize_L_is_schedule_minimum():
    wins = 0
    for state in minimize_L_inputs():
        lval, d = witness.minimize_L(state)
        g = state.to_cm() if isinstance(state, StandardForm) else state.entries
        for m1 in SCHEDULE_M1:
            grid = np.linspace(1e-4, schedule_u_max(m1), 2001)
            assert schedule_ratios(g, m1, grid).min() >= lval * (1.0 - 1e-12)
        if d is not None:
            wins += 1
            assert witness.L_ratio(g, d) == pytest.approx(lval, rel=1e-11)
    assert wins > 0
