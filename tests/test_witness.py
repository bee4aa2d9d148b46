import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cvwitness import families, fock, witness
from cvwitness.errors import NotPhysical, OptimFailure
from cvwitness.symplectic import StandardForm, six_param_cm, standard_form, validate_cm
from cvwitness.witness import PositivityMode, SixParamDetect


def test_detect_operator_positivity_check():
    with pytest.raises(NotPhysical):
        SixParamDetect(1.0, 1.0, 1.0, 1.0, 2.0, 0.0, PositivityMode.OPERATOR_PSD)


def test_detect_operator_quantum_state_mode():
    # gamma = I is a quantum state; gamma = 0.5 I is PSD but not a state
    SixParamDetect(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, PositivityMode.QUANTUM_STATE)
    SixParamDetect(0.5, 0.5, 0.5, 0.5, 0.0, 0.0, PositivityMode.OPERATOR_PSD)
    with pytest.raises(NotPhysical):
        SixParamDetect(0.5, 0.5, 0.5, 0.5, 0.0, 0.0, PositivityMode.QUANTUM_STATE)


@pytest.mark.parametrize("m", [
    (2.0, 3.0, 1.5, 0.5, 0.7, -1.1),   # both blocks positive definite
    (1.0, 2.0, 4.0, 0.5, 2.0, 0.3),    # a zero eigenvalue in the x block, m1 m3 = m5^2
    (2.0, 1.0, 1.0, 4.0, 0.5, -2.0),   # a zero eigenvalue in the p block, m2 m4 = m6^2
    (1.0, 1.0, 1.0, 1.0, 3.0, 0.2),    # the x block indefinite
    (1.0, -2.0, 1.0, 0.5, 0.1, 0.0),   # the p block negative on its diagonal
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
])
def test_least_eigenvalue_matches_eigvalsh(m):
    want = np.linalg.eigvalsh(six_param_cm(*m))[0]
    assert abs(SixParamDetect.least_eigenvalue(*m) - want) <= 1e-15 * max(1.0, np.abs(m).max())


def test_least_eigenvalue_random():
    rng = np.random.default_rng(17)
    for m in rng.normal(size=(500, 6)) * rng.uniform(0.1, 10.0, size=(500, 1)):
        want = np.linalg.eigvalsh(six_param_cm(*m))[0]
        assert abs(SixParamDetect.least_eigenvalue(*m) - want) <= 4e-15 * np.abs(m).max()


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
    g_ent = validate_cm(families.symmetric_squeezed_thermal(0.0, 0.4))
    l_ent, d = witness.minimize_L(g_ent)
    assert l_ent < 1.0


def test_schedule_denominator_is_closed_form():
    # minimize_L divides by 4 (M1+1)^2, the determinant at x = y = 1
    for m1, d in schedule_ops():
        lam, x, y = witness.lambda_product_vacuum(d)
        assert abs(x - 1.0) < 1e-12 and abs(y - 1.0) < 1e-12
        assert abs(lam * (m1 + 1.0) / 2.0 - 1.0) < 1e-11


def test_schedule_detect_builds_at_interval_ends():
    # minimize_L validates only its winner; both sector blocks of gamma_M have
    # determinant M1 - u^2 (M1+1), falling in u, so positive ends cover [1e-4, hi]
    assert np.array_equal(witness._SCHEDULE_HI, [schedule_u_max(m1) for m1 in SCHEDULE_M1])
    for m1, hi in zip(witness._SCHEDULE_M1, witness._SCHEDULE_HI):
        for u in (1e-4, hi):
            d = witness._schedule_detect(float(m1), float(u))
            assert d.m1 - u * u * (m1 + 1.0) > 0.0


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
    """det(g + gamma_M) / (4 (M1+1)^2) for the schedule operators at each u.

    gamma_M = D + K V V^T with K = M1 + 1, D = diag(-1, -1, 1, 1) and
    V = [e0 + u e2, e1 - u e3]; by the Schur complement the ratio is a quarter
    of det [[g + D, V], [-V^T, I/K]], whose entries are O(1).
    """
    k = m1 + 1.0
    v = np.zeros((us.size, 4, 2))
    v[:, 0, 0] = v[:, 1, 1] = 1.0
    v[:, 2, 0], v[:, 3, 1] = us, -us
    m = np.zeros((us.size, 6, 6))
    m[:, :4, :4] = g + np.diag([-1.0, -1.0, 1.0, 1.0])
    m[:, :4, 4:] = v
    m[:, 4:, :4] = -np.swapaxes(v, 1, 2)
    m[:, 4, 4] = m[:, 5, 5] = 1.0 / k
    return 0.25 * np.linalg.det(m)


def both_orders(state):
    """The standard form of a minimize_L input, then with the parties swapped."""
    sf = state if isinstance(state, StandardForm) else standard_form(state)
    return sf, StandardForm(a=sf.b, b=sf.a, c1=sf.c1, c2=sf.c2)


def test_minimize_L_is_schedule_minimum():
    # minimize_L takes the schedule on the standard form in both party orders,
    # and its winner is in the standard-form frame of the caller's party order
    wins = swapped = 0
    for state in minimize_L_inputs():
        lval, d = witness.minimize_L(state)
        sf, sf_swapped = both_orders(state)
        for g in (sf.to_cm(), sf_swapped.to_cm()):
            for m1 in SCHEDULE_M1:
                grid = np.linspace(1e-4, schedule_u_max(m1), 2001)
                assert schedule_ratios(g, m1, grid).min() >= lval * (1.0 - 1e-12)
        if d is not None:
            wins += 1
            swapped += d.m1 not in SCHEDULE_M1
            assert witness.L_ratio(sf.to_cm(), d) == pytest.approx(lval, rel=1e-11)
    assert wins > swapped > 0


def polyfit_minimize_L(state):
    """minimize_L by per-M1 np.polyfit, np.polyder and np.roots calls."""
    sf, sf_swapped = both_orders(state)
    a, b = max(sf.a, sf.b), min(sf.a, sf.b)
    c = 0.5 * (sf.c1 + sf.c2)
    best = 0.5 * (b + 1.0) - c * c / (2.0 * (a - 1.0)) if a > 1.0 else np.inf
    for g in (sf.to_cm(), sf_swapped.to_cm()):
        for m1 in SCHEDULE_M1:
            nodes = np.linspace(1e-4, schedule_u_max(m1), 5)
            fit = np.polyfit(nodes, schedule_ratios(g, m1, nodes), 4)
            us = np.concatenate((nodes, np.clip(np.roots(np.polyder(fit)).real, 1e-4,
                                                schedule_u_max(m1))))
            best = min(best, schedule_ratios(g, m1, us).min())
    return best


@pytest.mark.parametrize("nudged", [False, True])
@pytest.mark.parametrize("state", [validate_cm(np.eye(4)), StandardForm(1.0, 1.0, 0.0, 0.0),
                                   StandardForm(1.0, 2.0, 0.0, 0.0)])
def test_minimize_L_rounding_level_quartic(state, nudged):
    # the quartic is constant in u here: a = 1 and c1 = c2 = 0 leave the sector
    # quadratics no u terms. Nudged at the 1e-13 level, the derivative's
    # coefficients, the leading one included, are rounding-level but nonzero;
    # no division may warn or raise.
    g = state.to_cm() if isinstance(state, StandardForm) else state.entries
    if nudged:
        noise = 1e-14 * np.random.default_rng(3).uniform(-1.0, 1.0, size=(4, 4))
        g = g + 1e-13 * np.eye(4) + noise + noise.T
        state = validate_cm(g)
    sf, _ = both_orders(state)
    s = 0.5 * (sf.a - 1.0)
    for m1 in SCHEDULE_M1:
        # the derivative of (x0 - c1 u + s u^2)(p0 - c2 u + s u^2), highest power first
        base, k2 = (sf.a + m1) * (sf.b + 1.0), 2.0 * (m1 + 1.0)
        x0, p0 = (base - sf.c1**2) / k2, (base - sf.c2**2) / k2
        cubic = (4.0 * s * s, -3.0 * s * (sf.c1 + sf.c2),
                 2.0 * (s * (x0 + p0) + sf.c1 * sf.c2), -(sf.c2 * x0 + sf.c1 * p0))
        assert max(map(abs, cubic)) <= 1e-12 * x0 * p0 and (nudged or not any(cubic))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all(np.isfinite(witness._stationary_points(*cubic)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lval, _ = witness.minimize_L(state)
        ref = polyfit_minimize_L(state)
    assert abs(lval - ref) <= 1e-12 * ref


def test_minimize_L_against_50_digit_determinant():
    # every schedule win against det(sf + gamma_M) / (4 (M1+1)^2) at its (M1, u),
    # evaluated at 50 digits on the standard form in the winning party order;
    # u is recovered from M5 = u (M1+1)
    wins = 0
    for state in minimize_L_inputs():
        lval, d = witness.minimize_L(state)
        if d is None:
            continue
        wins += 1
        sf, sf_swapped = both_orders(state)
        if d.m1 not in SCHEDULE_M1:
            sf, d = sf_swapped, d.swapped()
        with mpmath.workdps(50):
            k = mpmath.mpf(d.m1) + 1
            u = mpmath.mpf(d.m5) / k
            m3, m5 = 1 + u * u * k, u * k
            gm = mpmath.matrix([[d.m1, 0, m5, 0], [0, d.m1, 0, -m5],
                                [m5, 0, m3, 0], [0, -m5, 0, m3]])
            want = mpmath.det(mpmath.matrix(sf.to_cm().tolist()) + gm) / (4 * k * k)
            assert abs(lval - want) <= 1e-14 * want
    assert wins > 0


def test_cubic_roots_with_vanishing_leading_coefficients():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = [sorted(witness._stationary_points(*d)) for d in (
            (2.0, -6.0, 4.0, 0.5),      # a proper cubic
            (0.0, 1.0, -3.0, 2.0),      # leading coefficient exactly 0
            (1e-30, 1.0, -3.0, 2.0),    # leading coefficient at rounding level
            (0.0, 0.0, 2.0, -1.0),      # two leading zeros
            (0.0, 0.0, 0.0, 0.0),       # a constant quartic
        )]
    np.testing.assert_allclose(roots[0], np.sort(np.roots([2.0, -6.0, 4.0, 0.5]).real),
                               atol=1e-14)
    # a dropped coefficient loses a root near infinity
    for row, finite in ((1, [1.0, 2.0]), (2, [1.0, 2.0]), (3, [0.5])):
        assert roots[row] == finite
    assert roots[4] == []
