import math
from fractions import Fraction

import numpy as np
import pytest

from cvwitness import criteria, families, nongaussian, symplectic, witness
from cvwitness.criteria import (
    BISEP_LARGE_C_BOUND,
    BISEP_THRESHOLD_C,
    Classification,
    GHZParams,
    SymmetricMultimodeParams,
    Verdict,
    WernerWolf2x2Params,
)
from cvwitness.errors import (
    ImpureLocalCM,
    NegativeC,
    NotPhysical,
    NotSymmetric,
    SchemaError,
    ValidationError,
)
from cvwitness.symplectic import (
    ModePartition,
    StandardForm,
    min_pt_symplectic_eigenvalue,
    standard_form,
    validate_cm,
)

from test_symplectic import dressed_cm, exact, exact_det, exact_minor


def test_simon_vacuum_boundary():
    v = criteria.simon_criterion(StandardForm(a=1.0, b=1.0, c1=0.0, c2=0.0))
    assert v.margin == pytest.approx(0.0, abs=1e-14)
    assert v.classification is Classification.BOUNDARY


@pytest.mark.parametrize("margin, word", [
    (float("-inf"), "entangled"), (-1e-6, "entangled"), (-1e-9, "entangled"),
    (-1.0000001e-12, "entangled"), (-1e-12, "boundary"), (0.0, "boundary"),
    (1e-9, "boundary"), (1.000001e-9, "satisfied"), (1e-3, "satisfied"),
    (float("inf"), "satisfied"),
])
def test_classification_band_edges(margin, word):
    # the words the command line has always printed at the edges of each band
    assert Verdict("x", margin).classification.value == word


def test_nan_margin_is_not_a_verdict():
    with pytest.raises(ValidationError):
        Verdict("x", float("nan"))


def test_simon_detects_tmsv():
    sf = standard_form(validate_cm(families.symmetric_squeezed_thermal(0.0, 0.4)))
    assert criteria.simon_criterion(sf).entangled


def test_simon_passes_thermal_product():
    sf = StandardForm(a=2.0, b=3.0, c1=0.0, c2=0.0)
    assert not criteria.simon_criterion(sf).entangled


def test_simon_agrees_with_ppt_on_random_states():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 200:
        m = rng.normal(size=(4, 4))
        try:
            cm = validate_cm(m @ m.T + rng.uniform(0.5, 2.0) * np.eye(4))
        except Exception:
            continue
        checked += 1
        margin = criteria.simon_criterion(standard_form(cm)).margin
        if abs(margin) <= 1e-9:
            continue
        nu = min_pt_symplectic_eigenvalue(cm, ModePartition.bipartite(1, 1))
        assert (margin < 0) == (nu < 1.0 - 1e-12)


def test_symmetric_two_mode_boundary_and_interior():
    assert criteria.symmetric_two_mode(2.0, 1.5, 2.0 - 1.0 / 0.5).margin == pytest.approx(0.0)
    assert criteria.symmetric_two_mode(2.0, 1.9, 1.9).entangled
    assert not criteria.symmetric_two_mode(2.0, 0.5, 0.5).entangled


def test_squeezed_thermal_matches_simon_sign():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a = rng.uniform(1.0, 4.0)
        b = rng.uniform(1.0, 4.0)
        c = rng.uniform(0.0, np.sqrt((a * b + 1) / 2))
        try:
            validate_cm(families.squeezed_thermal_cm(a, b, c))
        except Exception:
            continue
        st_margin = criteria.squeezed_thermal(a, b, c).margin
        simon = criteria.simon_criterion(StandardForm(a=a, b=b, c1=c, c2=c)).margin
        if abs(st_margin) > 1e-9 and abs(simon) > 1e-9:
            assert (st_margin < 0) == (simon < 0)


def exact_simon(sf):
    """The Simon margin of a float standard form, in exact rational arithmetic."""
    a, b, c1, c2 = (Fraction(x) for x in (sf.a, sf.b, sf.c1, sf.c2))
    return (a * b - c1 * c1) * (a * b - c2 * c2) - 2 * abs(c1 * c2) - a * a - b * b + 1


def exact_cm_simon(g):
    """det gamma - det A - det B - 2 |det C| + 1 of the float CM g, in exact rationals."""
    m = exact(g)
    return (exact_det(m) - exact_minor(m, 0, 0) - exact_minor(m, 2, 2)
            - 2 * abs(exact_minor(m, 0, 2)) + 1)


def boundary_cm(delta):
    """symmetric_squeezed_thermal(n, r) at n = 1e7 and e^(2r) = (2n + 1)(1 + delta),
    whose float CM has Simon margin exactly 0."""
    n = 1e7
    r = 0.5 * math.log((2 * n + 1) * (1 + delta))
    return validate_cm(families.symmetric_squeezed_thermal(n, r))


@pytest.mark.parametrize("delta", [1e-16, -1e-16, 1e-15, -1e-15])
def test_simon_margin_is_exact_at_the_boundary(delta):
    # the quartic in float on the standard form read -3.3e27, "entangled"
    cm = boundary_cm(delta)
    assert exact_cm_simon(cm.entries) == 0
    (simon,) = criteria.decide(cm)
    assert simon.margin == 0.0 and simon.classification is Classification.BOUNDARY


def near_boundary_dressed_cms(count=300):
    """Seeded squeezed thermal standard forms with c at 1e-8 relative either side of
    sqrt((a - 1)(b - 1)), dressed with local squeezing |s| <= 6 per mode."""
    rng = np.random.default_rng(41)
    cms = []
    for _ in range(count):
        a, b = rng.uniform(1.5, 4.0, size=2)
        c = np.sqrt((a - 1.0) * (b - 1.0)) * (1.0 + rng.choice([-1.0, 1.0]) * 1e-8)
        cms.append(dressed_cm(StandardForm(a, b, c, c), rng, squeeze=6.0))
    return cms


def test_simon_words_match_the_exact_margin_under_strong_squeezing():
    # the float quartic on a float reduction gave 11 of these the wrong word
    for cm in near_boundary_dressed_cms():
        want = Verdict("simon", float(exact_cm_simon(cm.entries))).classification
        assert criteria.decide(cm)[0].classification is want


def edge_dressed_cms(rng, count, draw_ab, epsilons):
    """count squeezed thermal forms, (a, b) = draw_ab(rng) and c = sqrt((a - 1)(b - 1))
    times 1 +- eps for eps drawn from epsilons, dressed with local squeezing |s| <= 3."""
    cms = []
    for _ in range(count):
        a, b = draw_ab(rng)
        eps = rng.choice([-1.0, 1.0]) * rng.choice(epsilons)
        c = math.sqrt((a - 1.0) * (b - 1.0)) * (1.0 + eps)
        cms.append(dressed_cm(StandardForm(a, b, c, c), rng, squeeze=3.0))
    return cms


def test_simon_margin_of_a_raw_cm_is_its_own_exact_margin():
    # decide gives a raw CM the exact margin of its own invariants, rounded once; the
    # rebuilt CM of its rounded standard form has another margin on each of these 4400
    wrong = 0
    for seed in (5, 6, 7, 8):
        cms = (edge_dressed_cms(np.random.default_rng(seed), 800,
                                lambda rng: 10.0 ** rng.uniform(2.0, 6.0, 2), [1e-14, 1e-15])
               + edge_dressed_cms(np.random.default_rng(seed), 300,
                                  lambda rng: rng.uniform(1.5, 4.0, 2), [1e-14]))
        wrong += sum(criteria.decide(cm)[0].margin != float(exact_cm_simon(cm.entries))
                     for cm in cms)
    assert wrong == 0


def raw_edge_cms(seed):
    """test_simon_margin_of_a_raw_cm_is_its_own_exact_margin's 1100 CMs of one seed."""
    return (edge_dressed_cms(np.random.default_rng(seed), 800,
                             lambda rng: 10.0 ** rng.uniform(2.0, 6.0, 2), [1e-14, 1e-15])
            + edge_dressed_cms(np.random.default_rng(seed), 300,
                               lambda rng: rng.uniform(1.5, 4.0, 2), [1e-14]))


def test_kernel_closed_forms_never_oppose_the_exact_margin():
    # filtered by the margin of its rounded standard form's rebuilt CM, seed 7 kept a
    # squeezed-thermal -5.4e-4 where the CM's exact margin is +0.453
    opposed = []
    for seed in (5, 6, 7, 8):
        for cm in raw_edge_cms(seed):
            v = criteria.kernel_verdict(cm)
            if v.criterion_id != "determinant_ratio":
                simon = exact_cm_simon(cm.entries)
                if v.margin < 0 < simon or simon < 0 < v.margin:
                    opposed.append((seed, v, float(simon)))
    assert opposed == []


def test_kernel_words_never_call_a_separable_kernel_entangled():
    # a separable state has L >= 1, and a kept closed form agrees in sign with the
    # exact margin: below 0 where that margin is above 0, any word is a rounding.
    # L of seed 7 #372's rounded standard form read -2.0e-12 where the margin is +0.453
    wrong = []
    for seed in (5, 6, 7, 8):
        for i, cm in enumerate(raw_edge_cms(seed)):
            v = criteria.kernel_verdict(cm)
            if v.margin < 0 < exact_cm_simon(cm.entries):
                wrong.append((seed, i, v))
    assert wrong == []


@pytest.mark.parametrize("form", [StandardForm(3.0, 2.0, 1.0, 1.0),
                                  StandardForm(3.0, 2.0, 1.0, 0.5)], ids=["closed", "L"])
def test_kernel_verdict_forms_the_invariants_once(monkeypatch, form):
    # the kernel's own cached invariants give both its standard form and the Simon
    # margin its closed forms are filtered by
    calls, original = [], symplectic.two_mode_invariants

    def counted(entries):
        calls.append(entries)
        return original(entries)

    monkeypatch.setattr(symplectic, "two_mode_invariants", counted)
    criteria.kernel_verdict(form.to_cm())
    assert len(calls) == 1


def test_decide_standard_form_forms_simon_once(monkeypatch):
    calls, original = [], criteria.simon_criterion

    def counted(state):
        calls.append(state)
        return original(state)

    monkeypatch.setattr(criteria, "simon_criterion", counted)
    got = criteria.decide(StandardForm(a=3.0, b=3.0, c1=2.0, c2=2.0))
    assert [v.criterion_id for v in got] == ["simon", "squeezed_thermal", "symmetric_two_mode"]
    assert len(calls) == 1


def test_family_verdicts_cannot_flip_the_word_at_scale():
    # squeezed thermal states 1e-6..1e-2 from the PPT boundary with b a little
    # above a, 400 in each band a in [1e4, 1e6], ..., [1e12, 1e14]: a symmetric
    # closed form that reads a alone and drops b - a <= 1e-3 says "entangled"
    # on many separable ones unless the mismatch is weighed against the margin
    rng = np.random.default_rng(2026)
    kept = 0
    for lo in (4, 6, 8, 10, 12):
        a = 10.0 ** rng.uniform(lo, lo + 2, 400)
        b = a + rng.uniform(0.0, 1e-3, 400)
        c = a - (1.0 + rng.choice([-1.0, 1.0], 400) * 10.0 ** rng.uniform(-6.0, -2.0, 400))
        for sf in map(StandardForm, a.tolist(), b.tolist(), c.tolist(), c.tolist()):
            closed = criteria.family_verdicts(sf, criteria.simon_criterion(sf).margin)
            kept += len(closed)
            if exact_simon(sf) > 0:
                assert not any(v.entangled for v in closed), (sf, closed)
    # the exact c1 = c2 match keeps the squeezed-thermal form on every state
    assert kept >= 2000


def family_forms(rng, family, count=100):
    """Seeded physical squeezed thermal (c1 = c2 = c) or symmetric (a = b) standard
    forms with c1, c2 >= 0, their closed-form factor at least 1e-2 from 0."""
    forms = []
    while len(forms) < count:
        a, b, c1, c2 = rng.uniform([1.0, 1.0, 0.0, 0.0], [4.0, 4.0, 3.0, 3.0])
        if family == "squeezed_thermal":
            c2 = c1
            factor = (a - 1) * (b - 1) - c1 * c1
        else:
            b = a
            factor = (a - c1) * (a - c2) - 1
        if abs(factor) < 1e-2:
            continue
        try:
            forms.append(StandardForm(a, b, c1, c2).validate())
        except NotPhysical:
            pass
    return forms


@pytest.mark.parametrize("family", ["squeezed_thermal", "symmetric"])
def test_family_closed_forms_are_simon_factors_in_every_coupling_frame(family):
    # the closed form times the other factor is the Simon margin, whatever the
    # coupling signs; c1 = -c2 is no squeezed-thermal candidate, so that family
    # takes the two patterns with c1 = c2
    rng = np.random.default_rng(34)
    signs = [(1, 1), (-1, -1)] + ([(1, -1), (-1, 1)] if family == "symmetric" else [])
    for sf in family_forms(rng, family):
        for s1, s2 in signs:
            form = StandardForm(sf.a, sf.b, s1 * sf.c1, s2 * sf.c2)
            closed = criteria.family_verdicts(form, criteria.simon_criterion(form).margin)
            assert [v.criterion_id for v in closed] == [
                "squeezed_thermal" if family == "squeezed_thermal" else "symmetric_two_mode"]
            a, b, p, q = form.a, form.b, abs(form.c1), abs(form.c2)
            other = (a + 1) * (b + 1) - p * p if family == "squeezed_thermal" else (
                (a + p) * (a + q) - 1)
            want = exact_simon(form)
            assert abs(closed[0].margin * other - want) <= 1e-12 * abs(want), (form, closed)


def test_werner_wolf_margin_sign_vs_pair_search():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 50:
        vals = rng.uniform(0.5, 4.0, size=4)
        e = rng.uniform(-1.5, 1.5)
        f = rng.uniform(-1.5, 1.5)
        p = WernerWolf2x2Params(A=vals[0], B=vals[1], C=vals[2], D=vals[3], E=e, F=f)
        try:
            p.validate()
        except Exception:
            continue
        checked += 1
        m = criteria.werner_wolf_2x2(p).margin
        if abs(m) < 1e-3:
            continue
        assert (m >= 0) == criteria.ww_pair_exists(p)


def test_multimode_symmetric_boundary():
    p = SymmetricMultimodeParams(n=3, a=2.0, b=2.0, c1=0.5, c2=(2.0 - 1.0 / 1.5) / 2)
    assert criteria.multimode_symmetric_full_sep(p).margin == pytest.approx(0.0)


def test_ghz_margins():
    assert criteria.ghz_full_sep(2.0, 0.5, 3).margin == pytest.approx(0.5)
    assert criteria.ghz_full_sep(1.2, 0.5, 3).entangled
    # negative c branch uses b + c - 1 with b = a + (n-2)c
    v = criteria.ghz_full_sep(2.0, -0.4, 3)
    assert v.margin == pytest.approx((2.0 - 0.4) + (-0.4) - 1.0)


def test_three_mode_constants():
    assert BISEP_THRESHOLD_C == pytest.approx(0.293190, abs=1e-5)
    assert BISEP_LARGE_C_BOUND == pytest.approx(0.812214, abs=1e-5)


def test_three_mode_branches_continuous_at_threshold():
    c = BISEP_THRESHOLD_C
    large = criteria.BISEP_LARGE_C_BOUND + c
    small = 0.5 * np.sqrt(c * c + 4.0 / 9.0) + 2.0 * np.sqrt(c * c + 1.0 / 9.0) - 0.5 * c
    assert large == pytest.approx(small, abs=1e-9)


def test_three_mode_biseparable_rejects_negative_c():
    with pytest.raises(NegativeC):
        criteria.three_mode_biseparable(1.0, -0.1)


def test_three_mode_small_c_zero_coupling():
    # c = 0: bound is 1/3 + 2/3 = 1, the vacuum-scale boundary
    v = criteria.three_mode_biseparable(1.0, 0.0)
    assert v.margin == pytest.approx(0.0, abs=1e-12)


def test_biseparability_certificate_residuals():
    for c in (0.05, 0.2, BISEP_THRESHOLD_C, 0.5, 1.0):
        bound = 1.0 - criteria.three_mode_biseparable(1.0, c).margin
        x, s, res = criteria.biseparability_certificate(bound, c)
        assert x > 0
        # first and fourth constraints bind exactly at the boundary
        assert res[0] == pytest.approx(0.0, abs=1e-12)
        assert res[3] == pytest.approx(0.0, abs=1e-12)
        assert res[1] >= -1e-12 and res[2] >= -1e-12
        # x solves x - 1/x + sinh(2s) = 0
        assert x - 1.0 / x + np.sinh(2 * s) == pytest.approx(0.0, abs=1e-12)


def test_biseparability_certificate_rejects_negative_c():
    with pytest.raises(NegativeC):
        criteria.biseparability_certificate(2.0, -0.1)


def test_biseparability_certificate_margin_shift():
    c = 0.6
    bound = 1.0 - criteria.three_mode_biseparable(1.0, c).margin
    _, _, res = criteria.biseparability_certificate(bound + 0.25, c)
    assert res[0] == pytest.approx(0.25, abs=1e-12)
    assert res[3] == pytest.approx(0.25, abs=1e-12)


def test_refined_ww_check_direct():
    g = families.squeezed_thermal_cm(2.0, 2.0, 0.5)
    assert criteria.refined_ww_check(g, np.eye(2), np.eye(2))
    with pytest.raises(ImpureLocalCM):
        criteria.refined_ww_check(g, 2.0 * np.eye(2), np.eye(2))


def test_refined_ww_check_refuses_locals_that_do_not_cover_the_modes():
    with pytest.raises(ValueError, match="do not match the full CM"):
        criteria.refined_ww_check(np.eye(4), np.eye(2))


@pytest.mark.parametrize("locals_", [(np.eye(2),) * 3, (np.eye(4), np.eye(2))],
                         ids=["three-single-modes", "two-modes-and-one"])
def test_refined_ww_check_refuses_locals_beyond_the_modes(locals_):
    with pytest.raises(ValueError, match="do not match the full CM"):
        criteria.refined_ww_check(3.0 * np.eye(4), *locals_)


def test_refined_ww_check_checks_every_local_before_the_dimensions():
    with pytest.raises(ImpureLocalCM):
        criteria.refined_ww_check(3.0 * np.eye(4), np.eye(4), np.eye(2), 2.0 * np.eye(2))


def test_refined_ww_check_refuses_raw_arrays_that_are_not_symmetric():
    # eigvalsh reads one triangle, so unvalidated both read as a separability certificate
    skewed = 3.0 * np.eye(4)
    skewed[0, 2] = 50.0
    with pytest.raises(NotSymmetric):
        criteria.refined_ww_check(skewed, np.eye(2), np.eye(2))
    with pytest.raises(NotSymmetric):
        criteria.refined_ww_check(3.0 * np.eye(4), np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))


def test_refined_ww_check_takes_covariance_matrices_as_validated(monkeypatch):
    cms = [validate_cm(3.0 * np.eye(4)), validate_cm(np.eye(2)), validate_cm(np.eye(2))]

    def refuse(entries):
        raise AssertionError("a CovarianceMatrix was validated again")

    monkeypatch.setattr(criteria, "validate_cm", refuse)
    assert criteria.refined_ww_check(*cms)


def test_refined_ww_search_finds_certificate_for_separable():
    sf = StandardForm(a=2.0, b=2.0, c1=0.5, c2=0.5)
    found = criteria.refined_ww_search(sf)
    assert found is not None
    x, y = found
    assert criteria.refined_ww_check(sf.to_cm(), np.diag([1.0 / x, x]), np.diag([y, 1.0 / y]))


def test_refined_ww_search_fails_for_entangled():
    sf = standard_form(validate_cm(families.symmetric_squeezed_thermal(0.0, 0.5)))
    assert criteria.refined_ww_search(sf) is None


def test_refined_ww_search_matches_squeezed_thermal_margin():
    rng = np.random.default_rng(41)
    for _ in range(20):
        a = rng.uniform(1.1, 3.0)
        b = rng.uniform(1.1, 3.0)
        c = rng.uniform(0.0, np.sqrt((a - 1) * (b - 1)) * 1.4)
        try:
            validate_cm(families.squeezed_thermal_cm(a, b, c))
        except Exception:
            continue
        margin = criteria.squeezed_thermal(a, b, c).margin
        if abs(margin) < 1e-3:
            continue
        found = criteria.refined_ww_search(StandardForm(a=a, b=b, c1=c, c2=c))
        assert (found is not None) == (margin >= 0)


def test_decide_standard_form_gives_simon_then_its_closed_forms():
    # squeezed thermal (c1 = c2) and symmetric (a = b) at once, in family_verdicts order
    sf = StandardForm(a=3.0, b=3.0, c1=2.0, c2=2.0)
    got = criteria.decide(sf)
    simon = criteria.simon_criterion(sf)
    assert got == [simon, *criteria.family_verdicts(sf, simon.margin)]
    assert [v.criterion_id for v in got] == ["simon", "squeezed_thermal", "symmetric_two_mode"]
    assert [v.criterion_id for v in criteria.decide(StandardForm(3.0, 2.0, 1.0, 0.5))] == ["simon"]


def test_decide_two_mode_cm_gives_simon_on_its_standard_form():
    cm = validate_cm(families.squeezed_thermal_cm(2.5, 1.5, 0.8))
    assert criteria.decide(cm) == [criteria.simon_criterion(standard_form(cm))]


def test_decide_named_families():
    ww = WernerWolf2x2Params(2.0, 2.0, 2.0, 2.0, 0.5, 0.5)
    assert criteria.decide(ww) == [criteria.werner_wolf_2x2(ww)]
    sym = SymmetricMultimodeParams(3, 2.0, 2.0, 0.3, 0.3)
    assert criteria.decide(sym) == [criteria.multimode_symmetric_full_sep(sym)]
    ghz = GHZParams(3, 2.0, 0.3)
    assert criteria.decide(ghz) == [criteria.ghz_full_sep(2.0, 0.3, 3)]


def test_decide_refuses_multimode_cm_and_other_states():
    cm = validate_cm(families.ghz_cm(3, 2.0, 0.3))
    with pytest.raises(SchemaError, match="raw multimode CMs need a named-family description"):
        criteria.decide(cm)
    kernel = validate_cm(families.squeezed_thermal_cm(2.0, 2.0, 1.0))
    spec = nongaussian.NGPASGSpec(kernel=kernel, adds=(1, 1), subs=(0, 0))
    with pytest.raises(SchemaError, match="state type not supported by check-gaussian"):
        criteria.decide(spec)


def test_kernel_verdict_reduces_the_kernel_once(monkeypatch):
    calls = []

    def counted(cm):
        calls.append(cm)
        return symplectic.standard_form(cm)

    # the namespaces through which kernel_verdict can reach standard_form
    for module in (criteria, witness):
        monkeypatch.setattr(module, "standard_form", counted)
    assert nongaussian.kernel_verdict is criteria.kernel_verdict
    # neither squeezed thermal nor symmetric, so minimize_L decides
    v = criteria.kernel_verdict(validate_cm(StandardForm(3.0, 2.0, 1.0, 0.5).to_cm()))
    assert v.criterion_id == "determinant_ratio"
    assert len(calls) == 1


def test_kernel_verdict_refuses_another_mode_count():
    # a valid three-mode CM: standard_form, not kernel_verdict, refuses it
    with pytest.raises(ValueError, match="standard form is defined for two-mode states"):
        criteria.kernel_verdict(np.eye(6))
