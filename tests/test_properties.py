"""Properties every two-mode verdict path must have.

Entanglement does not change under local symplectic maps S_A (+) S_B or
under swapping the parties (Simon, PRL 84, 2726 (2000)), and adding
classical noise N >= 0 keeps a separable state separable. The paths are
the Simon criterion, minimize_L (through criteria.determinant_ratio) and
nongaussian.kernel_verdict, which must also agree with Simon on the
squeezed thermal and symmetric standard forms, where it uses their closed
forms. Examples are derandomized, so every run draws the same states.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cvwitness import criteria, nongaussian, witness
from cvwitness.criteria import Classification
from cvwitness.errors import NotPhysical
from cvwitness.symplectic import StandardForm, standard_form, validate_cm

from test_witness import local_symplectic

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)
SWAP = np.eye(4)[[2, 3, 0, 1]]


def random_state(rng, family=None):
    """A physical standard form as a CM: a, b in [1, 4], c1, c2 in [-2, 2];
    family "squeezed_thermal" sets c2 = c1, "symmetric" b = a."""
    while True:
        a, b, c1, c2 = rng.uniform([1.0, 1.0, -2.0, -2.0], [4.0, 4.0, 2.0, 2.0])
        if family == "squeezed_thermal":
            c2 = c1
        elif family == "symmetric":
            b = a
        try:
            return validate_cm(StandardForm(a=a, b=b, c1=c1, c2=c2).to_cm())
        except NotPhysical:
            continue


def verdicts(cm):
    """(word, value) per path: the Simon margin, L, and the kernel verdict's margin."""
    lval, _ = witness.minimize_L(cm)
    simon = criteria.simon_criterion(standard_form(cm))
    kernel = nongaussian.kernel_verdict(cm)
    return {"simon": (simon.classification, simon.margin),
            "minimize_L": (criteria.determinant_ratio(lval).classification, lval),
            "kernel_verdict": (kernel.classification, kernel.margin)}


def assert_same(got, want, scale):
    for path, (word, value) in want.items():
        assert got[path][0] is word, path
        # margins are polynomials of degree up to 4 in the entries: compare at that scale
        tol = 1e-12 * (abs(value) if path == "minimize_L" else scale**4)
        assert abs(got[path][1] - value) <= tol, (path, got[path][1], value)


@given(SEEDS)
@SETTINGS
def test_invariant_under_local_symplectic_maps(seed):
    rng = np.random.default_rng(seed)
    cm, s = random_state(rng), local_symplectic(rng)
    scale = np.abs(cm.entries).max()
    assert_same(verdicts(validate_cm(s @ cm.entries @ s.T)), verdicts(cm), scale)


@given(SEEDS)
@SETTINGS
def test_invariant_under_party_swap(seed):
    cm = random_state(np.random.default_rng(seed))
    swapped = validate_cm(SWAP @ cm.entries @ SWAP.T)
    assert_same(verdicts(swapped), verdicts(cm), np.abs(cm.entries).max())


@given(SEEDS)
@SETTINGS
def test_noise_keeps_separable_states_separable(seed):
    rng = np.random.default_rng(seed)
    cm = random_state(rng)
    while criteria.simon_criterion(standard_form(cm)).classification is Classification.ENTANGLED:
        cm = random_state(rng)
    r = rng.uniform(-1.0, 1.0, size=(4, 4))
    noise = 10.0 ** rng.uniform(-6.0, 0.0) * r @ r.T
    for path, (word, _) in verdicts(validate_cm(cm.entries + noise)).items():
        assert word is not Classification.ENTANGLED, path


@given(SEEDS, st.sampled_from(["squeezed_thermal", "symmetric"]))
@SETTINGS
def test_kernel_verdict_agrees_with_simon_on_closed_form_families(seed, family):
    cm = random_state(np.random.default_rng(seed), family)
    simon = criteria.simon_criterion(standard_form(cm))
    assert nongaussian.kernel_verdict(cm).classification is simon.classification
