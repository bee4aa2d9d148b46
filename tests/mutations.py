"""Named mutations of the package, each with the tests that must catch it.

    python tests/mutations.py [--id ID ...]

For each mutation the runner copies src/, tests/ and pyproject.toml into a
temporary directory, replaces one exact snippet in one file there, runs the
listed tests on the copy and prints "caught" when every listed test fails,
"survived" otherwise, and "broken" when the mutated copy raises NameError,
SyntaxError, ImportError, AttributeError or TypeError, since a failure of that
kind shows nothing about the tests; the exit code is 1 if any mutation
survived or broke. It is not part of tier-1: tests/test_mutations.py only
checks that each old snippet still occurs exactly once in its file, so a
change to a guarded line must update its mutation too.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutation(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    tests: tuple


MUTATIONS = [
    # the four two-mode invariants formed in float64 from the scaled entries
    # instead of as exact ints: the spectra lose digits where Delta^2 - 4 det
    # gamma or det gamma cancels
    Mutation(
        id="invariants-in-float",
        file="src/cvwitness/symplectic.py",
        old="    return det_a, det_b, det_c, det, k\n",
        new=("    f = [float(x) for x in (g00, g01, g02, g03, g11, g12, g13, g22, g23, g33)]\n"
             "    return (int(f[0] * f[4] - f[1] * f[1]), int(f[7] * f[9] - f[8] * f[8]),\n"
             "            int(f[2] * f[6] - f[3] * f[5]), int(np.linalg.det(np.ldexp(entries, k))), k)\n"),
        tests=("tests/test_symplectic.py::test_two_mode_spectra_against_60_digit_oracle",
               "tests/test_symplectic.py::test_near_degenerate_two_mode_spectra_against_60_digit_oracle"),
    ),
    # acceptance 4: one K/N coefficient of the generating-function side off by
    # 1e-6 relative; the fock_elements tensor side is untouched
    Mutation(
        id="acceptance-4-generating-coefficient",
        file="src/cvwitness/fock.py",
        old="    k6 = 0.5 * (-np.sqrt(x * y) * m6 + m5 / np.sqrt(x * y))\n",
        new="    k6 = 0.5 * (-np.sqrt(x * y) * m6 + (1.0 + 1e-6) * m5 / np.sqrt(x * y))\n",
        tests=("tests/test_acceptance.py::test_acceptance_4_fock_cross_path",),
    ),
    # acceptance 9: the detect correction taken as L^T ccm^-1 L, not its half;
    # the ladder-operator oracle is test-side
    Mutation(
        id="acceptance-9-detect-correction",
        file="src/cvwitness/nongaussian.py",
        old="    return a0, 0.25 * (af + af.T)  # the half of L^T ccm^-1 L, symmetrized\n",
        new="    return a0, 0.5 * (af + af.T)  # the half of L^T ccm^-1 L, symmetrized\n",
        tests=("tests/test_acceptance.py::test_acceptance_9_ngpasg_fock_oracle",),
    ),
    # acceptance 10: the Werner-Wolf closed form with its |E F| term halved;
    # the certificate search is untouched
    Mutation(
        id="acceptance-10-werner-wolf-margin",
        file="src/cvwitness/criteria.py",
        old="    margin = (a * c - e * e) * (b * d - f * f) - 2 * abs(e * f) - c * d - a * b + 1\n",
        new="    margin = (a * c - e * e) * (b * d - f * f) - abs(e * f) - c * d - a * b + 1\n",
        tests=("tests/test_acceptance.py::test_acceptance_10_werner_wolf_closed_form_vs_search",),
    ),
    # the family sign filter off: every candidate keeps its closed form, whose
    # word the mismatch b - a can flip at large a
    Mutation(
        id="family-guard-off",
        file="src/cvwitness/criteria.py",
        old=("    return [v for v in out"
             " if not (v.margin < 0 < simon or simon < 0 < v.margin)]\n"),
        new="    return out\n",
        tests=("tests/test_criteria.py::test_family_verdicts_cannot_flip_the_word_at_scale",
               "tests/test_cli.py::test_family_shortcut_is_dropped_where_the_mismatch_can_flip_it"),
    ),
    # the four properties of tests/test_properties.py, one mutation each.
    # Local symplectic invariance: standard_form takes a from the first entry of
    # A, which is sqrt(det A) on an undressed form only
    Mutation(
        id="property-local-symplectic",
        file="src/cvwitness/symplectic.py",
        old=("        return StandardForm(a=unscale(ra, 1, k + t), b=unscale(rb, 1, k + t),"
             " c1=c1, c2=c2)\n"),
        new=("        return StandardForm(a=float(self.entries[0, 0]), b=unscale(rb, 1, k + t),"
             " c1=c1, c2=c2)\n"),
        tests=("tests/test_properties.py::test_invariant_under_local_symplectic_maps",),
    ),
    # party swap: minimize_L takes the schedule in the given party order only
    Mutation(
        id="property-party-swap",
        file="src/cvwitness/witness.py",
        old="    for swapped, (p, q) in enumerate(((sa, sb), (sb, sa))):\n",
        new="    for swapped, (p, q) in enumerate(((sa, sb),)):\n",
        tests=("tests/test_properties.py::test_invariant_under_party_swap",),
    ),
    # added noise: the infinite-parameter limit of minimize_L with the mean
    # coupling doubled, which puts L below 1 on separable states
    Mutation(
        id="property-added-noise",
        file="src/cvwitness/witness.py",
        old=("        limit = symplectic.unscale(den + 4 * (A - one) * (B - one)"
             " - (C1 + C2) ** 2, den, 0)\n"),
        new=("        limit = symplectic.unscale(den + 4 * (A - one) * (B - one)"
             " - 4 * (C1 + C2) ** 2, den, 0)\n"),
        tests=("tests/test_properties.py::test_noise_keeps_separable_states_separable",),
    ),
    # Simon agreement: the symmetric closed form with the sign of c2 flipped. The
    # family sign filter drops the wrong factor where its word differs, so the
    # property test passes by construction; the factor test catches it
    Mutation(
        id="property-simon-agreement",
        file="src/cvwitness/criteria.py",
        old=('    return Verdict("symmetric_two_mode",'
             ' float((a - abs(c1)) * (a - abs(c2)) - 1.0))\n'),
        new=('    return Verdict("symmetric_two_mode",'
             ' float((a - abs(c1)) * (a + abs(c2)) - 1.0))\n'),
        tests=("tests/test_criteria.py::"
               "test_family_closed_forms_are_simon_factors_in_every_coupling_frame[symmetric]",),
    ),
    # Simon agreement, in the band: the squeezed-thermal margin scaled by 1e-10
    # keeps every sign, so the family filter keeps it, but it reads "boundary"
    # where Simon reads "entangled" or "satisfied"
    Mutation(
        id="property-simon-agreement-band",
        file="src/cvwitness/criteria.py",
        old='    return Verdict("squeezed_thermal", float((a - 1.0) * (b - 1.0) - c * c))\n',
        new='    return Verdict("squeezed_thermal", 1e-10 * float((a - 1.0) * (b - 1.0) - c * c))\n',
        tests=("tests/test_properties.py::"
               "test_kernel_verdict_agrees_with_simon_on_closed_form_families",),
    ),
    # the Werner-Wolf certificate from the interval ends only, without the
    # stationary points: an interior maximum of h near the boundary is missed
    Mutation(
        id="ww-certificate-ends-only",
        file="src/cvwitness/criteria.py",
        old=("    us = [lo, hi, *witness._stationary_points("
             "0.0, *_stationarity_coefficients(A, B, C, D, E, F))]\n"),
        new="    us = [lo, hi]\n",
        tests=("tests/test_ww_certificate.py::test_ww_pair_near_boundary[1e-07]",
               "tests/test_ww_certificate.py::test_refined_search_near_boundary[1e-07]",
               "tests/test_acceptance.py::test_acceptance_10_werner_wolf_closed_form_vs_search"),
    ),
    # the product certificate returned without its float recheck: on rounded
    # pure product states the solved pair can sit an ulp outside the inequalities
    Mutation(
        id="certificate-float-recheck-off",
        file="src/cvwitness/criteria.py",
        old="    if min(s1, s2, s3, s4) >= 0 and s1 * s2 >= E * E and s3 * s4 >= F * F:\n",
        new="    if True:\n",
        tests=("tests/test_ww_certificate.py::"
               "test_every_certificate_passes_the_float_test_on_pure_product_states",
               "tests/test_ww_certificate.py::test_certificate_an_ulp_outside_is_refused"),
    ),
    # each value's mantissa cut to 52 bits on its way to an int: the invariants
    # are off wherever a lowest mantissa bit is set
    Mutation(
        id="invariants-mantissa-bit",
        file="src/cvwitness/symplectic.py",
        old="    return [int(math.ldexp(m, 53)) << (e - 53 + k) if m else 0\n",
        new="    return [int(math.ldexp(m, 52)) << (e - 52 + k) if m else 0\n",
        tests=("tests/test_symplectic.py::"
               "test_two_mode_invariants_equal_exact_rational_determinants",),
    ),
    # the float64-range rule of a standard form lifted from its type: each
    # command meets 1e160 I4 downstream, with its own answer
    Mutation(
        id="standard-form-range-check-off",
        file="src/cvwitness/symplectic.py",
        old=("        if not math.isfinite(a * a + b * b + c1 * c1 + c2 * c2):\n"
             '            raise ValidationError("the standard form is beyond float64 range")\n'),
        new="",
        tests=("tests/test_cli.py::test_one_answer_per_state_beyond_float64_range",),
    ),
    # the Simon margin as the quartic in float on the standard form, a CM's
    # reduced first: at a = 2e14 it cancels to -3.3e27 where the exact margin is 0
    Mutation(
        id="simon-margin-in-float",
        file="src/cvwitness/criteria.py",
        old=("    det_a, det_b, det_c, det, k = state.invariants"
             "  # det gamma at scale 2^4k, the rest at 2^2k\n"
             "    margin = det - (det_a + det_b + 2 * abs(det_c) << 2 * k) + (1 << 4 * k)\n"
             '    return Verdict("simon", symplectic.unscale(margin, 1, 4 * k))\n'),
        new=("    sf = standard_form(state) if isinstance(state, CovarianceMatrix) else state\n"
             "    a, b, c1, c2 = sf.a, sf.b, sf.c1, sf.c2\n"
             "    margin = (a * b - c1**2) * (a * b - c2**2) - 2 * abs(c1 * c2) - a**2 - b**2 + 1\n"
             '    return Verdict("simon", float(margin))\n'),
        tests=("tests/test_criteria.py::test_simon_margin_is_exact_at_the_boundary[1e-16]",
               "tests/test_criteria.py::test_simon_margin_is_exact_at_the_boundary[-1e-15]",
               "tests/test_cli.py::test_check_gaussian_reads_the_boundary_exactly[1e-16]"),
    ),
    # decide gives a raw two-mode CM the Simon margin of its rounded standard
    # form's rebuilt CM, not the exact margin of the CM it was given
    Mutation(
        id="decide-simon-of-the-standard-form",
        file="src/cvwitness/criteria.py",
        old="            return [simon_criterion(state)]\n",
        new="            return [simon_criterion(standard_form(state))]\n",
        tests=("tests/test_criteria.py::test_simon_margin_of_a_raw_cm_is_its_own_exact_margin",),
    ),
    # standard_form without its refusal of a block with a diagonal entry <= 0:
    # -2 I has the determinant of 2 I and reduces as if it were positive
    Mutation(
        id="standard-form-diagonal-check-off",
        file="src/cvwitness/symplectic.py",
        old="        if (min(self.entries[0, 0], self.entries[2, 2]) <= 0\n",
        new="        if (False\n",
        tests=("tests/test_symplectic.py::test_standard_form_rejects_negative_definite_block[0]",
               "tests/test_symplectic.py::test_standard_form_rejects_negative_definite_block[2]"),
    ),
    # kernel_verdict filters and guards its words by the Simon margin of its rounded
    # standard form's rebuilt CM, a second set of invariants, not by the kernel's own
    Mutation(
        id="kernel-filter-of-the-rounded-form",
        file="src/cvwitness/criteria.py",
        old="    simon = simon_criterion(cm)\n",
        new="    simon = simon_criterion(sf)\n",
        tests=("tests/test_criteria.py::test_kernel_closed_forms_never_oppose_the_exact_margin",
               "tests/test_criteria.py::test_kernel_verdict_forms_the_invariants_once[closed]",
               "tests/test_criteria.py::test_kernel_verdict_forms_the_invariants_once[L]"),
    ),
    # the infinite-parameter limit of minimize_L in float: (b+1)/2 - c^2/(2(a-1))
    # cancels to -0.015625 at a = 2e14 where the exact limit is 1
    Mutation(
        id="witness-limit-in-float",
        file="src/cvwitness/witness.py",
        old=("        limit = symplectic.unscale(den + 4 * (A - one) * (B - one)"
             " - (C1 + C2) ** 2, den, 0)\n"),
        new=("        limit = 0.5 * (b + 1.0) - (0.5 * (c1 + c2)) ** 2 / (2.0 * (a - 1.0))\n"),
        tests=("tests/test_witness.py::test_minimize_L_limit_is_exact_at_the_boundary[1e-16]",
               "tests/test_witness.py::test_minimize_L_limit_is_exact_at_the_boundary[-1e-15]",
               "tests/test_cli.py::test_witness_optimize_reads_the_boundary_exactly[1e-16]"),
    ),
    # minimize_L takes a standard form's couplings as given, not in the frame
    # c1 >= |c2|: a form with negative couplings gets a larger L than its CM
    Mutation(
        id="minimize-L-coupling-frame-off",
        file="src/cvwitness/witness.py",
        old="    c1, c2 = max(abs(c1), abs(c2)), math.copysign(min(abs(c1), abs(c2)), c1 * c2)\n",
        new="",
        tests=("tests/test_witness.py::test_minimize_L_of_a_standard_form_is_that_of_its_cm",),
    ),
    # the multimode spectrum as the first n moduli of i sigma gamma, not one per
    # +/- pair: nu_1 twice, and nu_n never
    Mutation(
        id="multimode-spectrum-whole-pairs",
        file="src/cvwitness/symplectic.py",
        old="    return _moduli(cm.entries)[::2]\n",
        new="    return _moduli(cm.entries)[:cm.n]\n",
        tests=("tests/test_symplectic.py::test_multimode_spectrum_is_the_williamson_spectrum[3]",
               "tests/test_symplectic.py::test_multimode_spectrum_is_the_williamson_spectrum[4]"),
    ),
    # partial_transpose checks the party count only: a partition of another mode
    # count flips the momenta it names and gives a number
    Mutation(
        id="partition-size-unchecked",
        file="src/cvwitness/symplectic.py",
        old="    if partition.n != cm.n or len(labels) != 2:\n",
        new="    if len(labels) != 2:\n",
        tests=("tests/test_symplectic.py::test_ppt_statistic_refuses_a_partition_that_is_not_a_"
               "bipartition_of_the_modes[three-labels-on-two-modes]",
               "tests/test_symplectic.py::test_ppt_statistic_refuses_a_partition_that_is_not_a_"
               "bipartition_of_the_modes[two-labels-on-three-modes]"),
    ),
    # kernel_verdict returns its closed form or L word unguarded: L of a rounded
    # standard form can read below 1 where the kernel's exact Simon margin is positive
    Mutation(
        id="kernel-ratio-word-unguarded",
        file="src/cvwitness/criteria.py",
        old="    return simon if closed[-1].margin < 0 < simon.margin else closed[-1]\n",
        new="    return closed[-1]\n",
        tests=("tests/test_criteria.py::"
               "test_kernel_words_never_call_a_separable_kernel_entangled",),
    ),
    # L_ratio coerces a raw gamma without validate_cm: a non-state reads as a witness value
    Mutation(
        id="raw-state-unvalidated",
        file="src/cvwitness/witness.py",
        old=("    g = (gamma if isinstance(gamma, CovarianceMatrix)"
             " else validate_cm(gamma)).entries\n"),
        new=("    g = gamma.entries if isinstance(gamma, CovarianceMatrix)"
             " else np.asarray(gamma, float)\n"),
        tests=("tests/test_witness.py::test_L_ratio_refuses_a_raw_array_that_is_not_a_state"
               "[minus-three-identity]",
               "tests/test_witness.py::test_L_ratio_refuses_a_raw_array_that_is_not_a_state"
               "[negative-first-block]"),
    ),
    # the one validate of a parameterized state returns it unchecked: an unphysical
    # standard form or named family parses and is decided
    Mutation(
        id="state-validate-skipped",
        file="src/cvwitness/symplectic.py",
        old="        validate_cm(self.to_cm())\n        return self\n",
        new="        return self\n",
        tests=tuple(f"tests/test_cli.py::{name}" for name in (
            "test_parse_state_rejects_invalid_family_input[doc0-/standard_form]",
            "test_parse_state_rejects_invalid_family_input[doc3-]",
            "test_parse_state_rejects_invalid_family_input[doc4-]",
            "test_parse_state_rejects_invalid_family_input[doc6-]",
            "test_check_gaussian_unphysical_family_exit_code[doc0]",
            "test_check_gaussian_unphysical_family_exit_code[doc1]")),
    ),
    # minimize_L wraps a raw gamma without validate_cm: a non-state meets
    # DegenerateBlock or reads as a witness value, not NotPhysical or NotSymmetric
    Mutation(
        id="minimize-L-raw-unvalidated",
        file="src/cvwitness/witness.py",
        old="        gamma if isinstance(gamma, CovarianceMatrix) else validate_cm(gamma))\n",
        new=("        gamma if isinstance(gamma, CovarianceMatrix)"
             " else CovarianceMatrix(np.asarray(gamma, float)))\n"),
        tests=tuple("tests/test_witness.py::test_minimize_L_refuses_a_raw_array_that_is_not_a_state"
                    f"[{case}]" for case in ("minus-three-identity", "negative-first-block",
                                             "asymmetric")),
    ),
    # a detect operator without its one positivity rule: an indefinite gamma_M
    # is built, and Lambda then meets a negative radicand or determinant
    Mutation(
        id="detect-psd-unchecked",
        file="src/cvwitness/witness.py",
        old="        require_psd(self.least_eigenvalue(*params))\n",
        new="",
        tests=("tests/test_witness.py::test_detect_operator_positivity_check",),
    ),
    # a quadratic with complex roots gives no candidate instead of its vertex
    Mutation(
        id="quadratic-vertex-dropped",
        file="src/cvwitness/witness.py",
        old="            return [-0.5 * d1 / d2]\n",
        new="            return []\n",
        tests=("tests/test_witness.py::test_quadratic_without_real_roots_gives_its_vertex",),
    ),
    # the flag contract's default is the value a handler reads: sweep-fig1 at
    # cutoff 5 writes other bytes
    Mutation(
        id="cli-table-default",
        file="src/cvwitness/cli.py",
        old='{"seed": _REQUIRED, "output": _REQUIRED, "samples": 200, "cutoff": 6}),\n',
        new='{"seed": _REQUIRED, "output": _REQUIRED, "samples": 200, "cutoff": 5}),\n',
        tests=("tests/test_cli.py::test_sweep_csv_checksums",),
    ),
]


def failing_tests(output):
    """Node ids on the FAILED and ERROR lines of pytest's -rfE summary."""
    return {line.split()[1] for line in output.splitlines()
            if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1}


# errors that mean the mutated text no longer fits the code around it
BROKEN = ("NameError", "SyntaxError", "ImportError", "AttributeError", "TypeError")


def run(mutation):
    """Apply mutation to a copy of the tree and run its tests; "caught",
    "survived" or "broken"."""
    with tempfile.TemporaryDirectory(prefix="cvwitness-mutation-") as tmp:
        tmp = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tmp / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        path = tmp / mutation.file
        text = path.read_text()
        if text.count(mutation.old) != 1:
            raise SystemExit(f"{mutation.id}: old snippet does not occur exactly once")
        path.write_text(text.replace(mutation.old, mutation.new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *mutation.tests], cwd=tmp, env=env, capture_output=True, text=True)
        if any(f"{name}:" in proc.stdout for name in BROKEN):
            return "broken"
        return "caught" if set(mutation.tests) <= failing_tests(proc.stdout) else "survived"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--id", action="append", help="run only this mutation (repeatable)")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTATIONS if args.id is None or m.id in args.id]
    if args.id and len(chosen) != len(set(args.id)):
        parser.error(f"unknown id among {args.id}")
    start, caught = time.monotonic(), 0
    for m in chosen:
        t0 = time.monotonic()
        status = run(m)
        caught += status == "caught"
        print(f"{m.id}: {status} ({time.monotonic() - t0:.1f} s)", flush=True)
    print(f"{caught}/{len(chosen)} caught in {time.monotonic() - start:.1f} s")
    return 0 if caught == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
