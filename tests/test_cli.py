import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cvwitness import cli, criteria, nongaussian, symplectic, witness
from cvwitness.criteria import GHZParams, SymmetricMultimodeParams, WernerWolf2x2Params
from cvwitness.errors import SchemaError, ValidationError
from cvwitness.nongaussian import NGPASGSpec
from cvwitness.symplectic import (CovarianceMatrix, StandardForm, six_param_cm, standard_form,
                                  validate_cm)

from test_criteria import boundary_cm


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_state_squeezed_thermal():
    state = cli.parse_state({"family": "squeezed_thermal", "a": 3, "b": 3, "c": 2})
    assert isinstance(state, StandardForm)
    assert (state.a, state.b, state.c1, state.c2) == (3.0, 3.0, 2.0, 2.0)


def test_parse_state_raw_cm():
    state = cli.parse_state({"cm": np.eye(4).tolist()})
    assert isinstance(state, CovarianceMatrix)


def test_parse_state_odd_cm_rejected():
    with pytest.raises(SchemaError) as exc:
        cli.parse_state({"cm": np.eye(3).tolist()})
    assert "/cm" in str(exc.value)


def test_parse_state_unphysical_cm_rejected():
    with pytest.raises(SchemaError):
        cli.parse_state({"cm": (0.5 * np.eye(4)).tolist()})


def test_parse_state_missing_key_location():
    with pytest.raises(SchemaError) as exc:
        cli.parse_state({"family": "squeezed_thermal", "a": 3, "b": 3})
    assert "c" in str(exc.value)


def test_parse_state_werner_wolf():
    doc = {"family": "werner_wolf_2x2", "A": 2, "B": 2, "C": 2, "D": 2, "E": 0.5, "F": 0.5}
    assert isinstance(cli.parse_state(doc), WernerWolf2x2Params)


def test_parse_state_multimode_and_ghz():
    doc = {"family": "symmetric_multimode", "n": 3, "a": 2, "b": 2, "c1": 0.3, "c2": 0.3}
    assert isinstance(cli.parse_state(doc), SymmetricMultimodeParams)
    ghz = cli.parse_state({"family": "ghz", "n": 3, "a": 2, "c": 0.3})
    assert ghz == GHZParams(n=3, a=2.0, c=0.3)


def test_parse_state_ngpasg():
    doc = {
        "family": "ngpasg",
        "kernel": {"family": "squeezed_thermal", "a": 2, "b": 2, "c": 1},
        "add": [1, 1],
        "sub": [0, 0],
    }
    state = cli.parse_state(doc)
    assert isinstance(state, NGPASGSpec)
    assert state.adds == (1, 1)


def test_parse_state_ngpasg_bad_counts():
    for add, sub, location in (([1, -1], [0, 0], "/add"), ([True, 0], [0, 0], "/add"),
                               ([0, 0], [0, False], "/sub")):
        doc = {
            "family": "ngpasg",
            "kernel": {"cm": np.eye(4).tolist()},
            "add": add,
            "sub": sub,
        }
        with pytest.raises(SchemaError) as exc:
            cli.parse_state(doc)
        assert location in str(exc.value)


def test_check_gaussian_boundary_report(tmp_path, capsys):
    inp = write_json(tmp_path / "s.json", {"family": "squeezed_thermal", "a": 3, "b": 3, "c": 2})
    out = str(tmp_path / "report.json")
    rc = cli.main(["check-gaussian", "--input", inp, "--output", out])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert any("squeezed_thermal margin 0 boundary" in ln for ln in lines)
    report = json.loads(Path(out).read_text())
    ids = [c["criterion_id"] for c in report["criteria"]]
    assert "simon" in ids and "squeezed_thermal" in ids


@pytest.mark.parametrize("delta", [1e-16, -1e-16, 1e-15, -1e-15])
def test_check_gaussian_reads_the_boundary_exactly(tmp_path, capsys, delta):
    inp = write_json(tmp_path / "s.json", {"cm": boundary_cm(delta).entries.tolist()})
    out = tmp_path / "r.json"
    assert cli.main(["check-gaussian", "--input", inp, "--output", str(out)]) == 0
    assert capsys.readouterr().out == "simon margin 0 boundary\n"
    (simon,) = json.loads(out.read_text())["criteria"]
    assert simon == {"classification": "boundary", "criterion_id": "simon", "margin": 0.0}


def test_check_gaussian_cm_round_trip(tmp_path):
    g = np.diag([2.0, 2.0, 3.0, 3.0])
    inp = write_json(tmp_path / "s.json", {"cm": g.tolist()})
    out = str(tmp_path / "report.json")
    assert cli.main(["check-gaussian", "--input", inp, "--output", out]) == 0
    report = json.loads(Path(out).read_text())
    assert np.max(np.abs(np.array(report["cm"]) - g)) < 1e-15


def test_check_gaussian_nan_margin_is_an_error(tmp_path, capsys):
    # a finite CM whose standard form is beyond float64 range gets an error, not a verdict
    inp = write_json(tmp_path / "s.json", {"cm": (1e200 * np.eye(4)).tolist()})
    out = tmp_path / "r.json"
    rc = cli.main(["check-gaussian", "--input", inp, "--output", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert not out.exists()


def test_check_gaussian_bad_input_exit_code(tmp_path, capsys):
    inp = write_json(tmp_path / "s.json", {"family": "no_such_family"})
    rc = cli.main(["check-gaussian", "--input", inp])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_check_nongaussian_with_schedule(tmp_path, capsys):
    doc = {
        "family": "ngpasg",
        "kernel": {"family": "squeezed_thermal", "a": 2, "b": 2, "c": 1.2},
        "add": [1, 1],
        "sub": [0, 0],
    }
    inp = write_json(tmp_path / "s.json", doc)
    out = str(tmp_path / "r.json")
    rc = cli.main(["check-nongaussian", "--input", inp, "--output", out,
                   "--schedule", "10,100"])
    assert rc == 0
    report = json.loads(Path(out).read_text())
    assert len(report["schedule"]) == 2
    assert report["criteria"][0]["classification"] == "entangled"


@pytest.mark.parametrize("schedule", ["nan,-10", "10,0", "inf", "-1e3", "1e400"])
def test_check_nongaussian_rejects_bad_schedule(tmp_path, capsys, schedule):
    # lambda * I is a detect operator only for finite lambda > 0; the report
    # would otherwise hold bare NaN, which is not JSON
    doc = {"family": "ngpasg", "kernel": {"family": "squeezed_thermal", "a": 2, "b": 2, "c": 1.2},
           "add": [1, 1], "sub": [0, 0]}
    inp = write_json(tmp_path / "s.json", doc)
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["check-nongaussian", "--input", inp, "--output", str(out),
                  f"--schedule={schedule}"])
    assert exc.value.code == 2
    assert "finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_witness_optimize(tmp_path, capsys):
    inp = write_json(tmp_path / "s.json", {"family": "squeezed_thermal", "a": 2, "b": 2, "c": 0.5})
    out = str(tmp_path / "r.json")
    assert cli.main(["witness-optimize", "--input", inp, "--output", out]) == 0
    report = json.loads(Path(out).read_text())
    assert report["L"] > 1.0


def test_witness_optimize_vacuum_margin_is_zero(tmp_path, capsys):
    # det(1 + gamma_M) / (4 (M1+1)^2) is exactly 1 on the whole schedule
    inp = write_json(tmp_path / "s.json", {"cm": np.eye(4).tolist()})
    out = tmp_path / "r.json"
    assert cli.main(["witness-optimize", "--input", inp, "--output", str(out)]) == 0
    text = out.read_text()
    assert '"margin": 0.0' in text and '"L": 1.0' in text
    report = json.loads(text)
    assert report["L"] == 1.0 and report["criteria"][0]["margin"] == 0.0


@pytest.mark.parametrize("delta", [1e-16, -1e-16, 1e-15, -1e-15])
def test_witness_optimize_reads_the_boundary_exactly(tmp_path, capsys, delta):
    inp = write_json(tmp_path / "s.json", {"cm": boundary_cm(delta).entries.tolist()})
    out = tmp_path / "r.json"
    assert cli.main(["witness-optimize", "--input", inp, "--output", str(out)]) == 0
    assert capsys.readouterr().out == "determinant_ratio margin 0 boundary\n"
    report = json.loads(out.read_text())
    assert report["L"] == 1.0 and "detect" not in report


def test_kernel_spectrum_csv(tmp_path):
    inp = write_json(tmp_path / "k.json", {"alpha": 1.0, "r": 0.5})
    out = str(tmp_path / "spec.csv")
    assert cli.main(["kernel-spectrum", "--input", inp, "--output", out, "--cutoff", "5"]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "n,nystrom,analytic"
    assert len(lines) == 6


def test_fock_iterate(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    assert cli.main(["fock-iterate", "--seed", "3", "--output", out]) == 0
    report = json.loads(Path(out).read_text())
    assert report["rounds"] >= 1
    assert "m0" in capsys.readouterr().out


def test_fock_iterate_requires_seed(capsys):
    assert cli.main(["fock-iterate"]) == 1


def test_subcommands_reject_flags_they_do_not_read(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check-gaussian", "--samples", "3"])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_sweep_fig1_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        rc = cli.main(["sweep-fig1", "--seed", "5", "--samples", "8",
                       "--output", str(out)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "seed,avg_photon,m0,rounds,converged"
    assert len(lines) == 9


def test_sweep_csv_checksums(tmp_path, capsys):
    # the reference CSVs that every change to the numbers must reproduce byte for byte
    for argv, sha256 in (
        (["sweep-fig1", "--seed", "42"],
         "381ef159933e3740b86ec295a9e01ad3ba193a3fc29f81cb046ba4a3cbfb07b7"),
        (["sweep-fig2"],
         "ca154138fec03d187a08732b69c8a88c86498f5bc4c80ade68ea60febcbd65d1"),
    ):
        out = tmp_path / f"{argv[0]}.csv"
        assert cli.main(argv + ["--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_trace_report_checksums(tmp_path, capsys):
    # the photon-trace reports that every change to the Taylor tables must reproduce
    for doc, sha256 in (
        ({"family": "ngpasg", "add": [2, 1], "sub": [1, 2],
          "kernel": {"cm": [[3.0, 0.4, 1.2, 0.1], [0.4, 2.5, -0.3, -0.9],
                            [1.2, -0.3, 2.8, 0.2], [0.1, -0.9, 0.2, 3.1]]}},
         "dc6205b86fe11a3ce231b133a822cb6e2c7ff1b6db804798f38408beab484708"),
        ({"family": "ngpasg", "add": [2, 2], "sub": [2, 2],
          "kernel": {"family": "squeezed_thermal", "a": 3.0, "b": 2.0, "c": 1.5}},
         "36ff23da8a5180026a11b8e75dbe68f9da162a470da818ca4b5088a352f749d5"),
    ):
        out = tmp_path / "r.json"
        assert cli.main(["check-nongaussian", "--input", write_json(tmp_path / "s.json", doc),
                         "--schedule", "10,100,1000,10000", "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


EYE4 = np.eye(4).tolist()
C10 = [[3.0, 0.4, 1.2, 0.1], [0.4, 2.5, -0.3, -0.9], [1.2, -0.3, 2.8, 0.2], [0.1, -0.9, 0.2, 3.1]]


@pytest.mark.parametrize("command, doc, sha256", [
    ("check-gaussian", {"family": "squeezed_thermal", "a": 3, "b": 3, "c": 2},
     "30d8d2990158920afdd8b7feea9b267bbb77b62bd541e017ccd287b455283d8e"),
    ("check-gaussian", {"cm": EYE4},
     "c7396757f7d740c7bbfea3aae3e0467d6209d80ad39eeeed9d778b035c45104a"),
    ("check-gaussian", {"family": "squeezed_thermal", "a": 2, "b": 2, "c": 1.5},
     "13c25c9f0d22b8b2f82d3d785c331f12531af8885682a3653cf7610ca38fa328"),
    ("check-gaussian", {"standard_form": {"a": 2.5, "b": 1.8, "c1": 1.1, "c2": -0.4}},
     "f9e690f0d2e0ea184e6b7ca5742075ceb38118b1da0a6665042af67d6c6bcce0"),
    ("check-gaussian", {"family": "werner_wolf_2x2", "A": 2, "B": 1, "C": 2, "D": 4, "E": 1,
                        "F": 1},
     "cfbc354eb4ec1eeefa5cdf39e4ac7613a919eeeb7970313793a9195f8c67a244"),
    ("check-gaussian", {"family": "ghz", "n": 3, "a": 2, "c": 0.3},
     "ca478ac47b638540918684971660d3fa2fa2c73e89a6b84872584db488b65445"),
    ("check-gaussian", {"family": "symmetric_multimode", "n": 3, "a": 2, "b": 2, "c1": 0.5,
                        "c2": 0.5},
     "fbfbef52ef38b010baa55c2e1cdbccae6267f3c5a456ceac2404221e2667774a"),
    ("witness-optimize", {"cm": EYE4},
     "7228572d1edad37282866afe0d1beed9a06026cc672e8b0dc4efaa6301183b51"),
    ("witness-optimize", {"family": "squeezed_thermal", "a": 2, "b": 2, "c": 1.5},
     "a41a4bc3bb4b41396f81d21b3f90ab61f57c99476ea0ea1a1594732522e5d8de"),
    ("witness-optimize", {"cm": C10},
     "9cd9681210c93eb98361e17f02e688f5a58f081db0b8156ec392128a80acf559"),
    ("check-nongaussian", {"family": "ngpasg", "add": [1, 1], "sub": [0, 0],
                           "kernel": {"family": "squeezed_thermal", "a": 2, "b": 2, "c": 1.2}},
     "ea1aae9dad7540d61aacb32fd0c146a6e48dc2dcbac380701c46ac5e841cfc6a"),
    ("check-nongaussian", {"family": "ngpasg", "add": [1, 0], "sub": [0, 1],
                           "kernel": {"cm": EYE4}},
     "d74a4755c40c114adce98642af613fc12eb703e97dff4a42de70f73669df2ce2"),
])
def test_verdict_report_checksums(tmp_path, capsys, command, doc, sha256):
    # the verdict reports, which cover all three words and every state family
    out = tmp_path / "r.json"
    assert cli.main([command, "--input", write_json(tmp_path / "s.json", doc),
                     "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_sweep_fig2(tmp_path, capsys):
    inp = write_json(tmp_path / "grid.json", {"n_values": [0.5, 1.0], "r_values": [0.2, 0.6]})
    out = str(tmp_path / "fig2.csv")
    assert cli.main(["sweep-fig2", "--input", inp, "--output", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "n_thermal,r,boundary_r,margin_k1,margin_k2"
    assert len(lines) == 5
    # one- and two-photon margins coincide
    for ln in lines[1:]:
        parts = ln.split(",")
        assert abs(float(parts[3]) - float(parts[4])) < 1e-12


@pytest.mark.parametrize(
    "doc, location",
    [
        ({"standard_form": {"a": 0.5, "b": 2, "c1": 0, "c2": 0}}, "/standard_form"),
        ({"family": "squeezed_thermal", "a": 0.5, "b": 0.5, "c": 2}, ""),
        ({"family": "symmetric_two_mode", "a": 1.2, "c1": 1.5, "c2": 1.5}, ""),
        ({"family": "werner_wolf_2x2", "A": 1, "B": 1, "C": 1, "D": 1, "E": 2, "F": 0}, ""),
        ({"family": "symmetric_multimode", "n": 3, "a": 1, "b": 1, "c1": 0.9, "c2": 0.9}, ""),
        ({"family": "symmetric_multimode", "n": 3, "a": 2, "b": 2, "c1": 0.3, "c2": -0.3}, ""),
        ({"family": "ghz", "n": 3, "a": 0.2, "c": 0.9}, ""),
        ({"family": "ngpasg", "kernel": {"family": "squeezed_thermal", "a": 1, "b": 1, "c": 1},
          "add": [1, 0], "sub": [0, 0]}, "/kernel"),
    ],
)
def test_parse_state_rejects_invalid_family_input(doc, location):
    with pytest.raises(SchemaError) as exc:
        cli.parse_state(doc)
    assert exc.value.location == location
    assert "invalid" in str(exc.value)


@pytest.mark.parametrize(
    "doc",
    [{"family": "squeezed_thermal", "a": 0.5, "b": 0.5, "c": 2},
     {"family": "ghz", "n": 3, "a": 0.2, "c": 0.9}],
)
def test_check_gaussian_unphysical_family_exit_code(tmp_path, capsys, doc):
    rc = cli.main(["check-gaussian", "--input", write_json(tmp_path / "s.json", doc)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "error" in captured.err


def test_ghz_params_validate():
    assert GHZParams(n=3, a=2.0, c=0.3).validate() == GHZParams(n=3, a=2.0, c=0.3)


@pytest.mark.parametrize("argv, code, message", [
    (["kernel-spectrum", "--cutoff", "300"], 1, "error: --cutoff 300 exceeds the 256 Nystrom"),
    (["kernel-spectrum", "--cutoff", "-3"], 2, "--cutoff: must be an integer >= 1"),
    (["fock-iterate", "--seed", "1", "--cutoff", "0"], 2, "--cutoff: must be an integer >= 1"),
    (["sweep-fig1", "--seed", "1", "--cutoff", "0"], 2, "--cutoff: must be an integer >= 1"),
    (["sweep-fig1", "--seed", "1", "--samples", "-2"], 2, "--samples: must be an integer >= 1"),
    (["fock-iterate", "--seed", "-1"], 2, "--seed: must be an integer >= 0"),
], ids=["spectrum-cutoff-300", "spectrum-cutoff--3", "iterate-cutoff-0", "sweep-cutoff-0",
        "sweep-samples--2", "iterate-seed--1"])
def test_integer_flags_reject_out_of_range(tmp_path, capsys, argv, code, message):
    out = tmp_path / "out"
    argv = argv + ["--output", str(out)]
    if argv[0] == "kernel-spectrum":
        argv += ["--input", write_json(tmp_path / "k.json", {"alpha": 1.0, "r": 0.5})]
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == code
    assert message in err and "Traceback" not in err
    assert not out.exists()


INF_CM = [[float("inf"), 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


@pytest.mark.parametrize("command, doc", [
    ("check-gaussian", {"cm": INF_CM}),
    ("witness-optimize", {"cm": INF_CM}),
    ("check-nongaussian", {"family": "ngpasg", "add": [1, 0], "sub": [0, 0],
                           "kernel": {"cm": INF_CM}}),
])
def test_non_finite_cm_is_an_error_not_a_verdict(tmp_path, capsys, command, doc):
    # json reads Infinity; the CM must be rejected before any margin is taken
    out = tmp_path / "r.json"
    rc = cli.main([command, "--input", write_json(tmp_path / "s.json", doc), "--output", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error:") and "NaN or infinite" in captured.err
    assert not out.exists()


def test_witness_optimize_rejects_cm_beyond_float64(tmp_path, capsys):
    # the CM is valid, but its standard form is beyond float64 range; that is no verdict
    out = tmp_path / "r.json"
    doc = {"cm": (1e200 * np.eye(4)).tolist()}
    rc = cli.main(["witness-optimize", "--input", write_json(tmp_path / "s.json", doc),
                   "--output", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error:") and "beyond float64 range" in captured.err
    assert "Warning" not in captured.err
    assert not out.exists()


def test_witness_optimize_rejects_standard_form_beyond_float64(tmp_path, capsys):
    # finite entries whose standard form is not finite (its block determinants
    # overflow): an input error, not a linear-algebra traceback
    out = tmp_path / "r.json"
    doc = {"cm": (1e160 * np.array(C10)).tolist()}
    rc = cli.main(["witness-optimize", "--input", write_json(tmp_path / "s.json", doc),
                   "--output", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error:") and "beyond float64 range" in captured.err
    assert not out.exists()


def test_one_answer_per_state_beyond_float64_range(tmp_path, capsys):
    # 1e160 I4 is a valid CM whose standard form has a^2 = 1e320: every command
    # and the library refuse it with the same error
    cm = {"cm": (1e160 * np.eye(4)).tolist()}
    kernel = {"family": "ngpasg", "add": [1, 0], "sub": [0, 0], "kernel": cm}
    for command, doc in (("check-gaussian", cm), ("witness-optimize", cm),
                         ("check-nongaussian", kernel)):
        out = tmp_path / "r.json"
        rc = cli.main([command, "--input", write_json(tmp_path / "s.json", doc),
                       "--output", str(out)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "", command
        assert captured.err == "error: the standard form is beyond float64 range\n", command
        assert not out.exists()
    with pytest.raises(ValidationError, match="beyond float64 range"):
        standard_form(validate_cm(1e160 * np.eye(4)))
    for a in (1e200, np.float64(1e200)):
        with pytest.raises(ValidationError, match="beyond float64 range"):
            StandardForm(a, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("doc, location", [
    ({"standard_form": {"a": 1e200, "b": 1, "c1": 0, "c2": 0}}, "/standard_form"),
    ({"family": "squeezed_thermal", "a": 1e200, "b": 1, "c": 0}, ""),
    ({"family": "ngpasg", "add": [1, 0], "sub": [0, 0],
      "kernel": {"standard_form": {"a": 1e200, "b": 1, "c1": 0, "c2": 0}}},
     "/kernel/standard_form"),
])
def test_parsed_standard_form_beyond_float64_range_keeps_its_location(doc, location):
    with pytest.raises(SchemaError) as exc:
        cli.parse_state(doc)
    want = "invalid StandardForm: the standard form is beyond float64 range"
    assert str(exc.value) == (f"{want} (at '{location}')" if location else want)


@pytest.mark.parametrize("rows, message", [
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "expected a square matrix, got shape (2, 3)"),
    ([1.0, 0.0, 0.0], "expected a square matrix, got shape (3,)"),
    (np.eye(3).tolist(), "dimension 3 is not a positive even number"),
], ids=["rectangular", "flat", "odd"])
def test_cm_shape_is_checked_by_validate_cm(rows, message):
    with pytest.raises(SchemaError) as exc:
        cli.parse_state({"cm": rows})
    assert str(exc.value) == f"invalid covariance matrix: {message} (at '/cm')"


@pytest.mark.parametrize("doc", [
    {"standard_form": {"a": 2.5, "b": 1.8, "c1": 1.1, "c2": -0.4}},
    {"family": "squeezed_thermal", "a": 2, "b": 2, "c": 1.5},
])
def test_witness_optimize_checks_a_parsed_standard_form_once(tmp_path, capsys, monkeypatch,
                                                             doc):
    # parse_state validates the form; minimize_L takes it as it is, with no
    # second validate_cm and no reduction
    calls = []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapper

    for module in (cli, criteria, nongaussian, symplectic, witness):
        for name in ("validate_cm", "standard_form"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert cli.main(["witness-optimize", "--input", write_json(tmp_path / "s.json", doc)]) == 0
    assert calls == ["validate_cm"]


@pytest.mark.parametrize("doc", [
    {"cm": (1e150 * np.eye(4)).tolist()},
    {"standard_form": {"a": 1e100, "b": 1e100, "c1": 0, "c2": 0}},
])
def test_reports_hold_finite_numbers_only(tmp_path, capsys, doc):
    # both states are in range, but their Simon margin, quartic in the entries,
    # overflows to inf; JSON has no Infinity, so no report is written
    out = tmp_path / "r.json"
    rc = cli.main(["check-gaussian", "--input", write_json(tmp_path / "s.json", doc),
                   "--output", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "error: the report holds a number beyond float64 range\n"
    assert not out.exists()


def test_reports_parse_as_strict_json(tmp_path, capsys):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    out = tmp_path / "r.json"
    doc = {"family": "ngpasg", "add": [1, 0], "sub": [0, 1], "kernel": {"cm": C10}}
    assert cli.main(["check-nongaussian", "--input", write_json(tmp_path / "s.json", doc),
                     "--schedule", "10,100", "--output", str(out)]) == 0
    report = json.loads(out.read_text(), parse_constant=refuse)
    assert report["command"] == "check-nongaussian" and len(report["schedule"]) == 2


def test_family_match_is_relative_in_both_commands(tmp_path, capsys):
    # a - b = 1e-10 is within the relative match band of both commands
    kernel = {"standard_form": {"a": 2.0, "b": 2.0 - 1e-10, "c1": 0.5, "c2": 0.3}}
    out = tmp_path / "r.json"
    for command, doc in (("check-gaussian", kernel),
                         ("check-nongaussian", {"family": "ngpasg", "add": [1, 0],
                                                "sub": [0, 0], "kernel": kernel})):
        assert cli.main([command, "--input", write_json(tmp_path / "s.json", doc),
                         "--output", str(out)]) == 0
        ids = [c["criterion_id"] for c in json.loads(out.read_text())["criteria"]]
        assert "symmetric_two_mode" in ids


def test_family_shortcut_is_dropped_where_the_mismatch_can_flip_it(tmp_path, capsys):
    # b - a = 5e-4 at a = 1e6: the symmetric closed form, which reads a alone,
    # said "entangled" (margin -2e-4) where the exact Simon margin is +1.2e9
    kernel = {"standard_form": {"a": 1e6, "b": 1e6 + 5e-4, "c1": 999999.0001,
                                "c2": 999999.0001}}
    for command, doc in (("check-gaussian", kernel),
                         ("check-nongaussian", {"family": "ngpasg", "add": [1, 0],
                                                "sub": [0, 0], "kernel": kernel})):
        assert cli.main([command, "--input", write_json(tmp_path / "s.json", doc)]) == 0
        out = capsys.readouterr().out
        assert "symmetric_two_mode" not in out and "entangled" not in out


def test_symmetric_closed_form_reads_coupling_magnitudes(tmp_path, capsys):
    # c1 = c2 = -1.2 is c1 = c2 = 1.2 after a local phase flip; the closed form
    # read (a + 1.2)^2 - 1 = 9.24, "satisfied", under Simon's "entangled"
    doc = {"family": "symmetric_two_mode", "a": 2, "c1": -1.2, "c2": -1.2}
    assert cli.main(["check-gaussian", "--input", write_json(tmp_path / "s.json", doc)]) == 0
    out = capsys.readouterr().out
    assert "simon margin -3.3264 entangled" in out
    assert "symmetric_two_mode margin -0.36 entangled" in out


@pytest.mark.parametrize("command, text", [
    ("kernel-spectrum", '{"alpha": -1, "r": 0.5}'),
    ("kernel-spectrum", '{"alpha": 1, "r": 1.5}'),
    ("kernel-spectrum", '{"alpha": Infinity, "r": 0.5}'),
    ("kernel-spectrum", '{"alpha": 1.7e308, "r": 0.5}'),
    ("kernel-spectrum", '{"alpha": 1e-320, "r": 0.5}'),
    ("sweep-fig2", '{"n_values": [-1]}'),
    ("sweep-fig2", '{"n_values": "ab"}'),
    ("sweep-fig2", '{"r_values": [400]}'),
    ("sweep-fig2", '{"n_values": [1], "r_values": [null]}'),
    ("sweep-fig2", '[1, 2]'),
    ("check-gaussian", json.dumps({"cm": (1e308 * np.eye(4)).tolist()})),
    ("witness-optimize", json.dumps({"cm": (1e308 * np.eye(4)).tolist()})),
    ("witness-optimize", json.dumps({"cm": np.eye(2).tolist()})),
    ("witness-optimize", json.dumps({"cm": np.eye(6).tolist()})),
    ("check-nongaussian", json.dumps({"family": "ngpasg", "add": [1], "sub": [0],
                                      "kernel": {"cm": np.eye(2).tolist()}})),
    ("check-nongaussian", json.dumps({"family": "ngpasg", "add": [1, 0, 0], "sub": [0, 0, 0],
                                      "kernel": {"cm": np.eye(6).tolist()}})),
    ("check-gaussian", json.dumps({"cm": [[str(int(x)) for x in row] for row in np.eye(4)]})),
    ("check-gaussian", json.dumps({"cm": np.eye(4, dtype=bool).tolist()})),
    ("check-gaussian", '{"standard_form": {"a": 0, "b": 1e308, "c1": 0, "c2": 1}}'),
    ("witness-optimize", '{"standard_form": {"a": 1e308, "b": -1, "c1": 1e200, "c2": -1}}'),
    ("witness-optimize", json.dumps({"cm": six_param_cm(1e308, 1e308, -1, -1, 1e200, -1).tolist()})),
], ids=["alpha-negative", "r-above-1", "alpha-infinite", "alpha-kernel-overflows",
        "alpha-grid-overflows", "n-negative", "n-not-array",
        "r-overflows", "r-null", "grid-not-object", "cm-symmetrize-overflows",
        "witness-cm-symmetrize-overflows", "witness-one-mode", "witness-three-mode",
        "kernel-one-mode", "kernel-three-mode", "cm-strings", "cm-booleans",
        "standard-form-simon-overflows", "standard-form-negative-block", "cm-negative-block"])
def test_bad_input_values_are_errors_not_tracebacks(tmp_path, capsys, command, text):
    inp = tmp_path / "in.json"
    inp.write_text(text)
    out = tmp_path / "out.csv"
    rc = cli.main([command, "--input", str(inp), "--output", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_cold_import_loads_no_oracle_library():
    # mpmath, sympy and hypothesis serve the tests only: pulled into the package
    # import, they would slow the start of every CLI command
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = ("import sys, cvwitness; print(sorted({m.split('.')[0] for m in sys.modules}"
            " & {'mpmath', 'sympy', 'hypothesis'}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# JSON values of every kind a state document may hold in a number's place
ENTRIES = st.one_of(st.integers(-3, 3), st.floats(-1e3, 1e3),
                    st.sampled_from([1e308, -1e308, 1e200, 0, True, False, None, "1", [], {}]))
FAMILY_KEYS = {"squeezed_thermal": "a b c", "symmetric_two_mode": "a c1 c2",
               "werner_wolf_2x2": "A B C D E F", "symmetric_multimode": "n a b c1 c2",
               "ghz": "n a c"}
# one valid document per shape, for documents with one or two bad values
VALID_DOCS = [
    {"cm": C10},
    {"standard_form": {"a": 2.5, "b": 1.8, "c1": 1.1, "c2": -0.4}},
    {"family": "squeezed_thermal", "a": 3, "b": 2, "c": 1.5},
    {"family": "symmetric_two_mode", "a": 2, "c1": 0.5, "c2": 0.3},
    {"family": "werner_wolf_2x2", "A": 2, "B": 1, "C": 2, "D": 4, "E": 1, "F": 1},
    {"family": "symmetric_multimode", "n": 3, "a": 2, "b": 2, "c1": 0.5, "c2": 0.5},
    {"family": "ghz", "n": 3, "a": 2, "c": 0.3},
    {"family": "ngpasg", "add": [2, 1], "sub": [1, 2], "kernel": {"cm": C10}},
    {"family": "ngpasg", "add": [1, 0], "sub": [0, 1],
     "kernel": {"family": "squeezed_thermal", "a": 2, "b": 2, "c": 1.2}},
]


def _keyed(keys, **fixed):
    return st.fixed_dictionaries({**{k: ENTRIES for k in keys.split()},
                                  **{k: st.just(v) for k, v in fixed.items()}})


def _leaves(doc, path=()):
    """The path of every value in a JSON document that is not an object or array."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


@st.composite
def _spoiled(draw, doc):
    """doc with up to two of its values replaced by ENTRIES."""
    doc = json.loads(json.dumps(doc))
    for *parents, key in draw(st.lists(st.sampled_from(list(_leaves(doc))), max_size=2)):
        target = doc
        for k in parents:
            target = target[k]
        target[key] = draw(ENTRIES)
    return doc


GAUSSIAN_DOCS = st.one_of(
    st.integers(0, 4).flatmap(lambda k: st.lists(st.lists(ENTRIES, min_size=k, max_size=k),
                                                  min_size=k, max_size=k)).map(
        lambda rows: {"cm": rows}),
    _keyed("a b c1 c2").map(lambda sf: {"standard_form": sf}),
    *(_keyed(keys, family=family) for family, keys in FAMILY_KEYS.items()),
)
STATE_DOCS = st.one_of(
    st.sampled_from(VALID_DOCS).flatmap(_spoiled),
    st.recursive(GAUSSIAN_DOCS, lambda kernels: st.fixed_dictionaries({
        "family": st.just("ngpasg"), "kernel": kernels,
        "add": st.lists(ENTRIES, max_size=3), "sub": st.lists(ENTRIES, max_size=3)}),
        max_leaves=3),
)


@given(STATE_DOCS)
@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_state_documents_get_a_verdict_or_an_error(tmp_path, capsys, doc):
    # whatever the document holds, each state command exits 0 or 1, never with an exception
    inp = write_json(tmp_path / "s.json", doc)
    for command in ("check-gaussian", "witness-optimize", "check-nongaussian"):
        rc = cli.main([command, "--input", inp])
        err = capsys.readouterr().err
        assert rc == 0 and err == "" or rc == 1 and err.startswith("error:"), (command, rc, err)
