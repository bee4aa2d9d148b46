import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from cvwitness import cli
from cvwitness.criteria import GHZParams, SymmetricMultimodeParams, WernerWolf2x2Params
from cvwitness.errors import SchemaError
from cvwitness.nongaussian import NGPASGSpec
from cvwitness.symplectic import CovarianceMatrix, StandardForm


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
    doc = {
        "family": "ngpasg",
        "kernel": {"cm": np.eye(4).tolist()},
        "add": [1, -1],
        "sub": [0, 0],
    }
    with pytest.raises(SchemaError) as exc:
        cli.parse_state(doc)
    assert "/add" in str(exc.value)


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


def test_check_gaussian_cm_round_trip(tmp_path):
    g = np.diag([2.0, 2.0, 3.0, 3.0])
    inp = write_json(tmp_path / "s.json", {"cm": g.tolist()})
    out = str(tmp_path / "report.json")
    assert cli.main(["check-gaussian", "--input", inp, "--output", out]) == 0
    report = json.loads(Path(out).read_text())
    assert np.max(np.abs(np.array(report["cm"]) - g)) < 1e-15


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


def test_witness_optimize(tmp_path, capsys):
    inp = write_json(tmp_path / "s.json", {"family": "squeezed_thermal", "a": 2, "b": 2, "c": 0.5})
    out = str(tmp_path / "r.json")
    assert cli.main(["witness-optimize", "--input", inp, "--output", out]) == 0
    report = json.loads(Path(out).read_text())
    assert report["L"] > 1.0


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
