"""Command-line interface: argument handling, file outputs, exit codes.

Everything runs in-process through main(argv) so coverage tools see it and
failures carry tracebacks.
"""
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import transmute
from transmute.cli import RunConfig, main, parse_potential
from transmute.errors import DomainError


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_import_does_not_load_optimize_or_interpolate(tmp_path):
    # both cost ~0.2 s at start-up; only a table potential needs a spline
    code = ("import sys, transmute; "
            "print(sorted(m for m in sys.modules if m.startswith("
            "('scipy.optimize', 'scipy.interpolate'))))")
    # the child imports the same transmute as this process, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(transmute.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
    # a spectrum run does not need scipy.linalg either (3.7 MiB of peak RSS)
    code = ("import sys; from transmute.cli import main; "
            "rc = main(['spectrum', '--l', '1', '--potential', 'poly:0,0,1', "
            f"'--count', '5', '--out', {str(tmp_path)!r}]); "
            "print(rc, sorted(m for m in sys.modules if m.startswith('scipy.linalg')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.splitlines()[-1] == "0 []"


# ---------------------------------------------------------------------------
# potential grammar


def test_parse_potential_forms():
    assert parse_potential("zero") == {"type": "polynomial", "coefficients": []}
    assert parse_potential("poly:0,0,1") == {
        "type": "polynomial", "coefficients": [0.0, 0.0, 1.0]
    }
    assert parse_potential("table:/tmp/q.csv") == {
        "type": "table", "path": "/tmp/q.csv"
    }


def test_parse_potential_bad_token():
    with pytest.raises(DomainError) as err:
        parse_potential("poly:0,zap,1")
    assert "zap" in str(err.value)
    with pytest.raises(DomainError):
        parse_potential("gaussian")


# ---------------------------------------------------------------------------
# config round trip


def test_config_round_trip():
    cfg = RunConfig(l=1.0, potential="poly:0,0,1", M=20, count=4,
                    references={2: 3.0903, 1: 2.2436}, seed=5, out="/tmp/x")
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(DomainError):
        RunConfig.from_dict({"problem": {"l": 1.0, "ell": 2.0}})
    with pytest.raises(DomainError):
        RunConfig.from_dict({"settings": {}})


def test_config_range_validation():
    with pytest.raises(DomainError):
        RunConfig.from_dict({"problem": {"b": -1.0}})
    with pytest.raises(DomainError):
        RunConfig.from_dict({"problem": {"l": float("nan")}})
    with pytest.raises(DomainError):
        RunConfig.from_dict({"kernel": {"t_max_fraction": 1.5}})
    with pytest.raises(DomainError, match="seed"):
        RunConfig.from_dict({"seed": -1})


def test_config_type_rules():
    # float fields take integers, Optional fields take null
    cfg = RunConfig.from_dict({"problem": {"l": 1}, "fit": {"M": None}})
    assert cfg.l == 1 and cfg.M is None
    for bad in ({"seed": True}, {"spectrum": {"compare_builtin": 1}},
                {"problem": {"potential": 3}}, {"fit": {"N": 4.0}}):
        with pytest.raises(DomainError):
            RunConfig.from_dict(bad)


# ---------------------------------------------------------------------------
# beta subcommand


def test_beta_zero_potential(tmp_path):
    rc = main(["beta", "--l", "0", "--potential", "zero", "--M", "10",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "beta.csv")
    assert rows[0] == ["k", "beta"]
    assert len(rows) == 12
    values = np.array([float(r[1]) for r in rows[1:]])
    assert np.max(np.abs(values)) < 1e-10
    summary = json.loads((tmp_path / "beta_summary.json").read_text())
    assert summary["fit_residual"] < 1e-6 or summary["max_abs_beta"] < 1e-10


def test_beta_deterministic_output(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    for d in (a_dir, b_dir):
        rc = main(["beta", "--l", "1", "--potential", "poly:0,0,1",
                   "--M", "12", "--out", str(d)])
        assert rc == 0
    assert (a_dir / "beta.csv").read_bytes() == (b_dir / "beta.csv").read_bytes()


def test_beta_malformed_table_exit_2(tmp_path, capsys):
    bad = tmp_path / "q.csv"
    bad.write_text("0.0,0.0\nhalf,0.25\n1.0,1.0\n")
    rc = main(["beta", "--l", "0", "--potential", f"table:{bad}",
               "--M", "6", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "2" in err  # offending row is named


# ---------------------------------------------------------------------------
# spectrum subcommand


def test_spectrum_builtin_reference_comparison(tmp_path):
    rc = main(["spectrum", "--l", "1", "--potential", "poly:0,0,1",
               "--count", "10", "--out", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "spectrum.csv")
    assert rows[0] == ["n", "omega", "residual", "reference", "abs_error"]
    assert len(rows) == 11
    # the built-in reference table attaches automatically for this problem
    errs = [float(r[4]) for r in rows[1:] if r[4] != ""]
    assert errs and max(errs) < 1e-6
    summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
    assert summary["count"] == 10


def test_spectrum_count_zero_writes_header_only(tmp_path):
    rc = main(["spectrum", "--l", "0", "--potential", "zero",
               "--count", "0", "--out", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "spectrum.csv")
    assert rows == [["n", "omega", "residual", "reference", "abs_error"]]


def test_spectrum_zero_potential_integers(tmp_path):
    rc = main(["spectrum", "--l", "0", "--potential", "zero",
               "--count", "5", "--out", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "spectrum.csv")
    omegas = np.array([float(r[1]) for r in rows[1:]])
    assert np.max(np.abs(omegas - np.arange(1, 6))) < 1e-9


def test_spectrum_wrong_ordinals_exit_2(tmp_path, capsys):
    # q == 120: the scan brackets 30 roots below omega = 40.25, where 38
    # eigenvalues lie; no CSV is written
    rc = main(["spectrum", "--l", "0", "--potential", "poly:120",
               "--count", "30", "--out", str(tmp_path)])
    assert rc == 2
    assert "30 roots found below omega = 40.25, Sturm count 38" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()


# ---------------------------------------------------------------------------
# kernel subcommand


def test_kernel_zero_potential_surface(tmp_path):
    rc = main(["kernel", "--l", "1", "--potential", "zero", "--M", "8",
               "--nx", "4", "--nt", "9", "--out", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "kernel.csv")
    assert rows[0] == ["x", "t", "K", "flag"]
    assert all(r[3] == "ok" for r in rows[1:])
    vals = np.array([float(r[2]) for r in rows[1:]])
    assert np.max(np.abs(vals)) < 1e-10


def test_kernel_near_integer_l_matches_integer_l(tmp_path):
    # l = -1e-10 counts as integer l = 0 everywhere: the whole column is
    # tabulated and every value comes from the integer-l series
    args = ["kernel", "--potential", "poly:0,0,1", "--M", "8",
            "--nx", "1", "--nt", "5"]
    assert main(args + ["--l=-1e-10", "--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--l", "0", "--out", str(tmp_path / "b")]) == 0
    rows = _read_csv(tmp_path / "a" / "kernel.csv")[1:]
    ref = _read_csv(tmp_path / "b" / "kernel.csv")[1:]
    assert len(rows) == 5 and all(r[3] == "ok" for r in rows)
    got = np.array([float(r[2]) for r in rows])
    want = np.array([float(r[2]) for r in ref])
    assert np.max(np.abs(got - want)) <= 1e-8


def test_kernel_real_l_rejects_cutoff_at_diagonal(tmp_path, capsys):
    # the real-l series is singular at t = x: no K = inf flagged "ok"
    rc = main(["kernel", "--l", "0.5", "--potential", "poly:0,0,1",
               "--M", "30", "--nx", "2", "--nt", "5",
               "--t-max-fraction", "1.0", "--out", str(tmp_path)])
    assert rc == 2
    assert "t_max_fraction" in capsys.readouterr().err
    assert not (tmp_path / "kernel.csv").exists()


def test_kernel_real_l_flags_near_diagonal(tmp_path):
    rc = main(["kernel", "--l", "0.5", "--potential", "poly:0,0,1",
               "--M", "30", "--nx", "2", "--nt", "21",
               "--t-max-fraction", "0.9", "--out", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "kernel.csv")[1:]
    flags = {r[3] for r in rows}
    assert "near-diagonal" in flags and "ok" in flags
    for r in rows:
        if r[3] == "near-diagonal":
            assert r[2] == ""  # no value fabricated past the cutoff


# ---------------------------------------------------------------------------
# validate subcommand


def test_validate_healthy_problem(tmp_path, capsys):
    rc = main(["validate", "--l", "1", "--potential", "poly:0,0,1",
               "--M", "16", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "validate_report.json").read_text())
    assert report["all_passed"] is True
    assert len(report["checks"]) == 5
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_validate_fault_injection_fails(tmp_path, capsys):
    rc = main(["validate", "--l", "1", "--potential", "poly:0,0,1",
               "--M", "16", "--perturb-beta", "1e-3", "--out", str(tmp_path)])
    assert rc == 1
    report = json.loads((tmp_path / "validate_report.json").read_text())
    assert report["all_passed"] is False
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# config file handling


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "problem": {"l": 0.0, "potential": "zero"},
        "fit": {"M": 6},
        "out": str(tmp_path / "from_config"),
    }))
    out_dir = tmp_path / "override"
    rc = main(["beta", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "beta.csv").exists()
    assert not (tmp_path / "from_config").exists()


def test_config_file_bad_json_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json")
    rc = main(["beta", "--config", str(cfg_path)])
    assert rc == 2
    assert capsys.readouterr().err != ""


def test_missing_config_exit_2(tmp_path):
    rc = main(["beta", "--config", str(tmp_path / "absent.json")])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["beta", "--l", "nan"],
    ["beta", "--l", "inf"],
    ["spectrum", "--l", "1", "--b", "inf", "--count", "2"],
    ["spectrum", "--l", "1", "--b", "nan", "--count", "2"],
])
def test_non_finite_l_or_b_exit_2(tmp_path, capsys, argv):
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv,named", [
    # NaN potential: the message names the abscissa
    (["beta", "--l", "0", "--potential", "poly:0,nan", "--M", "6"], "x="),
    # omega^2 underflows on b = 1e300: the message names the step count
    (["spectrum", "--l", "0", "--potential", "zero", "--count", "2",
      "--b", "1e300"], "steps"),
])
def test_unusable_oracle_grid_exit_2(tmp_path, capsys, argv, named):
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("config,key", [
    ({"spectrum": {"count": "10"}}, "spectrum.count"),
    ({"problem": {"l": "1"}}, "problem.l"),
    ({"spectrum": {"references": [1, 2]}}, "spectrum.references"),
    ({"fit": {"M": 2.5}}, "fit.M"),
    ({"kernel": {"nx": None}}, "kernel.nx"),
    ({"seed": -1}, "seed must be >= 0"),
])
def test_config_wrong_json_type_exit_2(tmp_path, capsys, config, key):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["spectrum", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
