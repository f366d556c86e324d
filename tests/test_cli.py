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
from transmute import cli, spectral
from transmute.cli import RunConfig, main, parse_potential
from transmute.errors import DomainError
from transmute.kernel import apply_transmutation, goursat_diagonal, kernel_K
from transmute.oracle import ProblemSetup, regular_solutions


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_import_does_not_load_optimize_or_interpolate(tmp_path):
    # scipy costs 0.1-0.3 s of start-up and 25-30 MiB of peak RSS, and the
    # package needs none of it: numpy Bessel functions of real order and a
    # numpy spline for table potentials
    # the child imports the same transmute as this process, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(transmute.__file__).parents[1]))

    def fresh(code):
        return subprocess.run([sys.executable, "-c", "import sys; " + code],
                              capture_output=True, text=True, check=True,
                              env=env).stdout.splitlines()[-1]

    loaded = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"

    assert fresh("import transmute; " + loaded) == "[]"
    table = tmp_path / "q.csv"
    table.write_text("".join(f"{x},{x * x}\n" for x in np.linspace(0.0, np.pi, 9)))
    # every command, integer l or not, with a polynomial or a table potential
    # loads no scipy module at all, the validation suite's quadrature
    # references and the kernel's real-l weights included
    runs = (["spectrum", "--l", "1", "--count", "5"],
            ["spectrum", "--l", "1", "--potential", "poly:0,0,1", "--count", "5"],
            ["beta", "--l", "1"],
            ["kernel", "--l", "1", "--nx", "4"],
            ["validate", "--l", "1"],
            ["validate", "--l", "0", "--potential", "poly:20"],
            ["kernel", "--l", "0.5", "--nx", "4"],
            ["validate", "--l", "0.5"],
            ["beta", "--l", "1", "--M", "10", "--potential", f"table:{table}"])
    for argv in runs:
        run = (f"from transmute.cli import main; "
               f"assert main({argv + ['--out', str(tmp_path)]!r}) == 0; ")
        assert fresh(run + loaded) == "[]", argv
    # and they run where scipy cannot be imported at all
    blocked = ("sys.modules['scipy'] = None; from transmute.cli import main; "
               f"print([main(a + ['--out', {str(tmp_path)!r}]) for a in {list(runs[-3:])!r}])")
    assert fresh(blocked) == "[0, 0, 0]"


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
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DomainError, match="validate.perturb_beta"):
            RunConfig.from_dict({"validate": {"perturb_beta": bad}})


def test_config_type_rules():
    # float fields take integers, Optional fields take null
    cfg = RunConfig.from_dict({"problem": {"l": 1}, "fit": {"M": None}})
    assert cfg.l == 1 and cfg.M is None
    for bad in ({"seed": True}, {"problem": {"potential": 3}},
                {"fit": {"N": 4.0}}):
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


def test_beta_non_finite_table_value_exit_2(tmp_path, capsys):
    # a row that parses as a float but is NaN is malformed input too
    bad = tmp_path / "q.csv"
    bad.write_text("0.0,0.0\n1.0,1.0\n2.0,nan\n3.2,10.24\n")
    rc = main(["beta", "--l", "0", "--potential", f"table:{bad}",
               "--M", "6", "--out", str(tmp_path)])
    assert rc == 2
    assert "row 3 is not finite" in capsys.readouterr().err


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


def test_spectrum_empty_references_turn_builtin_comparison_off(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"spectrum": {"references": {}}}))
    rc = main(["spectrum", "--config", str(cfg_path), "--l", "1",
               "--potential", "poly:0,0,1", "--count", "5", "--out", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "spectrum.csv")[1:]
    assert len(rows) == 5 and all(r[3:] == ["", ""] for r in rows)
    summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
    assert summary["worst_reference_error"] is None


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
    # q == -3: the scan of omega > 0 brackets 30 roots below omega = 31,
    # where Sturm counts 31 eigenvalues, one of them below zero; no CSV is
    # written
    rc = main(["spectrum", "--l", "0", "--potential", "poly:-3",
               "--count", "30", "--out", str(tmp_path)])
    assert rc == 2
    assert "30 roots found below omega = 31, Sturm count 31" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()


def test_spectrum_rank_deficient_fit_exit_2(tmp_path, capsys):
    # q == 120: the weighted fit loses full rank, and no CSV is written
    rc = main(["spectrum", "--l", "0", "--potential", "poly:120",
               "--count", "30", "--out", str(tmp_path)])
    assert rc == 2
    assert "weighted fit of d_0..d_20 has rank" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()


@pytest.mark.parametrize("how", ["flag", "config"])
def test_spectrum_rejects_fit_size(tmp_path, capsys, how):
    # the spectrum fits its own series; its length is --N.  It has no --M
    # flag, so the parser exits 2; a config's fit.M is refused by name
    argv = ["spectrum", "--l", "1", "--potential", "poly:0,0,1", "--count", "3",
            "--out", str(tmp_path)]
    if how == "flag":
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--M", "25"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --M 25" in capsys.readouterr().err
    else:
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"fit": {"M": 25}}))
        assert main(argv + ["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: spectrum takes no fit size M") and "--N" in err
    assert not (tmp_path / "spectrum.csv").exists()


@pytest.mark.parametrize("command, flag", [
    ("beta", "--N"), ("beta", "--seed"), ("kernel", "--seed"),
    ("spectrum", "--M"), ("spectrum", "--seed"), ("validate", "--N"),
])
def test_flag_a_command_ignores_exits_2(tmp_path, capsys, command, flag):
    # beta wrote N = 3 and seed = 7 into its summary without using either
    argv = [command, "--l", "1", "--potential", "poly:0,0,1", flag, "3",
            "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_spectrum_summary_records_the_fit(tmp_path):
    rc = main(["spectrum", "--l", "1", "--potential", "poly:0,0,1", "--count", "3",
               "--N", "12", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
    assert summary["N_used"] == 12 and summary["freq_count_used"] == 39


# ---------------------------------------------------------------------------
# kernel subcommand


def test_kernel_zero_potential_surface(tmp_path):
    rc = main(["kernel", "--l", "1", "--potential", "zero", "--N", "8",
               "--nx", "4", "--nt", "9", "--out", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "kernel.csv")
    assert rows[0] == ["x", "t", "K", "flag"]
    assert all(r[3] == "ok" for r in rows[1:])
    vals = np.array([float(r[2]) for r in rows[1:]])
    assert np.max(np.abs(vals)) < 1e-10
    # G(x) = 0 gives the diagonal no relative scale
    summary = json.loads((tmp_path / "kernel_summary.json").read_text())
    assert [c["goursat_residual"] for c in summary["columns"]] == [None] * 4


def test_kernel_near_integer_l_matches_integer_l(tmp_path):
    # l = -1e-10 counts as integer l = 0 everywhere: the whole column is
    # tabulated, every value comes from the integer-l series, and the fit
    # sees the integer's data, so the table is the same to the bit
    args = ["kernel", "--potential", "poly:0,0,1", "--N", "8",
            "--nx", "1", "--nt", "5"]
    assert main(args + ["--l=-1e-10", "--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--l", "0", "--out", str(tmp_path / "b")]) == 0
    rows = _read_csv(tmp_path / "a" / "kernel.csv")[1:]
    ref = _read_csv(tmp_path / "b" / "kernel.csv")[1:]
    assert len(rows) == 5 and all(r[3] == "ok" for r in rows)
    assert [r[2] for r in rows] == [r[2] for r in ref]


@pytest.mark.parametrize("l, tol", [("1", 1e-8), ("2", 2e-7)])
def test_kernel_diagonal_matches_goursat_value(tmp_path, l, tol):
    # q = x^2: K(x, x) = x^3/6 on every column; a whole M = 25 beta table
    # read 5.6e-8 (l = 1) and 3.1e-6 (l = 2) off, one cut where its
    # coefficients stop decaying 1.8e-9 and 4.4e-8, the d fit 8e-10 and
    # 3e-10, at x = pi/12
    rc = main(["kernel", "--l", l, "--potential", "poly:0,0,1", "--out", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "kernel.csv")[1:]
    diag = [(float(r[0]), float(r[2])) for r in rows if r[0] == r[1]]
    assert len(diag) == 12
    assert max(abs(k - x ** 3 / 6.0) for x, k in diag) <= tol


def test_kernel_summary_records_each_truncation(tmp_path):
    # an integer-l column is the weighted fit of d_0..d_N at its x, N = 20
    # unless --N says otherwise; the summary names N, so the table can be
    # rebuilt from the summary alone, and each column's Goursat residual
    setup = ProblemSetup(l=1.0, b=np.pi, q=lambda x: np.asarray(x, dtype=float) ** 2)
    xs = [np.pi * i / 4 for i in range(1, 5)]
    for N in (None, 12):
        out = tmp_path / str(N)
        extra = [] if N is None else ["--N", str(N)]
        rc = main(["kernel", "--l", "1", "--potential", "poly:0,0,1", "--nx", "4",
                   "--nt", "5", "--out", str(out), *extra])
        assert rc == 0
        summary = json.loads((out / "kernel_summary.json").read_text())
        assert summary["M"] is None
        assert [c["x"] for c in summary["columns"]] == xs
        assert [c["N"] for c in summary["columns"]] == [N or 20] * 4
        rows = _read_csv(out / "kernel.csv")[1:]
        for i, (x, column) in enumerate(zip(xs, summary["columns"])):
            series = spectral._fit_series(setup, column["N"], x)
            ts = np.linspace(0.0, x, 5)
            assert [r[2] for r in rows[5 * i:5 * i + 5]] == \
                [cli._fmt(k) for k in kernel_K(series, ts)]
            G = goursat_diagonal(setup.q, x)
            want = abs(kernel_K(series, x) - G) / G
            assert column["goursat_residual"] == want <= 1e-8


@pytest.mark.parametrize("l, cutoff", [("1", 1.0), ("0.5", 0.5)])
def test_kernel_summary_records_the_cutoff_used(tmp_path, l, cutoff):
    # --t-max-fraction cuts the real-l series only: the integer-l table
    # runs to the diagonal, and the summary names each column's cutoff
    fit = ["--M", "30"] if l == "0.5" else []
    rc = main(["kernel", "--l", l, "--potential", "poly:0,0,1", *fit,
               "--nx", "2", "--nt", "5", "--t-max-fraction", "0.5", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "kernel_summary.json").read_text())
    assert [c["t_max_fraction"] for c in summary["columns"]] == [cutoff, cutoff]
    # a real-l series stops short of the diagonal: no Goursat residual
    assert all((c["goursat_residual"] is None) == (l == "0.5") for c in summary["columns"])
    rows = _read_csv(tmp_path / "kernel.csv")[1:]
    assert [r[3] for r in rows] == ["ok" if float(r[1]) <= cutoff * float(r[0]) * (1 + 1e-12)
                                    else "near-diagonal" for r in rows]
    assert rows[-1][0] == rows[-1][1] and (rows[-1][3] == "ok") == (cutoff == 1.0)


@pytest.mark.parametrize("potential, G", [("poly:0,0,1", np.pi ** 3 / 6.0),
                                          ("poly:20", 10.0 * np.pi)])
@pytest.mark.parametrize("l", ["0", "1", "2"])
def test_kernel_diagonal_at_b_is_the_goursat_value(tmp_path, potential, G, l):
    # K(b, b) = (1/2) int_0^b q: b^3/6 for x^2, Qb/2 for q == 20.  A beta
    # table cut where its coefficients stop decaying read 4.3e-5 on q == 20
    # at l = 2; the d fit reads 1e-11 or less
    rc = main(["kernel", "--l", l, "--potential", potential, "--nx", "2", "--nt", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    x, t, K, _ = _read_csv(tmp_path / "kernel.csv")[-1]
    assert float(x) == float(t) == np.pi
    assert abs(float(K) - G) <= 1e-10 * G
    summary = json.loads((tmp_path / "kernel_summary.json").read_text())
    assert summary["columns"][-1]["goursat_residual"] <= 1e-10


def test_kernel_columns_transmute_on_a_strong_potential(tmp_path):
    # q == 50, l = 0: a beta table cut where its coefficients stop decaying
    # was off by 1.3e-4 of the envelope, and K(b, b) by 3.2e-4; every column
    # of the d fit transmutes y into the oracle's u within 1e-6 of the
    # envelope hypot(u, u'/omega) at x, for omega in [1, 30]
    rc = main(["kernel", "--l", "0", "--potential", "poly:50", "--nt", "5",
               "--out", str(tmp_path)])
    assert rc == 0
    setup = ProblemSetup(l=0.0, b=np.pi, q=lambda x: np.full_like(np.asarray(x, dtype=float), 50.0))
    rows = _read_csv(tmp_path / "kernel.csv")[1:]
    omegas = np.linspace(1.0, 30.0, 12)
    worst = 0.0
    for i in range(12):
        x = np.pi * (i + 1) / 12
        series = spectral._fit_series(setup, 20, x)
        ts = np.linspace(0.0, x, 5)
        assert [r[2] for r in rows[5 * i:5 * i + 5]] == [cli._fmt(k) for k in kernel_K(series, ts)]
        u, du = regular_solutions(setup, omegas, [x])
        for om, want, slope in zip(omegas, u[:, 0], du[:, 0]):
            got = apply_transmutation(series, lambda t, om=om: np.sin(om * t) / om, x,
                                      omega_hint=om)
            worst = max(worst, abs(got - want) / np.hypot(want, slope / om))
    assert worst <= 1e-6


@pytest.mark.parametrize("how", ["flag", "config"])
def test_kernel_rejects_fit_size_at_integer_l(tmp_path, capsys, how):
    # at integer l each column fits its own series, of length --N; a fit
    # size M is refused by name, as spectrum refuses it
    argv = ["kernel", "--l", "1", "--potential", "poly:0,0,1", "--nx", "2",
            "--out", str(tmp_path)]
    if how == "flag":
        argv += ["--M", "25"]
    else:
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"fit": {"M": 25}}))
        argv += ["--config", str(cfg_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: kernel takes no fit size M at integer l") and "--N" in err
    assert not (tmp_path / "kernel.csv").exists()


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


@pytest.mark.parametrize("l", ["1", "2"])
def test_validate_passes_a_strong_potential(tmp_path, l):
    # q == 50: the transmutation check on a beta table cut where its
    # coefficients stop decaying failed at 3.3e-4 (l = 1) and 1.5e-6
    # (l = 2) against 1e-6; the d fit at S = M passes
    rc = main(["validate", "--l", l, "--potential", "poly:50", "--out", str(tmp_path)])
    report = json.loads((tmp_path / "validate_report.json").read_text())
    assert rc == 0, report["checks"]
    check = {c["name"]: c for c in report["checks"]}["transmutation-property"]
    assert check["value"] <= 1e-7


def test_validate_fault_injection_fails(tmp_path, capsys):
    rc = main(["validate", "--l", "1", "--potential", "poly:0,0,1",
               "--M", "16", "--perturb-beta", "1e-3", "--out", str(tmp_path)])
    assert rc == 1
    report = json.loads((tmp_path / "validate_report.json").read_text())
    assert report["all_passed"] is False
    assert "FAIL" in capsys.readouterr().out


def test_validate_leaves_the_default_M_to_the_suite(tmp_path, monkeypatch):
    """validate passes M to run_validation only when --M is given, so the
    suite's default has one owner."""
    seen = []
    monkeypatch.setattr(cli, "run_validation", lambda setup, **kw: seen.append(kw) or [])
    for extra in ([], ["--M", "16"]):
        main(["validate", "--l", "0", "--potential", "poly:20", "--out", str(tmp_path), *extra])
    assert "M" not in seen[0] and seen[1]["M"] == 16


def test_validate_long_half_integer_fit_keeps_the_diagonal(tmp_path):
    # non-integer l checks the diagonal on an l = 1 table of the same M;
    # at M = 60 its full length failed a healthy q = 20 (0.40 vs 0.031)
    main(["validate", "--l", "0.5", "--potential", "poly:20", "--M", "60",
          "--out", str(tmp_path)])
    report = json.loads((tmp_path / "validate_report.json").read_text())
    check = {c["name"]: c for c in report["checks"]}["goursat-diagonal"]
    assert check["passed"], check


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


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_perturb_beta_exit_2(tmp_path, capsys, value):
    rc = main(["validate", "--l", "1", "--perturb-beta", value, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "validate.perturb_beta" in err
    assert not (tmp_path / "validate_report.json").exists()


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
