import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sbmlab import cli


def test_run_writes_vtk_and_report(tmp_path, capsys):
    code = cli.main(["run", "--domain", "corner", "--solution", "corner23",
                     "--n0", "16", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "corner_n16.vtk").exists()
    l2 = float(out.split("l2=")[1].split()[0])
    assert np.isfinite(l2) and l2 > 0.0
    solver = [line for line in out.splitlines()
              if line.startswith("solver:")]
    assert len(solver) == 1
    assert re.fullmatch(r"solver: superlu, residual=\S+", solver[0])
    assert float(solver[0].split("residual=")[1]) <= 1e-10


def test_unknown_domain_exits_2(tmp_path, capsys):
    code = cli.main(["run", "--domain", "pentagon", "--out", str(tmp_path)])
    assert code == 2
    assert "square, disk, corner" in capsys.readouterr().err


def test_nonpositive_gamma_exits_2(tmp_path, capsys):
    code = cli.main(["run", "--gamma", "0", "--out", str(tmp_path)])
    assert code == 2
    assert "gamma must be positive" in capsys.readouterr().err
    code = cli.main(["run", "--gamma", "nan", "--out", str(tmp_path)])
    assert code == 2
    assert "gamma must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "-1e-10", "nan"])
def test_nonpositive_tol_exits_2(tol, tmp_path, capsys):
    code = cli.main(["run", f"--tol={tol}", "--out", str(tmp_path)])
    assert code == 2
    assert "solver tolerance must be positive" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # rejected before any work


@pytest.mark.parametrize("flags,field", [
    (["--shift", "--zeta", "2"], "zeta"),
    (["--shift", "--c-d", "0"], "c_d"),
    (["--shift", "--c-d", "-1"], "c_d"),
    (["--zeta", "5", "--c-d", "-3"], "zeta"),
    (["--c-d", "-3"], "c_d"),
    (["--shift", "--c-d", "nan"], "c_d"),
    (["--shift", "--zeta", "nan"], "zeta"),
])
def test_bad_shift_parameters_exit_2(flags, field, tmp_path, capsys):
    code = cli.main(["run", "--domain", "disk", "--solution", "sinsin",
                     "--n0", "8", *flags, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {field} must be")
    assert not list(tmp_path.iterdir())  # rejected before any work


def test_affine_study_reports_exact(tmp_path, capsys):
    code = cli.main(["study", "--domain", "square", "--solution",
                     "affine:1,2,0.5", "--n0", "4", "--levels", "3",
                     "--out", str(tmp_path)])
    assert code == 0
    csv = (tmp_path / "study_square_affine_1_2_0.5.csv").read_text()
    lines = csv.strip().splitlines()
    assert lines[0] == ("h,dofs,l2,l2_rate,h1,h1_rate,energy,energy_rate,"
                        "remainder,remainder_rate")
    for line in lines[2:]:
        cells = line.split(",")
        assert float(cells[2]) <= 1e-10  # l2
        assert float(cells[4]) <= 1e-10  # h1
        assert cells[3] == cells[5] == "exact"
    assert "exact" in capsys.readouterr().out


def test_study_determinism_and_rate_columns(tmp_path, capsys):
    args = ["study", "--domain", "disk", "--solution", "sinsin",
            "--n0", "8", "--levels", "2"]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    csv_a = (tmp_path / "a" / "study_disk_sinsin.csv").read_bytes()
    csv_b = (tmp_path / "b" / "study_disk_sinsin.csv").read_bytes()
    assert csv_a == csv_b

    rows = [line.split(",") for line in
            csv_a.decode().strip().splitlines()[1:]]
    hs = [float(r[0]) for r in rows]
    for col, rate_col in ((2, 3), (4, 5), (6, 7), (8, 9)):
        errs = [float(r[col]) for r in rows]
        emitted = rows[1][rate_col]
        if emitted == "exact":
            continue
        recomputed = np.log(errs[0] / errs[1]) / np.log(hs[0] / hs[1])
        assert abs(float(emitted) - recomputed) <= 1e-9


def test_study_csv_does_not_depend_on_blas_threads(tmp_path):
    # n=80 and 160 run the multigrid solve, whose inner products must not
    # go through the threaded BLAS; at n=160 (19,660 dofs) a BLAS dot
    # product splits over threads and changes the CSV
    src = str(Path(__file__).resolve().parents[1] / "src")
    csvs = []
    for threads in ("1", None):
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}"
        done = subprocess.run(
            [sys.executable, "-m", "sbmlab.cli", "study", "--n0", "40",
             "--levels", "3", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        csvs.append((out / "study_corner_corner23.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_study_flushes_partial_csv_on_failure(tmp_path, capsys, monkeypatch):
    from sbmlab import linsolve

    real_solve = linsolve.solve
    calls = []

    def failing_solve(system, tol=1e-10, **kw):
        calls.append(system.dim)
        if len(calls) > 1:
            raise linsolve.SolveError("injected failure")
        return real_solve(system, tol=tol, **kw)

    monkeypatch.setattr("sbmlab.cli.linsolve.solve", failing_solve)
    code = cli.main(["study", "--domain", "square", "--solution", "sinsin",
                     "--n0", "8", "--levels", "3", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 1
    lines = (tmp_path / "study_square_sinsin.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus the one completed level


def test_verify_passes_with_default_penalty(tmp_path, capsys):
    code = cli.main(["verify", "--n0", "12", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    names = {entry["check"] for entry in report}
    assert {"nonsymmetry_identity", "coercivity_positive",
            "affine_patch_test", "affine_remainder_vanishes",
            "fitted_mesh_symmetry"} <= names
    assert all(entry["pass"] for entry in report)
    coerc = {e["check"]: e for e in report}["coercivity_positive"]
    assert coerc["method"] == "arpack-shift-invert"
    assert coerc["shift"] < coerc["measured"]
    assert coerc["eigen_residual"] <= 1e-8
    assert coerc["factorizations"] == 2
    assert "PASS" in capsys.readouterr().out


def test_verify_flags_small_penalty(tmp_path, capsys):
    code = cli.main(["verify", "--n0", "12", "--gamma", "0.01",
                     "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "verify_report.json").read_text())
    flagged = {e["check"]: e["pass"] for e in report}
    assert flagged["coercivity_positive"] is False
    assert "FAIL coercivity_positive" in capsys.readouterr().out


def test_verify_eigensolve_failure_exits_1(tmp_path, capsys, monkeypatch):
    from scipy.sparse.linalg import ArpackNoConvergence

    def no_convergence(a, **kw):
        raise ArpackNoConvergence("ARPACK error -1: No convergence",
                                  np.empty(0), np.empty((a.shape[0], 0)))

    monkeypatch.setattr("sbmlab.analysis.spla.eigsh", no_convergence)
    code = cli.main(["verify", "--n0", "12", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: coercivity eigensolve (ARPACK shift-invert, "
                          "shift -")
    assert "No convergence" in err


def test_verify_checks_distance_bound_when_shifting(tmp_path):
    code = cli.main(["verify", "--domain", "disk", "--solution", "sinsin",
                     "--n0", "8", "--shift", "--zeta", "0.5",
                     "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    by_name = {e["check"]: e for e in report}
    assert by_name["distance_smallness"]["pass"]
    assert by_name["distance_smallness"]["measured"] <= 1.0 + 1e-9


def test_verify_passes_on_shifted_disk_at_n0_128(tmp_path):
    # the coercivity eigensolve on a node-shifted mesh (at n0=160 the
    # shift itself still fails)
    code = cli.main(["verify", "--domain", "disk", "--solution", "sinsin",
                     "--shift", "--zeta", "0.5", "--n0", "128",
                     "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert len(report) == 6 and all(e["pass"] for e in report)
    by_name = {e["check"]: e for e in report}
    assert by_name["coercivity_positive"]["measured"] > 0.0
    assert by_name["distance_smallness"]["measured"] <= 1.0 + 1e-9


def test_config_file_with_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"domain": "disk", "n0": 8, "gamma": 4}))
    cfg = cli.load_config(str(path), {"n0": 16})
    assert cfg.domain == "disk"
    assert cfg.n0 == 16
    assert cfg.gamma == 4.0 and type(cfg.gamma) is float  # an int is a float


@pytest.mark.parametrize("text,key", [
    ('{"n0": "20"}', "'n0' must be int"),
    ('{"n0": 20.5}', "'n0' must be int"),
    ('{"n0": true}', "'n0' must be int"),
    ('{"shift_enabled": "no"}', "'shift_enabled' must be bool"),
    ('{"shift_enabled": 1}', "'shift_enabled' must be bool"),
    ('{"gamma": "10"}', "'gamma' must be float"),
    ('{"gamma": false}', "'gamma' must be float"),
    ('{"domain": 3}', "'domain' must be str"),
    ('[{"n0": 20}]', "must hold a JSON object"),
])
def test_config_value_types_exit_2(text, key, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"penalty": 10.0}))
    with pytest.raises(cli.ConfigError, match="penalty"):
        cli.load_config(str(path), {})


def test_odd_n0_on_corner_exits_2(tmp_path, capsys):
    code = cli.main(["study", "--n0", "21", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "n0 must be even" in err
    assert "re-entrant corner" in err
    assert not (tmp_path / "study_corner_corner23.csv").exists()
    with pytest.raises(cli.ConfigError, match="re-entrant corner"):
        cli.load_config(None, {"domain": "corner", "n0": 15})
    # other domains have no corner to hit
    assert cli.load_config(None, {"domain": "disk", "n0": 15}).n0 == 15


def test_config_validation():
    with pytest.raises(cli.ConfigError, match="n0"):
        cli.load_config(None, {"n0": 2})
    with pytest.raises(cli.ConfigError, match="levels"):
        cli.load_config(None, {"levels": 0})
