import json

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


def test_unknown_domain_exits_2(tmp_path, capsys):
    code = cli.main(["run", "--domain", "pentagon", "--out", str(tmp_path)])
    assert code == 2
    assert "square, disk, corner" in capsys.readouterr().err


def test_nonpositive_gamma_exits_2(tmp_path, capsys):
    code = cli.main(["run", "--gamma", "0", "--out", str(tmp_path)])
    assert code == 2
    assert "gamma must be positive" in capsys.readouterr().err


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


def test_config_file_with_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"domain": "disk", "n0": 8, "gamma": 4.0}))
    cfg = cli.load_config(str(path), {"n0": 16})
    assert cfg.domain == "disk"
    assert cfg.n0 == 16
    assert cfg.gamma == 4.0


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
