"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 splits into rates and magnitudes; the L2-magnitude comparison
against the published table is implemented faithfully and is expected to
fail red: with solves at relative residual 1e-10 the discrete L2 error
lands ~7x below the published values, which sit far above the
best-approximation floor of this mesh family (see the analysis notes in
the repository README).
"""

import time

import numpy as np
import pytest

from sbmlab import analysis as an
from sbmlab import cli
from sbmlab import geometry as geo
from sbmlab import linsolve
from sbmlab import mesh as msh
from sbmlab.assembly import assemble, build_boundary_quadrature

# published corner-test reference values: h -> (l2 error, h1 error)
TABLE1 = {
    8.10e-2: (9.02e-3, 1.22e-1),
    4.05e-2: (4.34e-3, 5.94e-2),
    2.03e-2: (1.75e-3, 3.75e-2),
    1.01e-2: (6.69e-4, 2.37e-2),
    5.07e-3: (2.41e-4, 1.50e-2),
}


def report(line):
    print(f"\n[acceptance] {line}")


def parse_csv(path):
    rows = []
    for line in path.read_text().strip().splitlines()[1:]:
        cells = line.split(",")
        rows.append({
            "h": float(cells[0]), "dofs": int(cells[1]),
            "l2": float(cells[2]), "h1": float(cells[4]),
            "energy": float(cells[6]), "remainder": float(cells[8]),
        })
    return rows


def run_study(out_dir, *args):
    code = cli.main(["study", "--out", str(out_dir), *args])
    assert code == 0, "study run failed"


@pytest.fixture(scope="session")
def corner_study(tmp_path_factory):
    # defaults are the corner experiment: corner23, gamma=10, n0=20 (so the
    # coarsest h is ~8e-2), 5 levels
    out = tmp_path_factory.mktemp("criterion1")
    t0 = time.perf_counter()
    run_study(out)
    elapsed = time.perf_counter() - t0
    path = out / "study_corner_corner23.csv"
    return path.read_bytes(), parse_csv(path), elapsed


def fitted_slope(rows, key):
    return an.fit_rates([(r["h"], r[key]) for r in rows])


def test_criterion_1_corner_rates(corner_study):
    _, rows, elapsed = corner_study
    h1_slope = fitted_slope(rows, "h1")
    l2_slope = fitted_slope(rows, "l2")
    ok = 0.56 <= h1_slope <= 0.76 and 1.1 <= l2_slope <= 1.55
    report(f"criterion 1 (corner rates): {'PASS' if ok else 'FAIL'} "
           f"h1 slope {h1_slope:.4f} in [0.56, 0.76]; "
           f"l2 slope {l2_slope:.4f} in [1.10, 1.55]; "
           f"runtime {elapsed:.1f}s (expected < 120s)")
    assert 0.56 <= h1_slope <= 0.76
    assert 1.1 <= l2_slope <= 1.55


def comparable_row(rows, h_ref):
    return min(rows, key=lambda r: abs(r["h"] - h_ref))


def test_criterion_1_h1_magnitude(corner_study):
    _, rows, _ = corner_study
    row = comparable_row(rows, 1.01e-2)
    ratio = row["h1"] / TABLE1[1.01e-2][1]
    ok = 1.0 / 3.0 <= ratio <= 3.0
    report(f"criterion 1 (h1 magnitude at h~1e-2): "
           f"{'PASS' if ok else 'FAIL'} measured {row['h1']:.3e}, "
           f"published 2.37e-2, ratio {ratio:.3f} in [0.33, 3.0]")
    assert 1.0 / 3.0 <= ratio <= 3.0


def test_criterion_1_l2_magnitude(corner_study):
    _, rows, _ = corner_study
    row = comparable_row(rows, 1.01e-2)
    ratio = row["l2"] / TABLE1[1.01e-2][0]
    ok = 1.0 / 3.0 <= ratio <= 3.0
    report(f"criterion 1 (l2 magnitude at h~1e-2): "
           f"{'PASS' if ok else 'FAIL'} measured {row['l2']:.3e}, "
           f"published 6.69e-4, ratio {ratio:.3f} in [0.33, 3.0]")
    assert 1.0 / 3.0 <= ratio <= 3.0, (
        "known red, cause open: the measured L2 error at n=160 is 0.140 "
        "of the published value, which is 44.9x the L2-projection error "
        "on this mesh (1.490e-5). A solve stopped at a 1e-5 residual "
        "(study --tol 1e-5) still gives 0.141, and gamma=1000 gives "
        "0.838. The companion rate and h1 checks pass.")


def test_criterion_2_smooth_optimal_rates(tmp_path_factory):
    out = tmp_path_factory.mktemp("criterion2")
    run_study(out, "--domain", "square", "--solution", "sinsin",
              "--n0", "8", "--levels", "4")
    rows = parse_csv(out / "study_square_sinsin.csv")
    sq_l2 = fitted_slope(rows, "l2")
    sq_h1 = fitted_slope(rows, "h1")

    run_study(out, "--domain", "disk", "--solution", "sinsin",
              "--n0", "16", "--levels", "4")
    rows = parse_csv(out / "study_disk_sinsin.csv")
    dk_l2 = fitted_slope(rows, "l2")
    dk_h1 = fitted_slope(rows, "h1")

    ok = (1.9 <= sq_l2 <= 2.1 and 0.9 <= sq_h1 <= 1.1
          and dk_h1 >= 0.9 and dk_l2 >= 1.4)
    report(f"criterion 2 (smooth rates): {'PASS' if ok else 'FAIL'} "
           f"fitted square l2 {sq_l2:.3f} in [1.9, 2.1], h1 {sq_h1:.3f} in "
           f"[0.9, 1.1]; unfitted disk h1 {dk_h1:.3f} >= 0.9, "
           f"l2 {dk_l2:.3f} >= 1.4")
    assert 1.9 <= sq_l2 <= 2.1
    assert 0.9 <= sq_h1 <= 1.1
    assert dk_h1 >= 0.9
    assert dk_l2 >= 1.4


def remainder_series(domain_name, solution_name, ns):
    sol = geo.solution_by_name(solution_name)
    dom = geo.bind_dirichlet(geo.domain_by_name(domain_name), sol)
    series = []
    for n in ns:
        mesh_ = msh.surrogate_mesh(dom, n)
        quad = build_boundary_quadrature(mesh_, dom, 3)
        series.append((msh.mesh_params(mesh_)[1],
                       an.remainder_norm(mesh_, quad, sol)))
    return an.fit_rates(series)


def test_criterion_3_remainder_decay():
    disk = remainder_series("disk", "sinsin", (16, 32, 64, 128))
    corner = remainder_series("corner", "corner23", (20, 40, 80, 160))
    ok = disk >= 0.9 and 0.56 <= corner <= 0.8
    report(f"criterion 3 (remainder decay): {'PASS' if ok else 'FAIL'} "
           f"disk slope {disk:.3f} >= 0.9; corner slope {corner:.3f} "
           f"in [0.56, 0.80]")
    assert disk >= 0.9
    assert 0.56 <= corner <= 0.8


def test_criterion_4_algebraic_identity_suite(corner_problem,
                                              fitted_square_problem,
                                              disk_problem):
    rng = np.random.default_rng(20240812)
    worst = 0.0
    for _, _, mesh_, quad, system in (corner_problem, disk_problem,
                                      fitted_square_problem):
        for _ in range(50):
            w = rng.standard_normal(system.dim)
            v = rng.standard_normal(system.dim)
            worst = max(worst,
                        an.nonsymmetry_residual(system, mesh_, quad, w, v))

    affine = geo.make_affine_solution(0.3, 0.7, -0.4)
    adom = geo.bind_dirichlet(geo.domain_by_name("corner"), affine)
    amesh = msh.surrogate_mesh(adom, 12)
    aquad = build_boundary_quadrature(amesh, adom, 3)
    asys = assemble(amesh, aquad, affine, 10.0)
    arep = linsolve.solve(asys)
    patch = max(an.error_norms(amesh, arep.solution, affine))
    remainder = an.remainder_norm(amesh, aquad, affine)

    *_, fsys = fitted_square_problem
    asym = float(np.abs(fsys.matrix - fsys.matrix.T).max())

    alphas = [an.coercivity_estimate(s, m, q) for _, _, m, q, s in
              (corner_problem, disk_problem, fitted_square_problem)]

    ok = (worst <= 1e-10 and patch <= 1e-10 and asym <= 1e-12
          and remainder <= 1e-12 and min(alphas) > 0.0)
    report(f"criterion 4 (identity suite): {'PASS' if ok else 'FAIL'} "
           f"nonsymmetry {worst:.2e} <= 1e-10; patch {patch:.2e} <= 1e-10; "
           f"fitted asymmetry {asym:.2e} <= 1e-12; affine remainder "
           f"{remainder:.2e} <= 1e-12; min coercivity {min(alphas):.3e} > 0")
    assert worst <= 1e-10
    assert patch <= 1e-10
    assert asym <= 1e-12
    assert remainder <= 1e-12
    assert min(alphas) > 0.0


def test_criterion_5_distance_smallness_enforcement():
    sol = geo.make_sinsin_solution()
    dom = geo.bind_dirichlet(geo.make_disk_domain(), sol)
    ratios, area_floors = [], []
    for n in (8, 16, 32):
        mesh_ = msh.surrogate_mesh(dom, n)
        areas0 = mesh_.triangle_areas()
        shifted = msh.shift_boundary_nodes(mesh_, dom, zeta=0.5, c_d=1.0)
        quad = build_boundary_quadrature(shifted, dom, 3)
        ratios.append(float((np.linalg.norm(quad.d, axis=-1)
                             / quad.h_owner[:, None] ** 1.5).max()))
        area_floors.append(float((shifted.triangle_areas() / areas0).min()))
    ok = max(ratios) <= 1.0 + 1e-9 and min(area_floors) >= 0.2
    report(f"criterion 5 (distance smallness): {'PASS' if ok else 'FAIL'} "
           f"max |d|/h^1.5 {max(ratios):.6f} <= 1+1e-9 over 3 refinements; "
           f"min area ratio {min(area_floors):.3f} >= 0.2")
    assert max(ratios) <= 1.0 + 1e-9
    assert min(area_floors) >= 0.2


def test_criterion_6_determinism(corner_study, tmp_path_factory):
    first_bytes, _, _ = corner_study
    out = tmp_path_factory.mktemp("criterion6")
    run_study(out)
    second_bytes = (out / "study_corner_corner23.csv").read_bytes()
    ok = first_bytes == second_bytes
    report(f"criterion 6 (determinism): {'PASS' if ok else 'FAIL'} "
           f"two study runs produced byte-identical CSV "
           f"({len(first_bytes)} bytes)")
    assert first_bytes == second_bytes

    # emitted rate columns agree with rates recomputed from h/error columns
    lines = first_bytes.decode().strip().splitlines()[1:]
    cells = [line.split(",") for line in lines]
    hs = [float(r[0]) for r in cells]
    for col, rate_col in ((2, 3), (4, 5), (6, 7), (8, 9)):
        errs = [float(r[col]) for r in cells]
        for i in range(1, len(cells)):
            expect = np.log(errs[i - 1] / errs[i]) / np.log(hs[i - 1] / hs[i])
            assert abs(float(cells[i][rate_col]) - expect) <= 1e-9
