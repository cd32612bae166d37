import itertools
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg

from sbmlab import analysis as an
from sbmlab import geometry as geo
from sbmlab import linsolve
from sbmlab import mesh as msh
from sbmlab.assembly import (TRI_RULE_DEG4, build_boundary_quadrature,
                             p1_gradients)
from conftest import make_problem


# ---------------------------------------------------------------------------
# error norms
# ---------------------------------------------------------------------------

def test_error_norms_affine_interpolant_is_exact(corner_problem):
    _, _, mesh_, _, _ = corner_problem
    sol = geo.make_affine_solution(0.2, -1.1, 0.6)
    interp = np.asarray(sol.eval(mesh_.vertices))
    l2, h1 = an.error_norms(mesh_, interp, sol)
    assert l2 <= 1e-12 and h1 <= 1e-12


def test_error_norms_constant_one():
    dom = geo.make_square_domain()
    mesh_ = msh.surrogate_mesh(dom, 8)
    sol = geo.make_affine_solution(1.0, 0.0, 0.0)
    l2, h1 = an.error_norms(mesh_, np.zeros(mesh_.num_vertices), sol)
    assert abs(l2 - 1.0) <= 1e-12
    assert h1 <= 1e-12


def test_interpolation_error_second_order():
    dom = geo.make_square_domain()
    sol = geo.make_sinsin_solution()
    errs = []
    for n in (16, 32):
        mesh_ = msh.surrogate_mesh(dom, n)
        interp = np.asarray(sol.eval(mesh_.vertices))
        errs.append(an.error_norms(mesh_, interp, sol)[0])
    assert abs(errs[0] / errs[1] - 4.0) <= 0.4


def _error_norms_oracle(mesh_, u_h, sol):
    """Whole-array (L2, H1) errors: every quadrature point of every
    triangle evaluated at once."""
    bary, wts = TRI_RULE_DEG4
    p = mesh_.vertices[mesh_.triangles]
    areas = mesh_.triangle_areas()
    grads = p1_gradients(p)
    vals = u_h[mesh_.triangles]
    qp = np.einsum("qk,tkd->tqd", bary, p)
    flat = qp.reshape(-1, 2)
    ue = np.asarray(sol.eval(flat), dtype=float).reshape(qp.shape[:2])
    ge = np.asarray(sol.grad(flat), dtype=float).reshape(qp.shape[:2] + (2,))
    uh_q = np.einsum("tk,qk->tq", vals, bary)
    gh = np.einsum("tk,tkd->td", vals, grads)
    e2 = np.einsum("tq,q,t->", (ue - uh_q) ** 2, wts, areas)
    g2 = np.einsum("tqd,q,t->", (ge - gh[:, None, :]) ** 2, wts, areas)
    return math.sqrt(e2), math.sqrt(g2)


@pytest.mark.parametrize("block", [1, 7, 1000, 1 << 15])
@pytest.mark.parametrize("name, sol_name, n",
                         [("corner", "corner23", 40), ("disk", "sinsin", 32)])
def test_error_norms_blocks_match_whole_array_oracle(monkeypatch, name,
                                                     sol_name, n, block):
    sol = geo.solution_by_name(sol_name)
    mesh_ = msh.surrogate_mesh(geo.domain_by_name(name), n)
    x, y = mesh_.vertices.T
    u_h = np.asarray(sol.eval(mesh_.vertices)) + 1e-3 * np.sin(7 * x + y)
    monkeypatch.setattr(an, "_ERROR_BLOCK", block)
    l2, h1 = an.error_norms(mesh_, u_h, sol)
    ref_l2, ref_h1 = _error_norms_oracle(mesh_, u_h, sol)
    assert abs(l2 - ref_l2) <= 1e-13 * ref_l2
    assert abs(h1 - ref_h1) <= 1e-13 * ref_h1


def test_error_norms_memory_is_bounded_by_the_block():
    sol = geo.solution_by_name("corner23")
    mesh_ = msh.surrogate_mesh(geo.domain_by_name("corner"), 320)
    interp = np.asarray(sol.eval(mesh_.vertices))
    tracemalloc.start()
    try:
        an.error_norms(mesh_, interp, sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole-array evaluation peaked at 139.4 MB here, and blocks of
    # 2^15 triangles at 29.6 MB
    assert peak <= 16 * 2 ** 20


@pytest.mark.parametrize("extra", [3, -1])
def test_nodal_field_of_wrong_length_is_rejected(corner_problem, extra):
    _, sol, mesh_, quad, _ = corner_problem
    v = np.zeros(mesh_.num_vertices + extra)
    expect = re.escape(f"has shape ({v.size},), but the mesh has "
                       f"{mesh_.num_vertices} vertices")
    with pytest.raises(ValueError, match=expect):
        an.error_norms(mesh_, v, sol)
    with pytest.raises(ValueError, match=expect):
        an.energy_norm(mesh_, quad, v)
    with pytest.raises(ValueError, match=expect):
        an.error_report(mesh_, quad, v, sol)


def test_nodal_field_as_list_is_accepted(corner_problem):
    _, sol, mesh_, quad, _ = corner_problem
    v = np.linspace(0.0, 1.0, mesh_.num_vertices)
    lst = v.tolist()
    assert an.error_norms(mesh_, lst, sol) == an.error_norms(mesh_, v, sol)
    assert an.energy_norm(mesh_, quad, lst) == an.energy_norm(mesh_, quad, v)
    assert (an.error_report(mesh_, quad, lst, sol)
            == an.error_report(mesh_, quad, v, sol))


# ---------------------------------------------------------------------------
# energy norm
# ---------------------------------------------------------------------------

def test_energy_norm_zero(corner_problem):
    _, _, mesh_, quad, _ = corner_problem
    assert an.energy_norm(mesh_, quad, np.zeros(mesh_.num_vertices)) == 0.0


def test_energy_norm_constant_on_fitted_mesh(fitted_square_problem):
    _, _, mesh_, quad, _ = fitted_square_problem
    ones = np.ones(mesh_.num_vertices)
    expect = math.sqrt(float((mesh_.edge_lengths() / quad.h_owner).sum()))
    assert abs(an.energy_norm(mesh_, quad, ones) - expect) <= 1e-12


def test_energy_norm_matches_gram_matrix(corner_problem, rng):
    _, _, mesh_, quad, _ = corner_problem
    gram = an.energy_gram(mesh_, quad)
    for _ in range(5):
        v = rng.standard_normal(mesh_.num_vertices)
        direct = an.energy_norm(mesh_, quad, v)
        viagram = math.sqrt(float(v @ (gram @ v)))
        assert abs(direct - viagram) <= 1e-11 * max(1.0, viagram)


def test_energy_error_dominates_h1(corner_problem):
    dom, sol, mesh_, quad, system = corner_problem
    rep = linsolve.solve(system)
    report = an.error_report(mesh_, quad, rep.solution, sol)
    assert report.err_energy ** 2 - report.err_h1 ** 2 >= -1e-12
    assert report.dofs == mesh_.num_vertices
    assert np.isfinite([report.err_l2, report.err_h1, report.err_energy,
                        report.remainder]).all()


@pytest.mark.parametrize("problem", ["corner_problem", "disk_problem"])
def test_error_report_reuses_h1_exactly(problem, request):
    dom, sol, mesh_, quad, system = request.getfixturevalue(problem)
    u_h = linsolve.solve(system).solution
    report = an.error_report(mesh_, quad, u_h, sol)
    _, h1 = an.error_norms(mesh_, u_h, sol)
    assert report.err_h1 == h1
    assert an.energy_error(mesh_, quad, u_h, sol, h1) == report.err_energy


# ---------------------------------------------------------------------------
# remainder norm
# ---------------------------------------------------------------------------

def test_remainder_vanishes_for_affine():
    sol = geo.make_affine_solution(0.4, 0.9, -0.3)
    dom = geo.bind_dirichlet(geo.domain_by_name("corner"), sol)
    mesh_ = msh.surrogate_mesh(dom, 12)
    quad = build_boundary_quadrature(mesh_, dom, 3)
    assert an.remainder_norm(mesh_, quad, sol) <= 1e-12


def test_remainder_vanishes_on_fitted_mesh(fitted_square_problem):
    _, sol, mesh_, quad, _ = fitted_square_problem
    assert an.remainder_norm(mesh_, quad, sol) <= 1e-12


def test_remainder_finite_with_quadrature_point_on_corner(corner_problem):
    # a sample sitting exactly on the singular corner is nudged along its
    # edge instead of producing a non-finite gradient
    from dataclasses import replace

    dom, sol, mesh_, quad, _ = corner_problem
    pts = quad.points.copy()
    e = int(np.argmin(np.linalg.norm(pts.reshape(-1, 2), axis=1))) // quad.nq
    pts[e, 0] = 0.0
    value = an.remainder_norm(mesh_, replace(quad, points=pts), sol)
    assert np.isfinite(value)


def test_error_report_finite_with_one_gauss_point_on_corner():
    # at odd n an edge midpoint sits on the corner; with one Gauss point
    # per edge the nudge direction must come from the edge, not its points
    dom, sol, mesh_, quad, system = make_problem("corner", "corner23", 7,
                                                 nq_edge=1)
    assert np.any(np.linalg.norm(quad.points, axis=-1) < 1e-14)
    u_h = linsolve.solve(system).solution
    rep = an.error_report(mesh_, quad, u_h, sol)
    assert np.isfinite([rep.err_energy, rep.remainder]).all()


def test_remainder_decays_on_disk():
    sol = geo.make_sinsin_solution()
    dom = geo.bind_dirichlet(geo.make_disk_domain(), sol)
    values = []
    for n in (16, 32):
        mesh_ = msh.surrogate_mesh(dom, n)
        quad = build_boundary_quadrature(mesh_, dom, 3)
        values.append(an.remainder_norm(mesh_, quad, sol))
    assert values[0] / values[1] >= 2.0 - 0.2


# ---------------------------------------------------------------------------
# coercivity
# ---------------------------------------------------------------------------

def dense_min_eig(system, mesh_, quad):
    a_sym = 0.5 * (system.matrix + system.matrix.T).toarray()
    gram = an.energy_gram(mesh_, quad).toarray()
    return float(scipy.linalg.eigh(a_sym, gram, eigvals_only=True)[0])


def test_coercivity_positive_matches_dense_oracle(fitted_square_problem):
    _, _, mesh_, quad, system = fitted_square_problem
    alpha = an.coercivity_estimate(system, mesh_, quad)
    dense = dense_min_eig(system, mesh_, quad)
    assert alpha > 0.0
    assert abs(alpha - dense) <= 1e-8 * max(1.0, abs(dense))


def test_coercivity_reports_negative_without_failing():
    dom, sol, mesh_, quad, system = make_problem("corner", "corner23", 12,
                                                 gamma=0.01)
    alpha = an.coercivity_estimate(system, mesh_, quad)
    dense = dense_min_eig(system, mesh_, quad)
    assert alpha <= 0.0
    assert abs(alpha - dense) <= 1e-8 * max(1.0, abs(dense))


def test_coercivity_above_2000_dofs_matches_dense_oracle():
    # n=52 gives 2,126 dofs, beyond the size where the estimate used to be
    # a sampled upper bound; the eigensolve must find the true minimum for
    # a coercive form and for one that is not
    for gamma, sign in ((10.0, 1.0), (0.01, -1.0)):
        dom, sol, mesh_, quad, system = make_problem("corner", "corner23",
                                                     52, gamma=gamma)
        assert system.dim > 2000
        alpha = an.coercivity_estimate(system, mesh_, quad)
        dense = dense_min_eig(system, mesh_, quad)
        assert alpha * sign > 0.0
        assert abs(alpha - dense) <= 1e-8 * abs(dense)
        assert alpha.record["method"] == "arpack-shift-invert"
        assert alpha.record["shift"] < alpha
        assert alpha.record["eigen_residual"] <= 1e-8


def test_shift_inertia_test_brackets_the_minimum(corner_problem):
    _, _, mesh_, quad, system = corner_problem
    a_sym = (0.5 * (system.matrix + system.matrix.T)).tocsc()
    gram = an.energy_gram(mesh_, quad).tocsc()
    dense = dense_min_eig(system, mesh_, quad)
    assert an._factor_below(a_sym, gram, dense - 1e-6) is not None
    assert an._factor_below(a_sym, gram, dense + 1e-6) is None


def _watch_factors(monkeypatch, refuse=()):
    """Wrap ``_factor_below`` to log each shift, refuse the calls whose index
    is in ``refuse``, and assert on each call that every operator returned
    before is dead. An operator's matvec is bound to its SuperLU factor, so
    a dead operator means a freed factor."""
    real = an._factor_below
    shifts, earlier = [], []

    def watched(a_sym, m, shift):
        assert all(ref() is None for ref in earlier)
        shifts.append(shift)
        op = None if len(shifts) - 1 in refuse else real(a_sym, m, shift)
        if op is not None:
            earlier.append(weakref.ref(op))
        return op

    monkeypatch.setattr(an, "_factor_below", watched)
    return shifts


def test_coercivity_holds_one_factor_at_a_time(corner_problem, monkeypatch):
    _, _, mesh_, quad, system = corner_problem
    shifts = _watch_factors(monkeypatch)
    alpha = an.coercivity_estimate(system, mesh_, quad)
    assert len(shifts) == alpha.record["factorizations"] == 2
    assert alpha.record["shift"] == shifts[1]


def test_coercivity_keeps_first_shift_when_reshift_is_rejected(
        corner_problem, monkeypatch):
    # when the inertia test rejects the shift near the rough estimate, the
    # first shift is factored again and the tight solve still finds the
    # minimum there
    _, _, mesh_, quad, system = corner_problem
    shifts = _watch_factors(monkeypatch, refuse={1})
    alpha = an.coercivity_estimate(system, mesh_, quad)
    dense = dense_min_eig(system, mesh_, quad)
    s0, near = shifts[0], shifts[1]
    assert shifts == [s0, near, s0] and s0 < 0.0 < near
    assert alpha.record["shift"] == s0
    assert alpha.record["factorizations"] == 3
    assert abs(alpha - dense) <= 1e-8 * max(1.0, abs(dense))


@pytest.mark.parametrize("name,solution,zeta", [
    pytest.param("square", "sinsin", None, id="square"),
    pytest.param("disk", "sinsin", None, id="disk"),
    pytest.param("disk", "sinsin", 0.5, id="shifted-disk"),
    pytest.param("corner", "corner23", None, id="corner"),
])
@pytest.mark.parametrize("gamma", [0.01, 10.0])
def test_coercivity_survey_matches_dense_oracle(name, solution, zeta, gamma):
    _, _, mesh_, quad, system = make_problem(name, solution, 24, gamma=gamma,
                                             zeta=zeta)
    alpha = an.coercivity_estimate(system, mesh_, quad)
    dense = dense_min_eig(system, mesh_, quad)
    assert abs(alpha - dense) <= 1e-8 * max(1.0, abs(dense))
    assert alpha.record["shift"] < alpha
    # one factorization per shift doubling from -1 to below the spectrum,
    # then one at the re-shift: no fallback to the first shift
    doublings = next(k for k in itertools.count() if -2.0 ** k < dense)
    assert alpha.record["factorizations"] == 2 + doublings


def test_coercivity_without_shift_below_spectrum_raises(corner_problem,
                                                        monkeypatch):
    _, _, mesh_, quad, system = corner_problem
    monkeypatch.setattr(an, "_factor_below", lambda a_sym, m, shift: None)
    with pytest.raises(linsolve.SolveError, match="no shift below"):
        an.coercivity_estimate(system, mesh_, quad)


def test_coercivity_is_a_lower_bound(corner_problem, rng):
    _, _, mesh_, quad, system = corner_problem
    alpha = an.coercivity_estimate(system, mesh_, quad)
    a_sym = 0.5 * (system.matrix + system.matrix.T)
    gram = an.energy_gram(mesh_, quad)
    for _ in range(100):
        v = rng.standard_normal(system.dim)
        quotient = float(v @ (a_sym @ v)) / float(v @ (gram @ v))
        assert alpha <= quotient + 1e-9


# ---------------------------------------------------------------------------
# non-symmetry identity
# ---------------------------------------------------------------------------

def test_nonsymmetry_zero_for_equal_arguments(corner_problem, rng):
    _, _, mesh_, quad, system = corner_problem
    w = rng.standard_normal(system.dim)
    assert an.nonsymmetry_residual(system, mesh_, quad, w, w) == 0.0


def test_nonsymmetry_brackets_vanish_on_fitted_mesh(fitted_square_problem,
                                                    rng):
    _, _, mesh_, quad, system = fitted_square_problem
    w = rng.standard_normal(system.dim)
    v = rng.standard_normal(system.dim)
    lhs = abs(float(v @ (system.matrix @ w)) - float(w @ (system.matrix @ v)))
    scale = max(1.0, abs(float(v @ (system.matrix @ w))))
    assert lhs <= 1e-12 * scale
    assert an.nonsymmetry_residual(system, mesh_, quad, w, v) <= 1e-12


def test_nonsymmetry_identity_on_corner_mesh(corner_problem, rng):
    _, _, mesh_, quad, system = corner_problem
    worst = 0.0
    for _ in range(50):
        w = rng.standard_normal(system.dim)
        v = rng.standard_normal(system.dim)
        worst = max(worst,
                    an.nonsymmetry_residual(system, mesh_, quad, w, v))
    assert worst <= 1e-10


def test_modified_galerkin_orthogonality_for_affine():
    dom, sol, mesh_, quad, system = make_problem("corner",
                                                 "affine:0.5,-0.8,1.2", 8)
    rep = linsolve.solve(system)
    interp = np.asarray(sol.eval(mesh_.vertices))
    defect = np.abs(system.matrix @ (interp - rep.solution)).max()
    assert defect <= 1e-9


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def test_fit_rates_basic():
    assert abs(an._rate(1e-2, 2.5e-3, 0.1, 0.05) - 2.0) <= 1e-12
    assert abs(an.fit_rates([(0.1, 1e-2), (0.05, 2.5e-3)]) - 2.0) <= 1e-12


def test_fit_rates_published_corner_rows():
    # consecutive gradient-error rows of the reference convergence table
    rate = an._rate(3.75e-2, 2.37e-2, 2.03e-2, 1.01e-2)
    assert abs(rate - 0.6574) <= 5e-4
    assert round(rate, 2) == 0.66


def test_fit_rates_constant_errors():
    assert an._rate(3.0, 3.0, 0.2, 0.1) == 0.0
    assert abs(an.fit_rates([(0.2, 3.0), (0.1, 3.0), (0.05, 3.0)])) <= 1e-12


def test_fit_rates_exact_sentinel():
    assert an._rate(None, 1e-15, None, 0.1) is None
    assert math.isnan(an._rate(1e-15, 2e-15, 0.1, 0.05))
    assert math.isnan(an.fit_rates([(0.1, 1e-15), (0.05, 2e-15)]))


def test_fit_rates_recompute_consistency():
    series = [(0.4 / 2 ** k, 3.0 * (0.4 / 2 ** k) ** 1.7) for k in range(5)]
    for (h0, e0), (h1, e1) in zip(series, series[1:]):
        r = an._rate(e0, e1, h0, h1)
        assert abs(r - math.log(e0 / e1) / math.log(h0 / h1)) <= 1e-12
    assert abs(an.fit_rates(series) - 1.7) <= 1e-12


def test_fit_rates_validation():
    with pytest.raises(ValueError):
        an.fit_rates([(0.1, 1.0)])
    with pytest.raises(ValueError):
        an.fit_rates([(0.1, 1.0), (0.2, 0.5)])
