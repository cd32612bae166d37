import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from sbmlab import assembly as asm
from sbmlab import geometry as geo
from sbmlab import mesh as msh
from conftest import make_problem


def test_p1_stiffness_unit_right_triangle():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    grads = asm.p1_gradients(tri)
    k = 0.5 * grads @ grads.T
    expect = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    np.testing.assert_allclose(k, expect, atol=1e-14)


def one_triangle_shift(tri, vals, x, d):
    """edge_basis's shift operator on a one-triangle mesh, contracted with
    nodal values: v(x) + grad(v) . d for each (x, d) pair on every edge."""
    t = np.array([[0, 1, 2]])
    ev = np.array([[0, 1], [1, 2], [2, 0]])
    m = msh.TriMesh(vertices=tri, triangles=t, edge_vertices=ev,
                    edge_owner=np.zeros(3, dtype=int),
                    edge_normal=msh._normals(tri, ev),
                    h_per_triangle=msh._diameters(tri, t))
    ne = m.edge_owner.size
    quad = SimpleNamespace(points=np.broadcast_to(x, (ne,) + x.shape),
                           d=np.broadcast_to(d, (ne,) + d.shape))
    etri, _, _, sh = asm.edge_basis(m, quad)
    return np.einsum("eqk,ek->eq", sh, vals[etri])


def test_shift_eval_exact_for_affine(rng):
    tri = np.array([[0.1, 0.2], [0.9, 0.3], [0.4, 1.1]])
    a, b, c = 0.7, -1.3, 2.1
    vals = a + b * tri[:, 0] + c * tri[:, 1]
    x = tri.mean(axis=0) + rng.uniform(-0.1, 0.1, (10, 2))
    d = rng.uniform(-0.5, 0.5, (10, 2))
    target = a + b * (x[:, 0] + d[:, 0]) + c * (x[:, 1] + d[:, 1])
    assert np.abs(one_triangle_shift(tri, vals, x, d) - target).max() <= 1e-13
    assert np.abs(one_triangle_shift(tri, vals, x, np.zeros_like(d))
                  - (a + b * x[:, 0] + c * x[:, 1])).max() <= 1e-13


def test_shift_eval_hat_function_cancellation():
    h = 0.25
    tri = np.array([[0.0, 0.0], [h, 0.0], [0.0, h]])
    hat = np.array([1.0, 0.0, 0.0])  # gradient (-1/h, -1/h)
    val = one_triangle_shift(tri, hat, np.array([[0.0, 0.0]]),
                             np.array([[h, 0.0]]))
    assert np.abs(val).max() <= 1e-14


def classical_nitsche(mesh_, domain, sol, gamma, nq):
    """Plain Nitsche assembly on a boundary-fitted mesh (test oracle)."""
    nv = mesh_.num_vertices
    a = np.zeros((nv, nv))
    b = np.zeros(nv)
    xi, wref = asm.gauss_segment(nq)
    for t, tri in enumerate(mesh_.triangles):
        p = mesh_.vertices[tri]
        g = asm.p1_gradients(p)
        e1, e2 = p[1] - p[0], p[2] - p[0]
        area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
        a[np.ix_(tri, tri)] += area * g @ g.T
        for mid in (0.5 * (p[0] + p[1]), 0.5 * (p[1] + p[2]),
                    0.5 * (p[2] + p[0])):
            fval = float(sol.rhs_f(mid[None, :])[0])
            b[tri] += (area / 3.0) * fval * asm.p1_values(p, mid)
    for k in range(mesh_.edge_vertices.shape[0]):
        tri = mesh_.triangles[mesh_.edge_owner[k]]
        p = mesh_.vertices[tri]
        g = asm.p1_gradients(p)
        dn = g @ mesh_.edge_normal[k]
        va = mesh_.vertices[mesh_.edge_vertices[k, 0]]
        vb = mesh_.vertices[mesh_.edge_vertices[k, 1]]
        length = np.linalg.norm(vb - va)
        h_t = mesh_.h_per_triangle[mesh_.edge_owner[k]]
        for x, w in zip(xi, wref):
            q = va + x * (vb - va)
            phi = asm.p1_values(p, q)
            gval = float(sol.eval(q[None, :])[0])
            w = w * length
            a[np.ix_(tri, tri)] += w * (-np.outer(phi, dn) - np.outer(dn, phi)
                                        + (gamma / h_t) * np.outer(phi, phi))
            b[tri] += w * (-gval * dn + (gamma / h_t) * gval * phi)
    return a, b


def test_fitted_mesh_reduces_to_classical_nitsche():
    dom, sol, mesh_, quad, system = make_problem("square", "sinsin", 4)
    a_ref, b_ref = classical_nitsche(mesh_, dom, sol, 10.0, 3)
    np.testing.assert_allclose(system.matrix.toarray(), a_ref, atol=1e-12)
    np.testing.assert_allclose(system.rhs, b_ref, atol=1e-12)
    asym = np.abs(system.matrix - system.matrix.T).max()
    assert asym <= 1e-12


def test_quadrature_consistency_with_constant_d():
    # embedded square: every surrogate edge is parallel to its assigned
    # side, so d is constant along each edge (up to projection noise);
    # pinning it to that constant makes the integrands polynomial and
    # Gauss(3) already integrates the matrix entries exactly
    from dataclasses import replace

    sol = geo.make_sinsin_solution()
    dom = geo.bind_dirichlet(
        geo.make_square_domain(bbox=(-0.3, -0.3, 1.3, 1.3)), sol)
    mesh_ = msh.surrogate_mesh(dom, 10)
    quad3 = asm.build_boundary_quadrature(mesh_, dom, 3)
    quad6 = asm.build_boundary_quadrature(mesh_, dom, 6)
    spread = np.linalg.norm(quad3.d - quad3.d[:, :1, :], axis=-1)
    assert spread.max() <= 1e-9
    d_edge = quad3.d[:, 1, :]
    quad3 = replace(quad3, d=np.broadcast_to(d_edge[:, None, :],
                                             quad3.d.shape))
    quad6 = replace(quad6, d=np.broadcast_to(d_edge[:, None, :],
                                             quad6.d.shape))
    a3 = asm.assemble(mesh_, quad3, sol, 10.0).matrix
    a6 = asm.assemble(mesh_, quad6, sol, 10.0).matrix
    assert np.abs(a3 - a6).max() <= 1e-10


def test_apply_form_basics_and_oracle(corner_problem, rng):
    dom, sol, mesh_, quad, system = corner_problem
    gamma = 10.0  # the penalty make_problem assembles with
    n = system.dim
    zero = np.zeros(n)
    assert zero @ (system.matrix @ zero) == 0.0
    i, j = 3, 17
    ei, ej = np.eye(n)[i], np.eye(n)[j]
    assert abs(ei @ (system.matrix @ ej) - system.matrix[i, j]) <= 1e-14

    # independent element/edge-loop evaluation of the bilinear form
    def direct_form(w, v):
        total = 0.0
        p = mesh_.vertices[mesh_.triangles]
        grads = asm.p1_gradients(p)
        gw = np.einsum("tk,tkd->td", w[mesh_.triangles], grads)
        gv = np.einsum("tk,tkd->td", v[mesh_.triangles], grads)
        total += np.einsum("td,td,t->", gw, gv, mesh_.triangle_areas())
        for k in range(mesh_.edge_vertices.shape[0]):
            tri = mesh_.triangles[mesh_.edge_owner[k]]
            pt = mesh_.vertices[tri]
            g = asm.p1_gradients(pt)
            grad_w = g.T @ w[tri]
            grad_v = g.T @ v[tri]
            nrm = mesh_.edge_normal[k]
            h_t = quad.h_owner[k]
            for q in range(quad.nq):
                x = quad.points[k, q]
                wq = quad.weights[k, q]
                d = quad.d[k, q]
                phi = asm.p1_values(pt, x)
                wv, vv = phi @ w[tri], phi @ v[tri]
                sw = wv + grad_w @ d
                sv = vv + grad_v @ d
                total += wq * (-(grad_w @ nrm) * vv - sw * (grad_v @ nrm)
                               + gamma / h_t * sw * sv)
        return total

    for _ in range(3):
        w = rng.standard_normal(n)
        v = rng.standard_normal(n)
        got = v @ (system.matrix @ w)
        want = direct_form(w, v)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def test_affine_consistency_residual():
    dom, sol, mesh_, quad, system = make_problem("corner",
                                                 "affine:0.3,0.7,-0.4", 12)
    interp = np.asarray(sol.eval(mesh_.vertices))
    residual = np.abs(system.rhs - system.matrix @ interp).max()
    assert residual <= 1e-10


def test_boundary_quadrature_invariants(corner_problem, disk_problem):
    for dom, sol, mesh_, quad, _ in (corner_problem, disk_problem):
        np.testing.assert_allclose(quad.weights.sum(axis=1),
                                   mesh_.edge_lengths(), atol=1e-12)
        assert dom.inside(quad.points.reshape(-1, 2)).all()
        mapped = (quad.points + quad.d).reshape(-1, 2)
        ids = np.repeat(quad.sideset_id, quad.nq)
        for ss in dom.sidesets:
            rows = ids == ss.sid
            if not rows.any():
                continue
            _, _, dist = geo.project_points(ss, mapped[rows])
            assert dist.max() <= 1e-10


def test_gamma_must_be_positive(fitted_square_problem):
    _, sol, mesh_, quad, _ = fitted_square_problem
    for gamma in (0.0, -1.0, np.nan):
        with pytest.raises(asm.AssemblyError, match="gamma"):
            asm.assemble(mesh_, quad, sol, gamma)


def test_quadrature_requires_dirichlet_datum():
    from dataclasses import replace

    dom = geo.make_corner_domain()
    mesh_ = msh.surrogate_mesh(dom, 8)
    with pytest.raises(asm.AssemblyError, match="sideset 1 has no Dirichlet"):
        asm.build_boundary_quadrature(mesh_, dom)
    bound = geo.bind_dirichlet(dom, geo.make_corner_solution())
    lid_unbound = replace(bound, sidesets=tuple(
        replace(ss, dirichlet_g=None) if ss.sid == 4 else ss
        for ss in bound.sidesets))
    with pytest.raises(asm.AssemblyError, match="sideset 4 has no Dirichlet"):
        asm.build_boundary_quadrature(mesh_, lid_unbound)


def test_csr_layout(corner_problem):
    *_, system = corner_problem
    mat = system.matrix
    assert mat.shape == (system.dim, system.dim)
    assert mat.has_sorted_indices
    for row in range(system.dim):
        cols = mat.indices[mat.indptr[row]:mat.indptr[row + 1]]
        assert np.all(np.diff(cols) > 0)  # sorted, no duplicates


def _stacked_p1_gradients(tri_vertices):
    """p1_gradients written with np.stack (oracle)."""
    p = np.asarray(tri_vertices, dtype=float)
    e = np.stack([p[..., 2, :] - p[..., 1, :],
                  p[..., 0, :] - p[..., 2, :],
                  p[..., 1, :] - p[..., 0, :]], axis=-2)
    area2 = (e[..., 2, 0] * (-e[..., 1, 1]) - e[..., 2, 1] * (-e[..., 1, 0]))
    perp = np.stack([-e[..., 1], e[..., 0]], axis=-1)
    return perp / area2[..., None, None]


def _coo_sum(mesh_, *blocks):
    """Local 3 x 3 matrices summed by scipy's COO -> CSR conversion (oracle
    for ``assembly.scatter``)."""
    ids = np.concatenate([ids for ids, _ in blocks])
    data = np.concatenate([vals.ravel() for _, vals in blocks])
    nv = mesh_.num_vertices
    return sp.coo_matrix((data, (np.repeat(ids, 3, axis=1).ravel(),
                                 np.tile(ids, (1, 3)).ravel())),
                         shape=(nv, nv)).tocsr()


def _einsum_assemble(mesh_, quad, sol, gamma, summed=asm.scatter):
    """assemble with every per-triangle kernel as one np.einsum (oracle),
    the local matrices summed by ``summed``."""
    nv = mesh_.num_vertices
    tris = mesh_.triangles
    p = mesh_.vertices[tris]
    areas = mesh_.triangle_areas()
    grads = _stacked_p1_gradients(p)
    k_loc = np.einsum("tid,tjd,t->tij", grads, grads, areas)
    bary, wtri = asm.TRI_RULE_DEG2
    qp = np.einsum("qk,tkd->tqd", bary, p)
    fq = np.asarray(sol.rhs_f(qp.reshape(-1, 2)), dtype=float).reshape(qp.shape[:2])
    b_loc = np.einsum("tq,qk,q,t->tk", fq, bary, wtri, areas)
    rhs = np.zeros(nv)
    np.add.at(rhs, tris.ravel(), b_loc.ravel())
    etri, eg, phi, sh = asm.edge_basis(mesh_, quad)
    dn = np.einsum("eid,ed->ei", eg, mesh_.edge_normal)
    w = quad.weights
    pen = gamma / quad.h_owner
    a_edge = (-np.einsum("eq,eqi,ej->eij", w, phi, dn)
              - np.einsum("eq,eqj,ei->eij", w, sh, dn)
              + np.einsum("e,eq,eqj,eqi->eij", pen, w, sh, sh))
    b_edge = (-np.einsum("eq,eq,ei->ei", w, quad.gbar, dn)
              + np.einsum("e,eq,eq,eqi->ei", pen, w, quad.gbar, sh))
    np.add.at(rhs, etri.ravel(), b_edge.ravel())
    return summed(mesh_, (tris, k_loc), (etri, a_edge)), rhs


def _einsum_energy_gram(mesh_, quad, summed=asm.scatter):
    """analysis.energy_gram with its stiffness block as one einsum (oracle),
    the local matrices summed by ``summed``."""
    grads = _stacked_p1_gradients(mesh_.vertices[mesh_.triangles])
    k_loc = np.einsum("tid,tjd,t->tij", grads, grads, mesh_.triangle_areas())
    etri, _, _, sh = asm.edge_basis(mesh_, quad)
    m_loc = np.einsum("e,eq,eqi,eqj->eij", 1.0 / quad.h_owner, quad.weights,
                      sh, sh)
    return summed(mesh_, (mesh_.triangles, k_loc), (etri, m_loc))


def _assert_same_csr(got, want):
    for field in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, field),
                                      getattr(want, field), err_msg=field)


@pytest.mark.parametrize("domain,solution,n,zeta", [
    ("corner", "corner23", 40, None),
    ("disk", "sinsin", 32, 0.5),
    ("square", "sinsin", 16, None),
])
def test_kernels_match_einsum_oracle_bitwise(domain, solution, n, zeta):
    from sbmlab import analysis

    _, sol, mesh_, quad, system = make_problem(domain, solution, n, zeta=zeta)
    p = mesh_.vertices[mesh_.triangles]
    np.testing.assert_array_equal(asm.p1_gradients(p),
                                  _stacked_p1_gradients(p))
    matrix, rhs = _einsum_assemble(mesh_, quad, sol, 10.0)
    _assert_same_csr(system.matrix, matrix)
    np.testing.assert_array_equal(system.rhs, rhs)
    _assert_same_csr(analysis.energy_gram(mesh_, quad),
                     _einsum_energy_gram(mesh_, quad))


@pytest.mark.parametrize("domain,solution,n,zeta", [
    ("corner", "corner23", 8, None),
    ("corner", "corner23", 40, None),
    ("disk", "sinsin", 119, None),
    ("square", "sinsin", 16, None),
    ("disk", "sinsin", 64, 0.5),
])
def test_stencil_sum_matches_coo_oracle(domain, solution, n, zeta):
    from sbmlab import analysis

    _, sol, mesh_, quad, system = make_problem(domain, solution, n, zeta=zeta)
    pairs = [(system.matrix, _einsum_assemble(mesh_, quad, sol, 10.0,
                                              _coo_sum)[0]),
             (analysis.energy_gram(mesh_, quad),
              _einsum_energy_gram(mesh_, quad, _coo_sum))]
    for got, want in pairs:
        assert got.has_canonical_format
        assert abs(got - want).max() <= 1e-14 * abs(want).max()
        # the oracle keeps its exact zeros; the stencil sum drops them
        want.eliminate_zeros()
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)


def test_assembly_needs_a_mesh_from_a_grid(corner_problem):
    _, sol, mesh_, quad, _ = corner_problem
    gridless = replace(mesh_, grid_index=None, grid_n=None)
    with pytest.raises(asm.AssemblyError, match="grid_n is None"):
        asm.assemble(gridless, quad, sol, 10.0)
    with pytest.raises(asm.AssemblyError, match="grid_n is None"):
        asm.scatter(gridless, (mesh_.triangles,
                               np.ones((mesh_.num_triangles, 3, 3))))
    # grid positions twice as far apart put every coupling off the stencil
    spread = replace(mesh_, grid_index=2 * mesh_.grid_index)
    with pytest.raises(asm.AssemblyError, match="7-point stencil"):
        asm.assemble(spread, quad, sol, 10.0)


def test_assembly_memory_is_bounded_by_the_matrix():
    sol = geo.make_corner_solution()
    dom = geo.bind_dirichlet(geo.make_corner_domain(), sol)
    mesh_ = msh.surrogate_mesh(dom, 320)
    quad = asm.build_boundary_quadrature(mesh_, dom)
    tracemalloc.start()
    try:
        matrix = asm.assemble(mesh_, quad, sol, 10.0).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    csr_bytes = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    # the COO triplets and their sort peaked at 13.4 times the matrix here
    assert peak <= 8 * csr_bytes
