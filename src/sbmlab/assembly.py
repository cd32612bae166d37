"""Assembly of the shifted-boundary Poisson system on the surrogate mesh.

The bilinear form combines the interior stiffness with three boundary
terms on the surrogate boundary: the consistency term -(dn w, v), the
adjoint term -(Sw, dn v) and the penalty gamma (h^-1 Sw, Sv), where
S v = v + grad(v) . d transports values along the distance vector to the
true boundary. The right-hand side carries the source term and the mapped
Dirichlet datum gbar(x) = g(closest point on the assigned sideset).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import project_points, assign_sidesets


class AssemblyError(Exception):
    """Raised for invalid penalty values or missing boundary data."""


@dataclass(frozen=True)
class SparseSystem:
    """CSR matrix and right-hand side of the (non-symmetric) discrete system."""

    matrix: sp.csr_matrix
    rhs: np.ndarray

    @property
    def dim(self):
        return self.rhs.shape[0]


@dataclass(frozen=True)
class BoundaryQuadrature:
    """Gauss-Legendre quadrature along every surrogate-boundary edge.

    Arrays are indexed (edge, quadrature point); ``d`` holds the distance
    vectors to the assigned sideset, ``gbar`` the mapped Dirichlet values.
    Weights per edge sum to the edge length.
    """

    points: np.ndarray        # (ne, nq, 2)
    weights: np.ndarray       # (ne, nq)
    d: np.ndarray             # (ne, nq, 2)
    gbar: np.ndarray          # (ne, nq)
    sideset_id: np.ndarray    # (ne,)
    h_owner: np.ndarray       # (ne,)

    @property
    def num_edges(self):
        return self.points.shape[0]

    @property
    def nq(self):
        return self.points.shape[1]


def gauss_segment(nq):
    """Gauss-Legendre nodes/weights on [0, 1] (weights sum to 1)."""
    xi, w = np.polynomial.legendre.leggauss(nq)
    return 0.5 * (xi + 1.0), 0.5 * w


# degree-2 (edge midpoints) and degree-4 (six point) rules in barycentric
# coordinates; weights sum to one
TRI_RULE_DEG2 = (
    np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
    np.array([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]),
)

_A1, _B1 = 0.445948490915965, 0.108103018168070
_A2, _B2 = 0.091576213509771, 0.816847572980459
TRI_RULE_DEG4 = (
    np.array([
        [_A1, _A1, _B1], [_A1, _B1, _A1], [_B1, _A1, _A1],
        [_A2, _A2, _B2], [_A2, _B2, _A2], [_B2, _A2, _A2],
    ]),
    np.array([0.223381589678011] * 3 + [0.109951743655322] * 3),
)


# ---------------------------------------------------------------------------
# P1 element helpers
# ---------------------------------------------------------------------------

def p1_gradients(tri_vertices):
    """Constant basis gradients on triangles; (..., 3, 2) -> (..., 3, 2)."""
    p = np.asarray(tri_vertices, dtype=float)
    e = np.empty_like(p)      # edge vectors opposite each vertex
    np.subtract(p[..., 2, :], p[..., 1, :], out=e[..., 0, :])
    np.subtract(p[..., 0, :], p[..., 2, :], out=e[..., 1, :])
    np.subtract(p[..., 1, :], p[..., 0, :], out=e[..., 2, :])
    area2 = (e[..., 2, 0] * (-e[..., 1, 1]) - e[..., 2, 1] * (-e[..., 1, 0]))
    g = np.empty_like(p)      # edge vectors rotated by +90 degrees
    np.negative(e[..., 1], out=g[..., 0])
    g[..., 1] = e[..., 0]
    g /= area2[..., None, None]
    return g


def p1_values(tri_vertices, x):
    """Barycentric basis values of points x (..., 2) in triangles (..., 3, 2)."""
    p = np.asarray(tri_vertices, dtype=float)
    x = np.asarray(x, dtype=float)
    v0 = p[..., 0, :]
    e1 = p[..., 1, :] - v0
    e2 = p[..., 2, :] - v0
    det = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]
    r = x - v0
    xi = (r[..., 0] * e2[..., 1] - r[..., 1] * e2[..., 0]) / det
    eta = (e1[..., 0] * r[..., 1] - e1[..., 1] * r[..., 0]) / det
    return np.stack([1.0 - xi - eta, xi, eta], axis=-1)


def edge_basis(mesh, quad):
    """P1 basis of each boundary edge's owner triangle at the edge's Gauss
    points: vertex ids (ne, 3), gradients (ne, 3, 2), values (ne, nq, 3) and
    the shift operator phi + grad(phi) . d (ne, nq, 3)."""
    etri = mesh.triangles[mesh.edge_owner]
    ep = mesh.vertices[etri]
    eg = p1_gradients(ep)
    phi = p1_values(ep[:, None, :, :], quad.points)
    return etri, eg, phi, phi + np.einsum("eid,eqd->eqi", eg, quad.d)


# ---------------------------------------------------------------------------
# boundary quadrature
# ---------------------------------------------------------------------------

def build_boundary_quadrature(mesh, domain, nq_edge=3):
    """Assign sidesets to all boundary edges and sample distance vectors.

    Each edge's Gauss points are projected onto the edge's assigned sideset
    (projections are batched per sideset), and the mapped boundary values
    gbar are read from that sideset's Dirichlet datum
    (``geometry.bind_dirichlet``). A sideset without a datum raises.
    """
    for ss in domain.sidesets:
        if ss.dirichlet_g is None:
            raise AssemblyError(f"sideset {ss.sid} has no Dirichlet datum")
    ids = assign_sidesets(domain, mesh.vertices, mesh.edge_vertices,
                          mesh.edge_normal)
    a = mesh.vertices[mesh.edge_vertices[:, 0]]
    b = mesh.vertices[mesh.edge_vertices[:, 1]]

    xi, wref = gauss_segment(nq_edge)
    points = a[:, None, :] + xi[None, :, None] * (b - a)[:, None, :]
    weights = wref[None, :] * mesh.edge_lengths()[:, None]

    ne, nq = points.shape[0], nq_edge
    d = np.empty((ne, nq, 2))
    gbar = np.empty((ne, nq))
    for ss in domain.sidesets:
        rows = np.nonzero(ids == ss.sid)[0]
        if rows.size == 0:
            continue
        flat = points[rows].reshape(-1, 2)
        t, p, _ = project_points(ss, flat)
        d[rows] = (p - flat).reshape(-1, nq, 2)
        gbar[rows] = np.asarray(ss.dirichlet_g(t), dtype=float).reshape(-1, nq)

    return BoundaryQuadrature(points=points, weights=weights, d=d, gbar=gbar,
                              sideset_id=ids,
                              h_owner=mesh.h_per_triangle[mesh.edge_owner])


# ---------------------------------------------------------------------------
# system assembly
# ---------------------------------------------------------------------------

def scatter(nv, *blocks):
    """Sum local 3 x 3 matrices into one (nv, nv) CSR matrix. Each block is
    (vertex ids (m, 3), values (m, 3, 3)); entry [k, i, j] lands at
    (ids[k, i], ids[k, j]). scipy's COO -> CSR conversion sums duplicates
    and sorts the indices, so the result is in canonical form. The indices
    are built as int32 when they fit, the type scipy would convert them to,
    so no int64 copies are held at the peak of the assembly."""
    itype = np.int32 if nv <= np.iinfo(np.int32).max else np.int64
    ids = np.concatenate([ids for ids, _ in blocks], dtype=itype)
    rows = np.repeat(ids, 3, axis=1).ravel()
    cols = np.tile(ids, (1, 3)).ravel()
    data = np.concatenate([vals.ravel() for _, vals in blocks])
    return sp.coo_matrix((data, (rows, cols)), shape=(nv, nv)).tocsr()


def assemble(mesh, quad, sol, gamma):
    """Assemble matrix and right-hand side of the discrete problem.

    A[i, j] applies the bilinear form to (trial phi_j, test phi_i). The
    interior stiffness is exact for P1; the source term (``sol.rhs_f``)
    uses the degree-2 triangle rule; boundary terms use the Gauss points of
    ``quad`` with the distance vector and mapped datum evaluated pointwise.
    """
    if not gamma > 0.0:  # also rejects NaN
        raise AssemblyError(f"gamma must be positive, got {gamma}")

    nv = mesh.num_vertices
    tris = mesh.triangles
    p = mesh.vertices[tris]                      # (nt, 3, 2)
    areas = mesh.triangle_areas()
    grads = p1_gradients(p)                      # (nt, 3, 2)

    # interior stiffness, exact for constant gradients, one symmetric pair
    # of entries at a time (no (nt, 3, 3) temporaries). The per-triangle
    # kernels are products and matmuls, not multi-operand einsums, which
    # run numpy's unbuffered loops.
    gx, gy = grads[..., 0], grads[..., 1]
    k_loc = np.empty((len(tris), 3, 3))
    for i in range(3):
        for j in range(i, 3):
            k_loc[:, i, j] = k_loc[:, j, i] = (gx[:, i] * gx[:, j] * areas
                                               + gy[:, i] * gy[:, j] * areas)

    # source term with the degree-2 rule
    bary, wtri = TRI_RULE_DEG2
    qp = np.matmul(bary, p)                      # (nt, q, 2)
    fq = np.asarray(sol.rhs_f(qp.reshape(-1, 2)), dtype=float).reshape(qp.shape[:2])
    b_loc = sum(fq[:, q, None] * bary[q] * wtri[q] * areas[:, None]
                for q in range(len(wtri)))
    rhs = np.zeros(nv)
    np.add.at(rhs, tris.ravel(), b_loc.ravel())

    # boundary terms
    etri, eg, phi, sh = edge_basis(mesh, quad)
    dn = np.einsum("eid,ed->ei", eg, mesh.edge_normal)   # (ne, 3)
    w = quad.weights
    pen = gamma / quad.h_owner                           # (ne,)

    a_edge = (
        -np.einsum("eq,eqi,ej->eij", w, phi, dn)
        - np.einsum("eq,eqj,ei->eij", w, sh, dn)
        + np.einsum("e,eq,eqj,eqi->eij", pen, w, sh, sh)
    )

    b_edge = (-np.einsum("eq,eq,ei->ei", w, quad.gbar, dn)
              + np.einsum("e,eq,eq,eqi->ei", pen, w, quad.gbar, sh))
    np.add.at(rhs, etri.ravel(), b_edge.ravel())

    return SparseSystem(matrix=scatter(nv, (tris, k_loc), (etri, a_edge)),
                        rhs=rhs)
