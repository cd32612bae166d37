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

def _corner_areas(p0, p1, p2):
    """Signed areas of the triangles with corners p0, p1, p2 (..., 2)."""
    return 0.5 * ((p1[..., 0] - p0[..., 0]) * (p2[..., 1] - p0[..., 1])
                  - (p1[..., 1] - p0[..., 1]) * (p2[..., 0] - p0[..., 0]))


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
                          mesh.edge_normals())
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
                              h_owner=mesh.diameters(mesh.edge_owner))


# ---------------------------------------------------------------------------
# system assembly
# ---------------------------------------------------------------------------

# local matrices are summed, and per-triangle kernels computed, this many
# triangles or edges at a time
_BLOCK = 1 << 15


class _StencilSum:
    """Running sum of local 3 x 3 matrices in the 7-point stencil of the
    mesh's grid.

    The shift operator of an edge lives on the edge's owner triangle, so
    every coupling stays inside one grid triangle: row r has its columns at
    the grid offsets (-(n+2), -(n+1), -1, 0, 1, n+1, n+2) from r's grid
    position (SW, S, W, itself, E, N, NE), and slot 7 r + k holds the sum
    at the k-th of them. The vertices are numbered in grid order, so these
    columns come out sorted. ``np.add.at`` adds in input order, so the sums
    do not depend on how the local matrices are split into blocks.
    """

    def __init__(self, mesh):
        if mesh.grid_n is None:
            raise AssemblyError("assembly needs a mesh from a grid "
                                "(its grid_n is None)")
        n = mesh.grid_n
        self.mesh = mesh
        self.offsets = np.array([-(n + 2), -(n + 1), -1, 0, 1, n + 1, n + 2])
        # stencil position of grid offset delta at delta + n + 3; -1 at both
        # ends, where ``take`` clips every offset out of range
        self.position = np.full(2 * n + 7, -1, dtype=np.int8)
        self.position[self.offsets + n + 3] = np.arange(7)
        self.sums = np.zeros(7 * mesh.num_vertices)

    def add(self, ids, vals):
        """Add vals[k, i, j] (m, 3, 3) at (ids[k, i], ids[k, j])."""
        shift = self.mesh.grid_n + 3
        for lo in range(0, len(ids), _BLOCK):
            tri = ids[lo:lo + _BLOCK]
            g = self.mesh.grid_index[tri]
            k = self.position.take(g[:, None, :] - g[:, :, None] + shift,
                                   mode="clip")
            if k.min() < 0:
                raise AssemblyError("a local matrix couples vertices outside "
                                    "the grid's 7-point stencil")
            np.add.at(self.sums, (7 * tri[:, :, None] + k).ravel(),
                      vals[lo:lo + _BLOCK].ravel())

    def csr(self):
        """The sum as CSR, keeping the slots whose sum is nonzero (on the
        grid, the P1 stiffness of the SW-NE pair is exactly 0)."""
        nv = self.mesh.num_vertices
        index = self.mesh.grid_index
        itype = np.int32 if 7 * nv <= np.iinfo(np.int32).max else np.int64
        kept = (self.sums != 0.0).reshape(nv, 7)
        indptr = np.zeros(nv + 1, dtype=itype)
        np.cumsum(np.count_nonzero(kept, axis=1), out=indptr[1:])
        vertex_at = np.empty(index[-1] + 1, dtype=itype)
        vertex_at[index] = np.arange(nv, dtype=itype)
        indices = vertex_at[(index[:, None] + self.offsets)[kept]]
        return sp.csr_matrix((self.sums[kept.ravel()], indices, indptr),
                             shape=(nv, nv))


def scatter(mesh, *blocks):
    """Sum local 3 x 3 matrices into one CSR matrix on the vertices of a
    mesh from a grid. Each block is (vertex ids (m, 3), values (m, 3, 3));
    entry [k, i, j] lands at (ids[k, i], ids[k, j]). The sums go straight
    into the grid's 7-point stencil (no COO triplets, no sort), and the
    result is in canonical form. A mesh with no grid, or a coupling outside
    the stencil, raises AssemblyError."""
    total = _StencilSum(mesh)
    for ids, vals in blocks:
        total.add(ids, vals)
    return total.csr()


def assemble(mesh, quad, sol, gamma):
    """Assemble matrix and right-hand side of the discrete problem.

    A[i, j] applies the bilinear form to (trial phi_j, test phi_i). The
    interior stiffness is exact for P1; the source term (``sol.rhs_f``)
    uses the degree-2 triangle rule; boundary terms use the Gauss points of
    ``quad`` with the distance vector and mapped datum evaluated pointwise.
    The mesh must come from a grid (``scatter``). The triangles are taken
    in blocks of ``_BLOCK``, so no per-triangle kernel array spans the
    mesh; the sums keep the order of one pass over all triangles and then
    all edges.
    """
    if not 0.0 < gamma < np.inf:  # also rejects NaN
        raise AssemblyError(f"gamma must be positive and finite, got {gamma}")

    total = _StencilSum(mesh)
    rhs = np.zeros(mesh.num_vertices)
    bary, wtri = TRI_RULE_DEG2
    for lo in range(0, mesh.num_triangles, _BLOCK):
        tris = mesh.triangles[lo:lo + _BLOCK]
        p = mesh.vertices[tris]                      # (nb, 3, 2)
        area = _corner_areas(p[:, 0], p[:, 1], p[:, 2])
        grads = p1_gradients(p)                      # (nb, 3, 2)

        # interior stiffness, exact for constant gradients, one symmetric
        # pair of entries at a time. The per-triangle kernels are products
        # and matmuls, not multi-operand einsums, which run numpy's
        # unbuffered loops.
        gx, gy = grads[..., 0], grads[..., 1]
        k_loc = np.empty((len(tris), 3, 3))
        for i in range(3):
            for j in range(i, 3):
                k_loc[:, i, j] = k_loc[:, j, i] = (gx[:, i] * gx[:, j] * area
                                                   + gy[:, i] * gy[:, j] * area)
        total.add(tris, k_loc)

        # source term with the degree-2 rule
        qp = np.matmul(bary, p)                      # (nb, q, 2)
        fq = np.asarray(sol.rhs_f(qp.reshape(-1, 2)),
                        dtype=float).reshape(qp.shape[:2])
        b_loc = sum(fq[:, q, None] * bary[q] * wtri[q] * area[:, None]
                    for q in range(len(wtri)))
        np.add.at(rhs, tris.ravel(), b_loc.ravel())

    # boundary terms
    etri, eg, phi, sh = edge_basis(mesh, quad)
    dn = np.einsum("eid,ed->ei", eg, mesh.edge_normals())  # (ne, 3)
    w = quad.weights
    pen = gamma / quad.h_owner                              # (ne,)

    a_edge = (
        -np.einsum("eq,eqi,ej->eij", w, phi, dn)
        - np.einsum("eq,eqj,ei->eij", w, sh, dn)
        + np.einsum("e,eq,eqj,eqi->eij", pen, w, sh, sh)
    )
    total.add(etri, a_edge)

    b_edge = (-np.einsum("eq,eq,ei->ei", w, quad.gbar, dn)
              + np.einsum("e,eq,eq,eqi->ei", pen, w, quad.gbar, sh))
    np.add.at(rhs, etri.ravel(), b_edge.ravel())

    return SparseSystem(matrix=total.csr(), rhs=rhs)
