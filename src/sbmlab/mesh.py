"""Surrogate meshes, node shifting toward the true boundary and VTK export.

An n x n grid of cells covers the domain bounding box, each cell split
along the SW-NE diagonal. The triangles of this grid fully contained in the
closed domain form the surrogate mesh on which the discrete problem lives;
its boundary edges carry outward unit normals and the owning triangle's
diameter. The whole grid is kept as plain arrays, never as a mesh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import project_boundary


class MeshError(Exception):
    """Raised for degenerate input, empty surrogate domains or bad moves."""


@dataclass(frozen=True)
class TriMesh:
    """Triangulation with precomputed surrogate-boundary data.

    vertices        (nv, 2) float
    triangles       (nt, 3) int, counterclockwise
    edge_vertices   (ne, 2) int, boundary edges in owner-cycle orientation
    edge_owner      (ne,) int, owning triangle of each boundary edge
    edge_normal     (ne, 2) outward unit normals
    h_per_triangle  (nt,) triangle diameters
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edge_vertices: np.ndarray
    edge_owner: np.ndarray
    edge_normal: np.ndarray
    h_per_triangle: np.ndarray

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def triangle_areas(self):
        return _signed_areas(self.vertices, self.triangles)

    def boundary_vertex_ids(self):
        return np.unique(self.edge_vertices)

    def edge_lengths(self):
        ab = (self.vertices[self.edge_vertices[:, 1]]
              - self.vertices[self.edge_vertices[:, 0]])
        return np.hypot(ab[:, 0], ab[:, 1])


def _signed_areas(vertices, triangles):
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    return 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                  - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0]))


def _diameters(vertices, triangles):
    p = vertices[triangles]  # (nt, 3, 2)
    d01 = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
    d12 = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
    d20 = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
    return np.maximum(d01, np.maximum(d12, d20))


def _boundary_edges(vertices, triangles):
    """Edges used by one triangle, in its cycle orientation: (vertex pairs,
    owners, outward normals). Raises on non-manifold connectivity."""
    nt = triangles.shape[0]
    directed = np.concatenate([triangles[:, [0, 1]],
                               triangles[:, [1, 2]],
                               triangles[:, [2, 0]]], axis=0)
    owner = np.concatenate([np.arange(nt)] * 3)
    # one int64 key per undirected edge: min * nv + max
    a = directed[:, 0].astype(np.int64, copy=False)
    b = directed[:, 1]
    key = np.minimum(a, b) * vertices.shape[0] + np.maximum(a, b)
    _, inv, counts = np.unique(key, return_inverse=True, return_counts=True)
    if np.any(counts > 2):
        raise MeshError("non-manifold edge shared by more than two triangles")
    on_boundary = counts[inv] == 1
    edge_vertices = directed[on_boundary]
    edge_owner = owner[on_boundary]
    tangent = vertices[edge_vertices[:, 1]] - vertices[edge_vertices[:, 0]]
    length = np.hypot(tangent[:, 0], tangent[:, 1])
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=-1) / length[:, None]
    return edge_vertices, edge_owner, normal


def _make_mesh(vertices, triangles):
    ev, eo, en = _boundary_edges(vertices, triangles)
    return TriMesh(vertices=vertices, triangles=triangles, edge_vertices=ev,
                   edge_owner=eo, edge_normal=en,
                   h_per_triangle=_diameters(vertices, triangles))


def _grid(bbox, n):
    """Vertices and triangles of the n x n grid on a bounding box, every
    cell split along the same SW-NE diagonal (h_T is the cell diagonal)."""
    if n < 2:
        raise MeshError(f"need at least 2 subdivisions per axis, got {n}")
    xmin, ymin, xmax, ymax = (float(v) for v in bbox)
    if not (xmax > xmin and ymax > ymin):
        raise MeshError(f"degenerate bounding box {bbox}")
    xs = np.linspace(xmin, xmax, n + 1)
    ys = np.linspace(ymin, ymax, n + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.stack([gx.ravel(), gy.ravel()], axis=-1)

    idx = np.arange((n + 1) * (n + 1)).reshape(n + 1, n + 1)  # [row=j, col=i]
    v00 = idx[:-1, :-1].ravel()
    v10 = idx[:-1, 1:].ravel()
    v01 = idx[1:, :-1].ravel()
    v11 = idx[1:, 1:].ravel()
    lower = np.stack([v00, v10, v11], axis=-1)
    upper = np.stack([v00, v11, v01], axis=-1)
    triangles = np.concatenate([lower, upper], axis=1).reshape(-1, 3)
    return vertices, triangles


def surrogate_mesh(domain, n):
    """Surrogate mesh: the triangles of the n x n grid on ``domain.bbox``
    (n >= 2 subdivisions per axis) fully contained in the closed domain.

    Containment is tested at seven points per triangle: the vertices, the
    edge midpoints and the centroid. The kept vertices are numbered in
    grid order.
    """
    # the grid's temporaries die with _grid's frame, before the probes
    # peak; building the grid inline here raises the peak RSS
    vertices, triangles = _grid(domain.bbox, n)
    p = vertices[triangles]  # (nt, 3, 2)
    probes = np.concatenate([
        p,
        0.5 * (p + np.roll(p, -1, axis=1)),
        p.mean(axis=1, keepdims=True),
    ], axis=1)  # (nt, 7, 2)
    ok = domain.inside(probes.reshape(-1, 2)).reshape(-1, 7).all(axis=1)
    if not np.any(ok):
        raise MeshError("surrogate domain empty; refine mesh")
    kept = triangles[ok]
    used = np.zeros(len(vertices), dtype=bool)
    used[kept] = True
    return _make_mesh(vertices[used], (np.cumsum(used) - 1)[kept])


def mesh_params(mesh):
    """(h_Gamma, h_Omega): max diameter near the boundary and overall."""
    h_omega = float(mesh.h_per_triangle.max())
    touching = np.isin(mesh.triangles, mesh.boundary_vertex_ids()).any(axis=1)
    h_gamma = float(mesh.h_per_triangle[touching].max())
    return h_gamma, h_omega


# ---------------------------------------------------------------------------
# node shifting toward the true boundary
# ---------------------------------------------------------------------------

_AREA_FLOOR = 0.2
_SHIFT_ROUNDS = 40


def _global_projection(domain, pts):
    """Closest point on the whole boundary: (p, dist) over all sidesets,
    the first sideset winning exact ties."""
    _, p, dist = project_boundary(domain, pts)
    k = np.argmin(dist, axis=0)
    cols = np.arange(dist.shape[1])
    return p[k, cols], dist[k, cols]


def _damped_move(vertices, triangles, areas0, incident, v, target):
    """Move vertex v toward target, bisecting until incident areas stay
    above the floor; returns the achieved fraction of the move."""
    orig = vertices[v].copy()
    frac = 1.0
    for _ in range(60):
        vertices[v] = orig + frac * (target - orig)
        a = _signed_areas(vertices, triangles[incident])
        if np.all(a >= _AREA_FLOOR * areas0[incident]):
            return frac
        frac *= 0.5
    vertices[v] = orig
    return 0.0


def shift_boundary_nodes(mesh, domain, zeta, c_d):
    """Pull surrogate-boundary vertices toward the true boundary.

    Every boundary edge must have each of its samples within
    c_d * h_T^(1+zeta) of the true boundary, h_T the current diameter of
    the edge's owner triangle. Each round pulls the endpoints of every edge
    over this bound along their closest-point direction by the edge's
    excess; because a vertex starts a boundary edge and its own position is
    that edge's first sample, this also brings every vertex within its
    bound. Moves are damped so each triangle keeps at least 20% of its
    pre-shift area. If the bound still fails, a MeshError names the first
    fully blocked vertex, or else an endpoint of the worst edge and the
    rounds used. Each round makes one projection, of the edges with an
    endpoint that moved since the last one.
    """
    if not 0.0 <= zeta <= 1.0:
        raise MeshError(f"zeta must be in [0, 1], got {zeta}")
    if not c_d > 0.0:
        raise MeshError(f"c_d must be positive, got {c_d}")
    vertices = mesh.vertices.copy()
    triangles = mesh.triangles
    nv = mesh.num_vertices
    areas0 = _signed_areas(vertices, triangles)
    # CSR incidence: the triangles of vertex v are tri_of[start[v]:start[v+1]]
    order = np.argsort(triangles.ravel(), kind="stable")
    start = np.searchsorted(triangles.ravel()[order], np.arange(nv + 1))
    tri_of = order // 3

    # edge samples: endpoints, uniform fill and the Gauss nodes later used
    # by the boundary quadrature, so the post-check cannot see worse points
    gauss = 0.5 * (np.polynomial.legendre.leggauss(3)[0] + 1.0)
    taus = np.unique(np.concatenate([np.linspace(0.0, 1.0, 7), gauss]))

    ev = mesh.edge_vertices
    owners = triangles[mesh.edge_owner]
    # projections are cached and redone only for edges with an endpoint
    # that moved since the last check; project_points works row by row, so
    # a cached distance has the bits a fresh projection would give. NaN
    # never compares equal, so the first check projects everything.
    checked = np.full((nv, 2), np.nan)
    sample_max = np.empty(len(ev))
    # closest point and distance of each boundary vertex: the first (tau=0)
    # sample of the edge it starts
    proj = np.empty((nv, 2))
    vdist = np.empty(nv)

    def edge_excess():
        stale = np.any(vertices != checked, axis=1)[ev].any(axis=1)
        if np.any(stale):
            a = vertices[ev[stale, 0]]
            b = vertices[ev[stale, 1]]
            samples = a[:, None, :] + taus[None, :, None] * (b - a)[:, None, :]
            p, dist = _global_projection(domain, samples.reshape(-1, 2))
            dist = dist.reshape(len(a), taus.size)
            sample_max[stale] = dist.max(axis=1)
            proj[ev[stale, 0]] = p.reshape(len(a), taus.size, 2)[:, 0]
            vdist[ev[stale, 0]] = dist[:, 0]
        checked[:] = vertices
        # diameters shrink when neighboring vertices converge on the
        # boundary, so the bound follows the current geometry
        return sample_max - c_d * _diameters(vertices, owners) ** (1.0 + zeta)

    blocked = np.zeros(nv, dtype=bool)
    for round_ in range(_SHIFT_ROUNDS):
        excess = edge_excess()
        hot = excess > 1e-11
        if not np.any(hot):
            break
        pull = np.zeros(nv)
        np.maximum.at(pull, ev[hot].ravel(), np.repeat(excess[hot], 2))
        # a vertex moves only in its own step, so its round-start projection
        # is the one it moves along
        for v in np.flatnonzero(pull > 0.0):
            if vdist[v] <= 1e-15:
                continue
            direction = (proj[v] - vertices[v]) / vdist[v]
            step = min(pull[v], vdist[v])
            frac = _damped_move(vertices, triangles, areas0,
                                tri_of[start[v]:start[v + 1]], v,
                                vertices[v] + step * direction)
            if frac == 0.0:
                blocked[v] = True
        # stop when no coordinate changed: a damped move with a tiny frac
        # rounds back onto the vertex's old position
        if np.array_equal(vertices, checked):
            break
    else:
        # only the round cap leaves moved vertices behind the last check
        excess = edge_excess()
    if np.any(excess > 1e-9):
        stuck = np.flatnonzero(blocked)
        culprit = stuck[0] if stuck.size else ev[np.argmax(excess), 0]
        cause = ("without violating the area floor" if stuck.size else
                 f"at the worst edge after {round_ + 1} rounds, with no "
                 "move fully blocked")
        raise MeshError(
            f"cannot satisfy distance bound near vertex {culprit} "
            f"(excess {float(excess.max()):.3e}) {cause}")
    return _make_mesh(vertices, triangles)


# ---------------------------------------------------------------------------
# VTK legacy ASCII export
# ---------------------------------------------------------------------------

def write_vtk(path, mesh, point_data=None):
    """Write the mesh and nodal scalar fields as legacy ASCII VTK."""
    nv, nt = mesh.num_vertices, mesh.num_triangles
    blocks = [
        "# vtk DataFile Version 3.0\n"
        "surrogate mesh\n"
        "ASCII\n"
        "DATASET UNSTRUCTURED_GRID\n"
        f"POINTS {nv} double\n",
        # one %-format per block: same text as per-line formatting, far
        # fewer interpreter round trips on large meshes
        ("%.15e %.15e 0.0\n" * nv) % tuple(mesh.vertices.ravel().tolist()),
        f"CELLS {nt} {4 * nt}\n",
        ("3 %d %d %d\n" * nt) % tuple(mesh.triangles.ravel().tolist()),
        f"CELL_TYPES {nt}\n",
        "5\n" * nt,
    ]
    if point_data:
        blocks.append(f"POINT_DATA {nv}\n")
        for name, values in point_data.items():
            values = np.asarray(values, dtype=float)
            if values.shape != (nv,):
                raise MeshError(f"field {name!r} is not a nodal scalar")
            blocks.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            blocks.append(("%.15e\n" * nv) % tuple(values.tolist()))
    with open(path, "w") as fh:
        fh.write("".join(blocks))
