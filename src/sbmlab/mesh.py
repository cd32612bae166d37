"""Surrogate meshes, node shifting toward the true boundary and VTK export.

An n x n grid of cells covers the domain bounding box, each cell split
along the SW-NE diagonal. The triangles of this grid fully contained in the
closed domain form the surrogate mesh on which the discrete problem lives;
its boundary edges carry outward unit normals and the owning triangle's
diameter. The whole grid is kept as plain arrays, never as a mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .assembly import _corner_areas, gauss_segment
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
    grid_index      (nv,) int, row-major index j (n + 1) + i of each vertex
                    on the (n + 1)^2 points of the grid it comes from
    grid_n          that grid's n; both are None for a mesh not from a grid

    Boundary edges come by local edge (0-1, 1-2, 2-0), then by owner;
    sideset tie-breaking and the vertex a failed shift names depend on it.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edge_vertices: np.ndarray
    edge_owner: np.ndarray
    edge_normal: np.ndarray
    h_per_triangle: np.ndarray
    grid_index: np.ndarray | None = None
    grid_n: int | None = None

    @property
    def grid(self):
        """(n, grid_index) for ``linsolve.solve``, or None."""
        return None if self.grid_n is None else (self.grid_n, self.grid_index)

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
    return _corner_areas(vertices[triangles[:, 0]], vertices[triangles[:, 1]],
                         vertices[triangles[:, 2]])


def _diameters(vertices, triangles):
    x, y = vertices[:, 0], vertices[:, 1]
    i, j, k = triangles.T

    def side(p, q):
        dx = x[p] - x[q]
        dy = y[p] - y[q]
        return np.sqrt(dx * dx + dy * dy)

    return np.maximum(side(i, j), np.maximum(side(j, k), side(k, i)))


def _normals(vertices, edge_vertices):
    """Outward unit normals of edges in their owner's cycle orientation."""
    tangent = vertices[edge_vertices[:, 1]] - vertices[edge_vertices[:, 0]]
    length = np.hypot(tangent[:, 0], tangent[:, 1])
    return np.stack([tangent[:, 1], -tangent[:, 0]], axis=-1) / length[:, None]


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

    A triangle is kept when seven points pass ``domain.inside``: its
    vertices, its edge midpoints 0.5 * (a + b) and its centroid
    ((a + b) + c) / 3. Each distinct point of the grid is tested once (every
    vertex, every horizontal, vertical and diagonal edge midpoint and every
    centroid), and the tests are combined per triangle. The kept vertices
    are numbered in grid order, and ``grid_index`` keeps their grid
    positions. A local edge of a kept triangle is a boundary edge when the
    grid triangle across it is not kept.
    """
    # the grid's temporaries die with _grid's frame, before the probes
    # peak; building the grid inline here raises the peak RSS
    vertices, triangles = _grid(domain.bbox, n)
    v = vertices.reshape(n + 1, n + 1, 2)       # [row=j, col=i]
    sw, se, nw, ne = v[:-1, :-1], v[:-1, 1:], v[1:, :-1], v[1:, 1:]

    def inside(points):
        return domain.inside(points.reshape(-1, 2)).reshape(points.shape[:-1])

    at_vertex = inside(v)
    horizontal = inside(0.5 * (v[:, :-1] + v[:, 1:]))   # (n + 1, n)
    vertical = inside(0.5 * (v[:-1] + v[1:]))           # (n, n + 1)
    # the SW-NE diagonal and its end points are shared by both triangles
    shared = at_vertex[:-1, :-1] & at_vertex[1:, 1:] & inside(0.5 * (sw + ne))
    # lower (sw, se, ne) and upper (sw, ne, nw) triangle of every cell
    lower = (shared & at_vertex[:-1, 1:] & horizontal[:-1] & vertical[:, 1:]
             & inside(((sw + se) + ne) / 3.0))
    upper = (shared & at_vertex[1:, :-1] & horizontal[1:] & vertical[:, :-1]
             & inside(((sw + ne) + nw) / 3.0))
    ok = np.stack([lower, upper], axis=-1).ravel()
    if not np.any(ok):
        raise MeshError("surrogate domain empty; refine mesh")
    # across local edge 0-1, 1-2, 2-0 of a lower triangle lies the upper one
    # of the cell below, of the cell to the right and of its own cell; of an
    # upper triangle, the lower one of its own cell, above and to the left
    lo, up = np.pad(lower, 1), np.pad(upper, 1)
    across = np.stack([up[:-2, 1:-1], up[1:-1, 2:], upper,
                       lower, lo[2:, 1:-1], lo[1:-1, :-2]], axis=-1)
    kept = triangles[ok]
    used = np.zeros(len(vertices), dtype=bool)
    used[kept] = True
    vertices, triangles = vertices[used], (np.cumsum(used) - 1)[kept]
    # transposed, so the edges come local edge first, then triangle
    local, owner = np.nonzero(~across.reshape(-1, 3)[ok].T)
    ev = triangles[owner[:, None], (local[:, None] + [0, 1]) % 3]
    return TriMesh(vertices=vertices, triangles=triangles, edge_vertices=ev,
                   edge_owner=owner, edge_normal=_normals(vertices, ev),
                   h_per_triangle=_diameters(vertices, triangles),
                   grid_index=np.flatnonzero(used), grid_n=n)


def mesh_params(mesh):
    """(h_Gamma, h_Omega): max diameter near the boundary and overall."""
    h_omega = float(mesh.h_per_triangle.max())
    on_boundary = np.zeros(mesh.num_vertices, dtype=bool)
    on_boundary[mesh.edge_vertices] = True
    touching = on_boundary[mesh.triangles].any(axis=1)
    h_gamma = float(mesh.h_per_triangle[touching].max())
    return h_gamma, h_omega


# ---------------------------------------------------------------------------
# node shifting toward the true boundary
# ---------------------------------------------------------------------------

_AREA_FLOOR = 0.2
_SHIFT_ROUNDS = 40
_HALVINGS = 0.5 ** np.arange(60)  # damped-move fractions 1, 1/2, ..., 2^-59


def _global_projection(domain, pts):
    """Closest point on the whole boundary: (p, dist) over all sidesets,
    the first sideset winning exact ties."""
    _, p, dist = project_boundary(domain, pts)
    k = np.argmin(dist, axis=0)
    cols = np.arange(dist.shape[1])
    return p[k, cols], dist[k, cols]


def _damped_move(vertices, triangles, areas0, incident, v, target):
    """Move vertex v toward target by the largest fraction 2^-k, k < 60,
    that keeps each incident triangle at or above the area floor. The full
    step is checked first, since nearly every move takes it; the other 59
    candidate positions are checked in one array expression only when it
    is refused. Returns the fraction, or 0.0 with v left where it was."""
    orig = vertices[v]
    step = target - orig
    tris = triangles[incident]
    at_v = tris == v
    floor = _AREA_FLOOR * areas0[incident]
    p = vertices[tris]
    p[at_v] = orig + step
    if np.all(_corner_areas(p[:, 0], p[:, 1], p[:, 2]) >= floor):
        vertices[v] = orig + step
        return 1.0
    cand = orig + _HALVINGS[1:, None] * step  # (59, 2)
    p = np.repeat(p[None], len(cand), axis=0)
    p[:, at_v] = cand[:, None, :]
    a = _corner_areas(p[..., 0, :], p[..., 1, :], p[..., 2, :])
    ok = (a >= floor).all(axis=1)
    k = ok.argmax()
    if not ok[k]:
        return 0.0
    vertices[v] = cand[k]
    return float(_HALVINGS[1 + k])


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

    # edge samples: endpoints, uniform fill and the nodes of the boundary
    # quadrature's default 3-point Gauss rule (other nq_edge values are not
    # sampled, so their nodes may see a larger distance)
    taus = np.unique(np.concatenate([np.linspace(0.0, 1.0, 7),
                                     gauss_segment(3)[0]]))

    ev = mesh.edge_vertices
    owners = triangles[mesh.edge_owner]
    # projections are cached and redone only for edges with an endpoint
    # that moved since the last check; project_points works row by row (the
    # arctan branches take a fixed number of Newton steps), so a cached
    # distance has the bits a fresh projection would give. NaN never
    # compares equal, so the first check projects everything.
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
    return replace(mesh, vertices=vertices, edge_normal=_normals(vertices, ev),
                   h_per_triangle=_diameters(vertices, triangles))


# ---------------------------------------------------------------------------
# VTK legacy ASCII export
# ---------------------------------------------------------------------------

_VTK_ROWS = 1 << 14


def _vtk_rows(fmt, table):
    """The rows of ``table`` as text, ``_VTK_ROWS`` rows per string: one
    %-format per block gives the text of per-line formatting with far fewer
    interpreter round trips, and no string of the whole table."""
    for lo in range(0, len(table), _VTK_ROWS):
        block = table[lo:lo + _VTK_ROWS]
        yield (fmt * len(block)) % tuple(block.ravel().tolist())


def write_vtk(path, mesh, point_data=None):
    """Write the mesh and nodal scalar fields as legacy ASCII VTK. A field
    that is not one value per vertex raises MeshError before the file is
    opened."""
    nv, nt = mesh.num_vertices, mesh.num_triangles
    fields = {}
    for name, values in (point_data or {}).items():
        fields[name] = np.asarray(values, dtype=float)
        if fields[name].shape != (nv,):
            raise MeshError(f"field {name!r} is not a nodal scalar")
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n"
                 "surrogate mesh\n"
                 "ASCII\n"
                 "DATASET UNSTRUCTURED_GRID\n"
                 f"POINTS {nv} double\n")
        fh.writelines(_vtk_rows("%.15e %.15e 0.0\n", mesh.vertices))
        fh.write(f"CELLS {nt} {4 * nt}\n")
        fh.writelines(_vtk_rows("3 %d %d %d\n", mesh.triangles))
        fh.write(f"CELL_TYPES {nt}\n" + "5\n" * nt)
        if fields:
            fh.write(f"POINT_DATA {nv}\n")
        for name, values in fields.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            fh.writelines(_vtk_rows("%.15e\n", values))
