from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbmlab import geometry as geo
from sbmlab import mesh as msh
from sbmlab.assembly import _corner_areas
from sbmlab.mesh import MeshError


def test_background_counts_and_sizes():
    # the unit square fills its bounding box: every grid triangle is kept
    m = msh.surrogate_mesh(geo.make_square_domain(), 2)
    assert m.num_vertices == 9
    assert m.num_triangles == 8
    m4 = msh.surrogate_mesh(geo.make_square_domain(), 4)
    assert abs(m4.diameters().max() - np.sqrt(2.0) / 4.0) <= 1e-14
    assert abs(m4.triangle_areas().sum() - 1.0) <= 1e-12


def test_background_rejects_bad_input():
    with pytest.raises(MeshError, match="at least 2 subdivisions"):
        msh.surrogate_mesh(geo.make_square_domain(), 1)
    with pytest.raises(MeshError, match="degenerate bounding box"):
        msh.surrogate_mesh(
            geo.make_square_domain(bbox=(0.0, 0.0, 0.0, 1.0)), 4)


def test_triangle_orientation_and_regularity():
    for bbox in ((0.0, 0.0, 1.0, 1.0), (-0.6, -0.55, 0.6, 0.55)):
        square = geo.make_square_domain(lo=bbox[:2], hi=bbox[2:])
        m = msh.surrogate_mesh(square, 6)
        assert m.num_triangles == 2 * 6 * 6
        areas = m.triangle_areas()
        assert areas.min() >= 1e-14
        p = m.vertices[m.triangles]
        a = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
        b = np.linalg.norm(p[:, 2] - p[:, 1], axis=1)
        c = np.linalg.norm(p[:, 0] - p[:, 2], axis=1)
        inradius = 2.0 * areas / (a + b + c)
        assert (m.diameters() / inradius).max() <= 10.0


def test_restrict_keeps_everything_when_domain_fills_bbox():
    dom = geo.make_square_domain()
    vertices, triangles = msh._grid(dom.bbox, 4)
    kept = msh.surrogate_mesh(dom, 4)
    np.testing.assert_array_equal(kept.vertices, vertices)
    np.testing.assert_array_equal(kept.triangles, triangles)


def test_restrict_disk_matches_sampling_oracle(rng):
    disk = geo.make_disk_domain(radius=0.4)
    vertices, triangles = msh._grid(disk.bbox, 4)
    kept = msh.surrogate_mesh(disk, 4)
    assert kept.num_triangles == 8  # frozen from the oracle below
    bary = np.vstack([np.eye(3), rng.dirichlet((1.0, 1.0, 1.0), size=197)])
    oracle = sum(
        bool(disk.inside(bary @ vertices[tri]).all()) for tri in triangles)
    assert kept.num_triangles == oracle
    assert disk.inside(kept.vertices).all()


def test_restrict_empty_raises():
    tiny = geo.make_disk_domain(radius=0.05)
    with pytest.raises(MeshError, match="refine"):
        msh.surrogate_mesh(tiny, 2)


def _boundary_edges_by_key(vertices, triangles):
    """Edges used by one triangle, in its cycle orientation, found by
    sorting one int64 key per undirected edge: (vertex pairs, owners,
    outward normals)."""
    nt = triangles.shape[0]
    directed = np.concatenate([triangles[:, [0, 1]],
                               triangles[:, [1, 2]],
                               triangles[:, [2, 0]]], axis=0)
    owner = np.concatenate([np.arange(nt)] * 3)
    a = directed[:, 0].astype(np.int64, copy=False)
    b = directed[:, 1]
    key = np.minimum(a, b) * vertices.shape[0] + np.maximum(a, b)
    _, inv, counts = np.unique(key, return_inverse=True, return_counts=True)
    on_boundary = counts[inv] == 1
    edge_vertices = directed[on_boundary]
    tangent = vertices[edge_vertices[:, 1]] - vertices[edge_vertices[:, 0]]
    length = np.hypot(tangent[:, 0], tangent[:, 1])
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=-1) / length[:, None]
    return edge_vertices, owner[on_boundary], normal


def _surrogate_oracle(domain, n):
    """Grid triangles passing the 7-point test, vertices renumbered with
    np.unique and a remap array, then the boundary edges by the key sort;
    returns the mesh and its outward normals."""
    vertices, triangles = msh._grid(domain.bbox, n)
    p = vertices[triangles]
    probes = np.concatenate([p, 0.5 * (p + np.roll(p, -1, axis=1)),
                             p.mean(axis=1, keepdims=True)], axis=1)
    ok = domain.inside(probes.reshape(-1, 2)).reshape(-1, 7).all(axis=1)
    if not np.any(ok):
        raise MeshError("surrogate domain empty; refine mesh")
    kept = triangles[ok]
    used = np.unique(kept)
    remap = np.full(len(vertices), -1, dtype=int)
    remap[used] = np.arange(used.size)
    vertices, triangles = vertices[used], remap[kept]
    ev, eo, normals = _boundary_edges_by_key(vertices, triangles)
    return msh.TriMesh(vertices=vertices, triangles=triangles,
                       edge_vertices=ev, edge_owner=eo), normals


@pytest.mark.parametrize("n", [3, 7, 8, 33, 119, 160, 320])
@pytest.mark.parametrize("name", ["square", "disk", "corner"])
def test_surrogate_mesh_matches_renumbering_oracle(name, n):
    dom = geo.domain_by_name(name)
    m = msh.surrogate_mesh(dom, n)
    ref, normals = _surrogate_oracle(dom, n)
    for field in ("vertices", "triangles", "edge_vertices", "edge_owner"):
        got, want = getattr(m, field), getattr(ref, field)
        assert got.dtype == want.dtype, field
        np.testing.assert_array_equal(got, want, err_msg=field)
    np.testing.assert_array_equal(m.edge_normals(), normals)
    # each vertex sits at bbox_min + (i, j) h of its grid position
    assert m.grid_n == n
    j, i = np.divmod(m.grid_index, n + 1)
    lo, hi = np.array(dom.bbox[:2]), np.array(dom.bbox[2:])
    at = lo + np.stack([i, j], axis=-1) * ((hi - lo) / n)
    np.testing.assert_allclose(m.vertices, at, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("name,n", [("corner", 160), ("disk", 119)])
def test_diameters_match_norm_oracle(name, n):
    # longest side by np.linalg.norm over the gathered (nt, 3, 2) corners
    m = msh.surrogate_mesh(geo.domain_by_name(name), n)
    p = m.vertices[m.triangles]
    want = np.linalg.norm(p - np.roll(p, -1, axis=1), axis=2).max(axis=1)
    np.testing.assert_array_equal(m.diameters(), want)
    np.testing.assert_array_equal(m.diameters(m.edge_owner),
                                  want[m.edge_owner])


def test_surrogate_mesh_empty_matches_renumbering_oracle():
    disk = geo.make_disk_domain()
    with pytest.raises(MeshError) as got:
        msh.surrogate_mesh(disk, 2)
    with pytest.raises(MeshError) as want:
        _surrogate_oracle(disk, 2)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", ["disk", "corner"])
def test_surrogate_area_monotone_under_refinement(name):
    dom = geo.domain_by_name(name)
    areas = []
    for n in (8, 16, 32):
        m = msh.surrogate_mesh(dom, n)
        areas.append(m.triangle_areas().sum())
    assert areas[1] >= areas[0] - 1e-12
    assert areas[2] >= areas[1] - 1e-12


def test_boundary_edges_full_square():
    m = msh.surrogate_mesh(geo.make_square_domain(), 2)
    assert m.edge_vertices.shape[0] == 8
    closure = (m.edge_lengths()[:, None] * m.edge_normals()).sum(axis=0)
    assert np.abs(closure).max() <= 1e-10


def test_boundary_edges_belong_to_owner_and_point_outward():
    disk = geo.make_disk_domain()
    m = msh.surrogate_mesh(disk, 8)
    closure = (m.edge_lengths()[:, None] * m.edge_normals()).sum(axis=0)
    assert np.abs(closure).max() <= 1e-10
    tris = m.triangles[m.edge_owner]
    for k in range(m.edge_vertices.shape[0]):
        assert set(m.edge_vertices[k]) <= set(tris[k])
    centroids = m.vertices[tris].mean(axis=1)
    mids = 0.5 * (m.vertices[m.edge_vertices[:, 0]]
                  + m.vertices[m.edge_vertices[:, 1]])
    assert (np.einsum("ed,ed->e", m.edge_normals(), centroids - mids)
            < 0).all()


def test_surrogate_perimeter_near_circle():
    # coarse meshes: staircase perimeter stays below |Gamma| + 4 h_Gamma
    disk = geo.make_disk_domain()
    for n in (8, 12):
        m = msh.surrogate_mesh(disk, n)
        h_gamma, _ = msh.mesh_params(m)
        assert m.edge_lengths().sum() <= 2.0 * np.pi * 0.45 + 4.0 * h_gamma


def test_mesh_params_uniform_and_halving():
    dom = geo.make_square_domain()
    for n in (8, 16):
        m = msh.surrogate_mesh(dom, n)
        h_gamma, h_omega = msh.mesh_params(m)
        assert abs(h_gamma - np.sqrt(2.0) / n) <= 1e-14
        assert abs(h_omega - np.sqrt(2.0) / n) <= 1e-14
        assert h_gamma <= h_omega
    disk = geo.make_disk_domain()
    h8 = msh.mesh_params(msh.surrogate_mesh(disk, 8))[1]
    h16 = msh.mesh_params(msh.surrogate_mesh(disk, 16))[1]
    assert abs(h8 / h16 - 2.0) <= 1e-12


def test_shift_inactive_configurations():
    disk = geo.make_disk_domain()
    m = msh.surrogate_mesh(disk, 8)
    huge = msh.shift_boundary_nodes(m, disk, 0.0, 100.0)
    np.testing.assert_array_equal(huge.vertices, m.vertices)


@pytest.mark.parametrize("cfg,field", [((2.0, 1.0), "zeta"),
                                       ((-0.5, 1.0), "zeta"),
                                       ((0.5, 0.0), "c_d"),
                                       ((0.5, -1.0), "c_d"),
                                       ((0.5, np.nan), "c_d"),
                                       ((0.5, np.inf), "c_d")])
def test_shift_rejects_bad_parameters(cfg, field):
    disk = geo.make_disk_domain()
    m = msh.surrogate_mesh(disk, 8)
    zeta, c_d = cfg
    with pytest.raises(MeshError, match=field):
        msh.shift_boundary_nodes(m, disk, zeta, c_d)


def test_shift_enforces_distance_bound():
    from sbmlab import assembly

    disk = geo.make_disk_domain()
    sol = geo.make_sinsin_solution()
    dom = geo.bind_dirichlet(disk, sol)
    m = msh.surrogate_mesh(dom, 8)
    areas0 = m.triangle_areas()
    shifted = msh.shift_boundary_nodes(m, dom, zeta=0.5, c_d=1.0)
    quad = assembly.build_boundary_quadrature(shifted, dom, 3)
    ratio = np.linalg.norm(quad.d, axis=-1) / quad.h_owner[:, None] ** 1.5
    assert ratio.max() <= 1.0 + 1e-9
    assert (shifted.triangle_areas() / areas0).min() >= 0.2
    # interior vertices do not move
    interior = np.setdiff1d(np.arange(m.num_vertices),
                            m.boundary_vertex_ids())
    np.testing.assert_array_equal(shifted.vertices[interior],
                                  m.vertices[interior])


def _bisected_move(vertices, triangles, areas0, incident, v, target):
    """Scalar damped move: halve the fraction from 1 until the incident
    areas stay above the floor, at most 60 tries; returns the fraction."""
    orig = vertices[v].copy()
    frac = 1.0
    for _ in range(60):
        vertices[v] = orig + frac * (target - orig)
        p = vertices[triangles[incident]]
        a = _corner_areas(p[:, 0], p[:, 1], p[:, 2])
        if np.all(a >= msh._AREA_FLOOR * areas0[incident]):
            return frac
        frac *= 0.5
    vertices[v] = orig
    return 0.0


@pytest.mark.parametrize("step,area_scale,expect", [
    ((1e-3, 2e-3), 1.0, "full"),
    ((-0.4, 0.1), 1.0, "damped"),
    ((0.5, 0.5), 1.0, "damped"),
    ((1e-3, 2e-3), 10.0, "blocked"),
])
def test_damped_move_matches_scalar_bisection(step, area_scale, expect):
    # area_scale raises the floor above every current area, so no fraction
    # is allowed and the vertex must stay where it was
    m = msh.surrogate_mesh(geo.make_disk_domain(), 16)
    v = int(m.edge_vertices[3, 0])
    incident = np.flatnonzero((m.triangles == v).any(axis=1))
    areas0 = area_scale * m.triangle_areas()
    target = m.vertices[v] + np.array(step)
    got, want = m.vertices.copy(), m.vertices.copy()
    frac = msh._damped_move(got, m.triangles, areas0, incident, v, target)
    ref = _bisected_move(want, m.triangles, areas0, incident, v, target)
    assert frac == ref
    assert {1.0: "full", 0.0: "blocked"}.get(frac, "damped") == expect
    np.testing.assert_array_equal(got, want)


def _shift_reference(mesh, domain, zeta, c_d):
    """Node shift with a dict incidence, one projection per moved vertex
    in ascending vertex order and a scalar bisection per move; returns the
    shifted vertices."""
    vertices = mesh.vertices.copy()
    triangles = mesh.triangles
    areas0 = mesh.triangle_areas()
    bverts = [int(v) for v in mesh.boundary_vertex_ids()]
    incident = {v: [] for v in bverts}
    for t, tri in enumerate(triangles):
        for v in tri:
            if int(v) in incident:
                incident[int(v)].append(t)
    gauss = 0.5 * (np.polynomial.legendre.leggauss(3)[0] + 1.0)
    taus = np.unique(np.concatenate([np.linspace(0.0, 1.0, 7), gauss]))

    def edge_excess():
        h_cur = replace(mesh, vertices=vertices).diameters()
        bound = c_d * h_cur[mesh.edge_owner] ** (1.0 + zeta)
        a = vertices[mesh.edge_vertices[:, 0]]
        b = vertices[mesh.edge_vertices[:, 1]]
        samples = a[:, None, :] + taus[None, :, None] * (b - a)[:, None, :]
        _, dist = msh._global_projection(domain, samples.reshape(-1, 2))
        return dist.reshape(len(a), taus.size).max(axis=1) - bound

    blocked = set()
    for round_ in range(msh._SHIFT_ROUNDS):
        excess = edge_excess()
        if round_ > 0 and np.all(excess <= 1e-11):
            break
        pull = {v: 0.0 for v in bverts}
        if round_ == 0:
            h_cur = replace(mesh, vertices=vertices).diameters()
            _, vdist = msh._global_projection(domain, vertices[bverts])
            for k, v in enumerate(bverts):
                h_v = h_cur[incident[v]].max()
                over = vdist[k] - c_d * h_v ** (1.0 + zeta)
                if over > 0.0:
                    pull[v] = max(pull[v], over)
        for e in np.nonzero(excess > 1e-11)[0]:
            for v in mesh.edge_vertices[e]:
                pull[int(v)] = max(pull[int(v)], float(excess[e]))
        if all(p <= 0.0 for p in pull.values()):
            break
        moved = False
        for v in sorted(pull):
            if pull[v] <= 0.0:
                continue
            proj, vdist = msh._global_projection(domain, vertices[v][None, :])
            if vdist[0] <= 1e-15:
                continue
            direction = (proj[0] - vertices[v]) / vdist[0]
            step = min(pull[v], float(vdist[0]))
            frac = _bisected_move(vertices, triangles, areas0, incident[v],
                                  v, vertices[v] + step * direction)
            if frac == 0.0:
                blocked.add(v)
            else:
                moved = True
        if not moved:
            break
    assert np.all(edge_excess() <= 1e-9) and not blocked
    return vertices


@pytest.mark.parametrize("name,n,zeta,c_d", [
    pytest.param("disk", 8, 0.5, 1.0, id="8"),
    pytest.param("disk", 16, 0.5, 1.0, id="16"),
    pytest.param("disk", 32, 0.5, 1.0, id="32"),
    pytest.param("disk", 128, 0.5, 1.0, id="128"),
    pytest.param("disk", 192, 0.5, 1.0, id="192"),
    pytest.param("corner", 8, 0.5, 1.0, id="corner-8"),
    pytest.param("corner", 16, 0.5, 1.0, id="corner-16"),
    pytest.param("disk", 32, 1.0, 0.5, id="32-zeta1-cd0.5"),
])
def test_shift_matches_per_vertex_reference(name, n, zeta, c_d):
    dom = geo.domain_by_name(name)
    m = msh.surrogate_mesh(dom, n)
    shifted = msh.shift_boundary_nodes(m, dom, zeta, c_d)
    reference = _shift_reference(m, dom, zeta, c_d)
    assert not np.array_equal(reference, m.vertices)
    np.testing.assert_array_equal(shifted.vertices, reference)
    # only the vertices move; the normals follow them
    for field in ("triangles", "edge_vertices", "edge_owner", "grid_index"):
        assert getattr(shifted, field) is getattr(m, field), field
    assert shifted.grid_n == m.grid_n == n
    np.testing.assert_array_equal(
        shifted.edge_normals(),
        _boundary_edges_by_key(reference, m.triangles)[2])


@pytest.mark.parametrize("name,n", [("square", 8), ("square", 33),
                                    ("disk", 8), ("disk", 32),
                                    ("corner", 8), ("corner", 16)])
def test_every_boundary_vertex_starts_a_boundary_edge(name, n):
    # the shift reads each vertex's distance from the first sample of the
    # edge it starts, so no boundary vertex may be only an edge end
    dom = geo.domain_by_name(name)
    m = msh.surrogate_mesh(dom, n)
    for mesh in (m, msh.shift_boundary_nodes(m, dom, 0.5, 1.0)):
        np.testing.assert_array_equal(np.unique(mesh.edge_vertices[:, 0]),
                                      mesh.boundary_vertex_ids())


def test_shift_failure_names_blocked_vertex():
    # each resolution stops before the round cap, at the first round whose
    # moves change no coordinate; the excess is then the one measured at the
    # start of that round
    disk = geo.make_disk_domain()
    for n, where, rounds in ((40, "near vertex 1002 (excess 4.221e-04)", 30),
                             (60, "near vertex 2280 (excess 9.323e-04)", 28),
                             (80, "near vertex 2062 (excess 9.716e-04)", 30),
                             (100, "near vertex 10 (excess 9.204e-04)", 32),
                             (119, "near vertex 9002 (excess 1.447e-04)", 24),
                             (120, "near vertex 4626 (excess 8.528e-04)", 22),
                             (140, "near vertex 12440 (excess 7.864e-04)", 26),
                             (160, "near vertex 12 (excess 7.261e-04)", 27),
                             (176, "near vertex 17856 (excess 1.104e-04)", 26),
                             (180, "near vertex 10215 (excess 6.732e-04)", 26),
                             (196, "near vertex 13189 (excess 9.619e-05)", 26)):
        m = msh.surrogate_mesh(disk, n)
        with pytest.raises(MeshError) as info:
            msh.shift_boundary_nodes(m, disk, 0.5, 1.0)
        assert str(info.value).endswith(
            f"{where} at the worst edge after {rounds} rounds, with no move "
            "fully blocked")


def test_shift_failure_after_round_cap(monkeypatch):
    # with two rounds allowed, the shift stops at the cap and measures the
    # excess once more after the last round's moves
    monkeypatch.setattr(msh, "_SHIFT_ROUNDS", 2)
    disk = geo.make_disk_domain()
    for n, where in ((32, "near vertex 650 (excess 6.707e-05)"),
                     (128, "near vertex 7528 (excess 1.918e-06)")):
        m = msh.surrogate_mesh(disk, n)
        with pytest.raises(MeshError) as info:
            msh.shift_boundary_nodes(m, disk, 0.5, 1.0)
        assert str(info.value).endswith(
            f"{where} at the worst edge after 2 rounds, with no move fully "
            "blocked")


def test_shift_failure_names_area_floor(monkeypatch):
    disk = geo.make_disk_domain()
    m = msh.surrogate_mesh(disk, 8)
    monkeypatch.setattr(msh, "_damped_move", lambda *args: 0.0)
    with pytest.raises(MeshError) as info:
        msh.shift_boundary_nodes(m, disk, 0.5, 1.0)
    text = str(info.value)
    assert text.endswith("without violating the area floor")
    assert "rounds" not in text
    vertex = int(text.split("near vertex ")[1].split()[0])
    assert vertex in m.boundary_vertex_ids()


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(n=st.integers(8, 320))
@example(n=40)
@example(n=120)
@example(n=140)
@example(n=160)
@example(n=176)
@example(n=180)
@example(n=196)
@example(n=256)
@example(n=320)
def test_shift_meets_bound_or_names_boundary_vertex(n):
    from sbmlab import assembly

    dom = geo.bind_dirichlet(geo.make_disk_domain(),
                             geo.make_sinsin_solution())
    m = msh.surrogate_mesh(dom, n)
    try:
        shifted = msh.shift_boundary_nodes(m, dom, 0.5, 1.0)
    except MeshError as err:
        vertex = int(str(err).split("near vertex ")[1].split()[0])
        assert vertex in m.boundary_vertex_ids()
        return
    quad = assembly.build_boundary_quadrature(shifted, dom, 3)
    excess = np.linalg.norm(quad.d, axis=-1) - quad.h_owner[:, None] ** 1.5
    assert excess.max() <= 1e-9
    assert (shifted.triangle_areas() / m.triangle_areas()).min() >= 0.2


def test_vtk_export(tmp_path):
    dom = geo.make_square_domain()
    m = msh.surrogate_mesh(dom, 4)
    path = tmp_path / "mesh.vtk"
    msh.write_vtk(path, m, {"height": m.vertices[:, 1]})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert f"POINTS {m.num_vertices} double" in lines
    assert f"CELLS {m.num_triangles} {4 * m.num_triangles}" in lines
    assert f"POINT_DATA {m.num_vertices}" in lines
    k = lines.index("SCALARS height double 1")
    values = [float(v) for v in lines[k + 2:k + 2 + m.num_vertices]]
    np.testing.assert_allclose(values, m.vertices[:, 1], atol=1e-14)


def _boundary_edges_oracle(vertices, triangles):
    """Directed edges used by exactly one triangle, counted in a dict, in
    the order (0,1) of every triangle, then (1,2), then (2,0)."""
    directed = [(int(t[i]), int(t[j]), k)
                for i, j in ((0, 1), (1, 2), (2, 0))
                for k, t in enumerate(triangles)]
    counts = {}
    for a, b, _ in directed:
        key = (min(a, b), max(a, b))
        counts[key] = counts.get(key, 0) + 1
    kept = [(a, b, k) for a, b, k in directed
            if counts[(min(a, b), max(a, b))] == 1]
    ev = np.array([(a, b) for a, b, _ in kept], dtype=int).reshape(-1, 2)
    owner = np.array([k for _, _, k in kept], dtype=int)
    tangent = vertices[ev[:, 1]] - vertices[ev[:, 0]]
    length = np.hypot(tangent[:, 0], tangent[:, 1])
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=-1) / length[:, None]
    return ev, owner, normal


def _check_edges_against_dict_count(name, n):
    """The key-sort oracle on the whole grid, and surrogate_mesh's edge
    fields, against the dict count."""
    dom = geo.domain_by_name(name)
    vertices, triangles = msh._grid(dom.bbox, n)
    got = [_boundary_edges_by_key(vertices, triangles)]
    want = [_boundary_edges_oracle(vertices, triangles)]
    try:
        m = msh.surrogate_mesh(dom, n)
    except MeshError:
        assert (name, n) == ("disk", 2)  # no 2 x 2 grid triangle is inside
    else:
        got.append((m.edge_vertices, m.edge_owner, m.edge_normals()))
        want.append(_boundary_edges_oracle(m.vertices, m.triangles))
    for fields, ref in zip(got, want):
        for field, value, expect in zip(("vertices", "owner", "normal"),
                                        fields, ref):
            np.testing.assert_array_equal(value, expect, err_msg=field)


@pytest.mark.parametrize("n", [2, 7, 8, 33])
@pytest.mark.parametrize("name", ["square", "disk", "corner"])
def test_boundary_edges_match_dict_count_oracle(name, n):
    _check_edges_against_dict_count(name, n)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(["square", "disk", "corner"]),
       n=st.integers(2, 64))
@example(name="corner", n=63)
@example(name="disk", n=64)
def test_boundary_edges_match_dict_count_oracle_any_n(name, n):
    # odd n on the corner puts a boundary diagonal through the re-entrant
    # corner
    _check_edges_against_dict_count(name, n)


def _vtk_reference(mesh, point_data):
    """Line-by-line legacy VTK text, one formatted line per entry."""
    lines = ["# vtk DataFile Version 3.0", "surrogate mesh", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {mesh.num_vertices} double"]
    lines += [f"{x:.15e} {y:.15e} 0.0" for x, y in mesh.vertices]
    nt = mesh.num_triangles
    lines.append(f"CELLS {nt} {4 * nt}")
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    lines.append(f"CELL_TYPES {nt}")
    lines += ["5"] * nt
    lines.append(f"POINT_DATA {mesh.num_vertices}")
    for name, values in point_data.items():
        lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        lines += [f"{v:.15e}" for v in values]
    return "\n".join(lines) + "\n"


def test_vtk_export_matches_line_formatter(tmp_path):
    dom = geo.make_corner_domain()
    m = msh.surrogate_mesh(dom, 6)
    vertices = m.vertices.copy()
    vertices[0, 0] = -0.0
    m = replace(m, vertices=vertices)
    u = np.sin(7.0 * m.vertices[:, 0]) * 1e-3 + m.vertices[:, 1] * 1e5
    u[1] = -0.0
    u[2] = 1e-300
    fields = {"u_h": u, "y": m.vertices[:, 1]}
    path = tmp_path / "mesh.vtk"
    msh.write_vtk(path, m, fields)
    text = path.read_text()
    assert "-0.000000000000000e+00" in text
    assert text == _vtk_reference(m, fields)

    with pytest.raises(MeshError, match="not a nodal scalar"):
        msh.write_vtk(tmp_path / "bad.vtk", m, {"u": u[:-1]})
    assert not (tmp_path / "bad.vtk").exists()
