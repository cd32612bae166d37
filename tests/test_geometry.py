import numpy as np
import pytest

from sbmlab import geometry as geo
from sbmlab import mesh as msh


def arctan_sideset():
    # full bottom curve y = -|arctan x| as a single standalone sideset
    def curve(t):
        t = np.asarray(t, dtype=float)
        x = -0.6 + 1.2 * t
        return np.stack([x, -np.abs(np.arctan(x))], axis=-1)

    def normal(t):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to([0.0, -1.0], t.shape + (2,)).copy()

    return geo.Sideset(1, curve, normal)


def dense_projection(curve, q, lo=0.0, hi=1.0, n=1_000_000, stages=2):
    """Brute-force closest point by repeated dense parameter sampling."""
    for _ in range(stages):
        ts = np.linspace(lo, hi, n + 1)
        c = curve(ts)
        d = np.hypot(c[..., 0] - q[0], c[..., 1] - q[1])
        k = int(np.argmin(d))
        lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, n)]
    return ts[k], c[k], float(d[k])


# ---------------------------------------------------------------------------
# closest-point projection
# ---------------------------------------------------------------------------

def test_closest_point_segment():
    # the minimizer locates t only up to sqrt(eps)*dist comparison noise,
    # while the distance itself is quadratically insensitive to it
    square = geo.make_square_domain()
    t, p, dist = geo.project_points(square.sidesets[0], [[0.3, 0.1]])
    assert abs(t[0] - 0.3) <= 1e-8
    np.testing.assert_allclose(p[0], [0.3, 0.0], atol=1e-8)
    assert abs(dist[0] - 0.1) <= 1e-12


def test_closest_point_arctan_curve_vs_dense_oracle():
    ss = arctan_sideset()
    q = np.array([0.2, -0.05])
    _, (p,), (dist,) = geo.project_points(ss, q[None, :])
    # frozen from the dense-sampling oracle (1e6 parameter samples)
    assert abs(dist - 0.10560314886377963) <= 1e-8
    _, p_ref, d_ref = dense_projection(ss.curve, q)
    assert abs(dist - d_ref) <= 1e-8
    assert abs(p[1] + np.arctan(abs(p[0]))) <= 1e-12  # lands on the curve


def test_closest_point_fixed_point_on_curve():
    ss = arctan_sideset()
    q = ss.curve(np.array([0.37]))[0]
    _, (p,), (dist,) = geo.project_points(ss, q[None, :])
    assert dist <= 1e-12
    np.testing.assert_allclose(p, q, atol=1e-10)


def test_sqdist_matches_summed_squares(rng):
    ss = geo.make_disk_domain().sidesets[0]
    t = rng.uniform(0.0, 1.0, 5400)
    pts = rng.uniform(-1.0, 2.0, (5400, 2))
    np.testing.assert_array_equal(geo._sqdist(ss, t, pts),
                                  ((ss.curve(t) - pts) ** 2).sum(axis=-1))
    # the seed grid's broadcast shape
    r = pts[:, None, :] - ss.curve(np.linspace(0.0, 1.0, 65))[None, :, :]
    np.testing.assert_array_equal(geo._sqnorm(r.copy()),
                                  (r ** 2).sum(axis=-1))


def test_projection_optimality(rng):
    ss = arctan_sideset()
    ts = rng.uniform(0.0, 1.0, 1000)
    curve_pts = ss.curve(ts)
    for q in ([0.2, -0.05], [-0.4, 0.3], [0.0, -0.7]):
        q = np.array(q)
        _, _, (dist,) = geo.project_points(ss, q[None, :])
        others = np.hypot(curve_pts[:, 0] - q[0], curve_pts[:, 1] - q[1])
        assert dist <= others.min() + 1e-10


# ---------------------------------------------------------------------------
# distance vectors
# ---------------------------------------------------------------------------

def test_distance_vector_square_bottom():
    square = geo.make_square_domain()
    x_tilde = np.array([0.3, 0.1])
    _, (x,), _ = geo.project_points(square.sidesets[0], x_tilde[None, :])
    d = x - x_tilde
    np.testing.assert_allclose(d, [0.0, -0.1], atol=1e-8)
    assert abs(np.linalg.norm(d) - 0.1) <= 1e-12


def test_distance_vector_on_boundary_is_zero():
    square = geo.make_square_domain()
    x_tilde = np.array([0.5, 0.0])
    _, (x,), _ = geo.project_points(square.sidesets[0], x_tilde[None, :])
    assert np.linalg.norm(x - x_tilde) <= 1e-12


def test_distance_vector_corner_branch_vs_oracle():
    dom = geo.make_corner_domain()
    right = dom.sidesets[1]
    q = np.array([0.2, -0.15])
    _, (x,), _ = geo.project_points(right, q[None, :])
    d = x - q
    _, p_ref, d_ref = dense_projection(right.curve, q)
    assert abs(np.linalg.norm(d) - d_ref) <= 1e-8
    np.testing.assert_allclose(d, p_ref - q, atol=1e-8)


# ---------------------------------------------------------------------------
# sideset assignment
# ---------------------------------------------------------------------------

def test_assign_case1_single_sideset():
    square = geo.make_square_domain()
    sid, = geo.assign_sidesets(square, [[0.2, 0.05], [0.4, 0.05]], [[0, 1]],
                               [[0.0, -1.0]])
    assert sid == 1  # bottom


def test_assign_case2_weighted_normals():
    # hand-evaluated: f(right) = 2 * 0.1/|(0.1,0.07)| = 1.638 beats
    # f(top) = 2 * 0.07/|(0.1,0.07)| = 1.147
    square = geo.make_square_domain()
    nrm = np.array([0.1, 0.07]) / np.hypot(0.1, 0.07)
    sid, = geo.assign_sidesets(square, [[0.92, 0.8], [0.85, 0.9]], [[0, 1]],
                               [nrm])
    assert sid == 2  # right


def test_assign_case3_projection_on_corner():
    # both endpoints project onto the shared corner (1, 1); the edge normal
    # leans toward the right side, which must win the tie-break formula
    square = geo.make_square_domain()
    nrm = np.array([1.0, 0.5]) / np.hypot(1.0, 0.5)
    sid, = geo.assign_sidesets(square, [[0.9, 0.9], [0.93, 0.93]], [[0, 1]],
                               [nrm])
    assert sid == 2


def test_assign_translation_invariance(rng):
    ends = np.array([[0.92, 0.8], [0.85, 0.9]])
    nrm = np.array([0.1, 0.07]) / np.hypot(0.1, 0.07)
    base, = geo.assign_sidesets(geo.make_square_domain(), ends, [[0, 1]],
                                [nrm])
    for _ in range(20):
        shift = rng.uniform(-50.0, 50.0, 2)
        moved = geo.make_square_domain(lo=shift, hi=shift + 1.0)
        sid, = geo.assign_sidesets(moved, ends + shift, [[0, 1]], [nrm])
        assert sid == base


def _assign_reference(domain, ends_a, ends_b, normals):
    """Per-edge sideset assignment: the candidates of each edge in
    ascending sid, each normal evaluated at one scalar parameter."""
    sidesets = domain.sidesets
    ne = len(ends_a)
    pts = np.vstack([ends_a, ends_b])
    proj = [geo.project_points(ss, pts) for ss in sidesets]
    params = np.array([t for t, _, _ in proj])
    dists = np.array([dist for _, _, dist in proj])
    near = dists <= dists.min(axis=0) + geo._TIE_TOL
    ids = np.empty(ne, dtype=int)
    for e in range(ne):
        cand = np.nonzero(near[:, e] | near[:, ne + e])[0]
        if cand.size == 1:
            ids[e] = sidesets[cand[0]].sid
            continue
        best_sid, best_f = None, -np.inf
        for i in sorted(cand, key=lambda i: sidesets[i].sid):
            f = 0.0
            for col in (e, ne + e):
                f += float(normals[e] @ np.asarray(
                    sidesets[i].normal(params[i, col]), dtype=float))
            if f > best_f + geo._TIE_TOL:
                best_sid, best_f = sidesets[i].sid, f
        ids[e] = best_sid
    return ids


@pytest.mark.parametrize("name,n,shift", [
    *((name, n, False) for name in ("square", "disk", "corner")
      for n in (7, 8, 33, 64)),
    ("disk", 32, True),
])
def test_assign_matches_per_edge_reference(name, n, shift):
    dom = geo.domain_by_name(name)
    m = msh.surrogate_mesh(dom, n)
    if shift:
        m = msh.shift_boundary_nodes(m, dom, 0.5, 1.0)
    a = m.vertices[m.edge_vertices[:, 0]]
    b = m.vertices[m.edge_vertices[:, 1]]
    ids = geo.assign_sidesets(dom, m.vertices, m.edge_vertices, m.edge_normal)
    np.testing.assert_array_equal(
        ids, _assign_reference(dom, a, b, m.edge_normal))


@pytest.mark.parametrize("name,n", [("corner", 40), ("disk", 32)])
def test_assign_projects_each_boundary_vertex_once(monkeypatch, name, n):
    from sbmlab import assembly

    sol = geo.make_sinsin_solution()
    dom = geo.bind_dirichlet(geo.domain_by_name(name), sol)
    m = msh.surrogate_mesh(dom, n)
    sizes = []
    project = geo.project_boundary

    def counting(domain, pts):
        sizes.append(len(pts))
        return project(domain, pts)

    monkeypatch.setattr(geo, "project_boundary", counting)
    assembly.build_boundary_quadrature(m, dom, 3)
    assert sizes == [m.boundary_vertex_ids().size]


# ---------------------------------------------------------------------------
# catalog domains
# ---------------------------------------------------------------------------

def test_corner_domain_membership():
    dom = geo.make_corner_domain()
    assert dom.inside(np.array([[0.0, 0.5]]))[0]
    assert not dom.inside(np.array([[0.5, -0.5]]))[0]
    # boundary points count as inside
    assert dom.inside(np.array([[0.3, -np.arctan(0.3)], [0.6, 0.55]])).all()


def test_sideset_normals_are_unit(rng):
    ts = rng.uniform(0.0, 1.0, 200)
    for dom in (geo.make_square_domain(), geo.make_disk_domain(),
                geo.make_corner_domain()):
        for ss in dom.sidesets:
            nrm = np.linalg.norm(ss.normal(ts), axis=-1)
            assert np.abs(nrm - 1.0).max() <= 1e-12


def test_sideset_loop_is_closed():
    for dom in (geo.make_square_domain(), geo.make_corner_domain()):
        sets = dom.sidesets
        for a, b in zip(sets, sets[1:] + sets[:1]):
            end = a.curve(np.array([1.0]))[0]
            start = b.curve(np.array([0.0]))[0]
            np.testing.assert_allclose(end, start, atol=1e-12)
    disk = geo.make_disk_domain().sidesets[0]
    np.testing.assert_allclose(disk.curve(np.array([0.0])),
                               disk.curve(np.array([1.0])), atol=1e-12)


def test_sideset_curves_injective():
    ts = np.linspace(0.001, 0.999, 400)
    for dom in (geo.make_square_domain(), geo.make_disk_domain(),
                geo.make_corner_domain()):
        for ss in dom.sidesets:
            pts = ss.curve(ts)
            gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
            assert gaps.min() > 0.0


def test_boundary_points_inside_and_in_bbox(rng):
    ts = rng.uniform(0.0, 1.0, 100)
    for dom in (geo.make_square_domain(), geo.make_disk_domain(),
                geo.make_corner_domain()):
        xmin, ymin, xmax, ymax = dom.bbox
        for ss in dom.sidesets:
            pts = ss.curve(ts)
            assert dom.inside(pts).all()
            assert (pts[:, 0] >= xmin - 1e-14).all()
            assert (pts[:, 0] <= xmax + 1e-14).all()
            assert (pts[:, 1] >= ymin - 1e-14).all()
            assert (pts[:, 1] <= ymax + 1e-14).all()


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------

def interior_samples(dom, rng, count, clearance=0.05):
    pts = []
    xmin, ymin, xmax, ymax = dom.bbox
    while len(pts) < count:
        x = rng.uniform((xmin, ymin), (xmax, ymax))
        if not dom.inside(x[None, :])[0]:
            continue
        if np.hypot(x[0], x[1]) < clearance:  # keep clear of the corner
            continue
        pts.append(x)
    return np.array(pts)


def test_corner_solution_values():
    sol = geo.make_corner_solution()
    assert abs(sol.eval(np.array([1.0, 0.0])) - 0.5) <= 1e-14
    # vanishes on both branch tangents y = -|x|
    xs = np.linspace(1e-3, 0.5, 20)
    assert np.abs(sol.eval(np.stack([xs, -xs], axis=-1))).max() <= 1e-10
    assert np.abs(sol.eval(np.stack([-xs, -xs], axis=-1))).max() <= 1e-10


def test_corner_solution_is_harmonic(rng):
    dom = geo.make_corner_domain()
    sol = geo.make_corner_solution()
    pts = interior_samples(dom, rng, 100)
    assert np.abs(sol.rhs_f(pts)).max() == 0.0
    h = 1e-4
    lap = (sol.eval(pts + [h, 0]) + sol.eval(pts - [h, 0])
           + sol.eval(pts + [0, h]) + sol.eval(pts - [0, h])
           - 4.0 * sol.eval(pts)) / h ** 2
    assert np.abs(lap).max() <= 1e-4


@pytest.mark.parametrize("name,domain", [
    ("affine:0.4,1.3,-0.7", "square"),
    ("sinsin", "square"),
    ("corner23", "corner"),
])
def test_gradients_match_finite_differences(name, domain, rng):
    sol = geo.solution_by_name(name)
    dom = geo.domain_by_name(domain)
    pts = interior_samples(dom, rng, 100)
    h = 1e-6
    gx = (sol.eval(pts + [h, 0]) - sol.eval(pts - [h, 0])) / (2 * h)
    gy = (sol.eval(pts + [0, h]) - sol.eval(pts - [0, h])) / (2 * h)
    grad = sol.grad(pts)
    scale = np.maximum(np.linalg.norm(grad, axis=1), 1e-12)
    err = np.linalg.norm(grad - np.stack([gx, gy], axis=-1), axis=1) / scale
    assert err.max() <= 1e-6


def test_sinsin_source_term():
    sol = geo.make_sinsin_solution()
    x = np.array([[0.3, 0.7]])
    expect = 2 * np.pi ** 2 * np.sin(0.3 * np.pi) * np.sin(0.7 * np.pi)
    np.testing.assert_allclose(sol.rhs_f(x), [expect], rtol=1e-14)


def test_catalog_errors():
    with pytest.raises(geo.GeometryError, match="square, disk, corner"):
        geo.domain_by_name("torus")
    with pytest.raises(geo.GeometryError):
        geo.solution_by_name("affine:1,2")
    with pytest.raises(geo.GeometryError):
        geo.solution_by_name("cossin")


def test_bind_dirichlet_traces():
    sol = geo.make_sinsin_solution()
    dom = geo.bind_dirichlet(geo.make_disk_domain(), sol)
    ss = dom.sidesets[0]
    ts = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(ss.dirichlet_g(ts), sol.eval(ss.curve(ts)),
                               atol=0)
