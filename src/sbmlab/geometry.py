"""Physical domains, closest-point projection and exact solutions.

The true boundary is described as an ordered loop of parametrized sidesets.
Every surrogate-boundary edge produced by the mesh module gets assigned to
exactly one sideset; boundary data is then transported from that sideset
through the distance vector d(x) = p(x) - x to the closest point p(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np


class GeometryError(Exception):
    """Raised when a projection or sideset assignment cannot be completed."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sideset:
    """One smooth piece of the boundary with its own normal field.

    ``curve`` maps t in [0, 1] to points (vectorized: (m,) -> (m, 2)),
    ``normal`` returns the outward unit normal at curve(t), and
    ``dirichlet_g`` (optional) the Dirichlet datum along the curve.
    """

    sid: int
    curve: Callable
    normal: Callable
    dirichlet_g: Optional[Callable] = None


@dataclass(frozen=True)
class DomainSpec:
    """Closed domain given by a sideset loop, a membership test and a bbox.

    ``inside`` accepts an (m, 2) array and returns an (m,) bool array; points
    on the boundary count as inside (closure semantics, 1e-14 slack).
    ``bbox`` is (xmin, ymin, xmax, ymax) and contains the closed domain.
    """

    name: str
    sidesets: tuple
    inside: Callable
    bbox: tuple


@dataclass(frozen=True)
class ExactSolution:
    """Manufactured solution with value, gradient and source term;
    ``corner`` is the point where the gradient is singular, if any."""

    eval: Callable
    grad: Callable
    rhs_f: Callable
    corner: Optional[tuple] = None


# ---------------------------------------------------------------------------
# closest-point projection
# ---------------------------------------------------------------------------

_NSEEDS = 64
_PARAM_TOL = 1e-13  # a notch below the 1e-12 contract
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _sqnorm(r):
    # squares r in place; one addition is the whole length-2 reduction, so
    # the bits match ``(r ** 2).sum(axis=-1)``
    r *= r
    return r[..., 0] + r[..., 1]


def _sqdist(sideset, t, pts):
    return _sqnorm(sideset.curve(t) - pts)


def project_points(sideset, pts):
    """Project points onto a sideset curve; returns (t, p, dist) arrays.

    Seeds 64 uniform parameter intervals, runs a vectorized golden-section
    search on the squared distance in the best bracket, then polishes with a
    few guarded Newton steps (central differences). Parameter tolerance is
    1e-12, which keeps projected points on the curve to ~1e-12.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    ts = np.linspace(0.0, 1.0, _NSEEDS + 1)
    cs = sideset.curve(ts)
    if not np.all(np.isfinite(cs)):
        raise GeometryError(f"sideset {sideset.sid}: curve not finite on seed grid")
    d2 = _sqnorm(pts[:, None, :] - cs[None, :, :])
    k = np.argmin(d2, axis=1)
    a = ts[np.maximum(k - 1, 0)]
    b = ts[np.minimum(k + 1, _NSEEDS)]

    # golden-section: bracket width 2/64 shrinks below 1e-12 in ~52 steps
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = _sqdist(sideset, c, pts)
    fd = _sqdist(sideset, d, pts)
    nit = int(math.ceil(math.log(_PARAM_TOL * _NSEEDS / 2.0) / math.log(_GOLDEN)))
    for _ in range(nit):
        left = fc < fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        fc = _sqdist(sideset, c, pts)
        fd = _sqdist(sideset, d, pts)
    t = 0.5 * (a + b)

    # Newton polish away from the parameter interval ends
    h = 1e-7
    for _ in range(3):
        interior = (t > h) & (t < 1.0 - h)
        tt = np.where(interior, t, 0.5)
        f0 = _sqdist(sideset, tt, pts)
        fp = _sqdist(sideset, tt + h, pts)
        fm = _sqdist(sideset, tt - h, pts)
        d1 = (fp - fm) / (2.0 * h)
        d2n = (fp - 2.0 * f0 + fm) / (h * h)
        ok = interior & (d2n > 0.0)
        step = np.where(ok, d1 / np.where(d2n > 0.0, d2n, 1.0), 0.0)
        step = np.clip(step, -2.0 / _NSEEDS, 2.0 / _NSEEDS)
        tn = np.clip(np.where(ok, tt - step, t), 0.0, 1.0)
        # strict improvement only: ties are numerical noise near the minimum
        t = np.where(_sqdist(sideset, tn, pts) < _sqdist(sideset, t, pts), tn, t)

    p = sideset.curve(t)
    dist = np.sqrt(_sqnorm(p - pts))
    if not np.all(np.isfinite(dist)):
        bad = pts[~np.isfinite(dist)][0]
        raise GeometryError(
            f"sideset {sideset.sid}: projection did not converge at "
            f"({bad[0]}, {bad[1]})")
    return t, p, dist


def project_boundary(domain, pts):
    """Project points onto every sideset of a domain.

    Returns (t, p, dist) stacked over the sidesets in their domain order,
    with shapes (nss, m), (nss, m, 2) and (nss, m).
    """
    if not domain.sidesets:
        raise GeometryError("domain has no sidesets")
    t, p, dist = zip(*(project_points(ss, pts) for ss in domain.sidesets))
    return np.stack(t), np.stack(p), np.stack(dist)


# ---------------------------------------------------------------------------
# sideset assignment for surrogate edges
# ---------------------------------------------------------------------------

_TIE_TOL = 1e-12


def assign_sidesets(domain, points, edges, normals):
    """Assign a sideset id to each surrogate edge (batched).

    ``edges`` holds vertex index pairs into ``points``; each distinct edge
    vertex is projected once onto the whole boundary, and the edges read
    their endpoints' projections. The candidate set per edge collects every
    sideset matching either endpoint's global minimum distance (within
    1e-12, so projections landing on a sideset intersection contribute both
    neighbors). A unique candidate wins directly; otherwise the winner
    maximizes f(s) = sum over endpoints of n_edge . n_s, with the candidate
    normal evaluated at the endpoint's own projection onto that candidate.
    Exact ties go to the smaller sideset id.
    """
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    verts, ends = np.unique(np.atleast_2d(edges), return_inverse=True)
    ends = ends.reshape(-1, 2)
    params, _, dists = project_boundary(
        domain, np.asarray(points, dtype=float)[verts])
    near = dists <= dists.min(axis=0) + _TIE_TOL  # (nss, vertices)
    cand = near[:, ends[:, 0]] | near[:, ends[:, 1]]

    # candidates in ascending sid; a later one wins only by more than the tie
    # tolerance, and every edge has one (its endpoints' argmin sidesets)
    ids = np.empty(len(ends), dtype=int)
    best_f = np.full(len(ends), -np.inf)
    for i, ss in sorted(enumerate(domain.sidesets), key=lambda s: s[1].sid):
        n_s = ss.normal(params[i])
        f = ((normals * n_s[ends[:, 0]]).sum(axis=1)
             + (normals * n_s[ends[:, 1]]).sum(axis=1))
        take = cand[i] & (f > best_f + _TIE_TOL)
        ids[take] = ss.sid
        best_f[take] = f[take]
    return ids


# ---------------------------------------------------------------------------
# domain catalog
# ---------------------------------------------------------------------------

_SLACK = 1e-14


def _segment_sideset(sid, p0, p1, outward):
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    outward = np.asarray(outward, dtype=float)
    outward = outward / np.linalg.norm(outward)

    def curve(t):
        t = np.asarray(t, dtype=float)
        return p0 + t[..., None] * (p1 - p0)

    def normal(t):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(outward, t.shape + (2,)).copy()

    return Sideset(sid=sid, curve=curve, normal=normal)


def make_square_domain(lo=(0.0, 0.0), hi=(1.0, 1.0), bbox=None):
    """Axis-aligned square [lo, hi] with four segment sidesets (CCW)."""
    x0, y0 = float(lo[0]), float(lo[1])
    x1, y1 = float(hi[0]), float(hi[1])
    sidesets = (
        _segment_sideset(1, (x0, y0), (x1, y0), (0.0, -1.0)),   # bottom
        _segment_sideset(2, (x1, y0), (x1, y1), (1.0, 0.0)),    # right
        _segment_sideset(3, (x1, y1), (x0, y1), (0.0, 1.0)),    # top
        _segment_sideset(4, (x0, y1), (x0, y0), (-1.0, 0.0)),   # left
    )

    def inside(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return ((x[:, 0] >= x0 - _SLACK) & (x[:, 0] <= x1 + _SLACK)
                & (x[:, 1] >= y0 - _SLACK) & (x[:, 1] <= y1 + _SLACK))

    if bbox is None:
        bbox = (x0, y0, x1, y1)
    return DomainSpec("square", sidesets, inside, tuple(float(v) for v in bbox))


def make_disk_domain(center=(0.5, 0.5), radius=0.45, bbox=(0.0, 0.0, 1.0, 1.0)):
    """Disk embedded in a rectangular bounding box; one closed sideset."""
    cx, cy = float(center[0]), float(center[1])
    r = float(radius)

    def curve(t):
        t = np.asarray(t, dtype=float)
        ang = 2.0 * np.pi * t
        return np.stack([cx + r * np.cos(ang), cy + r * np.sin(ang)], axis=-1)

    def normal(t):
        t = np.asarray(t, dtype=float)
        ang = 2.0 * np.pi * t
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)

    def inside(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return (x[:, 0] - cx) ** 2 + (x[:, 1] - cy) ** 2 <= (r + _SLACK) ** 2

    return DomainSpec("disk", (Sideset(1, curve, normal),), inside,
                      tuple(float(v) for v in bbox))


# re-entrant corner test domain: bottom boundary y = -|arctan x| on
# [-0.6, 0.6], walls at x = +-0.6, lid at y = 0.55; corner at the origin
# with interior angle 3*pi/2. The bounding box extends to y = -0.55 so
# that for even subdivision counts the grid passes exactly through the
# corner; otherwise the surrogate boundary keeps a fixed offset there and
# the distance d stops scaling with h.
_CORNER_HALF = 0.6
_CORNER_TOP = 0.55
_CORNER_BOT = math.atan(_CORNER_HALF)


def _branch_sideset(sid, x_from, x_to):
    # one branch of y = -|arctan x|; the side (sign of x) is fixed by the
    # parameter range so the one-sided tangent at the corner is correct
    side = 1.0 if x_from + x_to > 0.0 else -1.0

    def curve(t):
        t = np.asarray(t, dtype=float)
        x = x_from + t * (x_to - x_from)
        return np.stack([x, -np.abs(np.arctan(x))], axis=-1)

    def normal(t):
        t = np.asarray(t, dtype=float)
        x = x_from + t * (x_to - x_from)
        slope = -side / (1.0 + x * x)
        tx = np.ones_like(x)
        ty = slope
        nrm = np.hypot(tx, ty)
        # tangent follows increasing x = CCW order; outward lies below
        return np.stack([ty / nrm, -tx / nrm], axis=-1)

    return Sideset(sid=sid, curve=curve, normal=normal)


def make_corner_domain():
    """Re-entrant corner domain (angle 3*pi/2 at the origin)."""
    hb = _CORNER_HALF
    yb = -_CORNER_BOT
    top = _CORNER_TOP
    sidesets = (
        _branch_sideset(1, -hb, 0.0),                               # left branch
        _branch_sideset(2, 0.0, hb),                                # right branch
        _segment_sideset(3, (hb, yb), (hb, top), (1.0, 0.0)),       # right wall
        _segment_sideset(4, (hb, top), (-hb, top), (0.0, 1.0)),     # lid
        _segment_sideset(5, (-hb, top), (-hb, yb), (-1.0, 0.0)),    # left wall
    )

    def inside(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return ((np.abs(x[:, 0]) <= hb + _SLACK)
                & (x[:, 1] <= top + _SLACK)
                & (x[:, 1] >= -np.abs(np.arctan(x[:, 0])) - _SLACK))

    return DomainSpec("corner", sidesets, inside, (-hb, -top, hb, top))


# ---------------------------------------------------------------------------
# exact-solution catalog
# ---------------------------------------------------------------------------

def make_affine_solution(a, b, c):
    """u = a + b*x + c*y; harmonic with zero source."""
    a, b, c = float(a), float(b), float(c)

    def ev(x):
        x = np.asarray(x, dtype=float)
        return a + b * x[..., 0] + c * x[..., 1]

    def gr(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        g = np.empty_like(x)
        g[:, 0] = b
        g[:, 1] = c
        return g

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    return ExactSolution(ev, gr, f)


def make_sinsin_solution():
    """u = sin(pi x) sin(pi y) with f = 2 pi^2 sin(pi x) sin(pi y)."""
    pi = np.pi

    def ev(x):
        x = np.asarray(x, dtype=float)
        return np.sin(pi * x[..., 0]) * np.sin(pi * x[..., 1])

    def gr(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        sx, cx = np.sin(pi * x[:, 0]), np.cos(pi * x[:, 0])
        sy, cy = np.sin(pi * x[:, 1]), np.cos(pi * x[:, 1])
        return np.stack([pi * cx * sy, pi * sx * cy], axis=-1)

    def f(x):
        return 2.0 * pi * pi * ev(x)

    return ExactSolution(ev, gr, f)


_CORNER_LAMBDA = 2.0 / 3.0
_CORNER_PHASE = np.pi / 6.0


def _corner_angle(x, y):
    # polar angle at the origin, wrapped to [-pi/4, 7pi/4) so the cut sits
    # just outside the domain (below the right branch)
    th = np.arctan2(y, x)
    return np.where(th < -np.pi / 4.0, th + 2.0 * np.pi, th)


def make_corner_solution():
    """Harmonic r^(2/3)-type mode for the re-entrant corner domain.

    With the polar angle measured from the positive x axis, the phase pi/6
    places the zeros of the angular factor on the two branch tangents
    y = -|x|, so the Dirichlet trace stays smooth along each branch.
    """
    lam, phase = _CORNER_LAMBDA, _CORNER_PHASE

    def ev(x):
        x = np.asarray(x, dtype=float)
        rho = np.hypot(x[..., 0], x[..., 1])
        th = _corner_angle(x[..., 0], x[..., 1])
        return rho ** lam * np.sin(lam * th + phase)

    def gr(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        rho = np.hypot(x[:, 0], x[:, 1])
        th = _corner_angle(x[:, 0], x[:, 1])
        safe = np.where(rho > 0.0, rho, 1.0)
        dr = lam * safe ** (lam - 1.0)
        # sin(psi) e_r + cos(psi) e_theta with psi = lam*th + phase is
        # (sin, cos) of psi - th
        chi = (lam - 1.0) * th + phase
        g = np.stack([dr * np.sin(chi), dr * np.cos(chi)], axis=-1)
        return np.where(rho[:, None] > 0.0, g, 0.0)

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    return ExactSolution(ev, gr, f, corner=(0.0, 0.0))


# ---------------------------------------------------------------------------
# catalogs and Dirichlet binding
# ---------------------------------------------------------------------------

DOMAIN_NAMES = ("square", "disk", "corner")
SOLUTION_NAMES = ("affine:a,b,c", "sinsin", "corner23")


def domain_by_name(name):
    if name == "square":
        return make_square_domain()
    if name == "disk":
        return make_disk_domain()
    if name == "corner":
        return make_corner_domain()
    raise GeometryError(
        f"unknown domain {name!r}; catalog: {', '.join(DOMAIN_NAMES)}")


def solution_by_name(name):
    if name == "sinsin":
        return make_sinsin_solution()
    if name == "corner23":
        return make_corner_solution()
    if name.startswith("affine:"):
        try:
            a, b, c = (float(v) for v in name[len("affine:"):].split(","))
        except ValueError as err:
            raise GeometryError(f"bad affine parameters in {name!r}") from err
        return make_affine_solution(a, b, c)
    raise GeometryError(
        f"unknown solution {name!r}; catalog: {', '.join(SOLUTION_NAMES)}")


def bind_dirichlet(domain, sol):
    """Attach the trace of an exact solution as the Dirichlet datum."""
    bound = tuple(
        replace(ss, dirichlet_g=(lambda t, _c=ss.curve: sol.eval(_c(t))))
        for ss in domain.sidesets)
    return replace(domain, sidesets=bound)
