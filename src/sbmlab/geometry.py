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
    ``normal`` returns the outward unit normal at curve(t), ``closest``
    maps (m, 2) points to the parameters of their closest points, row by
    row, and ``dirichlet_g`` (optional) is the Dirichlet datum along the
    curve.
    """

    sid: int
    curve: Callable
    normal: Callable
    closest: Callable
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
    """Manufactured solution with its source term.

    ``jet`` maps points (..., 2) to their values (...) and gradients
    (..., 2) in one evaluation; ``eval`` returns the values alone.
    """

    jet: Callable
    rhs_f: Callable

    def eval(self, x):
        return self.jet(x)[0]


# ---------------------------------------------------------------------------
# closest-point projection
# ---------------------------------------------------------------------------

def project_points(sideset, pts):
    """Project points onto a sideset curve; returns (t, p, dist) arrays.

    t comes from the sideset's ``closest`` and p = curve(t), so projected
    points lie on the curve. On every catalog sideset p - x is normal to
    the curve to rounding: |(p - x) . tau| / |tau| at interior parameters
    of bounding-box points measures at most 8.7e-16 (circle) and 3.3e-16
    (segments, arctan branches). Each row is computed on its own, so a
    point's result does not depend on its batch.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    t = sideset.closest(pts)
    p = sideset.curve(t)
    dist = np.sqrt(((p - pts) ** 2).sum(axis=-1))
    if not np.all(np.isfinite(dist)):
        bad = pts[~np.isfinite(dist)][0]
        raise GeometryError(
            f"sideset {sideset.sid}: projection not finite at "
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
    e = p1 - p0

    def curve(t):
        t = np.asarray(t, dtype=float)
        return p0 + t[..., None] * e

    def normal(t):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(outward, t.shape + (2,)).copy()

    def closest(x):
        return np.clip((x - p0) @ e / (e @ e), 0.0, 1.0)

    return Sideset(sid=sid, curve=curve, normal=normal, closest=closest)


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

    def closest(x):
        ang = np.arctan2(x[:, 1] - cy, x[:, 0] - cx)
        return np.mod(ang / (2.0 * np.pi), 1.0)

    def inside(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return (x[:, 0] - cx) ** 2 + (x[:, 1] - cy) ** 2 <= (r + _SLACK) ** 2

    return DomainSpec("disk", (Sideset(1, curve, normal, closest=closest),),
                      inside, tuple(float(v) for v in bbox))


# re-entrant corner test domain: bottom boundary y = -|arctan x| on
# [-0.6, 0.6], walls at x = +-0.6, lid at y = 0.55; corner at the origin
# with interior angle 3*pi/2. The bounding box extends to y = -0.55 so
# that for even subdivision counts the grid passes exactly through the
# corner; otherwise the surrogate boundary keeps a fixed offset there and
# the distance d stops scaling with h.
_CORNER_HALF = 0.6
_CORNER_TOP = 0.55
_CORNER_BOT = math.atan(_CORNER_HALF)
# Newton steps of a branch projection: bounding-box points converge to
# rounding in at most 4, points in [-1, 1] x [-1, 1.5] in at most 6
_BRANCH_STEPS = 8


def _branch_sideset(sid, x_from, x_to):
    # one branch of y = -|arctan x|, i.e. y = g(x) = -side * arctan x; the
    # side (sign of x) is fixed by the parameter range so the one-sided
    # tangent at the corner is correct
    side = 1.0 if x_from + x_to > 0.0 else -1.0
    lo, hi = min(x_from, x_to), max(x_from, x_to)

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

    def closest(pts):
        """Parameters of the closest points: for each point (a, b), the
        minimizer over the branch of f(x) = (x - a)^2 + (g(x) - b)^2.

        With g extended to [-1, 1], f''/2 = 1 + g'^2 + (g - b) g'' is
        positive there for every query with |b| < 1.62, since |g''| <= 0.65,
        and the bounding box has |b| <= 0.55. So f is strictly convex on
        [-1, 1], and the closest point is the root of f' clipped to the
        branch. The bracket starts at [-1, 1], past both branch ends, so no
        root on the branch sits on a bracket end, where a Newton step that
        leaves the bracket by rounding would bisect away from it. Newton
        starts at x = clip(a), bisects when a step leaves the bracket, and
        takes a fixed number of steps, so no row depends on its batch.
        """
        a, b = pts[:, 0], pts[:, 1]
        left = np.full_like(a, -1.0)
        right = np.full_like(a, 1.0)
        x = np.clip(a, lo, hi)
        for _ in range(_BRANCH_STEPS):
            s = 1.0 + x * x
            r = -side * np.arctan(x) - b       # g - b
            g1 = -side / s
            f1 = x - a + r * g1                 # f' / 2
            f2 = 1.0 + g1 * g1 + r * (2.0 * side * x / (s * s))  # f'' / 2
            left = np.where(f1 < 0.0, x, left)
            right = np.where(f1 > 0.0, x, right)
            xn = x - f1 / f2
            inside = (xn >= left) & (xn <= right)
            x = np.where(inside, xn, 0.5 * (left + right))
        return (np.clip(x, lo, hi) - x_from) / (x_to - x_from)

    return Sideset(sid=sid, curve=curve, normal=normal, closest=closest)


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

def _no_source(x):
    return np.zeros(np.shape(x)[:-1])


def make_affine_solution(a, b, c):
    """u = a + b*x + c*y; harmonic with zero source."""
    a, b, c = float(a), float(b), float(c)

    def jet(x):
        x = np.asarray(x, dtype=float)
        g = np.empty_like(x)
        g[..., 0] = b
        g[..., 1] = c
        return a + b * x[..., 0] + c * x[..., 1], g

    return ExactSolution(jet, _no_source)


def make_sinsin_solution():
    """u = sin(pi x) sin(pi y) with f = 2 pi^2 sin(pi x) sin(pi y)."""
    pi = np.pi

    def jet(x):
        x = np.asarray(x, dtype=float)
        sx, cx = np.sin(pi * x[..., 0]), np.cos(pi * x[..., 0])
        sy, cy = np.sin(pi * x[..., 1]), np.cos(pi * x[..., 1])
        return sx * sy, np.stack([pi * cx * sy, pi * sx * cy], axis=-1)

    def f(x):
        # the value alone: the jet's gradient would raise the assembly's
        # peak (by 3.7 MB at disk n=192)
        x = np.asarray(x, dtype=float)
        u = np.sin(pi * x[..., 0]) * np.sin(pi * x[..., 1])
        return 2.0 * pi * pi * u

    return ExactSolution(jet, f)


_CORNER_LAMBDA = 2.0 / 3.0
_CORNER_PHASE = np.pi / 6.0


def make_corner_solution():
    """Harmonic r^(2/3)-type mode for the re-entrant corner domain.

    With the polar angle measured from the positive x axis, the phase pi/6
    places the zeros of the angular factor on the two branch tangents
    y = -|x|, so the Dirichlet trace stays smooth along each branch. The
    gradient is singular at the corner; there it is set to 0.
    """
    lam, phase = _CORNER_LAMBDA, _CORNER_PHASE

    def jet(x):
        x = np.asarray(x, dtype=float)
        rho = np.hypot(x[..., 0], x[..., 1])
        # polar angle at the origin, wrapped to [-pi/4, 7pi/4) so the cut
        # sits just outside the domain (below the right branch)
        th = np.arctan2(x[..., 1], x[..., 0])
        th = np.where(th < -np.pi / 4.0, th + 2.0 * np.pi, th)
        safe = np.where(rho > 0.0, rho, 1.0)
        dr = lam * safe ** (lam - 1.0)
        # sin(psi) e_r + cos(psi) e_theta with psi = lam*th + phase is
        # (sin, cos) of psi - th
        chi = (lam - 1.0) * th + phase
        g = np.stack([dr * np.sin(chi), dr * np.cos(chi)], axis=-1)
        return (rho ** lam * np.sin(lam * th + phase),
                np.where(rho[..., None] > 0.0, g, 0.0))

    return ExactSolution(jet, _no_source)


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
        for v in (a, b, c):
            if not math.isfinite(v):
                raise GeometryError(
                    f"affine parameter {v} in {name!r} is not finite")
        return make_affine_solution(a, b, c)
    raise GeometryError(
        f"unknown solution {name!r}; catalog: {', '.join(SOLUTION_NAMES)}")


def bind_dirichlet(domain, sol):
    """Attach the trace of an exact solution as the Dirichlet datum."""
    bound = tuple(
        replace(ss, dirichlet_g=(lambda t, _c=ss.curve: sol.eval(_c(t))))
        for ss in domain.sidesets)
    return replace(domain, sidesets=bound)
