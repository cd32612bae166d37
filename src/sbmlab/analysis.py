"""Error measurement, identity checks and convergence-rate fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import p1_gradients, p1_values, triangle_rule
from .linsolve import SolveError
from .mesh import mesh_params

# errors at or below this are reported with the "exact" rate sentinel
EXACT_FLOOR = 1e-12


@dataclass(frozen=True)
class ErrorReport:
    """Per-refinement error measures for one solve."""

    h_gamma: float
    h_omega: float
    err_l2: float
    err_h1: float
    err_energy: float
    remainder: float
    dofs: int


@dataclass(frozen=True)
class RateTable:
    """Rows (h, error, rate); rate None on the first row, NaN means exact."""

    rows: List[Tuple[float, float, Optional[float]]]
    fitted_slope: float


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _corner_of(sol):
    ref = sol.reference if sol is not None else {}
    return np.asarray(ref["corner"], dtype=float) if "corner" in ref else None


def error_norms(mesh, u_h, sol, degree=4):
    """(L2, H1-seminorm) errors of a nodal field against the exact solution."""
    bary, wts = triangle_rule(degree)
    p = mesh.vertices[mesh.triangles]            # (nt, 3, 2)
    areas = mesh.triangle_areas()
    grads = p1_gradients(p)                      # (nt, 3, 2)
    vals = u_h[mesh.triangles]                   # (nt, 3)

    qp = np.einsum("qk,tkd->tqd", bary, p)        # (nt, q, 2)
    flat = qp.reshape(-1, 2)
    ue = np.asarray(sol.eval(flat), dtype=float).reshape(qp.shape[:2])
    ge = np.asarray(sol.grad(flat), dtype=float).reshape(qp.shape[:2] + (2,))

    uh_q = np.einsum("tk,qk->tq", vals, bary)
    gh = np.einsum("tk,tkd->td", vals, grads)     # constant per triangle

    e2 = np.einsum("tq,q,t->", (ue - uh_q) ** 2, wts, areas)
    diff = ge - gh[:, None, :]
    g2 = np.einsum("tqd,q,t->", diff ** 2, wts, areas)
    return math.sqrt(e2), math.sqrt(g2)


def _nudged_points(quad, corner):
    """Move quadrature points sitting on the corner 1e-12 along their edge."""
    pts = quad.points
    if corner is None:
        return pts
    close = np.linalg.norm(pts - corner, axis=-1) < 1e-14
    if not np.any(close):
        return pts
    pts = pts.copy()
    tangent = pts[:, -1, :] - pts[:, 0, :]
    tangent /= np.linalg.norm(tangent, axis=-1, keepdims=True)
    shift = np.broadcast_to(tangent[:, None, :], pts.shape)
    pts[close] += 1e-12 * shift[close]
    return pts


def _edge_basis(mesh, quad):
    """Per boundary edge: owner-triangle vertex ids, P1 gradients (ne, 3, 2)
    and P1 values at the edge's Gauss points (ne, nq, 3)."""
    etri = mesh.triangles[mesh.edge_owner]
    ep = mesh.vertices[etri]
    return etri, p1_gradients(ep), p1_values(ep[:, None, :, :], quad.points)


def _shift_values(mesh, quad, v):
    """Transported nodal field v + grad(v) . d at all boundary Gauss points."""
    etri, eg, phi = _edge_basis(mesh, quad)
    vals = v[etri]
    gh = np.einsum("ek,ekd->ed", vals, eg)
    return (np.einsum("eqk,ek->eq", phi, vals)
            + np.einsum("ed,eqd->eq", gh, quad.d))


def energy_norm(mesh, quad, v):
    """sqrt( |grad v|^2 + sum over edges of (transported v)^2 / h )."""
    v = np.asarray(v, dtype=float)
    p = mesh.vertices[mesh.triangles]
    gh = np.einsum("tk,tkd->td", v[mesh.triangles], p1_gradients(p))
    grad_term = float(np.einsum("td,td,t->", gh, gh, mesh.triangle_areas()))
    sh = _shift_values(mesh, quad, v)
    bnd_term = float(np.einsum("eq,eq,e->", sh ** 2, quad.weights,
                               1.0 / quad.h_owner))
    return math.sqrt(grad_term + bnd_term)


def energy_gram(mesh, quad):
    """Sparse Gram matrix of the energy norm (independent assembly loop)."""
    nv = mesh.num_vertices
    tris = mesh.triangles
    p = mesh.vertices[tris]
    grads = p1_gradients(p)
    k_loc = np.einsum("tid,tjd,t->tij", grads, grads, mesh.triangle_areas())
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    data = k_loc.ravel()

    etri, eg, phi = _edge_basis(mesh, quad)
    sh = phi + np.einsum("eid,eqd->eqi", eg, quad.d)
    m_loc = np.einsum("e,eq,eqi,eqj->eij", 1.0 / quad.h_owner, quad.weights,
                      sh, sh)
    rows = np.concatenate([rows, np.repeat(etri, 3, axis=1).ravel()])
    cols = np.concatenate([cols, np.tile(etri, (1, 3)).ravel()])
    data = np.concatenate([data, m_loc.ravel()])
    m = sp.coo_matrix((data, (rows, cols)), shape=(nv, nv)).tocsr()
    m.sum_duplicates()
    m.sort_indices()
    return m


def remainder_norm(mesh, quad, sol):
    """Weighted norm of the boundary-transport defect gbar - (u + grad u . d).

    At every boundary Gauss point the exact solution is transported along
    the distance vector and compared with the mapped datum; the squared
    defect is integrated with weight 1/h. Vanishes identically for affine
    solutions and on fitted meshes.
    """
    pts = _nudged_points(quad, _corner_of(sol))
    flat = pts.reshape(-1, 2)
    shape = pts.shape[:2]
    u = np.asarray(sol.eval(flat), dtype=float).reshape(shape)
    g = np.asarray(sol.grad(flat), dtype=float).reshape(shape + (2,))
    if quad.gbar is not None:
        gbar = quad.gbar
    else:
        gbar = np.asarray(sol.eval((pts + quad.d).reshape(-1, 2)),
                          dtype=float).reshape(shape)
    defect = gbar - (u + np.einsum("eqd,eqd->eq", g, quad.d))
    total = float(np.einsum("eq,eq,e->", defect ** 2, quad.weights,
                            1.0 / quad.h_owner))
    return math.sqrt(total)


def energy_error(mesh, quad, u_h, sol, degree=4, h1=None):
    """Energy-norm error: H1 part plus the transported boundary mismatch.

    Pass ``h1`` from ``error_norms`` at the same degree to skip recomputing it.
    """
    if h1 is None:
        _, h1 = error_norms(mesh, u_h, sol, degree)
    pts = _nudged_points(quad, _corner_of(sol))
    flat = pts.reshape(-1, 2)
    shape = pts.shape[:2]
    ue = np.asarray(sol.eval(flat), dtype=float).reshape(shape)
    ge = np.asarray(sol.grad(flat), dtype=float).reshape(shape + (2,))
    s_exact = ue + np.einsum("eqd,eqd->eq", ge, quad.d)
    s_h = _shift_values(mesh, quad, np.asarray(u_h, dtype=float))
    bnd = float(np.einsum("eq,eq,e->", (s_exact - s_h) ** 2, quad.weights,
                          1.0 / quad.h_owner))
    return math.sqrt(h1 * h1 + bnd)


def error_report(mesh, quad, u_h, sol, degree=4):
    """Bundle all error measures for one refinement level."""
    err_l2, err_h1 = error_norms(mesh, u_h, sol, degree)
    h_gamma, h_omega = mesh_params(mesh)
    return ErrorReport(
        h_gamma=h_gamma,
        h_omega=h_omega,
        err_l2=err_l2,
        err_h1=err_h1,
        err_energy=energy_error(mesh, quad, u_h, sol, degree, h1=err_h1),
        remainder=remainder_norm(mesh, quad, sol),
        dofs=mesh.num_vertices,
    )


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def nonsymmetry_residual(sys, mesh, quad, w, v):
    """Defect of the exchange identity of the bilinear form.

    a(w,v) - a(v,w) must equal the boundary bracket
    (dn w, grad v . d) - (dn v, grad w . d); the bracket is evaluated by a
    direct edge loop, the left side through the assembled matrix. Returns
    the mismatch relative to 1 + |a(w,v)|.
    """
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    awv = float(v @ (sys.matrix @ w))
    avw = float(w @ (sys.matrix @ v))

    etri, eg, _ = _edge_basis(mesh, quad)
    gw = np.einsum("ek,ekd->ed", w[etri], eg)
    gv = np.einsum("ek,ekd->ed", v[etri], eg)
    dnw = np.einsum("ed,ed->e", gw, mesh.edge_normal)
    dnv = np.einsum("ed,ed->e", gv, mesh.edge_normal)
    wd = np.einsum("ed,eqd->eq", gw, quad.d)
    vd = np.einsum("ed,eqd->eq", gv, quad.d)
    bracket = float(np.einsum("e,eq,eq->", dnw, vd, quad.weights)
                    - np.einsum("e,eq,eq->", dnv, wd, quad.weights))
    return abs((awv - avw) - bracket) / (1.0 + abs(awv))


class Coercivity(float):
    """lambda_min as a float; ``record`` holds the eigensolve's method, final
    shift and relative residual ||A_sym x - lam M x|| / (|lam| ||M x||)."""

    def __new__(cls, value, record):
        self = super().__new__(cls, value)
        self.record = record
        return self


def coercivity_estimate(sys, mesh, quad):
    """Smallest ratio a(v,v) / ||v||_a^2 over the discrete space.

    This is the smallest eigenvalue of the symmetric part of the system
    matrix against the energy Gram matrix, from one ARPACK shift-invert
    eigensolve (see ``_min_eigpair``): the minimum itself, not a bound.
    May legitimately be non-positive when the penalty is too small.
    Raises SolveError, naming the shift, when the eigensolve fails.
    """
    a_sym = (0.5 * (sys.matrix + sys.matrix.T)).tocsc()
    m = energy_gram(mesh, quad).tocsc()
    if not np.any(m.diagonal()):
        raise SolveError("coercivity eigensolve: singular energy Gram matrix")
    lam, x, shift = _min_eigpair(a_sym, m)
    mx = m @ x
    res = np.linalg.norm(a_sym @ x - lam * mx) / np.linalg.norm(lam * mx)
    return Coercivity(lam, {"method": "arpack-shift-invert", "shift": shift,
                            "eigen_residual": float(res)})


def _factor_below(a_sym, m, shift):
    """Solver for a_sym - shift m, or None unless shift is below the spectrum.

    SuperLU is held to diagonal pivots (perm_r == perm_c confirms it), so
    the factorization is L D L^T with D = diag(U), and by Sylvester's law
    of inertia the shift lies strictly below every eigenvalue of (a_sym, m)
    exactly when D > 0.
    """
    try:
        lu = spla.splu((a_sym - shift * m).tocsc(),
                       permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular: the shift is an eigenvalue
        return None
    if (np.array_equal(lu.perm_r, lu.perm_c)
            and np.all(lu.U.diagonal() > 0.0)):
        return spla.LinearOperator(a_sym.shape, matvec=lu.solve)
    return None


def _min_eigpair(a_sym, m):
    """(lambda_min, x, shift) of a_sym x = lambda m x by ARPACK shift-invert.

    A function vanishing on the boundary triangles has ratio exactly 1, so
    the first shift tried is -1, doubled until the inertia test puts it
    below the spectrum. A tol-1e-3 solve there bounds lambda_min from
    above; the tight solve re-shifts below that estimate, where the bottom
    eigenvalues separate better, unless the inertia test shows that the
    re-shift would pass lambda_min.
    """
    shift = -1.0
    while (op := _factor_below(a_sym, m, shift)) is None:
        if shift < -1e12:
            raise SolveError("coercivity eigensolve: no shift below the "
                             f"spectrum down to {shift:.1e}")
        shift *= 2.0
    start = np.random.default_rng(0).uniform(-1.0, 1.0, a_sym.shape[0])
    try:
        lam, x = spla.eigsh(a_sym, k=1, M=m, sigma=shift, OPinv=op,
                            v0=start, tol=1e-3)
        near = lam[0] - 0.1 * max(1.0, abs(lam[0]))
        if (op_near := _factor_below(a_sym, m, near)) is not None:
            shift, op = float(near), op_near
        lam, x = spla.eigsh(a_sym, k=1, M=m, sigma=shift, OPinv=op,
                            v0=x[:, 0], tol=1e-12)
    except spla.ArpackError as err:
        raise SolveError(f"coercivity eigensolve (ARPACK shift-invert, "
                         f"shift {shift:.6e}) failed: {err}") from err
    return float(lam[0]), x[:, 0], shift


# ---------------------------------------------------------------------------
# rate fitting and CSV emission
# ---------------------------------------------------------------------------

def fit_rates(series):
    """Pairwise rates plus a least-squares slope over the last <= 4 entries.

    ``series`` is a list of (h, error) with h strictly decreasing. Errors
    at or below 1e-12 are flagged with the NaN sentinel (printed "exact"):
    machine-zero errors carry no rate information.
    """
    if len(series) < 2:
        raise ValueError("need at least two (h, error) entries")
    hs = [float(h) for h, _ in series]
    errs = [float(e) for _, e in series]
    if any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
        raise ValueError("mesh sizes must be strictly decreasing")

    rows: List[Tuple[float, float, Optional[float]]] = []
    for i, (h, e) in enumerate(zip(hs, errs)):
        if i == 0:
            rows.append((h, e, None))
            continue
        if e <= EXACT_FLOOR or errs[i - 1] <= EXACT_FLOOR:
            rows.append((h, e, math.nan))
            continue
        rate = math.log(errs[i - 1] / e) / math.log(hs[i - 1] / h)
        rows.append((h, e, rate))

    k = min(4, len(series))
    tail_h = hs[-k:]
    tail_e = errs[-k:]
    if any(e <= EXACT_FLOOR for e in tail_e):
        slope = math.nan
    else:
        lh = np.log(tail_h)
        le = np.log(tail_e)
        slope = float(np.polyfit(lh, le, 1)[0])
    return RateTable(rows=rows, fitted_slope=slope)


CSV_HEADER = ("h,dofs,l2,l2_rate,h1,h1_rate,energy,energy_rate,"
              "remainder,remainder_rate")


def _rate_str(prev, cur, h_prev, h_cur):
    if prev is None:
        return ""
    if cur <= EXACT_FLOOR or prev <= EXACT_FLOOR:
        return "exact"
    return f"{math.log(prev / cur) / math.log(h_prev / h_cur):.12e}"


def csv_row(prev, cur):
    """Format one CSV line from the current and previous ErrorReport."""
    h_prev = prev.h_omega if prev else None
    fields = [f"{cur.h_omega:.12e}", str(cur.dofs)]
    for name in ("err_l2", "err_h1", "err_energy", "remainder"):
        val = getattr(cur, name)
        pval = getattr(prev, name) if prev else None
        fields.append(f"{val:.12e}")
        fields.append(_rate_str(pval, val, h_prev, cur.h_omega))
    return ",".join(fields)
