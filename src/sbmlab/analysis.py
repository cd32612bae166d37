"""Error measurement, identity checks and convergence-rate fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import TRI_RULE_DEG4, edge_basis, p1_gradients, scatter
from .linsolve import SolveError, trim_heap
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


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _nodal(mesh, v):
    """v as a float array, or ValueError unless it holds one value per
    mesh vertex."""
    v = np.asarray(v, dtype=float)
    if v.shape != (mesh.num_vertices,):
        raise ValueError(f"nodal field has shape {v.shape}, but the mesh "
                         f"has {mesh.num_vertices} vertices")
    return v


_ERROR_BLOCK = 1 << 13


def _p1_gradient(vals, p):
    """Gradient (nt, 2) of the P1 field with vertex values vals (nt, 3) on
    triangles p (nt, 3, 2)."""
    return np.matmul(vals[:, None, :], p1_gradients(p))[:, 0]


def error_norms(mesh, u_h, sol):
    """(L2, H1-seminorm) errors of a nodal field against the exact solution,
    with the degree-4 triangle rule.

    The triangles are taken in blocks of ``_ERROR_BLOCK`` (2^13): the
    point coordinates, values and gradients take about 0.9 kB per
    triangle, about 7 MB per block. Over the whole mesh (140 MB at corner
    n=320) they made this the peak-memory stage of a fine level. Only the
    order of the sums depends on the block size.
    """
    u_h = _nodal(mesh, u_h)
    bary, wts = TRI_RULE_DEG4
    areas = mesh.triangle_areas()
    e2 = g2 = 0.0
    for lo in range(0, mesh.num_triangles, _ERROR_BLOCK):
        tri = mesh.triangles[lo:lo + _ERROR_BLOCK]
        area = areas[lo:lo + _ERROR_BLOCK]
        p = mesh.vertices[tri]                        # (nb, 3, 2)
        vals = u_h[tri]                               # (nb, 3)

        qp = np.matmul(bary, p)                       # (nb, q, 2)
        ue, ge = sol.jet(qp)                          # (nb, q), (nb, q, 2)

        uh_q = np.matmul(vals, bary.T)
        gh = _p1_gradient(vals, p)                    # per triangle

        e2 += np.matmul((ue - uh_q) ** 2, wts) @ area
        diff = ge - gh[:, None, :]
        g2 += np.matmul(diff[..., 0] ** 2 + diff[..., 1] ** 2, wts) @ area
    return math.sqrt(e2), math.sqrt(g2)


def _shift_values(mesh, quad, v):
    """Transported nodal field v + grad(v) . d at all boundary Gauss points."""
    etri, _, _, sh = edge_basis(mesh, quad)
    return np.einsum("eqk,ek->eq", sh, v[etri])


def _exact_trace(quad, sol):
    """Transported exact solution u + grad(u) . d at all boundary Gauss
    points."""
    u, g = sol.jet(quad.points)
    return u + np.einsum("eqd,eqd->eq", g, quad.d)


def _boundary_sq(quad, x):
    """Sum over boundary Gauss points of x^2 w / h (x shaped (ne, nq))."""
    return float(np.einsum("eq,eq,e->", x ** 2, quad.weights,
                           1.0 / quad.h_owner))


def energy_norm(mesh, quad, v):
    """sqrt( |grad v|^2 + sum over edges of (transported v)^2 / h )."""
    v = _nodal(mesh, v)
    gh = _p1_gradient(v[mesh.triangles], mesh.vertices[mesh.triangles])
    grad_term = float((gh[:, 0] ** 2 + gh[:, 1] ** 2) @ mesh.triangle_areas())
    bnd_term = _boundary_sq(quad, _shift_values(mesh, quad, v))
    return math.sqrt(grad_term + bnd_term)


def energy_gram(mesh, quad):
    """Sparse Gram matrix of the energy norm, independent of ``assemble``."""
    g = p1_gradients(mesh.vertices[mesh.triangles])
    a = mesh.triangle_areas()[:, None, None]
    k_loc = (g[:, :, None, 0] * g[:, None, :, 0] * a
             + g[:, :, None, 1] * g[:, None, :, 1] * a)
    etri, _, _, sh = edge_basis(mesh, quad)
    m_loc = np.einsum("e,eq,eqi,eqj->eij", 1.0 / quad.h_owner, quad.weights,
                      sh, sh)
    return scatter(mesh, (mesh.triangles, k_loc), (etri, m_loc))


def remainder_norm(mesh, quad, sol):
    """Weighted norm of the boundary-transport defect gbar - (u + grad u . d).

    At every boundary Gauss point the exact solution is transported along
    the distance vector and compared with the mapped datum; the squared
    defect is integrated with weight 1/h. Vanishes identically for affine
    solutions and on fitted meshes.
    """
    defect = quad.gbar - _exact_trace(quad, sol)
    return math.sqrt(_boundary_sq(quad, defect))


def energy_error(mesh, quad, u_h, sol, h1):
    """Energy-norm error: the H1 part ``h1`` (from ``error_norms``) plus the
    transported boundary mismatch."""
    s_h = _shift_values(mesh, quad, _nodal(mesh, u_h))
    bnd = _boundary_sq(quad, _exact_trace(quad, sol) - s_h)
    return math.sqrt(h1 * h1 + bnd)


def error_report(mesh, quad, u_h, sol):
    """Bundle all error measures for one refinement level."""
    err_l2, err_h1 = error_norms(mesh, u_h, sol)
    h_gamma, h_omega = mesh_params(mesh)
    return ErrorReport(
        h_gamma=h_gamma,
        h_omega=h_omega,
        err_l2=err_l2,
        err_h1=err_h1,
        err_energy=energy_error(mesh, quad, u_h, sol, err_h1),
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

    etri, eg, _, _ = edge_basis(mesh, quad)
    gw = np.einsum("ek,ekd->ed", w[etri], eg)
    gv = np.einsum("ek,ekd->ed", v[etri], eg)
    normal = mesh.edge_normals()
    dnw = np.einsum("ed,ed->e", gw, normal)
    dnv = np.einsum("ed,ed->e", gv, normal)
    wd = np.einsum("ed,eqd->eq", gw, quad.d)
    vd = np.einsum("ed,eqd->eq", gv, quad.d)
    bracket = float(np.einsum("e,eq,eq->", dnw, vd, quad.weights)
                    - np.einsum("e,eq,eq->", dnv, wd, quad.weights))
    return abs((awv - avw) - bracket) / (1.0 + abs(awv))


class Coercivity(float):
    """lambda_min as a float; ``record`` holds the eigensolve's method, final
    shift, relative residual ||A_sym x - lam M x|| / (|lam| ||M x||) and
    the number of LU factorizations it made."""

    def __new__(cls, value, record):
        self = super().__new__(cls, value)
        self.record = record
        return self


def coercivity_estimate(sys, mesh, quad):
    """Smallest ratio a(v,v) / ||v||_a^2 over the discrete space.

    This is the smallest eigenvalue of the symmetric part of the system
    matrix against the energy Gram matrix, from one ARPACK shift-invert
    eigensolve (see ``_min_eigpair``): the minimum itself, not a bound.
    The eigensolve holds one LU factor at a time; ``record`` counts its
    factorizations (2 unless a shift is refused).
    May legitimately be non-positive when the penalty is too small.
    Raises SolveError, naming the shift, when the eigensolve fails.
    """
    a_sym = (0.5 * (sys.matrix + sys.matrix.T)).tocsc()
    m = energy_gram(mesh, quad).tocsc()
    if not np.any(m.diagonal()):
        raise SolveError("coercivity eigensolve: singular energy Gram matrix")
    lam, x, shift, factorizations = _min_eigpair(a_sym, m)
    mx = m @ x
    res = np.linalg.norm(a_sym @ x - lam * mx) / np.linalg.norm(lam * mx)
    return Coercivity(lam, {"method": "arpack-shift-invert", "shift": shift,
                            "eigen_residual": float(res),
                            "factorizations": factorizations})


def _factor_below(a_sym, m, shift):
    """Solver for a_sym - shift m, or None unless shift is below the spectrum.

    SuperLU is held to diagonal pivots (perm_r == perm_c confirms it), so
    the factorization is L D L^T with D = diag(U), and by Sylvester's law
    of inertia the shift lies strictly below every eigenvalue of (a_sym, m)
    exactly when D > 0. The heap is trimmed just before the factor is
    allocated, so that it does not land on pages glibc kept from the
    assembly or from an earlier factor.
    """
    shifted = (a_sym - shift * m).tocsc()
    trim_heap()
    try:
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular: the shift is an eigenvalue
        return None
    if (np.array_equal(lu.perm_r, lu.perm_c)
            and np.all(lu.U.diagonal() > 0.0)):
        return spla.LinearOperator(a_sym.shape, matvec=lu.solve)
    return None


def _min_eigpair(a_sym, m):
    """(lambda_min, x, shift, factorizations) of a_sym x = lambda m x by
    ARPACK shift-invert.

    A function vanishing on the boundary triangles has ratio exactly 1, so
    the first shift tried is -1, doubled until the inertia test puts it
    below the spectrum. A tol-1e-2 solve there gives a Ritz value, an upper
    bound on lambda_min. The tight solve re-shifts 2% below it (at least
    0.02): the rate of shift-invert Lanczos goes with
    (lambda_2 - lambda_1) / (lambda_1 - shift), and the bottom eigenvalues
    are clustered. The first factor is dropped before the second is built,
    so one factor is alive at a time; if the inertia test shows that the
    re-shift would pass lambda_min, the first shift is factored again.
    """
    shift, factorizations = -1.0, 1
    while (op := _factor_below(a_sym, m, shift)) is None:
        if shift < -1e12:
            raise SolveError("coercivity eigensolve: no shift below the "
                             f"spectrum down to {shift:.1e}")
        shift *= 2.0
        factorizations += 1
    start = np.random.default_rng(0).uniform(-1.0, 1.0, a_sym.shape[0])
    try:
        lam, x = spla.eigsh(a_sym, k=1, M=m, sigma=shift, OPinv=op,
                            v0=start, tol=1e-2)
        near = float(lam[0] - 0.02 * max(1.0, abs(lam[0])))
        op = None  # free the first factor before the second is allocated
        factorizations += 1
        if (op := _factor_below(a_sym, m, near)) is not None:
            shift = near
        else:
            factorizations += 1
            op = _factor_below(a_sym, m, shift)
        lam, x = spla.eigsh(a_sym, k=1, M=m, sigma=shift, OPinv=op,
                            v0=x[:, 0], tol=1e-12)
    except spla.ArpackError as err:
        raise SolveError(f"coercivity eigensolve (ARPACK shift-invert, "
                         f"shift {shift:.6e}) failed: {err}") from err
    return float(lam[0]), x[:, 0], shift, factorizations


# ---------------------------------------------------------------------------
# rate fitting and CSV emission
# ---------------------------------------------------------------------------

def _rate(prev, cur, h_prev, h_cur):
    """Observed order between two levels: None without a previous level,
    the NaN sentinel when either error is at or below ``EXACT_FLOOR``."""
    if prev is None:
        return None
    if cur <= EXACT_FLOOR or prev <= EXACT_FLOOR:
        return math.nan
    return math.log(prev / cur) / math.log(h_prev / h_cur)


def fit_rates(series):
    """Least-squares slope of log(error) over log(h), last <= 4 entries.

    ``series`` is a list of (h, error) with h strictly decreasing. If an
    error in the fit is at or below ``EXACT_FLOOR`` the slope is the NaN
    sentinel (printed "exact"): machine-zero errors carry no rate
    information. Pairwise rates come from ``csv_row``.
    """
    if len(series) < 2:
        raise ValueError("need at least two (h, error) entries")
    hs = [float(h) for h, _ in series]
    errs = [float(e) for _, e in series]
    if any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
        raise ValueError("mesh sizes must be strictly decreasing")

    if any(e <= EXACT_FLOOR for e in errs[-4:]):
        return math.nan
    return float(np.polyfit(np.log(hs[-4:]), np.log(errs[-4:]), 1)[0])


CSV_HEADER = ("h,dofs,l2,l2_rate,h1,h1_rate,energy,energy_rate,"
              "remainder,remainder_rate")


def csv_row(prev, cur):
    """Format one CSV line from the current and previous ErrorReport."""
    h_prev = prev.h_omega if prev else None
    fields = [f"{cur.h_omega:.12e}", str(cur.dofs)]
    for name in ("err_l2", "err_h1", "err_energy", "remainder"):
        val = getattr(cur, name)
        pval = getattr(prev, name) if prev else None
        fields.append(f"{val:.12e}")
        rate = _rate(pval, val, h_prev, cur.h_omega)
        fields.append("" if rate is None else
                      "exact" if math.isnan(rate) else f"{rate:.12e}")
    return ",".join(fields)
