"""Multigrid-preconditioned solver for the non-symmetric shifted-boundary
system.

The surrogate mesh is a subset of an n x n grid whose cells all split
along the SW-NE diagonal, so the P1 space of the n/2 grid nests in that of
the n grid. While a level has more than ``_COARSE_DOFS`` dofs and an even
n, a prolongation P read off the mesh's grid positions gives the next
level's Galerkin operator P^T A P. One V-cycle (damped Jacobi smoothing,
SuperLU on the coarsest level) preconditions BiCGStab, which stops at a
true relative residual ||b - A x|| / ||b|| <= ``tol``. Inner products are
pairwise sums, not BLAS, so the result does not depend on the thread count.

A system without levels (no grid, an odd n, or at most ``_COARSE_DOFS``
dofs) is its own coarsest level: SuperLU factors it (partial pivoting,
``MMD_AT_PLUS_A`` column ordering). Small penalties make the system
indefinite, where Jacobi smoothing fails; after ``_MAX_ITERATIONS`` or a
breakdown the whole matrix is factored the same way.
"""

from __future__ import annotations

import ctypes
import math
import sys as _sys
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolveError(Exception):
    """Raised on singular or structurally broken systems, or when the
    residual of the solve exceeds the tolerance."""


DEFAULT_TOL = 1e-10
METHOD = "superlu"
METHOD_MG = "mg-bicgstab"
METHOD_FALLBACK = "superlu-after-mg-bicgstab"

_COARSE_DOFS = 3000
_MAX_ITERATIONS = 30
_OMEGA = 0.7
_SWEEPS = 2


@dataclass(frozen=True)
class SolveReport:
    """Solution vector plus how it was obtained: ``method`` names the path
    (``METHOD``, ``METHOD_MG`` or ``METHOD_FALLBACK``) and ``iterations``
    counts the BiCGStab iterations, 0 for a direct solve."""

    solution: np.ndarray
    iterations: int
    final_residual: float
    method: str


def trim_heap():
    """Return freed heap memory to the OS before a full-size factor is
    allocated.

    Called before the full-size factor of ``solve`` and before every
    factorization of the coercivity eigensolve (``analysis._factor_below``).
    Whether glibc keeps freed scratch, the assembly's (a traced peak of
    about 11 MB at 19,660 dofs, most of it one block of per-triangle
    kernels) or an earlier factor's, varies from run to run; a new factor
    would land on top of it, and the peak memory with it. No-op without
    ``malloc_trim``.
    """
    if _sys.platform.startswith("linux"):
        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
        if trim is not None:
            trim(0)


def _dot(x, y):
    return float(np.add.reduce(x * y))


def _norm(x):
    return math.sqrt(_dot(x, x))


def _prolongation(n, index):
    """P from the n/2 grid to the mesh on the n grid, and the n/2 grid
    index of its columns, the mesh vertices at even (i, j).

    A vertex at (i, j) takes 1/2 from each of (floor(i/2), floor(j/2)) and
    (ceil(i/2), ceil(j/2)): both are (i/2, j/2) when i and j are even, and
    otherwise the ends of the horizontal, vertical or SW-NE diagonal coarse
    edge the vertex bisects. A parent that is not a mesh vertex contributes
    nothing.
    """
    j, i = np.divmod(index, n + 1)
    m = n // 2 + 1
    even = (i % 2 == 0) & (j % 2 == 0)
    coarse = j[even] // 2 * m + i[even] // 2
    number = np.full(m * m, -1)
    number[coarse] = np.arange(coarse.size)
    cols = number[np.concatenate([j // 2 * m + i // 2,
                                  (j + 1) // 2 * m + (i + 1) // 2])]
    rows = np.tile(np.arange(index.size), 2)
    kept = cols >= 0
    p = sp.csr_matrix((np.full(kept.sum(), 0.5), (rows[kept], cols[kept])),
                      shape=(index.size, coarse.size))
    return p, coarse


def _levels(matrix, grid):
    """[(A, P, omega / diag A)] down the grid hierarchy, and the
    coarsest operator (the matrix itself when the list is empty)."""
    levels = []
    if grid is not None:
        n, index = grid
        while matrix.shape[0] > _COARSE_DOFS and n % 2 == 0:
            p, index = _prolongation(n, index)
            n //= 2
            levels.append((matrix, p, _OMEGA / matrix.diagonal()))
            matrix = (p.T @ (matrix @ p)).tocsr()
    return levels, matrix


def _vcycle(levels, coarse_lu, r):
    if not levels:
        return coarse_lu.solve(r)
    (a, p, dinv), rest = levels[0], levels[1:]
    x = np.zeros_like(r)
    for _ in range(_SWEEPS):
        x += dinv * (r - a @ x)
    x += p @ _vcycle(rest, coarse_lu, p.T @ (r - a @ x))
    for _ in range(_SWEEPS):
        x += dinv * (r - a @ x)
    return x


def _bicgstab(matrix, b, bnorm, levels, coarse, tol):
    """(x, iterations, residual) of BiCGStab preconditioned by one V-cycle;
    x is None when the residual is above ``tol`` after ``_MAX_ITERATIONS``,
    on a breakdown (a zero denominator or a non-finite residual) or when
    the coarse factor is singular."""
    try:
        coarse_lu = spla.splu(coarse.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError:
        return None, 0, math.inf
    x, r = np.zeros_like(b), b.copy()
    p, v = np.zeros_like(b), np.zeros_like(b)
    rho = alpha = omega = 1.0
    try:
        for it in range(1, _MAX_ITERATIONS + 1):
            rho_new = _dot(b, r)
            p = r + (rho_new / rho) * (alpha / omega) * (p - omega * v)
            rho = rho_new
            p_hat = _vcycle(levels, coarse_lu, p)
            v = matrix @ p_hat
            alpha = rho / _dot(b, v)
            s = r - alpha * v
            s_hat = _vcycle(levels, coarse_lu, s)
            t = matrix @ s_hat
            omega = _dot(t, s) / _dot(t, t)
            x += alpha * p_hat + omega * s_hat
            r = b - matrix @ x
            res = _norm(r) / bnorm
            if res <= tol:
                return x, it, res
            if not math.isfinite(res):
                break
    except ZeroDivisionError:
        pass
    return None, it, math.inf


def solve(sys, tol=DEFAULT_TOL, grid=None):
    """Solve A x = b to a relative residual <= ``tol``.

    ``grid`` is the (n, grid_index) of the system's mesh (``TriMesh.grid``),
    or None. With levels below it, the V-cycle preconditioned BiCGStab
    runs first, and the whole matrix is factored only when it fails.

    Raises SolveError on a shape mismatch, a non-finite right-hand side,
    zero diagonal entries (isolated vertices), a factorization that SuperLU
    rejects (an exactly singular matrix), or a residual of the direct solve
    above ``tol`` or NaN; the message names the sparse LU and the measured
    residual.
    """
    matrix = sp.csr_matrix(sys.matrix)
    b = np.asarray(sys.rhs, dtype=float)
    n = b.shape[0]
    if matrix.shape != (n, n):
        raise SolveError(f"matrix shape {matrix.shape} does not match rhs {n}")
    if not np.all(np.isfinite(b)):
        raise SolveError("right-hand side contains non-finite entries")
    diag = matrix.diagonal()
    if np.any(diag == 0.0):
        k = int(np.argmax(diag == 0.0))
        raise SolveError(f"zero diagonal entry at row {k} (isolated vertex?)")

    bnorm = _norm(b)
    if bnorm == 0.0:
        return SolveReport(np.zeros(n), 0, 0.0, METHOD)

    levels, coarse = _levels(matrix, grid)
    iterations, method = 0, METHOD
    if levels:
        x, iterations, res = _bicgstab(matrix, b, bnorm, levels, coarse, tol)
        if x is not None:
            return SolveReport(x, iterations, res, METHOD_MG)
        method = METHOD_FALLBACK
    del levels, coarse  # the hierarchy is freed before the full-size factor
    trim_heap()
    try:
        lu = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as err:  # e.g. "Factor is exactly singular"
        raise SolveError(f"sparse LU (SuperLU) factorization failed: "
                         f"{err}") from err
    x = lu.solve(b)
    res = _norm(b - matrix @ x) / bnorm
    if not res <= tol:
        raise SolveError(f"sparse LU (SuperLU) solve: relative residual "
                         f"{res:.3e} exceeds tolerance {tol:.1e}")
    return SolveReport(x, iterations, res, method)
