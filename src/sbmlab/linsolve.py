"""Sparse solver for the non-symmetric shifted-boundary system.

Small systems go straight to dense LU with partial pivoting; larger ones
use BiCGStab with Jacobi (diagonal) preconditioning and a fixed zero
initial guess, so identical inputs reproduce identical iterates. The
iteration callback only counts iterations and keeps the last few iterates;
their true residuals are recomputed from those iterates only when the
solve fails, for the error message.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolveError(Exception):
    """Raised on solver breakdown or structurally broken systems."""


DENSE_THRESHOLD = 512
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class SolveReport:
    """Solution vector plus how it was obtained."""

    solution: np.ndarray
    iterations: int
    final_residual: float
    method: str


def solve(sys, tol=DEFAULT_TOL, max_iter=None, dense_threshold=DENSE_THRESHOLD):
    """Solve A x = b to a relative residual ``tol``.

    Dimension <= ``dense_threshold`` uses dense LU; otherwise BiCGStab with
    Jacobi preconditioning and max_iter defaulting to 10x the dimension.
    Raises SolveError on zero diagonal entries (isolated vertices) or when
    the iteration breaks down or stalls above the tolerance.
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

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return SolveReport(np.zeros(n), 0, 0.0, "dense-lu")

    if n <= dense_threshold:
        lu, piv = scipy.linalg.lu_factor(matrix.toarray())
        x = scipy.linalg.lu_solve((lu, piv), b)
        res = float(np.linalg.norm(b - matrix @ x)) / bnorm
        return SolveReport(x, 0, res, "dense-lu")

    if max_iter is None:
        max_iter = 10 * n
    precond = spla.LinearOperator((n, n), matvec=lambda v: v / diag)
    iterations = 0
    recent = deque(maxlen=5)  # bicgstab updates xk in place

    def track(xk):
        nonlocal iterations
        iterations += 1
        recent.append(xk.copy())

    def residual(xk):
        return float(np.linalg.norm(b - matrix @ xk)) / bnorm

    x, info = spla.bicgstab(matrix, b, x0=np.zeros(n), rtol=tol, atol=0.0,
                            maxiter=max_iter, M=precond, callback=track)
    res = residual(x)
    if info != 0 or res > tol:
        tail = ", ".join(f"{residual(xk):.3e}" for xk in recent)
        raise SolveError(
            f"solver failed (info={info}, residual {res:.3e} > {tol:.1e}); "
            f"recent residuals: [{tail}]")
    return SolveReport(x, iterations, res, "bicgstab")
