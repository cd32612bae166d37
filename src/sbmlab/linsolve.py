"""Direct sparse solver for the non-symmetric shifted-boundary system.

Every system is factored once by SuperLU (partial pivoting, with the
minimum-degree column ordering of A^T + A, ``MMD_AT_PLUS_A``) and solved
with that factor. The relative residual ||b - A x|| / ||b|| is measured
afterwards; ``tol`` is the largest value accepted. The factorization has no
iteration and no starting guess, so identical inputs give identical
solutions.
"""

from __future__ import annotations

import ctypes
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


@dataclass(frozen=True)
class SolveReport:
    """Solution vector plus how it was obtained (``iterations`` is always 0:
    the solve is direct)."""

    solution: np.ndarray
    iterations: int
    final_residual: float
    method: str


def trim_heap():
    """Return freed heap memory to the OS before a factor is allocated.

    Called by ``solve`` and before every factorization of the coercivity
    eigensolve (``analysis._factor_below``). Whether glibc keeps freed
    scratch, the assembly's (about 17 MB at 23k dofs) or an earlier
    factor's, varies from run to run; a new factor would land on top of
    it, and the peak memory with it. No-op without ``malloc_trim``.
    """
    if _sys.platform.startswith("linux"):
        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
        if trim is not None:
            trim(0)


def solve(sys, tol=DEFAULT_TOL):
    """Solve A x = b by sparse LU and accept a relative residual <= ``tol``.

    Raises SolveError on a shape mismatch, a non-finite right-hand side,
    zero diagonal entries (isolated vertices), a factorization that SuperLU
    rejects (an exactly singular matrix), or a residual above ``tol`` or
    NaN; the message names the sparse LU and the measured residual.
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
        return SolveReport(np.zeros(n), 0, 0.0, METHOD)

    trim_heap()
    try:
        lu = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as err:  # e.g. "Factor is exactly singular"
        raise SolveError(f"sparse LU (SuperLU) factorization failed: "
                         f"{err}") from err
    x = lu.solve(b)
    res = float(np.linalg.norm(b - matrix @ x)) / bnorm
    if not res <= tol:
        raise SolveError(f"sparse LU (SuperLU) solve: relative residual "
                         f"{res:.3e} exceeds tolerance {tol:.1e}")
    return SolveReport(x, 0, res, METHOD)
