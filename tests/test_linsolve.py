import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sbmlab.assembly import SparseSystem
from sbmlab.linsolve import SolveError, solve


def system_of(a, b, gamma=1.0):
    return SparseSystem(sp.csr_matrix(np.asarray(a, dtype=float)),
                        np.asarray(b, dtype=float), gamma)


def test_identity_system():
    b = np.array([3.0, -1.0, 0.5])
    rep = solve(system_of(np.eye(3), b))
    np.testing.assert_allclose(rep.solution, b, atol=1e-14)
    assert rep.iterations <= 1
    assert rep.final_residual <= 1e-14


def test_upper_triangular_back_substitution():
    rep = solve(system_of([[2.0, 1.0], [0.0, 1.0]], [3.0, 1.0]))
    np.testing.assert_allclose(rep.solution, [1.0, 1.0], atol=1e-14)
    assert rep.method == "dense-lu"


def test_bicgstab_matches_dense_lu_oracle(rng):
    n = 50
    a = rng.standard_normal((n, n))
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)  # diagonally dominant
    b = rng.standard_normal(n)
    rep = solve(system_of(a, b), tol=1e-12, dense_threshold=0)
    assert rep.method == "bicgstab"
    assert rep.final_residual <= 1e-12
    x_lu = np.linalg.solve(a, b)
    assert np.abs(rep.solution - x_lu).max() <= 1e-8


def test_deterministic_iterates(rng):
    n = 80
    a = rng.standard_normal((n, n))
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    b = rng.standard_normal(n)
    r1 = solve(system_of(a, b), dense_threshold=0)
    r2 = solve(system_of(a, b), dense_threshold=0)
    assert r1.iterations == r2.iterations
    np.testing.assert_array_equal(r1.solution, r2.solution)


def test_zero_diagonal_rejected():
    a = np.array([[1.0, 2.0], [3.0, 0.0]])
    with pytest.raises(SolveError, match="diagonal"):
        solve(system_of(a, [1.0, 1.0]))


def _recent_residuals(message):
    tail = re.search(r"recent residuals: \[(.*)\]$", message)
    assert tail is not None, message
    return [float(r) for r in tail.group(1).split(", ") if r]


def _capped_system(rng, n=60):
    a = rng.standard_normal((n, n))
    a += np.diag(np.abs(a).sum(axis=1) * 0.3)  # converges in 17 iterations
    return a, rng.standard_normal(n)


def test_breakdown_reports_history():
    # singular inconsistent system, iterative path: must fail and carry
    # the recent residual history in the message (empty: it breaks down
    # before the first completed iteration)
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SolveError, match="solver failed") as err:
        solve(system_of(a, [1.0, -1.0]), dense_threshold=0, max_iter=50)
    assert _recent_residuals(str(err.value)) == []

    # iteration cap reached: the tail holds the true relative residuals of
    # the last five iterates, the last one being the returned iterate
    a, b = _capped_system(np.random.default_rng(7))
    with pytest.raises(SolveError, match=r"solver failed \(info=8,") as err:
        solve(system_of(a, b), dense_threshold=0, max_iter=8)
    message = str(err.value)
    tail = _recent_residuals(message)
    assert len(tail) == 5
    assert all(np.isfinite(r) and 0.0 < r < 10.0 for r in tail)
    final = re.search(r"residual ([0-9.e+-]+) >", message).group(1)
    assert f"{tail[-1]:.3e}" == final


def test_failure_tail_matches_per_iteration_residuals():
    # oracle: the same BiCGStab run with the residual logged every iteration
    a, b = _capped_system(np.random.default_rng(11))
    matrix = sp.csr_matrix(a)
    diag = matrix.diagonal()
    precond = spla.LinearOperator(a.shape, matvec=lambda v: v / diag)
    history = []
    spla.bicgstab(matrix, b, x0=np.zeros(b.size), rtol=1e-10, atol=0.0,
                  maxiter=12, M=precond,
                  callback=lambda xk: history.append(
                      float(np.linalg.norm(b - matrix @ xk))
                      / float(np.linalg.norm(b))))
    with pytest.raises(SolveError) as err:
        solve(system_of(a, b), dense_threshold=0, max_iter=12)
    expected = ", ".join(f"{r:.3e}" for r in history[-5:])
    assert str(err.value).endswith(f"recent residuals: [{expected}]")


def test_nonfinite_rhs_rejected():
    with pytest.raises(SolveError, match="finite"):
        solve(system_of(np.eye(2), [np.nan, 1.0]))
