import numpy as np
import pytest
import scipy.sparse as sp

from sbmlab.assembly import SparseSystem
from sbmlab.linsolve import SolveError, solve


def system_of(a, b):
    return SparseSystem(sp.csr_matrix(np.asarray(a, dtype=float)),
                        np.asarray(b, dtype=float))


def test_identity_system():
    b = np.array([3.0, -1.0, 0.5])
    rep = solve(system_of(np.eye(3), b))
    np.testing.assert_allclose(rep.solution, b, atol=1e-14)
    assert rep.iterations <= 1
    assert rep.final_residual <= 1e-14


def test_upper_triangular_back_substitution():
    rep = solve(system_of([[2.0, 1.0], [0.0, 1.0]], [3.0, 1.0]))
    np.testing.assert_allclose(rep.solution, [1.0, 1.0], atol=1e-14)
    assert rep.method == "superlu"
    assert rep.iterations == 0


def test_sparse_lu_matches_dense_oracle(rng, corner_problem):
    n = 50
    a = rng.standard_normal((n, n))
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)  # diagonally dominant
    b = rng.standard_normal(n)
    rep = solve(system_of(a, b), tol=1e-12)
    assert rep.method == "superlu"
    assert rep.final_residual <= 1e-12
    x_lu = np.linalg.solve(a, b)
    assert np.abs(rep.solution - x_lu).max() <= 1e-8

    # the assembled (non-symmetric) corner system at n=12
    system = corner_problem[-1]
    dense = system.matrix.toarray()
    assert np.abs(dense - dense.T).max() > 1e-3
    x_dense = np.linalg.solve(dense, system.rhs)
    rep = solve(system)
    assert rep.final_residual <= 1e-12
    err = np.linalg.norm(rep.solution - x_dense) / np.linalg.norm(x_dense)
    assert err <= 1e-12


def test_deterministic_iterates(rng):
    n = 80
    a = rng.standard_normal((n, n))
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    b = rng.standard_normal(n)
    r1 = solve(system_of(a, b))
    r2 = solve(system_of(a, b))
    assert r1.iterations == r2.iterations
    np.testing.assert_array_equal(r1.solution, r2.solution)


def test_zero_diagonal_rejected():
    a = np.array([[1.0, 2.0], [3.0, 0.0]])
    with pytest.raises(SolveError, match="diagonal"):
        solve(system_of(a, [1.0, 1.0]))


def test_singular_system_raises_solve_error():
    # SuperLU raises a bare RuntimeError ("Factor is exactly singular");
    # solve must turn it into a SolveError that names the sparse LU
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SolveError, match="sparse LU") as err:
        solve(system_of(a, [1.0, -1.0]))
    assert type(err.value) is SolveError
    assert isinstance(err.value.__cause__, RuntimeError)


def test_residual_above_tolerance_raises(rng):
    n = 40
    a = rng.standard_normal((n, n))
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    b = rng.standard_normal(n)
    measured = solve(system_of(a, b)).final_residual
    assert 0.0 < measured <= 1e-10
    with pytest.raises(SolveError, match="exceeds tolerance") as err:
        solve(system_of(a, b), tol=1e-20)
    assert f"residual {measured:.3e}" in str(err.value)


def test_nonfinite_rhs_rejected():
    with pytest.raises(SolveError, match="finite"):
        solve(system_of(np.eye(2), [np.nan, 1.0]))
