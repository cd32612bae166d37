import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sbmlab import geometry, linsolve, mesh
from sbmlab.assembly import SparseSystem
from sbmlab.linsolve import SolveError, solve
from conftest import make_problem


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


# ---------------------------------------------------------------------------
# the grid hierarchy
# ---------------------------------------------------------------------------

def splu_solution(system):
    lu = spla.splu(system.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
    return lu.solve(system.rhs)


def rel_diff(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("name,solution,n,zeta", [
    ("corner", "corner23", 80, None),
    ("disk", "sinsin", 80, None),
    ("square", "sinsin", 80, None),
    ("disk", "sinsin", 128, 0.5),
])
def test_multigrid_matches_sparse_lu(name, solution, n, zeta):
    _, _, msh, _, system = make_problem(name, solution, n, zeta=zeta)
    assert system.dim > linsolve._COARSE_DOFS
    rep = solve(system, grid=msh.grid)
    assert rep.method == linsolve.METHOD_MG
    assert 0 < rep.iterations <= linsolve._MAX_ITERATIONS
    assert rep.final_residual <= linsolve.DEFAULT_TOL
    assert rel_diff(rep.solution, splu_solution(system)) <= 1e-8


@pytest.mark.parametrize("gamma", [0.01, 1.0])
@pytest.mark.parametrize("name,solution", [("corner", "corner23"),
                                           ("square", "sinsin")])
def test_small_penalty_falls_back_to_sparse_lu(name, solution, gamma):
    # the system is indefinite, so Jacobi smoothing cannot converge
    _, _, msh, _, system = make_problem(name, solution, 80, gamma=gamma)
    assert system.dim > linsolve._COARSE_DOFS
    rep = solve(system, grid=msh.grid)
    assert rep.method == linsolve.METHOD_FALLBACK
    assert rep.iterations > 0
    assert rep.final_residual <= 1e-10
    assert rel_diff(rep.solution, splu_solution(system)) <= 1e-12


def test_fallback_factor_trims_the_heap_and_coarse_factor_does_not(
        monkeypatch):
    calls = []
    monkeypatch.setattr(linsolve, "trim_heap", lambda: calls.append(1))
    _, _, msh, _, system = make_problem("corner", "corner23", 80)
    assert solve(system, grid=msh.grid).method == linsolve.METHOD_MG
    assert calls == []
    _, _, msh, _, system = make_problem("corner", "corner23", 80, gamma=0.01)
    assert solve(system, grid=msh.grid).method == linsolve.METHOD_FALLBACK
    assert calls == [1]


def test_systems_without_levels_are_factored_directly():
    # odd n: the n/2 grid does not nest
    _, _, msh, _, system = make_problem("disk", "sinsin", 119)
    assert system.dim > linsolve._COARSE_DOFS and msh.grid_n == 119
    cases = [(system, msh.grid)]
    # a grid-less mesh, or no grid passed
    _, _, msh, _, system = make_problem("corner", "corner23", 80)
    cases.append((system, None))
    # at most _COARSE_DOFS dofs
    _, _, msh, _, system = make_problem("corner", "corner23", 40)
    assert system.dim <= linsolve._COARSE_DOFS
    cases.append((system, msh.grid))
    for system, grid in cases:
        rep = solve(system, grid=grid)
        assert rep.method == "superlu"
        assert rep.iterations == 0
        assert rep.final_residual <= 1e-10


def test_one_triangle_mesh_has_no_grid():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    t = np.array([[0, 1, 2]])
    ev = np.array([[0, 1], [1, 2], [2, 0]])
    m = mesh.TriMesh(vertices=tri, triangles=t, edge_vertices=ev,
                     edge_owner=np.zeros(3, dtype=int),
                     edge_normal=mesh._normals(tri, ev),
                     h_per_triangle=mesh._diameters(tri, t))
    assert m.grid is None
    a = np.array([[4.0, -1.0, 0.5], [-1.0, 3.0, 0.0], [0.2, -1.0, 2.0]])
    rep = solve(system_of(a, [1.0, 2.0, 3.0]), grid=m.grid)
    assert rep.method == "superlu"
    assert rep.iterations == 0


@pytest.mark.parametrize("name", ["square", "disk", "corner"])
def test_prolongation_interpolates_affine_functions(name):
    # the P1 space of the n/2 grid nests in that of the n grid: an affine
    # function sampled at the coarse vertices is reproduced at every fine
    # vertex whose coarse parents are all kept
    msh = mesh.surrogate_mesh(geometry.domain_by_name(name), 40)
    n, index = msh.grid
    p, coarse = linsolve._prolongation(n, index)
    j, i = np.divmod(index, n + 1)
    jc, ic = np.divmod(coarse, n // 2 + 1)

    def affine(x, y):
        return 0.3 - 1.7 * x + 2.9 * y

    fine = p @ affine(2.0 * ic, 2.0 * jc)
    full = np.asarray(p.sum(axis=1)).ravel() == 1.0
    assert full.sum() > 0.8 * index.size
    np.testing.assert_allclose(fine[full], affine(i, j)[full], atol=1e-12)
    # injection at even (i, j): the coarse dofs are those fine dofs
    even = (i % 2 == 0) & (j % 2 == 0)
    assert even.sum() == coarse.size
    np.testing.assert_array_equal(p[even].toarray(), np.eye(coarse.size))
