import numpy as np
import pytest

from sbmlab import assembly, geometry, linsolve, mesh


def make_problem(domain_name, solution_name, n, gamma=10.0, nq_edge=3,
                 zeta=None):
    """Domain, solution, surrogate mesh, boundary quadrature and system; the
    mesh is node-shifted (c_d = 1) when ``zeta`` is given."""
    sol = geometry.solution_by_name(solution_name)
    dom = geometry.bind_dirichlet(geometry.domain_by_name(domain_name), sol)
    msh = mesh.surrogate_mesh(dom, n)
    if zeta is not None:
        msh = mesh.shift_boundary_nodes(msh, dom, zeta, 1.0)
    quad = assembly.build_boundary_quadrature(msh, dom, nq_edge)
    system = assembly.assemble(msh, quad, sol, gamma)
    return dom, sol, msh, quad, system


@pytest.fixture(scope="session")
def corner_problem():
    return make_problem("corner", "corner23", 12)


@pytest.fixture(scope="session")
def disk_problem():
    return make_problem("disk", "sinsin", 12)


@pytest.fixture(scope="session")
def fitted_square_problem():
    return make_problem("square", "sinsin", 8)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def solve_errors(dom, sol, msh, quad, system, tol=1e-10):
    from sbmlab import analysis

    rep = linsolve.solve(system, tol=tol)
    return rep, analysis.error_report(msh, quad, rep.solution, sol)
