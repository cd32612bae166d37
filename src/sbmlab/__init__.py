"""Shifted-boundary finite element solver for the 2D Poisson problem."""

from .geometry import (
    DomainSpec,
    ExactSolution,
    GeometryError,
    Sideset,
    bind_dirichlet,
    domain_by_name,
    make_affine_solution,
    make_corner_domain,
    make_corner_solution,
    make_disk_domain,
    make_sinsin_solution,
    make_square_domain,
    solution_by_name,
)
from .mesh import (
    MeshError,
    TriMesh,
    mesh_params,
    shift_boundary_nodes,
    surrogate_mesh,
    write_vtk,
)
from .assembly import (
    AssemblyError,
    BoundaryQuadrature,
    SparseSystem,
    assemble,
    build_boundary_quadrature,
)
from .linsolve import SolveError, SolveReport, solve
from .analysis import (
    ErrorReport,
    coercivity_estimate,
    energy_norm,
    error_norms,
    error_report,
    fit_rates,
    nonsymmetry_residual,
    remainder_norm,
)

__version__ = "0.1.0"
