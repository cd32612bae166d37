"""Convergence study on the re-entrant corner domain.

The domain has a 3*pi/2 corner at the origin (bottom boundary
y = -|arctan x|), and the exact solution rho^(2/3) sin(2 theta/3 + pi/6)
is harmonic with a gradient singularity at the corner. Dirichlet data is
taken from the exact trace and imposed weakly on the surrogate boundary,
with values transported along the distance vectors. Expected asymptotics
for P1: H1 rate 2/3 (capped by the singularity) and an enhanced L2 rate
of about 4/3.

Run:  python demos/corner_convergence.py [levels]
"""

import sys

from sbmlab import (
    assemble, bind_dirichlet, build_boundary_quadrature, error_report,
    fit_rates, make_corner_domain, make_corner_solution, solve,
    surrogate_mesh,
)

levels = int(sys.argv[1]) if len(sys.argv) > 1 else 5
gamma = 10.0

solution = make_corner_solution()
domain = bind_dirichlet(make_corner_domain(), solution)

print(f"corner study: gamma={gamma}, levels={levels}")
print(f"{'n':>5} {'h':>10} {'dofs':>8} {'l2':>12} {'h1':>12} "
      f"{'energy':>12} {'remainder':>12}")

reports = []
for level in range(levels):
    n = 20 * 2 ** level
    mesh = surrogate_mesh(domain, n)
    quad = build_boundary_quadrature(mesh, domain)
    system = assemble(mesh, quad, solution, gamma)
    rep = solve(system, grid=mesh.grid)
    err = error_report(mesh, quad, rep.solution, solution)
    reports.append(err)
    print(f"{n:5d} {err.h_omega:10.3e} {err.dofs:8d} {err.err_l2:12.4e} "
          f"{err.err_h1:12.4e} {err.err_energy:12.4e} {err.remainder:12.4e}")

print("\nfitted slopes over the last four levels:")
for label, attr, theory in (("l2", "err_l2", "4/3"),
                            ("h1", "err_h1", "2/3"),
                            ("energy", "err_energy", "2/3"),
                            ("remainder", "remainder", "2/3")):
    series = [(r.h_omega, getattr(r, attr)) for r in reports]
    print(f"  {label:10s} {fit_rates(series):7.4f}"
          f"   (theory ~ {theory})")

print(f"\ncoarsest mesh parameters: h_gamma={reports[0].h_gamma:.4e} "
      f"h_omega={reports[0].h_omega:.4e}")
