"""Exactly-testable algebraic identities of the discrete boundary forms.

Three checks that hold to machine precision independent of mesh
resolution:

1. exchange identity: the asymmetry a(w,v) - a(v,w) equals a boundary
   bracket built from normal derivatives and distance vectors;
2. coercivity: the minimum Rayleigh quotient of the symmetric part against
   the energy Gram matrix is positive for penalty 10, and flips sign when
   the penalty is far too small;
3. patch test: affine solutions are reproduced exactly (the transported
   boundary data is exact for affine functions, so every defect vanishes).

Run:  python demos/algebraic_identities.py
"""

import numpy as np

from sbmlab import (
    assemble, bind_dirichlet, build_boundary_quadrature,
    coercivity_estimate, error_norms, make_affine_solution,
    make_corner_domain, make_corner_solution, nonsymmetry_residual,
    remainder_norm, solve, surrogate_mesh,
)

solution = make_corner_solution()
domain = bind_dirichlet(make_corner_domain(), solution)
mesh = surrogate_mesh(domain, 12)
quad = build_boundary_quadrature(mesh, domain)
system = assemble(mesh, quad, solution, gamma=10.0)

rng = np.random.default_rng(1)
worst = max(
    nonsymmetry_residual(system, mesh, quad, rng.standard_normal(system.dim),
                         rng.standard_normal(system.dim))
    for _ in range(50))
print(f"exchange identity, worst relative defect over 50 pairs: {worst:.2e}")

for gamma in (10.0, 0.01):
    sys_g = assemble(mesh, quad, solution, gamma)
    alpha = coercivity_estimate(sys_g, mesh, quad)
    print(f"coercivity at gamma={gamma:<5}: alpha_min = {alpha:+.4e}")

affine = make_affine_solution(0.3, 0.7, -0.4)
affine_domain = bind_dirichlet(make_corner_domain(), affine)
amesh = surrogate_mesh(affine_domain, 12)
aquad = build_boundary_quadrature(amesh, affine_domain)
asys = assemble(amesh, aquad, affine, gamma=10.0)
arep = solve(asys, grid=amesh.grid)
l2, h1 = error_norms(amesh, arep.solution, affine)
print(f"affine patch test: l2={l2:.2e} h1={h1:.2e} "
      f"remainder={remainder_norm(amesh, aquad, affine):.2e}")
