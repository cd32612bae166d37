"""Command line front end: single solves, refinement studies, verification.

Configuration comes from an optional JSON file plus flag overrides; studies
emit one CSV row per refinement (flushed level by level) and a VTK file per
solve. Exit codes: 0 success, 1 numerical failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import analysis, assembly, geometry, linsolve
from .geometry import GeometryError
from .mesh import MeshError, shift_boundary_nodes, surrogate_mesh, \
    write_vtk


class ConfigError(Exception):
    """Invalid run configuration (exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    domain: str = "corner"
    solution: str = "corner23"
    gamma: float = 10.0
    n0: int = 20
    levels: int = 5
    zeta: float = 0.0
    c_d: float = 1.0
    shift_enabled: bool = False
    nq_edge: int = 3
    solver_tol: float = 1e-10
    out: str = "out"

    def validate(self):
        if not 0.0 < self.gamma < math.inf:  # also rejects NaN
            raise ConfigError(
                f"gamma must be positive and finite, got {self.gamma}")
        if self.n0 < 4:
            raise ConfigError("n0 must be at least 4")
        if self.domain == "corner" and self.n0 % 2:
            raise ConfigError(
                f"n0 must be even on the corner domain: with n0={self.n0} "
                "the grid would not pass through the re-entrant corner")
        if self.levels < 1:
            raise ConfigError("levels must be at least 1")
        if not 0.0 <= self.zeta <= 1.0:
            raise ConfigError(f"zeta must be in [0, 1], got {self.zeta}")
        if not 0.0 < self.c_d < math.inf:
            raise ConfigError(
                f"c_d must be positive and finite, got {self.c_d}")
        if self.nq_edge < 1:
            raise ConfigError("nq_edge must be at least 1")
        if not 0.0 < self.solver_tol < math.inf:
            raise ConfigError("solver tolerance must be positive and finite, "
                              f"got {self.solver_tol}")


def load_config(path=None, overrides=None):
    values = {}
    if path is not None:
        try:
            with open(path) as fh:
                values = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
        if not isinstance(values, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    types = {f.name: type(f.default) for f in fields(RunConfig)}
    unknown = set(values) - set(types)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in values.items():
        want = types[key]
        # a bool is not a number here, and an int is a valid float
        if (isinstance(value, bool) != (want is bool) or not isinstance(
                value, (int, float) if want is float else want)):
            raise ConfigError(f"config key {key!r} must be {want.__name__}, "
                              f"got {value!r}")
        if want is float:
            values[key] = float(value)
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def _problem(cfg):
    domain = geometry.domain_by_name(cfg.domain)
    sol = geometry.solution_by_name(cfg.solution)
    return geometry.bind_dirichlet(domain, sol), sol


def _discretize(cfg, domain, sol, n, shift=False):
    """Surrogate mesh (node-shifted if ``shift``), quadrature and system."""
    mesh = surrogate_mesh(domain, n)
    if shift:
        mesh = shift_boundary_nodes(mesh, domain, cfg.zeta, cfg.c_d)
    quad = assembly.build_boundary_quadrature(mesh, domain, cfg.nq_edge)
    system = assembly.assemble(mesh, quad, sol, cfg.gamma)
    return mesh, quad, system


def solve_level(cfg, domain, sol, n):
    """Mesh, assemble and solve one refinement level."""
    mesh, quad, system = _discretize(cfg, domain, sol, n, cfg.shift_enabled)
    report = linsolve.solve(system, tol=cfg.solver_tol, grid=mesh.grid)
    err = analysis.error_report(mesh, quad, report.solution, sol)
    return mesh, quad, system, report, err


def _make_out(cfg):
    """Create the output directory, or raise ConfigError naming it."""
    try:
        os.makedirs(cfg.out, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {cfg.out}: "
                          f"{err.strerror}") from err


def cmd_run(cfg):
    """Single solve at n0; writes VTK of the solution and nodal error."""
    domain, sol = _problem(cfg)
    _make_out(cfg)
    mesh, _, _, rep, err = solve_level(cfg, domain, sol, cfg.n0)
    point_err = np.abs(np.asarray(sol.eval(mesh.vertices)) - rep.solution)
    vtk_path = os.path.join(cfg.out, f"{cfg.domain}_n{cfg.n0}.vtk")
    write_vtk(vtk_path, mesh, {"u_h": rep.solution, "abs_error": point_err})
    print(f"domain={cfg.domain} solution={cfg.solution} n={cfg.n0} "
          f"gamma={cfg.gamma}")
    print(f"solver: {rep.method}, residual={rep.final_residual:.3e}")
    print(f"h_gamma={err.h_gamma:.6e} h_omega={err.h_omega:.6e} "
          f"dofs={err.dofs}")
    print(f"l2={err.err_l2:.6e} h1={err.err_h1:.6e} "
          f"energy={err.err_energy:.6e} remainder={err.remainder:.6e}")
    print(f"wrote {vtk_path}")
    return 0


def cmd_study(cfg):
    """Refinement study doubling n per level; emits CSV and fitted slopes."""
    if cfg.levels < 2:
        raise ConfigError("a study needs at least 2 levels")
    domain, sol = _problem(cfg)
    _make_out(cfg)
    tag = cfg.solution.replace(":", "_").replace(",", "_")
    csv_path = os.path.join(cfg.out, f"study_{cfg.domain}_{tag}.csv")
    reports = []
    with open(csv_path, "w") as fh:
        fh.write(analysis.CSV_HEADER + "\n")
        fh.flush()
        for level in range(cfg.levels):
            n = cfg.n0 * 2 ** level
            try:
                _, _, _, rep, err = solve_level(cfg, domain, sol, n)
            except (MeshError, linsolve.SolveError) as e:
                print(f"level {level} (n={n}) failed: {e}", file=_sys.stderr)
                raise
            prev = reports[-1] if reports else None
            fh.write(analysis.csv_row(prev, err) + "\n")
            fh.flush()
            reports.append(err)
            print(f"n={n:5d} h={err.h_omega:.4e} dofs={err.dofs:7d} "
                  f"l2={err.err_l2:.6e} h1={err.err_h1:.6e} "
                  f"energy={err.err_energy:.6e} remainder={err.remainder:.6e}")

    for name, attr in (("l2", "err_l2"), ("h1", "err_h1"),
                       ("energy", "err_energy"), ("remainder", "remainder")):
        slope = analysis.fit_rates(
            [(r.h_omega, getattr(r, attr)) for r in reports])
        text = "exact" if math.isnan(slope) else f"{slope:.4f}"
        print(f"fitted {name} slope (last {min(4, len(reports))} levels): "
              f"{text}")
    print(f"wrote {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

def _verify_checks(cfg, domain, sol):
    n = cfg.n0
    mesh, quad, system = _discretize(cfg, domain, sol, n, cfg.shift_enabled)
    rng = np.random.default_rng(20240901)
    checks = []

    worst = 0.0
    for _ in range(50):
        w = rng.standard_normal(system.dim)
        v = rng.standard_normal(system.dim)
        worst = max(worst,
                    analysis.nonsymmetry_residual(system, mesh, quad, w, v))
    checks.append(("nonsymmetry_identity", worst, 1e-10, worst <= 1e-10))

    alpha = analysis.coercivity_estimate(system, mesh, quad)
    checks.append(("coercivity_positive", alpha, 0.0, alpha > 0.0))

    # affine patch test: P1 reproduces an affine solution on any mesh, so a
    # coarse one (n <= 16) proves it as well as the fine one, for less work
    affine = geometry.make_affine_solution(0.3, 0.7, -0.4)
    patch_domain = geometry.bind_dirichlet(
        geometry.domain_by_name(cfg.domain), affine)
    pmesh, pquad, psys = _discretize(cfg, patch_domain, affine, min(n, 16))
    prep = linsolve.solve(psys, tol=cfg.solver_tol, grid=pmesh.grid)
    pl2, ph1 = analysis.error_norms(pmesh, prep.solution, affine)
    patch = max(pl2, ph1)
    checks.append(("affine_patch_test", patch, 1e-10, patch <= 1e-10))

    rem = analysis.remainder_norm(pmesh, pquad, affine)
    checks.append(("affine_remainder_vanishes", rem, 1e-12, rem <= 1e-12))

    sin = geometry.make_sinsin_solution()
    square = geometry.bind_dirichlet(geometry.domain_by_name("square"), sin)
    _, _, ssys = _discretize(cfg, square, sin, min(n, 16))
    asym = float(np.abs(ssys.matrix - ssys.matrix.T).max())
    checks.append(("fitted_mesh_symmetry", asym, 1e-12, asym <= 1e-12))

    if cfg.shift_enabled:
        ratio = float((np.linalg.norm(quad.d, axis=-1)
                       / quad.h_owner[:, None] ** (1.0 + cfg.zeta)).max())
        bound = cfg.c_d + 1e-9
        checks.append(("distance_smallness", ratio, bound, ratio <= bound))
    return checks


def cmd_verify(cfg):
    """Run the identity/consistency checks; nonzero exit on any failure."""
    domain, sol = _problem(cfg)
    _make_out(cfg)
    checks = _verify_checks(cfg, domain, sol)
    path = os.path.join(cfg.out, "verify_report.json")
    # a measured value with a record (the coercivity eigensolve) adds it
    payload = [{"check": name, "measured": float(measured), "bound": bound,
                "pass": bool(ok), **getattr(measured, "record", {})}
               for name, measured, bound, ok in checks]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    failed = 0
    for name, measured, bound, ok in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: measured={measured:.6e} bound={bound:.6e}")
        failed += 0 if ok else 1
    print(f"wrote {path}")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--domain", help="domain name (square, disk, corner)")
    sub.add_argument("--solution",
                     help="solution name (affine:a,b,c, sinsin, corner23)")
    sub.add_argument("--gamma", type=float, help="penalty parameter")
    sub.add_argument("--n0", type=int, help="coarsest subdivisions per axis")
    sub.add_argument("--levels", type=int, help="number of refinement levels")
    sub.add_argument("--zeta", type=float,
                     help="node-shift exponent in [0, 1]")
    sub.add_argument("--c-d", dest="c_d", type=float,
                     help="node-shift coefficient (positive)")
    sub.add_argument("--shift", dest="shift_enabled", action="store_true",
                     default=None, help="enable boundary node shifting")
    sub.add_argument("--nq-edge", dest="nq_edge", type=int,
                     help="Gauss points per boundary edge")
    sub.add_argument("--tol", dest="solver_tol", type=float,
                     help="largest accepted relative residual")
    sub.add_argument("--out", help="output directory")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sbmlab",
        description="Shifted-boundary Poisson solver and verification lab")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("run", "single solve at the coarsest level"),
                        ("study", "refinement study with CSV output"),
                        ("verify", "algebraic identity and consistency checks")):
        _add_common(subs.add_parser(name, help=help_))
    args = parser.parse_args(argv)

    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config")}
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "study":
            return cmd_study(cfg)
        return cmd_verify(cfg)
    except (ConfigError, GeometryError) as err:
        print(f"error: {err}", file=_sys.stderr)
        return 2
    except (MeshError, linsolve.SolveError, assembly.AssemblyError) as err:
        print(f"error: {err}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
