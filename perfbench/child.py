"""Child processes of the sbmlab benchmark.

``child.py ready {corner,disk} [--env]``
    Set-up probe: import ``sbmlab.cli``, build the workload's domain and
    exact solution, then print ``ready <path of sbmlab>``. With ``--env``,
    print one JSON line with the interpreter, numpy, scipy and BLAS details
    afterwards.

``child.py disk --n N --zeta Z --c-d C``
    One refinement level on the catalog disk with the sinsin solution and
    node shifting: ``cli.solve_level`` with the configuration of
    ``sbmlab run --domain disk --solution sinsin --shift``. Prints one JSON
    line with the counts, errors and the largest |d| / (c_d h^(1+zeta)) of
    the built quadrature. On a mesh, assembly or solver error it prints
    ``error: <exception class>: <message>`` and exits 1, like the command
    line.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ready(args):
    import sbmlab
    import sbmlab.cli  # noqa: F401  (the import every CLI call pays)
    from sbmlab import geometry

    solution = {"corner": "corner23", "disk": "sinsin"}[args.problem]
    geometry.bind_dirichlet(geometry.domain_by_name(args.problem),
                            geometry.solution_by_name(solution))
    print(f"ready {sbmlab.__file__}", flush=True)
    if args.env:
        import platform

        import numpy
        import scipy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        print(json.dumps({
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        }), flush=True)
    return 0


def _disk(args):
    import numpy as np

    from sbmlab import AssemblyError, MeshError, SolveError, cli

    cfg = cli.load_config(overrides=dict(
        domain="disk", solution="sinsin", shift_enabled=True,
        zeta=args.zeta, c_d=args.c_d))
    domain, sol = cli._problem(cfg)
    try:
        _, quad, _, report, err = cli.solve_level(cfg, domain, sol, args.n)
    except (MeshError, AssemblyError, SolveError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    bound = cfg.c_d * quad.h_owner[:, None] ** (1.0 + cfg.zeta)
    ratio = float((np.linalg.norm(quad.d, axis=-1) / bound).max())
    print(json.dumps({
        "n": args.n, "dofs": int(err.dofs), "edges": int(quad.num_edges),
        "iterations": int(report.iterations),
        "residual": float(report.final_residual), "method": report.method,
        "l2": err.err_l2, "h1": err.err_h1, "energy": err.err_energy,
        "remainder": err.remainder, "shift_max_ratio": ratio,
    }), flush=True)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="child.py")
    subs = parser.add_subparsers(dest="command", required=True)
    ready = subs.add_parser("ready")
    ready.add_argument("problem", choices=("corner", "disk"))
    ready.add_argument("--env", action="store_true")
    disk = subs.add_parser("disk")
    disk.add_argument("--n", type=int, required=True)
    disk.add_argument("--zeta", type=float, required=True)
    disk.add_argument("--c-d", dest="c_d", type=float, required=True)
    args = parser.parse_args(argv)
    return _ready(args) if args.command == "ready" else _disk(args)


if __name__ == "__main__":
    raise SystemExit(main())
