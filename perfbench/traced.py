"""Run one benchmark unit with spans around every call into the sbmlab layers.

Usage: ``traced.py SPANS_JSON EXEC_ID UNIT -- <arguments of the unit>``

The unit arguments are those of the untraced run: ``-m sbmlab.cli ...`` or
``child.py disk ...``. Before the unit runs, every public function of the
layer modules (mesh, geometry, assembly, linsolve, analysis) and
``cli.solve_level`` is replaced, in every sbmlab module namespace that
holds it, by a wrapper that records a span: name, start, end, parent span,
execution id and unit. Some wrappers also record counts at the same
boundary (iterations, nnz, edges, vertices moved, bytes written). Spans
stay in memory and are written once, after the unit and the probes.

The tracing overhead is measured directly: the time spent installing the
wrappers plus, for every span, the time its wrapper and hook spend outside
the wrapped call.

Probes run after the unit ends, so they are not part of its traced time:

- one batched ``project_points`` of all surrogate-boundary vertices of
  every restricted mesh, per sideset (geometry throughput);
- for every ``coercivity_estimate`` call, the true smallest eigenvalue of
  the same pencil (symmetric part of A, ``analysis.energy_gram``) from
  ARPACK in shift-invert mode, as an oracle for the estimate.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
LAYERS = ("mesh", "geometry", "assembly", "linsolve", "analysis")


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span recorder; one per process, shared by all wrappers."""

    def __init__(self, exec_id, unit):
        self.exec_id = exec_id
        self.unit = unit
        self.spans = []
        self._stack = []
        self.restricted = []   # (domain, boundary vertices) per restriction
        self.coercivity = []   # (system, mesh, quad, estimate) per call
        self.overhead_s = 0.0  # time spent in tracing, outside the program

    def wrap(self, name, fn, hook=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.monotonic()
            span = {"id": len(self.spans),
                    "parent": self._stack[-1] if self._stack else None,
                    "name": name, "exec": self.exec_id, "unit": self.unit}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span["end"] = time.monotonic()
                span["error"] = type(err).__name__
                raise
            else:
                span["end"] = time.monotonic()
                if hook is not None:
                    bound = signature.bind(*args, **kwargs).arguments
                    try:
                        span.update(hook(self, bound, result))
                    except Exception as err:  # a hook must not break the unit
                        span["hook_error"] = repr(err)
                return result
            finally:
                self._stack.pop()
                self.overhead_s += (span["start"] - entered
                                    + time.monotonic() - span["end"])

        return traced


# counts recorded at layer boundaries: hook(tracer, arguments, result)

def _on_restrict(tr, a, mesh):
    tr.restricted.append((a["domain"],
                          mesh.vertices[mesh.boundary_vertex_ids()]))
    return {"dofs": int(mesh.num_vertices)}


def _on_shift(tr, a, mesh):
    import numpy as np
    moved = np.any(a["mesh"].vertices != mesh.vertices, axis=1)
    return {"moved": int(moved.sum())}


def _on_write_vtk(tr, a, _):
    return {"bytes": os.path.getsize(a["path"])}


def _on_quadrature(tr, a, quad):
    return {"edges": int(quad.num_edges)}


def _on_assemble(tr, a, system):
    return {"nnz": int(system.matrix.nnz), "dofs": int(system.dim)}


def _on_solve(tr, a, report):
    return {"iterations": int(report.iterations),
            "residual": float(report.final_residual),
            "method": report.method, "rss_hwm_mb": _maxrss_mb()}


def _on_coercivity(tr, a, alpha):
    tr.coercivity.append((a["sys"], a["mesh"], a["quad"], float(alpha)))
    return {"estimate": float(alpha)}


def _on_level(tr, a, _):
    return {"n": int(a["n"])}


HOOKS = {
    "mesh.restrict_to_domain": _on_restrict,
    "mesh.shift_boundary_nodes": _on_shift,
    "mesh.write_vtk": _on_write_vtk,
    "assembly.build_boundary_quadrature": _on_quadrature,
    "assembly.assemble": _on_assemble,
    "linsolve.solve": _on_solve,
    "analysis.coercivity_estimate": _on_coercivity,
    "cli.solve_level": _on_level,
}


def install(tracer):
    """Wrap the layer functions and rebind them wherever sbmlab holds them.

    Returns the original functions by span name, for the probes. The time
    taken, after the import every unit makes anyway, counts as overhead.
    """
    import sbmlab.cli
    start = time.monotonic()
    targets = [(f"sbmlab.{layer}", layer) for layer in LAYERS]
    originals, wrapped = {}, {}
    for modname, prefix in targets + [("sbmlab.cli", "cli")]:
        module = sys.modules[modname]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == modname
                    and not attr.startswith("_")
                    and (prefix != "cli" or attr == "solve_level")):
                name = f"{prefix}.{attr}"
                originals[name] = obj
                wrapped[obj] = tracer.wrap(name, obj, HOOKS.get(name))
    for modname, module in list(sys.modules.items()):
        if modname != "sbmlab" and not modname.startswith("sbmlab."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
    tracer.overhead_s += time.monotonic() - start
    return originals


def probe_projection(tracer, project_points):
    """Points per second of one batched projection per sideset."""
    points = seconds = 0.0
    for domain, verts in tracer.restricted:
        for sideset in domain.sidesets:
            start = time.monotonic()
            project_points(sideset, verts)
            seconds += time.monotonic() - start
            points += len(verts)
    return {"points": points, "seconds": seconds}


def probe_coercivity(tracer, energy_gram):
    """True lambda_min of (A_sym, Gram) for each coercivity estimate.

    The shift sits below the spectrum (-1.01 times the largest eigenvalue
    magnitude), so the eigenvalue nearest to it is the smallest one.
    """
    import scipy.sparse.linalg as spla
    results = []
    for system, mesh, quad, estimate in tracer.coercivity:
        start = time.monotonic()
        a_sym = (0.5 * (system.matrix + system.matrix.T)).tocsc()
        gram = energy_gram(mesh, quad).tocsc()
        record = {"dofs": int(system.dim), "estimate": estimate}
        try:
            top = spla.eigsh(a_sym, k=1, M=gram, which="LM",
                             return_eigenvectors=False, tol=1e-6)
            sigma = -1.01 * abs(float(top[0]))
            lam = spla.eigsh(a_sym, k=1, M=gram, sigma=sigma, which="LM",
                             return_eigenvectors=False, tol=1e-12)
        except spla.ArpackError as err:
            record["error"] = str(err)
        else:
            true = float(lam[0])
            record.update(lambda_min=true,
                          rel_gap=(estimate - true) / abs(true))
        record["seconds"] = time.monotonic() - start
        results.append(record)
    return results


def _run_unit(args):
    if args[:2] == ["-m", "sbmlab.cli"]:
        import sbmlab.cli
        return sbmlab.cli.main(args[2:])
    if args and os.path.abspath(args[0]) == os.path.join(HERE, "child.py"):
        sys.path.insert(0, HERE)
        import child
        return child.main(args[1:])
    raise SystemExit(f"traced.py: cannot trace unit {args!r}")


def main(argv):
    if len(argv) < 4 or argv[3] != "--":
        raise SystemExit(__doc__)
    spans_path, exec_id, unit, unit_args = argv[0], argv[1], argv[2], argv[4:]
    tracer = Tracer(exec_id, unit)
    originals = install(tracer)
    try:
        code = _run_unit(unit_args)
    finally:
        unit_end = time.monotonic()
        probes = {
            "projection": probe_projection(
                tracer, originals["geometry.project_points"]),
            "coercivity": probe_coercivity(
                tracer, originals["analysis.energy_gram"]),
        }
        with open(spans_path, "w") as fh:
            json.dump({"exec": exec_id, "unit": unit, "unit_end": unit_end,
                       "overhead_s": tracer.overhead_s,
                       "spans": tracer.spans, "probes": probes}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
