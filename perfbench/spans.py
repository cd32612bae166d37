"""Per-layer metrics from the spans of a traced execution (standard library only).

A stage time is the summed duration of the outermost spans of the named
functions, so a function that calls another of the same stage is counted
once. A layer's self time is the summed duration of its spans minus the
part covered by their child spans. Counts come from the attributes the
wrappers in ``traced.py`` recorded at the same boundaries.
"""

from __future__ import annotations

LAYERS = ("mesh", "geometry", "assembly", "linsolve", "analysis")

STAGES = {
    "mesh.background_s": ("mesh.build_background",),
    "mesh.restrict_s": ("mesh.restrict_to_domain",),
    "mesh.shift_s": ("mesh.shift_boundary_nodes",),
    "mesh.write_vtk_s": ("mesh.write_vtk",),
    "geometry.assign_s": ("geometry.assign_sidesets",),
    "assembly.quadrature_s": ("assembly.build_boundary_quadrature",),
    "assembly.assemble_s": ("assembly.assemble",),
    "linsolve.solve_s": ("linsolve.solve",),
    "analysis.errors_s": ("analysis.error_report", "analysis.error_norms",
                          "analysis.energy_error", "analysis.remainder_norm",
                          "analysis.energy_norm"),
    "analysis.coercivity_s": ("analysis.coercivity_estimate",),
    "analysis.nonsymmetry_s": ("analysis.nonsymmetry_residual",),
}

# every per-layer metric with its unit, in report order
UNITS = dict(
    [(name, "s") for name in STAGES]
    + [("mesh.shift_moved", "count"), ("mesh.shift_max_ratio", "ratio"),
       ("mesh.vtk_bytes", "B"), ("geometry.project_pts_per_s", "1/s"),
       ("assembly.nnz", "count"), ("assembly.edges", "count"),
       ("linsolve.iterations", "count"), ("linsolve.s_per_iter", "s"),
       ("linsolve.residual", "ratio"), ("linsolve.failures", "count"),
       ("linsolve.rss_hwm_mb", "MB"), ("analysis.coercivity_rel_gap", "ratio")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.wall_s", "s"), ("trace.overhead_s", "s")])


def _index(spans):
    by_key = {(s["unit"], s["id"]): s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["unit"], s["parent"]), []).append(s)
    return by_key, children


def _ancestors(span, by_key):
    while span["parent"] is not None:
        span = by_key.get((span["unit"], span["parent"]))
        if span is None:  # parent outside the spans given
            return
        yield span


def _duration(span):
    return span["end"] - span["start"]


def level_of(span, by_key):
    """Refinement level a span belongs to: the n of the enclosing
    ``cli.solve_level`` call, else the unit label."""
    for s in [span, *_ancestors(span, by_key)]:
        if s["name"] == "cli.solve_level" and "n" in s:
            return f"n={s['n']}"
    return span["unit"]


def layer_metrics(spans, probes=(), shift_ratio=0.0):
    """Every per-layer metric except the trace.* ones, summed over levels."""
    by_key, children = _index(spans)
    out = {}
    for metric, names in STAGES.items():
        out[metric] = sum(
            _duration(s) for s in spans if s["name"] in names
            and not any(a["name"] in names for a in _ancestors(s, by_key)))

    def attrs(name, key):
        return [s[key] for s in spans if s["name"] == name and key in s]

    out["mesh.shift_moved"] = sum(attrs("mesh.shift_boundary_nodes", "moved"))
    out["mesh.shift_max_ratio"] = shift_ratio
    out["mesh.vtk_bytes"] = sum(attrs("mesh.write_vtk", "bytes"))
    points = sum(p["projection"]["points"] for p in probes)
    seconds = sum(p["projection"]["seconds"] for p in probes)
    out["geometry.project_pts_per_s"] = points / seconds if seconds else 0.0
    out["assembly.nnz"] = sum(attrs("assembly.assemble", "nnz"))
    out["assembly.edges"] = sum(
        attrs("assembly.build_boundary_quadrature", "edges"))

    solves = [s for s in spans if s["name"] == "linsolve.solve"]
    iterations = sum(s.get("iterations", 0) for s in solves)
    iter_time = sum(_duration(s) for s in solves if s.get("iterations"))
    out["linsolve.iterations"] = iterations
    out["linsolve.s_per_iter"] = iter_time / iterations if iterations else 0.0
    out["linsolve.residual"] = max(attrs("linsolve.solve", "residual"),
                                   default=0.0)
    out["linsolve.failures"] = sum(1 for s in solves if "error" in s)
    out["linsolve.rss_hwm_mb"] = max(attrs("linsolve.solve", "rss_hwm_mb"),
                                     default=0.0)
    gaps = [c["rel_gap"] for p in probes for c in p["coercivity"]
            if "rel_gap" in c]
    out["analysis.coercivity_rel_gap"] = max(gaps, default=0.0)

    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            _duration(s) - sum(_duration(c)
                               for c in children.get((s["unit"], s["id"]), ()))
            for s in spans if s["name"].split(".")[0] == layer)
    return out


def per_level(spans):
    """The same metrics for each refinement level, in order of appearance."""
    by_key, _ = _index(spans)
    groups = {}
    for s in spans:
        groups.setdefault(level_of(s, by_key), []).append(s)
    return {level: layer_metrics(group) for level, group in groups.items()}


def counts(spans):
    """Exact counts in call order: dofs, edges and iterations per solve."""
    return {
        "dofs": [s["dofs"] for s in spans
                 if s["name"] == "assembly.assemble" and "dofs" in s],
        "edges": [s["edges"] for s in spans
                  if s["name"] == "assembly.build_boundary_quadrature"
                  and "edges" in s],
        "iterations": [s["iterations"] for s in spans
                       if s["name"] == "linsolve.solve" and "iterations" in s],
    }
