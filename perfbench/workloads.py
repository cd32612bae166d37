"""Workloads of the sbmlab benchmark and the correctness gate on their outputs.

A workload is a fixed list of units. A unit is one fresh process that runs
the program the way a user does: the ``sbmlab`` command line, or, for the
shifted disk, one ``cli.solve_level`` call configured as ``sbmlab run
--domain disk --solution sinsin --shift`` (``child.py disk``): the sequence
that command makes, without its VTK file and with the distance ratio of the
built quadrature reported. One execution of a workload runs its units in
order.

The gate reads only what the program wrote (stdout, the study CSV,
``verify_report.json``) and compares it with ``references.json``. An
operation is one refinement level or one verify check. It fails when its
process exits non-zero or is killed before producing it, or when it misses
the gate. Every failure is also a gate miss, which makes the run incorrect,
except the failures ``references.json`` lists as expected: there the
process must exit 1 with the named error, and anything else is a miss.

This module uses the standard library only, so the parent process imports
no numerical code.
"""

from __future__ import annotations

import csv
import json
import os
import re
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

# Every workload runs the catalog problem whatever the seed. Moving the disk
# centre by a fraction of a cell per seed changed which levels fail (0 to 2
# of 3 over seeds 0-4) and moved wall_s by 21% between seeds, more than the
# bound that runs with different seeds are compared against; moving the
# corner off the grid changes the fitted slopes.
DISK_LEVELS = (128, 160, 192)
DISK_ZETA = 0.5
DISK_C_D = 1.0


def load_references():
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Unit:
    """One process of an execution: label and interpreter arguments."""

    label: str
    args: tuple


@dataclass
class UnitResult:
    label: str
    code: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float
    out_dir: str


@dataclass
class Outcome:
    """Gate verdict for one execution."""

    attempted: int = 0
    failed: int = 0
    misses: list = field(default_factory=list)  # gate misses: incorrect run
    errors: list = field(default_factory=list)  # expected failures
    counts: dict = field(default_factory=dict)  # exact counts for cross-checks
    extra: dict = field(default_factory=dict)   # values reported, not gated

    @property
    def correct(self):
        return not self.misses


def _rel(got, want):
    return abs(got - want) / abs(want)


def _check_errors(where, got, want, tol, out):
    """Compare error columns; returns True when every column is in tolerance."""
    ok = True
    for col, rel_tol in tol["columns"].items():
        if col not in got:
            out.misses.append(f"{where}: no {col} value")
            ok = False
        elif not _rel(got[col], want[col]) <= rel_tol:
            out.misses.append(f"{where}: {col}={got[col]:.6e} differs from "
                              f"reference {want[col]:.6e} by more than "
                              f"{rel_tol:g} relative")
            ok = False
    return ok


def _last_line(text):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return lines[-1] if lines else "(no output)"


def _exit_note(res):
    return f"exit {res.code}: {_last_line(res.stderr)}"


def _not_produced(where, res, out, expected=None):
    """An operation its process did not produce. It fails, and it is a gate
    miss unless the process exited 1 with the ``expected`` error."""
    out.failed += 1
    note = f"{where}: {_exit_note(res)}"
    if (expected is not None and res.code == 1
            and f"error: {expected}:" in res.stderr):
        out.errors.append(note)
    else:
        out.misses.append(note)


def _check_exit(what, res, out):
    """A command-line process that exits non-zero is a gate miss, even when
    every operation was produced."""
    if res.code != 0:
        out.misses.append(f"{what}: {_exit_note(res)}")


_KEY_VALUE = re.compile(r"(\w+)=([^\s,]+)")
_SLOPE = re.compile(r"fitted (\w+) slope .*: (\S+)")


def _numbers(text):
    values = {}
    for key, raw in _KEY_VALUE.findall(text):
        try:
            values[key] = float(raw)
        except ValueError:
            values[key] = raw
    return values


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def gate_study(results, refs, tol):
    res = results[0]
    ref = refs["corner_study"]
    out = Outcome()
    path = os.path.join(res.out_dir, "study_corner_corner23.csv")
    rows = []
    if os.path.exists(path):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    _check_exit("study", res, out)
    for i, level in enumerate(ref["levels"]):
        out.attempted += 1
        where = f"level n={level['n']}"
        if i >= len(rows):
            _not_produced(f"{where}: no CSV row", res, out)
            continue
        got = {k: float(v) for k, v in rows[i].items()
               if k in tol["columns"]}
        if not _check_errors(where, got, level, tol, out):
            out.failed += 1
    slopes = {name: float(v) for name, v in _SLOPE.findall(res.stdout)}
    for name, want in ref["slopes"].items():
        got = slopes.get(name)
        if got is None:
            out.misses.append(f"no fitted {name} slope printed")
        elif abs(got - want) > tol["slope_abs"]:
            out.misses.append(f"fitted {name} slope {got} differs from "
                              f"{want} by more than {tol['slope_abs']}")
    out.counts["dofs"] = [int(r["dofs"]) for r in rows]
    return out


def gate_run(results, refs, tol):
    res = results[0]
    ref = refs["corner_fine"]
    out = Outcome(attempted=1)
    got = _numbers(res.stdout)
    vtk = os.path.join(res.out_dir, f"corner_n{ref['n']}.vtk")
    if res.code != 0 or "l2" not in got:
        _not_produced(f"level n={ref['n']}", res, out)
        return out
    ok = _check_errors(f"level n={ref['n']}", got, ref, tol, out)
    if not got.get("residual", 1.0) <= tol["residual"]:
        out.misses.append(f"solver residual {got.get('residual')} above "
                          f"{tol['residual']}")
        ok = False
    if not os.path.exists(vtk) or os.path.getsize(vtk) == 0:
        out.misses.append(f"no VTK file at {vtk}")
        ok = False
    else:
        out.extra["vtk_bytes"] = os.path.getsize(vtk)
    out.failed = 0 if ok else 1
    out.counts["dofs"] = [int(got["dofs"])] if "dofs" in got else []
    if "iterations" in got:
        out.counts["iterations"] = [int(got["iterations"])]
    return out


def gate_verify(results, refs, tol):
    res = results[0]
    expected = refs["corner_verify"]["checks"]
    out = Outcome()
    path = os.path.join(res.out_dir, "verify_report.json")
    report = []
    if os.path.exists(path):
        with open(path) as fh:
            report = json.load(fh)
    by_name = {entry["check"]: entry for entry in report}
    _check_exit("verify", res, out)
    for name in list(expected) + [n for n in by_name if n not in expected]:
        out.attempted += 1
        entry = by_name.get(name)
        if entry is None:
            _not_produced(f"{name}: not in verify_report.json", res, out)
        elif entry["pass"] is not True:
            out.failed += 1
            out.misses.append(f"{name}: FAIL measured={entry['measured']} "
                              f"bound={entry['bound']}")
    return out


def gate_disk(results, refs, tol):
    ref = refs["disk_shift"]
    out = Outcome()
    ratios = []
    for n, res in zip(DISK_LEVELS, results):
        out.attempted += 1
        where = f"level n={n}"
        if res.code != 0:
            _not_produced(where, res, out,
                          ref["expected_failures"].get(where))
            continue
        got = json.loads(_last_line(res.stdout))
        ok = True
        ratio = got["shift_max_ratio"]
        ratios.append(ratio)
        if not ratio <= 1.0 + tol["ratio_slack"]:
            out.misses.append(f"{where}: shift_max_ratio {ratio:.6f} > 1")
            ok = False
        if not got["residual"] <= tol["residual"]:
            out.misses.append(f"{where}: solver residual {got['residual']}")
            ok = False
        # no stored values at n=160, which fails today: every level is held
        # to the asymptotic l2 ~ n^-2 and h1 ~ n^-1 of n=128 and n=192
        for col, power in (("l2", 2), ("h1", 1)):
            scaled = got[col] * n ** power
            want = ref[f"{col}_scaled"]
            if not _rel(scaled, want) <= tol["disk_scaled_rel"]:
                out.misses.append(
                    f"{where}: {col}*n^{power}={scaled:.4f} not within "
                    f"{tol['disk_scaled_rel']:g} of {want:.4f}")
                ok = False
        if not ok:
            out.failed += 1
        for key in ("dofs", "edges", "iterations"):
            out.counts.setdefault(key, []).append(got[key])
    if ratios:
        out.extra["shift_max_ratio"] = max(ratios)
    return out


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _cli(*args):
    return ("-m", "sbmlab.cli") + args


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    problem: str          # domain the set-up probe builds: corner or disk
    gate: object          # gate(unit results, references, tolerances)
    units: object         # units(output directory) -> [Unit]

    def probe_args(self):
        """Arguments of the set-up probe: import and build domain+solution."""
        return (CHILD, "ready", self.problem)


def _disk_units(out_dir):
    return [Unit(f"n={n}", (CHILD, "disk", "--n", str(n), "--zeta",
                            repr(DISK_ZETA), "--c-d", repr(DISK_C_D)))
            for n in DISK_LEVELS]


WORKLOADS = {w.name: w for w in (
    Workload("corner_study",
             "the paper's headline refinement study (n=20..320) as users "
             "run it; every stage at small-to-medium size, both solver paths",
             "corner", gate_study,
             lambda out: [Unit("study", _cli("study", "--out", out))]),
    Workload("corner_fine",
             "one large solve (n=320, 78,126 dofs) as `sbmlab run`: solver "
             "time, iterations and memory, and the only VTK result file",
             "corner", gate_run,
             lambda out: [Unit("run", _cli("run", "--n0", "320", "--out",
                                           out))]),
    Workload("disk_shift",
             "node shifting on the disk at n=128,160,192 dominates; the "
             "solve is small, and n=160 fails today",
             "disk", gate_disk, _disk_units),
    Workload("corner_verify",
             "identity suite at n=160, above the 2,000-dof switch to the "
             "sampled coercivity path, which dominates",
             "corner", gate_verify,
             lambda out: [Unit("verify", _cli("verify", "--n0", "160",
                                              "--out", out))]),
)}

