"""sbmlab benchmark: run one workload, check its outputs, print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corner_study --seed 0 --trace 0
    python3 perfbench/run.py --workload all --seconds 15 --trace 0

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics with tracing off: executions
of the workload, each a set of fresh program processes, repeated until
they have taken ``--seconds`` together and at least twice. A round of set-up probes runs
before each execution, and more after the last until there are at least
``SETUP_PROBES``. A probe is a fresh interpreter importing ``sbmlab.cli``
and building the workload's domain and solution; ``setup_s`` is the median.
``--trace 1`` alternates two untraced and two traced executions and reports
the per-layer metrics of the last traced one, and the tracing overhead the
wrappers measured.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything else
(environment, every execution, gate notes, spans) is written under
``.perfbench_run/`` in the checkout. The program runs in the environment
users get: thread counts are recorded, never pinned.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import spans as spanlib
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
TRACED = os.path.join(HERE, "traced.py")

SETUP_PROBES = 16    # timed set-up probes per untraced run, at least
PROBE_ROUND = 4      # set-up probes before each execution
TRACE_PAIRS = 2      # untraced + traced executions in a traced run
MIN_EXECUTIONS = 2   # per untraced run, so wall_s is never a single sample
DEADLINE_S = 170.0   # every run ends well inside three minutes

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot measure this checkout (no result is printed)."""


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def spawn(argv, env, stdout_path, stderr_path, timeout):
    """Run one process to its end: (exit code, wall seconds, peak RSS MB,
    start time on the monotonic clock)."""
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, start


def probe_setup(workload, env, with_env):
    """One set-up probe: seconds from spawn to ``ready``, plus the
    environment JSON the probe prints when asked."""
    argv = [sys.executable, *workload.probe_args()]
    if with_env:
        argv.append("--env")
    start = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, env=env,
                            cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.monotonic() - start
        rest = proc.stdout.read()
        proc.wait(timeout=60)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if proc.returncode != 0 or not line.startswith("ready "):
        raise BenchError(f"set-up probe failed (exit {proc.returncode}): "
                         f"{(line + rest).strip()[-500:]}")
    path = os.path.realpath(line.split(" ", 1)[1].strip())
    if not path.startswith(os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
        raise BenchError(f"sbmlab imported from {path}, not from this "
                         f"checkout's src/")
    info = json.loads(rest.strip().splitlines()[-1]) if with_env else {}
    return ready, info


def git_revision():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.exists(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return f"unknown ({ref})"


def environment(seed, probe_info):
    return {
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        **probe_info,
        "OPENBLAS_NUM_THREADS": os.environ.get(
            "OPENBLAS_NUM_THREADS", "unset (one thread per core)"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "seed": seed,
    }


def run_execution(workload, seed, index, env, work_dir, deadline, refs,
                  traced=False):
    """Run every unit of one execution and gate the outputs."""
    exec_dir = os.path.join(work_dir, f"exec{index}")
    out_dir = os.path.join(exec_dir, "out")
    shutil.rmtree(exec_dir, ignore_errors=True)
    os.makedirs(out_dir)
    exec_id = f"{workload.name}-seed{seed}-exec{index}"
    results, span_files, starts = [], [], []
    for k, unit in enumerate(workload.units(out_dir)):
        argv = [sys.executable, *unit.args]
        if traced:
            span_files.append(os.path.join(exec_dir, f"spans{k}.json"))
            argv = [sys.executable, TRACED, span_files[-1], exec_id,
                    unit.label, "--", *unit.args]
        stdout_path = os.path.join(exec_dir, f"unit{k}.out")
        stderr_path = os.path.join(exec_dir, f"unit{k}.err")
        code, wall, rss, start = spawn(argv, env, stdout_path, stderr_path,
                                       deadline - time.monotonic())
        starts.append(start)
        with open(stdout_path) as fh:
            stdout = fh.read()
        with open(stderr_path) as fh:
            stderr = fh.read()
        results.append(workloads.UnitResult(unit.label, code, stdout, stderr,
                                            wall, rss, out_dir))
    outcome = workload.gate(results, refs, refs["tolerances"])
    for name in os.listdir(out_dir):  # result files can be large
        if name.endswith(".vtk"):
            os.remove(os.path.join(out_dir, name))
    record = {
        "wall_s": sum(r.wall_s for r in results),
        "peak_rss_mb": max(r.rss_mb for r in results),
        "units": [{"label": r.label, "code": r.code, "wall_s": r.wall_s,
                   "rss_mb": r.rss_mb} for r in results],
        "attempted": outcome.attempted, "failed": outcome.failed,
        "correct": outcome.correct, "misses": outcome.misses,
        "errors": outcome.errors, "counts": outcome.counts,
        "extra": outcome.extra,
    }
    if traced:
        record["trace"] = []
        for path, start in zip(span_files, starts):
            if not os.path.exists(path):
                raise BenchError(f"traced unit wrote no spans ({path})")
            with open(path) as fh:
                data = json.load(fh)
            data["unit_wall_s"] = data["unit_end"] - start
            record["trace"].append(data)
    return record


def tail_percentile(samples):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return {"percentile": 100.0 * k / n, "value": sorted(samples)[k - 1]}


def timing_stats(samples):
    return {"median": statistics.median(samples), "samples": len(samples),
            "tail": tail_percentile(samples), "values": samples}


def count_flags(counts_list, reference):
    """Exact counts must repeat: between executions and against the stored
    reference. A mismatch is flagged, not gated."""
    flags = []
    first = counts_list[0]
    for i, counts in enumerate(counts_list[1:], 1):
        for key, value in counts.items():
            if key in first and value != first[key]:
                flags.append(f"nondeterminism: {key} {value} in execution "
                             f"{i} but {first[key]} in execution 0")
    for key, want in (reference or {}).items():
        for i, counts in enumerate(counts_list):
            if key in counts and counts[key] != want:
                flags.append(f"{key} {counts[key]} in execution {i} differs "
                             f"from the stored {want} (nondeterminism, or "
                             f"the program changed)")
    return flags


def measure(workload, seed, seconds, trace):
    """One benchmark run; returns the detail record."""
    refs = workloads.load_references()
    env = child_env()
    work_dir = os.path.join(RUN_DIR, f"{workload.name}-seed{seed}-trace{trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    begin = time.monotonic()
    deadline = begin + DEADLINE_S

    # warm-up probe: fills the bytecode and file caches and reports versions
    _, info = probe_setup(workload, env, with_env=True)
    detail = {"workload": workload.name, "why": workload.why, "seed": seed,
              "seconds": seconds, "trace": trace,
              "environment": environment(seed, info)}
    setup = []

    def probe_round():
        # spread over the run, so that the median sees the same host as
        # the executions; a round also brings an idle machine up to speed
        # before an execution, which otherwise runs up to 30% slower
        setup.extend(probe_setup(workload, env, False)[0]
                     for _ in range(PROBE_ROUND))

    executions = []
    if trace:
        probe_round()
        # untraced and traced executions alternate, so that their wall
        # times can be compared with the overhead the wrappers measured
        for index in range(2 * TRACE_PAIRS):
            executions.append(run_execution(workload, seed, index, env,
                                            work_dir, deadline, refs,
                                            traced=index % 2 == 1))
    else:
        measured = 0.0
        while True:
            probe_round()
            executions.append(run_execution(
                workload, seed, len(executions), env, work_dir, deadline,
                refs))
            last = executions[-1]["wall_s"]
            measured += last
            if ((measured >= seconds and len(executions) >= MIN_EXECUTIONS)
                    or time.monotonic() + last > deadline - 5.0):
                break
        while (len(setup) < SETUP_PROBES
               and time.monotonic() < deadline - 10.0):
            probe_round()
    detail["setup_s"] = timing_stats(setup)
    detail["executions"] = executions

    all_counts = [e["counts"] for e in executions]
    if trace:
        all_counts += [spanlib.counts([s for t in e["trace"]
                                       for s in t["spans"]])
                       for e in executions if "trace" in e]
    detail["flags"] = count_flags(all_counts,
                                  refs[workload.name].get("counts"))

    if trace:
        detail["metrics"] = traced_metrics(executions)
    else:
        walls = [e["wall_s"] for e in executions]
        rss = [e["peak_rss_mb"] for e in executions]
        detail["wall_s"] = timing_stats(walls)
        # the largest of the run: the same execution peaks at one of two
        # levels 7% apart from run to run (OpenBLAS and allocator state)
        detail["peak_rss_mb"] = {"max": max(rss), "values": rss}
        detail["metrics"] = {
            "setup_s": detail["setup_s"]["median"],
            "wall_s": detail["wall_s"]["median"],
            "peak_rss_mb": detail["peak_rss_mb"]["max"],
        }
    detail["attempted"] = sum(e["attempted"] for e in executions)
    detail["failed"] = sum(e["failed"] for e in executions)
    detail["correct"] = all(e["correct"] for e in executions)
    detail["run_s"] = time.monotonic() - begin
    return detail


def traced_metrics(executions):
    """Per-layer metrics of the last traced execution. The overhead is the
    time the wrappers measured in themselves; the median traced wall time
    minus the median untraced one is kept beside it in the detail file."""
    traced = [e for e in executions if "trace" in e]
    untraced = [e for e in executions if "trace" not in e]
    for e in traced:
        e["traced_wall_s"] = sum(t["unit_wall_s"] for t in e["trace"])
    last = traced[-1]
    all_spans = [s for t in last["trace"] for s in t["spans"]]
    metrics = spanlib.layer_metrics(
        all_spans, [t["probes"] for t in last["trace"]],
        last["extra"].get("shift_max_ratio", 0.0))
    traced_wall = statistics.median(e["traced_wall_s"] for e in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = sum(t["overhead_s"] for t in last["trace"])
    last["wall_delta_s"] = traced_wall - statistics.median(
        e["wall_s"] for e in untraced)
    last["levels"] = spanlib.per_level(all_spans)
    return metrics


def report(detail):
    """Human-readable lines; the JSON result line is printed separately."""
    env = detail["environment"]
    mode = "traced" if detail["trace"] else "untraced"
    print(f"workload {detail['workload']} (seed {detail['seed']}, "
          f"{detail['seconds']} s, {mode}): {detail['why']}")
    print(f"  environment: rev {env['git_revision'][:12]}, nproc "
          f"{env['nproc']}, python {env.get('python')}, numpy "
          f"{env.get('numpy')}, scipy {env.get('scipy')}, blas "
          f"{env.get('blas')}, OPENBLAS_NUM_THREADS="
          f"{env['OPENBLAS_NUM_THREADS']}")
    for kind, key in (("expected failure", "errors"), ("GATE MISS", "misses")):
        notes = collections.Counter(note for e in detail["executions"]
                                    for note in e[key])
        for note, times in notes.items():
            print(f"  {kind}: {note}" + (f" (x{times})" if times > 1 else ""))
    for flag in detail["flags"]:
        print(f"  FLAG {flag}")
    ok = detail["attempted"] - detail["failed"]
    verdict = "correct" if detail["correct"] else "INCORRECT"
    print(f"  gate: {ok}/{detail['attempted']} operations ok; {verdict}")
    if detail["trace"]:
        for name, value in detail["metrics"].items():
            print(f"  {name:28s} {value:.6g} {spanlib.UNITS[name]}")
        delta = detail["executions"][-1]["wall_delta_s"]
        print(f"  (median traced minus untraced wall time: {delta:.3f} s, "
              f"host noise included)")
        return
    for name in ("setup_s", "wall_s"):
        stats = detail[name]
        tail = stats["tail"]
        tail_text = (f"p{tail['percentile']:.0f} {tail['value']:.4f} s"
                     if tail else "no tail percentile (fewer than 11)")
        print(f"  {name:12s} {stats['median']:.4f} s    median of "
              f"{stats['samples']}; {tail_text}")
    print(f"  {'peak_rss_mb':12s} {detail['metrics']['peak_rss_mb']:.1f} MB   "
          f"largest of {len(detail['peak_rss_mb']['values'])}")
    frac = detail["failed"] / detail["attempted"]
    print(f"  {'fail_frac':12s} {frac:.4f}      {detail['failed']} of "
          f"{detail['attempted']} operations")


def result_line(detail):
    units = spanlib.UNITS if detail["trace"] else END_TO_END_UNITS
    return json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in detail["metrics"].items()},
    })


def save(detail):
    path = os.path.join(
        RUN_DIR, f"result-{detail['workload']}-seed{detail['seed']}"
                 f"-trace{detail['trace']}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1)
    return path


def summary(details):
    print("summary (untraced metrics after the correctness gate):")
    print(f"  {'workload':14s} {'setup_s [s]':>12s} {'wall_s [s]':>11s} "
          f"{'peak_rss_mb [MB]':>17s} {'fail_frac [1]':>14s}  gate")
    for d in details:
        m = d["metrics"]
        print(f"  {d['workload']:14s} {m['setup_s']:12.4f} {m['wall_s']:11.4f} "
              f"{m['peak_rss_mb']:17.1f} {d['failed'] / d['attempted']:14.4f}"
              f"  {'correct' if d['correct'] else 'INCORRECT'}")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = json.load(fh)["run_seconds"]

    if not os.path.isfile(os.path.join(ROOT, "src", "sbmlab", "cli.py")):
        print(f"error: no sbmlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    details = []
    try:
        for name in names:
            detail = measure(workloads.WORKLOADS[name], args.seed,
                             args.seconds, args.trace)
            report(detail)
            print(f"  details: {os.path.relpath(save(detail), ROOT)}")
            details.append(detail)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(details) == 1:
        print(result_line(details[0]))
        return 0
    if not args.trace:
        summary(details)
    print(json.dumps({
        "correct": all(d["correct"] for d in details),
        "attempted": sum(d["attempted"] for d in details),
        "failed": sum(d["failed"] for d in details),
        "metrics": {f"{d['workload']}.{name}": json.loads(
            result_line(d))["metrics"][name]
            for d in details for name in d["metrics"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
