"""Benchmark of the ``mlgdesign`` CLI, run in-process through ``cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The runner writes the seeded
problem files of one workload (see ``workloads.py``), computes a scipy
HiGHS reference optimum for every solve outside the timed region, runs
each of the workload's command lists once on a small instance as an
untimed warm-up, then repeats timed passes over the cases until another
pass would overrun ``--seconds`` (at least one pass).  Every output of
every pass is checked against its reference.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer
metrics of ``spans.py``.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and a result record are written under
``perfbench/work/``.
"""

from __future__ import annotations

import os

# The single-threaded baseline: pin BLAS/OpenMP pools before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import reference
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"

CASE_CAP_S = 60.0       # per case; a case past it is a failure with this stop reason
RUN_DEADLINE_S = 150.0  # no case starts later than this after the runner started
SETUP_REPEATS = 7
REL_TOL = 1e-6
SETUP_CODE = ("import time; t = time.perf_counter(); import mlgdesign.cli; "
              "print(repr(time.perf_counter() - t))")

END_TO_END = {"setup_s": "s", "wall_s": "s", "instance_p50_s": "s",
              "instance_p90_s": "s", "instance_max_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"lp.pivot_us": "us", "lp.pivots": "count", "lp.rows": "count",
                   "lp.cols": "count", "lp.nnz": "count", "lp.simplex_calls": "count",
                   "lp.bnb_nodes": "count", "lp.bnb_nodes_infeasible": "count",
                   "design.paths": "count"}

STARTED = time.monotonic()


class CaseTimeout(BaseException):
    """Raised by the interval timer inside a case that overran its cap."""


def _on_alarm(_signum, _frame):
    raise CaseTimeout()


@dataclass
class Job:
    """A case made concrete: files on disk, argv lists, expected outcomes."""

    name: str
    argvs: list[list[str]]
    outputs: list[Optional[Path]]
    expected: list  # per command: reference.Reference, or bool for validate


@dataclass
class CaseRun:
    seconds: Optional[float]  # None when the case did not start
    results: list[tuple[int, str]] = field(default_factory=list)  # (exit code, stdout)
    stop: Optional[str] = None


@dataclass
class Pass:
    wall: float
    runs: list[CaseRun]
    failures: list[str]
    layers: Optional[dict] = None


def materialize(cases, workdir: Path) -> list[Job]:
    jobs = []
    for case in cases:
        problem = workdir / f"{case.name}.json"
        problem.write_text(json.dumps(case.doc, indent=1) + "\n")
        fixed_path = None
        if case.fixed_costs is not None:
            fixed_path = workdir / f"{case.name}.fixed.json"
            fixed_path.write_text(json.dumps(case.fixed_costs, indent=1) + "\n")
        argvs, outputs, expected = [], [], []
        for i, cmd in enumerate(case.commands):
            if cmd.validate:
                argvs.append(["validate", str(problem)])
                outputs.append(None)
                expected.append(reference.overlay_realizable(case.doc))
                continue
            out = workdir / f"{case.name}.out{i}.json"
            argv = ["solve", str(problem), *cmd.flags]
            fixed = case.fixed_costs if cmd.mode == "uncapacitated" else None
            if fixed is not None:
                argv += ["--fixed-costs", str(fixed_path)]
            argvs.append(argv + ["-o", str(out)])
            outputs.append(out)
            expected.append(reference.reference_optimum(
                case.doc, mode=cmd.mode, single_homing=cmd.single_homing,
                fixed_costs=fixed))
        jobs.append(Job(case.name, argvs, outputs, expected))
    return jobs


def run_case(main, job: Job, tracer=None) -> CaseRun:
    remaining = RUN_DEADLINE_S - (time.monotonic() - STARTED)
    if remaining <= 0:
        return CaseRun(None, stop="not started: run deadline reached")
    cap = min(CASE_CAP_S, remaining)
    for path in job.outputs:  # an output left by an earlier pass must not pass the check
        if path is not None:
            path.unlink(missing_ok=True)
    run = CaseRun(None)
    root = tracer.begin(f"case:{job.name}") if tracer else None
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        for argv in job.argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
            run.results.append((code, out.getvalue()))
    except CaseTimeout:
        run.stop = f"time cap of {cap:.0f} s reached"
    except Exception:  # a crash in the program is a recorded failure, not a crash here
        run.stop = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        run.seconds = time.perf_counter() - start
        if root is not None:
            tracer.end(root)
    return run


def check(job: Job, run: CaseRun) -> Optional[str]:
    """The reason the case's outcome is wrong, or None."""
    if run.stop:
        return run.stop
    for i, ((code, stdout), want) in enumerate(zip(run.results, job.expected)):
        where = f"command {i} ({job.argvs[i][0]})"
        if isinstance(want, bool):
            if (code == 0) != want or (want and not stdout.startswith("ok")):
                return f"{where}: validate exit {code}, expected overlay ok={want}"
            continue
        if want.status == "infeasible":
            if code != 1:
                return f"{where}: exit {code}, reference is infeasible"
            continue
        if code != 0:
            return f"{where}: exit {code}, reference optimum {want.objective!r}"
        doc = json.loads(job.outputs[i].read_text())
        if doc.get("status") != "optimal":
            return f"{where}: status {doc.get('status')!r}"
        if abs(doc["objective"] - want.objective) > REL_TOL * max(1.0, abs(want.objective)):
            return f"{where}: objective {doc['objective']!r}, reference {want.objective!r}"
        for flag in ("conservation_ok", "capacities_ok"):
            if doc.get("validation", {}).get(flag) is not True:
                return f"{where}: validation.{flag} is not true"
    return None


def run_pass(main, jobs: list[Job], tracer=None) -> Pass:
    start = time.perf_counter()
    runs = [run_case(main, job, tracer) for job in jobs]
    wall = time.perf_counter() - start
    failures = []
    for job, run in zip(jobs, runs):
        reason = check(job, run)
        if reason:
            failures.append(f"{job.name}: {reason}")
    return Pass(wall, runs, failures)


def read_outputs(jobs: list[Job]) -> dict[Path, bytes]:
    return {p: p.read_bytes() for job in jobs for p in job.outputs
            if p is not None and p.exists()}


def measure(main, jobs, seconds: float, traced: bool):
    """Timed passes until another would overrun ``seconds``.  In traced
    mode each round is an untraced pass followed by a traced one."""
    plain, traced_passes, last_spans = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain.append(run_pass(main, jobs))
        if traced:
            untraced_outputs = read_outputs(jobs)
            tracer = spans.Tracer()
            with tracer.installed():
                p = run_pass(main, jobs, tracer)
            p.layers = spans.layer_metrics(tracer.spans)
            traced_outputs = read_outputs(jobs)
            for path in sorted(set(untraced_outputs) | set(traced_outputs)):
                if traced_outputs.get(path) != untraced_outputs.get(path):
                    p.failures.append(f"{path.name}: traced output differs from untraced")
            traced_passes.append(p)
            last_spans = tracer.spans
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - round_start) > seconds:
            break
        if time.monotonic() - STARTED > RUN_DEADLINE_S:
            break
    return plain, traced_passes, last_spans


def setup_samples(n: int) -> list[float]:
    """Import time of ``mlgdesign.cli`` in fresh interpreters; one
    unrecorded import first so bytecode caches exist."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for i in range(n + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unavailable"


def environment() -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
            "blas": blas, "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            "platform": platform.platform()}


def end_to_end(plain: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    """Pass time is the median over passes; per-case times are each
    case's median over passes, so a slow spell in one pass drops out."""
    per_case = []
    for i in range(len(plain[0].runs)):
        times = [p.runs[i].seconds for p in plain if p.runs[i].seconds is not None]
        if times:
            per_case.append(statistics.median(times))
    if not per_case:
        raise RuntimeError("no case completed")
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in plain),
        "instance_p50_s": statistics.median(per_case),
        "instance_p90_s": percentile(per_case, 90),
        "instance_max_s": max(per_case),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    cases = f"n={len(per_case)} cases, each the median of {len(plain)} passes"
    counts = {"setup_s": f"median of {len(setup)} fresh interpreters",
              "wall_s": f"median of {len(plain)} passes",
              "instance_p50_s": cases, "instance_p90_s": cases, "instance_max_s": cases,
              "peak_rss_mb": "one process"}
    return values, counts


def per_layer(plain: list[Pass], traced: list[Pass]) -> tuple[dict, dict]:
    keys = traced[0].layers.keys()
    values = {k: statistics.median(p.layers[k] for p in traced) for k in keys}
    values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                  - statistics.median(p.wall for p in plain))
    counts = {k: f"median of {len(traced)} traced passes" for k in values}
    return values, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mlgdesign" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'mlgdesign'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mlgdesign.cli

    signal.signal(signal.SIGALRM, _on_alarm)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))

    setup = [] if args.trace else setup_samples(SETUP_REPEATS)
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cases = workloads.WORKLOADS[args.workload](args.seed)
    jobs = materialize(cases, workdir)
    warm = materialize(workloads.warmup(cases), workdir)
    for job in warm:
        run_case(mlgdesign.cli.main, job)

    plain, traced, last_spans = measure(mlgdesign.cli.main, jobs, args.seconds,
                                        bool(args.trace))
    measured = plain + traced
    attempted = sum(len(p.runs) for p in measured)
    failures = sorted({f for p in measured for f in p.failures})
    failed = sum(len(p.failures) for p in measured)

    if args.trace:
        values, counts = per_layer(plain, traced)
        units = {k: PER_LAYER_UNITS.get(k, "s") for k in values}
    else:
        values, counts = end_to_end(plain, setup)
        units = END_TO_END
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} cases, "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]} ({counts[name]})")
    print(f"  failed_share = {failed}/{attempted}")
    for f in failures:
        print(f"  FAILED {f}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "metrics": values, "samples": counts,
              "attempted": attempted, "failed": failed, "failures": failures,
              "case_seconds": {job.name: [p.runs[i].seconds for p in plain]
                               for i, job in enumerate(jobs)}}
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (workdir / "spans.json").write_text(json.dumps(
            [vars(s) for s in last_spans]) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
