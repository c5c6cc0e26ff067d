"""Benchmark of the nsbound command line on three seeded workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload ref-grid1500 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Workloads (inputs and command lines in ``workloads.py``):

* ``ref-grid1500``: ``verify`` on the paper's 2x3 matrix at ``--grid 1500``.
  2x2 grams over sparse entries: evaluation, gram and counting dominate.
* ``k4-lattice-d3``: ``verify --lattice 150000`` on a seeded 4x4 matrix
  over 3 variables.  4x4 grams make the eigensolver the largest stage; one
  4x4 Bareiss determinant gives the exact layer a minority share.
* ``exact-minors``: ``analyze`` only, on a seeded 4x6 matrix with
  ``--minor best --ordering exhaustive`` (every minor useful) and on a
  seeded rank-3 5x6 matrix with ``--minor first`` (81 vanishing minors
  before the first hit).  No numerical work at all.

Every sample is a fresh ``child.py`` process that imports nsbound from
``src/`` and calls ``nsbound.cli.main(argv)`` once per command, with no
warm-up call, because a command-line user pays first-call costs on every
run.  Samples run one after another (a closed loop with one client) until
``--seconds`` have passed.  End-to-end metrics, with ``--trace 0``:

* ``wall_s``: median over samples of the summed ``main`` times;
* ``setup_s``: median time from starting a child until ``import
  nsbound.cli`` returns (the interpreter and numpy), over every child;
* ``peak_rss_mb``: median peak resident set size of a sample child.

With ``--trace 1`` every untraced sample is followed by a traced one, and
the per-layer metrics of ``tracer.layer_metrics`` are reported as medians
over the traced samples, with ``trace.overhead_ratio`` (traced ``main``
time over untraced ``wall_s``).

After the timed phase, untimed checks look at the output of every call
(see ``checks.py``), compare ``--workers 2`` with ``--workers 1`` CSVs for
bit identity and, on ``ref-grid1500``, check the paper's invariants.  A
call fails when an exception escapes ``main``, the exit code is not 0, or
its output fails a check; ``fail_ratio`` is failed calls over attempted.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Run from a directory without ``src/nsbound``, the benchmark
prints no result and exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

#: Children that only set up, before the timed phase, for more set-up samples.
SETUP_CHILDREN = 5
#: A run must finish well inside three minutes, checks included.
RUN_BUDGET_S = 165.0


def declared_metrics(section: str) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares in ``section``."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[section]}


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts sample children for one workload and collects what they report."""

    def __init__(self, work: Path, csv: dict[int, str], deadline: float):
        self.work = work
        self.csv = csv
        self.deadline = deadline
        self.broken: list[str] = []

    def spawn(self, commands: list[list[str]], trace: bool = False) -> dict | None:
        """One child; None (and a note in ``broken``) if it did not report."""
        request = self.work / "request.json"
        result = self.work / "result.json"
        request.write_text(
            json.dumps({"commands": commands, "csv": self.csv, "trace": trace}), encoding="utf-8"
        )
        result.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "child.py"), str(SRC), str(request), str(result)]
        started = clock()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - started),
            )
        except subprocess.TimeoutExpired:
            self.broken.append("a sample ran past the run's time budget")
            return None
        if proc.returncode != 0 or not result.exists():
            self.broken.append(f"sample child exited with {proc.returncode}: {proc.stderr[-2000:]}")
            return None
        report = json.loads(result.read_text(encoding="utf-8"))
        report["setup_s"] = report["imported_at"] - started
        report["wall_s"] = sum(c["seconds"] for c in report["commands"])
        return report


def environment(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "seed": seed,
    }


def median(values: list[float]) -> float:
    """The median, or 0 when a broken run left no values (it then reports correct=false)."""
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from checks import Checker
    from tracer import layer_metrics

    deadline = clock() + RUN_BUDGET_S
    wl = workloads.build(name, seed)
    work = WORK / f"{name}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    for file_name, text in wl.files.items():
        (work / file_name).write_text(text, encoding="utf-8")
    commands = [[arg.replace("{dir}", str(work)) for arg in argv] for argv in wl.commands]
    csv = {i: str(work / f) for i, f in wl.csv.items()}
    runner = Runner(work, csv, deadline)

    runner.spawn([])  # warm-up: bytecode and page caches, not measured
    setups = [r for r in (runner.spawn([]) for _ in range(SETUP_CHILDREN)) if r]
    samples: list[dict] = []
    traced: list[dict] = []
    attempted = 0
    start = clock()
    while not runner.broken and (not samples or clock() - start < seconds):
        for is_traced in ((False, True) if trace else (False,)):
            attempted += len(commands)
            sample = runner.spawn(commands, is_traced)
            if sample:
                (traced if is_traced else samples).append(sample)

    checker = Checker(wl, work, commands)
    failures: list[str] = list(runner.broken)
    failed = attempted - len(commands) * (len(samples) + len(traced))
    for sample in samples + traced:
        for i, res in enumerate(sample["commands"]):
            found = checker.problems(i, res)
            failed += bool(found)
            failures += [f"{commands[i][0]} call: {p}" for p in found]
    for label, found in checker.extra_calls():
        attempted += 1
        failed += bool(found)
        failures += [f"{label}: {p}" for p in found]

    wall = median([r["wall_s"] for r in samples])
    metrics = {
        "wall_s": wall,
        "setup_s": median([r["setup_s"] for r in setups + samples + traced]),
        "peak_rss_mb": median([r["peak_rss_kib"] / 1024.0 for r in samples]),
    }
    walls = sorted(r["wall_s"] for r in samples)
    counts = {
        "wall_s": f"median of {len(samples)} samples, range {walls[0]:.4g}-{walls[-1]:.4g}"
        if walls else "no samples",
        "setup_s": f"median of {len(setups) + len(samples) + len(traced)} set-ups",
        "peak_rss_mb": f"median of {len(samples)} samples",
    }
    layers = {}
    if traced and samples:
        per_sample = [layer_metrics(r["spans"]) for r in traced]
        layers = {k: median([m[k] for m in per_sample]) for k in per_sample[0]}
        layers["trace.overhead_ratio"] = median([r["wall_s"] for r in traced]) / wall
        (work / "spans.json").write_text(json.dumps(traced[0]["spans"]), encoding="utf-8")
    return {
        "workload": wl,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "counts": counts,
        "layers": layers,
        "traced": len(traced),
        "missing": traced[0]["missing"] if traced else [],
        "work": work,
    }


def report(out: dict, trace: bool) -> dict:
    """Print the human-readable summary; return the result object."""
    end_to_end = declared_metrics("end_to_end")
    per_layer = declared_metrics("per_layer")
    wl = out["workload"]
    print(f"== {wl.name} (seed {wl.seed}) ==")
    print("environment: " + json.dumps(environment(wl.seed)))
    print("inputs: " + json.dumps(wl.inputs))
    for key, value in out["metrics"].items():
        print(f"  {key:<12} = {value:.6g} {end_to_end[key]} ({out['counts'][key]})")
    ratio = out["failed"] / max(1, out["attempted"])
    print(f"  {'fail_ratio':<12} = {ratio:.6g}"
          f" ({out['failed']} of {out['attempted']} calls failed)")
    for problem in out["failures"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    if trace:
        print(f"  per-layer metrics: medians of {out['traced']} traced samples;"
              f" spans in {out['work'] / 'spans.json'}")
        for key, value in out["layers"].items():
            print(f"  {key:<26} = {value:.6g} {per_layer.get(key, '')}")
        if out["missing"]:
            print("  not traced (no longer in the program): " + ", ".join(out["missing"]))
    if trace:
        values, units = out["layers"], per_layer
    else:
        values, units = out["metrics"], end_to_end
    metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()}
    return {
        "correct": not out["failures"] and out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="ref-grid1500, k4-lattice-d3, exact-minors, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "nsbound" / "cli.py").is_file():
        print(f"error: no nsbound source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = workloads.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOAD_NAMES):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(report(out, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
