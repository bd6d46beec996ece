"""The cremona3 benchmark: one seeded workload per run.

    python3 bench/run.py --workload centralizer-roundtrip --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  A run sets the package up, builds the workload's inputs from
the seed, times passes over them until ``--seconds`` have gone by,
checks every op, and prints the metrics.  The work is split over
WORKERS fresh processes run one after another.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``).  ``bench/README.md`` defines every metric.
One worker process at a time, no threads; the other child processes are
the cold command-line calls and the set-up probes, each waited for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("paper-full", "centralizer-roundtrip", "centralizer-reject", "tame-words")
END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cli_cold_s": "s",
}
#: At least ten op latencies lie beyond the 90th percentile.
MIN_OPS = 100
#: Worker processes per run, and the cold CLI calls each one makes.
WORKERS = 5
CLI_PER_WORKER = 2
#: Set-up is measured in every worker and in SETUP_PROBES more processes.
SETUP_PROBES = 6
#: Ops per run that the independent check recomputes.
ORACLE_SAMPLE = 12
CHILD_TIMEOUT_S = 120

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cremona3
cremona3.standard_objects()
print(time.perf_counter() - t0)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_probe() -> float:
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(out.stdout.strip())


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Tally:
    """Attempted and failed checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what:
                print(f"# FAILED {what}", file=sys.stderr)


def run_cases(cases, run_case, tally: Tally, tracer=None) -> list[float]:
    """One pass: the latency of each op, with every result checked."""
    clock = time.perf_counter
    latencies = []
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.op = i
        error = None
        t0 = clock()
        try:
            ok = run_case(case)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            ok, error = False, exc
        latencies.append(clock() - t0)
        tally.record(ok, f"op {i}: {error!r}" if error else f"op {i}: wrong result")
    return latencies


class PaperSuite:
    """``run_suite(SUITE_SEED, FULL)``; each of its checks is one op.

    The module-level check functions of ``cremona3.verify`` are wrapped
    with a timer, so the suite runs unchanged and reports per-check
    latency and verdict.
    """

    def __init__(self, verify, suite_seed):
        self.verify = verify
        self.suite_seed = suite_seed
        self.records = []
        self.tracer = None
        for name in dir(verify):
            fn = getattr(verify, name)
            if name.startswith("check_") and callable(fn):
                setattr(verify, name, self._timed(name, fn))

    def _timed(self, name, fn):
        def timed(*args, **kwargs):
            if self.tracer is not None:
                self.tracer.op = len(self.records)
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.records.append((time.perf_counter() - t0, bool(result.passed), name))
            return result

        return timed

    def run_pass(self, tally: Tally, tracer=None) -> list[float]:
        self.records = []
        self.tracer = tracer
        try:
            results = self.verify.run_suite(self.suite_seed, self.verify.FULL)
            tally.record(len(results) == len(self.records), "suite ran a check outside the timer")
        except Exception as exc:
            tally.record(False, f"run_suite raised {exc!r}")
        for seconds, passed, name in self.records:
            tally.record(passed, name)
        return [seconds for seconds, _, _ in self.records]


def percentile_ms(latencies, q: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1000


def worker(args) -> int:
    """Worker ``args.worker`` of WORKERS: set-up, its share of the passes
    and of the checks.  Prints its raw measurements as one JSON line."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import cremona3
    except ImportError as exc:
        print(f"error: cannot import cremona3 from {SRC}: {exc}", file=sys.stderr)
        return 2
    t1 = time.perf_counter()
    cremona3.standard_objects()
    t2 = time.perf_counter()
    if not Path(cremona3.__file__).resolve().is_relative_to(SRC):
        print(f"error: cremona3 was imported from {cremona3.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads as wl
    from independent import Independent, load_oracle
    from tracer import Tracer, metric_catalogue

    k = args.worker
    first = k == 0
    if first:
        backend = getattr(cremona3, "backend_name", None)
        env = {
            "python": platform.python_version(),
            "git_revision": git_revision(),
            "nproc": os.cpu_count(),
            "backend": backend() if backend else None,
        }
        print("# env " + json.dumps(env))

    tally = Tally()
    independent = Independent(load_oracle(ROOT))

    def closed_form(d):
        return independent.reconstruct(d.alpha, dict(d.w.terms), dict(d.q.terms))

    name = args.workload
    cases = []
    if name == "paper-full":
        import cremona3.verify as verify

        suite = PaperSuite(verify, wl.SUITE_SEED)
        run_pass = suite.run_pass
        inputs = f"run_suite seed={wl.SUITE_SEED} profile=FULL"
    else:
        make, run_case = {
            "centralizer-roundtrip": (wl.roundtrip_cases, wl.run_roundtrip),
            "centralizer-reject": (lambda seed: wl.reject_cases(seed, closed_form), wl.run_reject),
            "tame-words": (wl.tame_cases, wl.run_tame),
        }[name]
        cases = make(args.seed)

        def run_pass(tally, tracer=None):
            return run_cases(cases, run_case, tally, tracer)

        inputs = f"{len(cases)} ops digest={wl.digest(cases)}"
    if first:
        print(f"# inputs {inputs}")

    # Timed phase: whole passes until this worker's share of the time is
    # up and it ran its share of the ops.
    passes = []
    start = time.perf_counter()
    while (
        time.perf_counter() - start < args.seconds / WORKERS
        or sum(map(len, passes)) * WORKERS < MIN_OPS
    ):
        passes.append(run_pass(tally))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layer, traced_s = None, None
    if args.trace and first:
        tracer = Tracer()
        # Per-layer counts come from exactly one traced pass, so they repeat.
        tracer.install()
        traced_s = sum(run_pass(tally, tracer))
        tracer.uninstall()
        values = tracer.metrics()
        values["nagata.standard_objects.setup_s"] = t2 - t1
        layer = {m: {"value": values.get(m, 0), "unit": unit} for m, unit in metric_catalogue()}
        if tracer.absent:
            print("# absent " + " ".join(tracer.absent))

    # Independent check of a seeded sample, outside the timed phase.
    sample = random.Random(f"oracle:{name}:{args.seed}").sample(cases, min(ORACLE_SAMPLE, len(cases)))
    for case in sample[k::WORKERS]:
        if name == "centralizer-roundtrip":
            f = cremona3.reconstruct(case.payload)
            tally.record(tuple(dict(c.terms) for c in f.components) == closed_form(case.payload),
                         "reconstruct differs from the closed form")
        elif name == "centralizer-reject":
            got = independent.shear_commutator([dict(c.terms) for c in case.payload.f.components])
            tally.record(got == case.payload.commutator(), "commutator differs from the constructed one")

    cli_s = []
    if not args.trace:
        with tempfile.TemporaryDirectory(prefix=".bench_tmp", dir=ROOT) as tmp:
            calls = wl.cli_calls(name, cases, WORKERS * CLI_PER_WORKER, lambda i: Path(tmp) / f"word{i}.txt")
            for call in calls[k * CLI_PER_WORKER : (k + 1) * CLI_PER_WORKER]:
                t = time.perf_counter()
                out = subprocess.run(
                    [sys.executable, "-m", "cremona3", *call.argv],
                    cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                )
                cli_s.append(time.perf_counter() - t)
                ok = out.returncode == call.exit_code and call.check(out.stdout)
                tally.record(ok, f"cli {call.argv[0]} exit {out.returncode}: {out.stderr.strip()[:200]}")

    print(json.dumps({
        "setup_s": t2 - t0,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "cli_s": cli_s,
        "layer": layer,
        "traced_s": traced_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
    }))
    return 0


def run_child(workload, args, timeout, *extra):
    """Run this script on ``workload`` in a child process.

    Echoes the child's comment lines and returns (exit code, result line
    as a dict), or (nonzero code, None) when the child failed.
    """
    out = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        print(f"error: {workload} {' '.join(extra)} exited {out.returncode}", file=sys.stderr)
        return out.returncode or 1, None
    if lines[:-1]:
        print("\n".join(lines[:-1]))
    return 0, json.loads(lines[-1])


def run_workload(args) -> int:
    """WORKERS fresh worker processes, one after another, pooled.

    A fresh process can keep its own speed for its whole life: in one
    measurement on identical inputs, the pass medians of four fresh
    processes differed by up to 25% while the passes inside each stayed
    within about 10%.  Pooling passes from several processes averages
    that out.
    """
    results = []
    for k in range(WORKERS):
        code, result = run_child(args.workload, args, CHILD_TIMEOUT_S, "--worker", str(k))
        if result is None:
            return code
        results.append(result)

    passes = [p for r in results for p in r["passes"]]
    # A pass with each op at its median latency over all passes.
    wall_s = sum(statistics.median(op) for op in zip(*passes))
    print(f"# timed {len(passes)} passes, {sum(map(len, passes))} ops in {WORKERS} workers")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.trace:
        metrics = results[0]["layer"]
        metrics["trace.overhead_ratio"]["value"] = results[0]["traced_s"] / wall_s
    else:
        setups = [r["setup_s"] for r in results] + [setup_probe() for _ in range(SETUP_PROBES)]
        latencies = [x for p in passes for x in p]
        values = {
            "wall_s": wall_s,
            "op_p50_ms": percentile_ms(latencies, 50),
            "op_p90_ms": percentile_ms(latencies, 90),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
            "cli_cold_s": statistics.median(t for r in results for t in r["cli_s"]),
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END.items()}

    for m, v in metrics.items():
        print(f"{args.workload} {m} {v['value']:.6g} {v['unit']}")
    print(f"{args.workload} error_rate {failed / attempted:.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a table of every metric."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        code, result = run_child(name, args, WORKERS * CHILD_TIMEOUT_S)
        if result is None:
            return code
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for m, v in result["metrics"].items():
            summary["metrics"][f"{name}/{m}"] = v
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help="internal: run as worker K of one run")
    args = parser.parse_args(argv)
    if args.worker is not None:
        return worker(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
