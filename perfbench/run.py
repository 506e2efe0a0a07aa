"""Benchmark for the betachow CLI: seeded workloads, end-to-end times, and
an outside-in layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search-scan --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload's job list for ``--seconds`` seconds with
tracing off and reports the end-to-end metrics; ``--trace 1`` runs the job
list once untraced and twice traced and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
PINS = HERE / "pins.json"
DEFAULT_SEED = 1
MIN_REPEATS = 3
SETUP_PER_REPEAT = 2
TIME_LIMIT_S = 120          # never start a repeat that would end later

SETUP_CODE = ("import time\n"
              "t = time.perf_counter()\n"
              "import betachow.cli\n"
              "betachow.cli.build_parser()\n"
              "print(repr(time.perf_counter() - t))\n")

# Call counters reported by name: metric -> wrapped function whose calls it counts.
CALL_METRICS = {
    "search.divides_in_OS.calls": "search.divides_in_OS",
    "search.thm16_checks": "search.ideal_equality_thm16",
    "poly.general_position.calls": "poly.hyperplanes_general_position",
    "poly.evaluate.calls": "poly.MultiPoly.evaluate",
    "linalg.rank.calls": "linalg.rank",
    "linalg.rref.calls": "linalg.rref",
    "primes.factor.calls": "primes.factor",
    "primes.is_prime.calls": "primes.is_prime",
    "primes.vp.calls": "primes.vp",
    "heights.weil_local.calls": "heights.weil_local",
    "heights.support_primes.calls": "heights.support_primes",
    "chow.top_intersection.calls": "chow.top_intersection",
}
PROBE_METRICS = ("search.solutions", "primes.factor.max_bits", "audits.rows",
                 "reporting.bytes_out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help=f"record the output hashes of seed {DEFAULT_SEED} "
                             "as the pinned ones")
    args = parser.parse_args(argv)

    if not (SRC / "betachow" / "cli.py").is_file():
        print(f"error: no betachow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    os.environ.pop("BETACHOW_WORKERS", None)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.write_pins and args.seed != DEFAULT_SEED:
        print(f"error: pins are for seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        ctx = workloads.Context(workdir, args.seed)
        run = Run(workload, ctx, args)
        workload.make_inputs(ctx)
        metrics = run.traced() if args.trace else run.timed()
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()

    if args.write_pins:
        PINS.write_text(json.dumps(run.write_pins(), indent=1, sort_keys=True) + "\n")
    run.check_pins()
    run.summary(env, metrics)
    if args.trace:
        trace_file = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"env": env, "metrics": metrics,
                                          "trace": run.trace_json}, indent=1))
        print(f"trace written to {trace_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not run.failures, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_bytes", "bytes_out")):
        return "bytes"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Run:
    """Runs one workload's job list, checks every output, keeps the times."""

    def __init__(self, workload, ctx, args):
        self.workload, self.ctx, self.args = workload, ctx, args
        self.times: dict[str, list[float]] = {j.name: [] for j in workload.jobs}
        self.walls: list[float] = []
        self.hashes: dict[str, str] = {}
        self.failures: list[tuple[str, str]] = []
        self.attempted = 0
        self.failed = 0
        self.extra: dict[str, int] = {}
        self.setup: list[float] = []
        self.trace_json: dict = {}

    def repeat(self, label: str, tracer=None) -> float:
        """One pass over the job list; returns its wall time.  Job times are
        kept only for untraced passes."""
        self.ctx.last = {}
        self.extra = {}
        wall = 0.0
        for job in self.workload.jobs:
            try:
                job.prepare(self.ctx)
                gc.collect()
                if tracer is not None:
                    tracer.begin_job(f"{label}:{job.name}")
                start = perf_counter()
                res = job.run(self.ctx)
                wall += perf_counter() - start
                problems = [] if res.rc == 0 else [f"exit code {res.rc}: {res.stderr.strip()}"]
                problems += job.check(self.ctx, res)
            except Exception as exc:  # a crashing job is a failed job
                traceback.print_exc(file=sys.stderr)
                self.expect(job.name, False, f"{label}: raised {exc!r}")
                continue
            self.ctx.last[job.name] = res
            if tracer is None:
                self.times[job.name].append(res.seconds)
            digest = hashlib.sha256(res.output).hexdigest()
            if self.hashes.setdefault(job.name, digest) != digest:
                problems.append(f"{label} output differs from the first repeat")
            for key, value in res.extra.items():
                self.extra[key] = self.extra.get(key, 0) + value
            self.expect(job.name, not problems, "; ".join(problems))
        return wall

    def timed(self) -> dict[str, float]:
        """Repeat the job list for --seconds; after each repeat, time the
        set-up in SETUP_PER_REPEAT fresh interpreters, so the set-up samples
        span the same stretch of time as the job samples."""
        setup_time()                      # untimed: writes the bytecode caches
        start = perf_counter()
        while True:
            self.walls.append(self.repeat(f"repeat {len(self.walls) + 1}"))
            self.setup += [setup_time() for _ in range(SETUP_PER_REPEAT)]
            next_end = perf_counter() - start + statistics.median(self.walls)
            if next_end > TIME_LIMIT_S or (len(self.walls) >= MIN_REPEATS
                                           and next_end > self.args.seconds):
                break
        return {
            "wall_s": statistics.median(self.walls),
            "setup_s": statistics.median(self.setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def traced(self) -> dict[str, float]:
        from tracer import LAYERS, Tracer
        from workloads import WORKLOADS
        untraced = self.repeat("untraced")
        cmd = {name: ts[-1] for name, ts in self.times.items() if ts}
        passes = []
        for label in ("traced 1", "traced 2"):
            with Tracer() as tracer:
                stale = tracer.stale_bindings()
                wall = self.repeat(label, tracer)
            self.expect("trace-selftest", not stale, f"stale bindings: {stale}")
            passes.append((tracer, wall, dict(self.extra)))
        (t1, wall1, extra1), (_, wall2, _) = passes
        same = [(t.counts, t.fractions, t.probes, extra) for t, _, extra in passes]
        self.expect("trace-selftest", same[0] == same[1],
                    "counts differ between two traced passes")
        calls = t1.layer_calls()
        idle = [layer for layer in self.workload.dominant_layers if not calls[layer]]
        self.expect("trace-selftest", not idle,
                    f"layers read zero calls on {self.workload.name}: {idle}")
        self.trace_json = t1.to_json()

        selfs = t1.self_seconds()
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = selfs[layer]
            metrics[f"{layer}.calls"] = calls[layer]
            metrics[f"{layer}.fractions"] = t1.fractions[layer]
        for metric, fn in CALL_METRICS.items():
            metrics[metric] = t1.counts[fn]
        for name in PROBE_METRICS:
            metrics[name] = t1.probes.get(name, 0)
        metrics["cli.checkpoint_bytes"] = extra1.get("checkpoint_bytes", 0)
        checks = metrics["search.divides_in_OS.calls"] + metrics["search.thm16_checks"]
        metrics["search.hit_ratio"] = metrics["search.solutions"] / checks if checks else 0.0
        metrics["trace.overhead_s"] = statistics.median([wall1, wall2]) - untraced
        for job in (j for w in WORKLOADS.values() for j in w.jobs):
            metrics[f"cmd.{job.name}_s"] = cmd.get(job.name, 0.0)
        return metrics

    def expect(self, name: str, ok: bool, problem: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append((name, problem))

    def check_pins(self):
        if self.args.seed != DEFAULT_SEED or not PINS.exists():
            return
        pins = json.loads(PINS.read_text()).get(self.workload.name, {})
        for name, digest in self.hashes.items():
            self.expect(name, pins.get(name) == digest,
                        f"output sha256 {digest[:16]}.. does not match the "
                        f"pinned {str(pins.get(name))[:16]}..")

    def write_pins(self) -> dict:
        pins = json.loads(PINS.read_text()) if PINS.exists() else {}
        pins[self.workload.name] = dict(self.hashes)
        return pins

    def summary(self, env: dict, metrics: dict[str, float]):
        w, a = self.workload, self.args
        print(f"perfbench workload={w.name} seed={a.seed} default_seed={DEFAULT_SEED}"
              f" seconds={a.seconds:g} trace={a.trace}"
              + ("" if w.uses_seed else " (this workload ignores the seed)"))
        print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
        for name, ts in self.times.items():
            if ts:
                print(f"cmd.{name}_s {describe(ts)}")
        if not a.trace:
            print(f"wall_s {describe(self.walls)}")
            print(f"setup_s {describe(self.setup)} (fresh interpreters)")
        for name, value in metrics.items():
            print(f"metric {name} = {value!r} {unit(name)}")
        print(f"fail_ratio = {self.failed}/{self.attempted} = "
              f"{self.failed / self.attempted if self.attempted else 0:.4g}")
        for name, problem in self.failures:
            print(f"FAIL {name}: {problem}")


def describe(values: list[float]) -> str:
    """Median with its sample count, plus the highest percentile that has at
    least ten samples beyond it."""
    text = (f"median={statistics.median(values):.6g} s n={len(values)} "
            f"min={min(values):.6g} s max={max(values):.6g} s")
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[pct - 1]
            return text + f" p{pct}={cut:.6g} s"
    return text


def setup_time() -> float:
    """Seconds a fresh interpreter spends importing betachow.cli and
    building its parser, with bytecode caches enabled as in an install."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("BETACHOW_WORKERS", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip())


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "commit": commit(),
        "src_sha256": source_digest(),
    }


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "betachow").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main())
