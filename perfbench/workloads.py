"""The four benchmark workloads: their inputs, job lists and output checks.

Each workload is a closed loop with one client: a job starts only when the
previous one has finished.  A CLI job calls ``betachow.cli.main`` in this
process with ``--workers 1`` and ``--out`` into the run's work directory;
the reverify job calls ``betachow.search.load_solution_set`` directly.
Both are looked up on their module at call time, so the tracer's wrappers
are the ones called when it is installed.

Paths handed to the program are relative to the work directory, because
the program echoes its forms path into every output header; that keeps the
outputs of one seed byte-identical across checkouts.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import inputs

COR12_BOX = 100
SINT_BOX = 12
THM11_BOX = 25
THM16_BOX = 4
CHECKPOINT_BOX = 4
GROWTH_BOX = 10
GROWTH_STEPS = "3,5,10"
REVERIFY_LOOPS = 12
SUBSPACE_SAMPLES = 150
SUBSPACE_HI_SAMPLES = 40
LEVINDUKE_SAMPLES = 3000
VERIFY_ARGS = ["--chow-n-hi", "7", "--beta-n-hi", "12", "--q-mult", "20"]


@dataclass
class Result:
    rc: int
    output: bytes          # the --out file followed by captured stdout
    stderr: str
    seconds: float
    extra: dict = field(default_factory=dict)


@dataclass
class Job:
    name: str                                   # metric cmd.<name>_s
    run: Callable[["Context"], Result]
    check: Callable[["Context", Result], list[str]] = lambda ctx, res: []
    prepare: Callable[["Context"], None] = lambda ctx: None   # untimed


@dataclass
class Context:
    """Work directory plus the generated inputs the checks need."""

    workdir: Path
    seed: int
    data: dict = field(default_factory=dict)
    last: dict[str, Result] = field(default_factory=dict)   # this repeat


@dataclass
class Workload:
    name: str
    uses_seed: bool
    make_inputs: Callable[[Context], None]
    jobs: list[Job]
    dominant_layers: tuple[str, ...]     # must read nonzero calls when traced


# ---------------------------------------------------------------------------
# running one job
# ---------------------------------------------------------------------------

def cli_job(name: str, argv, check=None, prepare=None) -> Job:
    """argv is a list, or a function of the Context giving one."""
    out = f"out-{name}.txt"

    def run(ctx: Context) -> Result:
        import betachow.cli
        args = argv(ctx) if callable(argv) else argv
        path = ctx.workdir / out
        path.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = betachow.cli.main([*args, "--workers", "1", "--out", out])
        seconds = perf_counter() - start
        body = path.read_bytes() if path.exists() else b""
        return Result(rc, body + stdout.getvalue().encode(), stderr.getvalue(), seconds)

    job = Job(name, run)
    if check is not None:
        job.check = check
    if prepare is not None:
        job.prepare = prepare
    return job


def records(res: Result) -> list[dict]:
    """Solution records of a JSON solution-set output (header skipped)."""
    lines = res.output.decode().splitlines()
    return [json.loads(line) for line in lines[1:] if line.startswith('{"point"')]


def _points(res: Result) -> list[tuple[Fraction, ...]]:
    return [tuple(Fraction(c) for c in rec["point"]) for rec in records(res)]


# ---------------------------------------------------------------------------
# stdlib re-checks of reported points
# ---------------------------------------------------------------------------

def _strip(n: int, primes: tuple[int, ...]) -> int:
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def _cor12_ok(point, g: list[int], s_primes: tuple[int, ...]) -> bool:
    """(1 - sum x) * prod x divides g(x) in the S-integers."""
    a = 1 - sum(point)
    for x in point:
        a *= x
    b = g[0] + sum(c * x for c, x in zip(g[1:], point))
    if a == 0:
        return b == 0
    if not s_primes:
        return Fraction(b).denominator == 1 and int(b) % int(a) == 0
    return _strip((Fraction(b) / a).denominator, s_primes) == 1


def cor12_check(g_key: str, s_primes: tuple[int, ...]):
    def check(ctx: Context, res: Result) -> list[str]:
        g = ctx.data[g_key]
        bad = [p for p in _points(res) if not _cor12_ok(p, g, s_primes)]
        return [f"point {[str(c) for c in p]} fails the cor12 predicate"
                for p in bad[:3]]
    return check


def thm11_check(ctx: Context, res: Result) -> list[str]:
    forms, g_line = ctx.data["thm11_forms"], ctx.data["thm11_g"]
    out = []
    for p in _points(res):
        xs = [int(c) for c in p]
        gval = sum(c * x for c, x in zip(g_line, xs))
        for f in forms:
            v = sum(c * x for c, x in zip(f, xs))
            if v == 0 or gval == 0 or gval % v != 0:
                out.append(f"point {xs} fails F | G for F = {f}")
                break
    return out[:3]


# ---------------------------------------------------------------------------
# search-scan
# ---------------------------------------------------------------------------

def scan_inputs(ctx: Context):
    rng = inputs.workload_rng("search-scan", ctx.seed)
    g = inputs.linear_g(rng, 30)
    (ctx.workdir / "scan-g.txt").write_text(inputs.form_text(g, -1) + "\n")
    five = inputs.draw_lines(rng, 5, 2)
    while True:
        g_line = inputs.draw_lines(rng, 1, 30)[0]
        if inputs.in_general_position(five + [g_line]):
            break
    inputs.write_lines(ctx.workdir / "scan-thm11.txt", five, g_line)
    inputs.write_lines(ctx.workdir / "scan-thm16.txt", inputs.draw_lines(rng, 6, 3))
    (ctx.workdir / "one.txt").write_text("1\n")
    ctx.data |= {"cor12_g": g, "one": [1, 0, 0], "thm11_forms": five,
                 "thm11_g": g_line}


SCAN = Workload("search-scan", True, scan_inputs, [
    cli_job("cor12", ["search", "cor12", "--forms", "scan-g.txt", "--box",
                      str(COR12_BOX), "--dim", "2", "--format", "json"],
            check=cor12_check("cor12_g", ())),
    cli_job("cor12_sint", ["search", "cor12", "--forms", "one.txt", "--box",
                           str(SINT_BOX), "--dim", "2", "--s-primes", "2,3",
                           "--denom-cap", "2", "--format", "json"],
            check=cor12_check("one", (2, 3))),
    cli_job("thm11", ["search", "thm11", "--forms", "scan-thm11.txt", "--mode", "i",
                      "--box", str(THM11_BOX), "--dim", "2", "--format", "json"],
            check=thm11_check),
    cli_job("thm16", ["search", "thm16", "--forms", "scan-thm16.txt", "--box",
                      str(THM16_BOX), "--dim", "2", "--format", "json"]),
], ("cli", "search", "poly", "linalg", "reporting"))


# ---------------------------------------------------------------------------
# search-persist
# ---------------------------------------------------------------------------

def persist_inputs(ctx: Context):
    rng = inputs.workload_rng("search-persist", ctx.seed)
    inputs.write_lines(ctx.workdir / "persist-thm16.txt", inputs.draw_lines(rng, 6, 3))
    (ctx.workdir / "one.txt").write_text("1\n")
    ctx.data["one"] = [1, 0, 0]


def _fresh_checkpoint(ctx: Context):
    (ctx.workdir / "full.ckpt").unlink(missing_ok=True)


def _count_checkpoint(ctx: Context, res: Result) -> list[str]:
    """No check beyond the exit code; records the checkpoint file's size."""
    res.extra["checkpoint_bytes"] = (ctx.workdir / "full.ckpt").stat().st_size
    return []


def _half_checkpoint(ctx: Context):
    lines = (ctx.workdir / "full.ckpt").read_text().splitlines(keepends=True)
    (ctx.workdir / "half.ckpt").write_text("".join(lines[:len(lines) // 2]))
    ctx.data["half_bytes"] = (ctx.workdir / "half.ckpt").stat().st_size


def _resume_check(ctx: Context, res: Result) -> list[str]:
    """The resumed run must print what the uninterrupted run printed; also
    records how many bytes the resume appended to the checkpoint."""
    grown = (ctx.workdir / "half.ckpt").stat().st_size - ctx.data["half_bytes"]
    res.extra["checkpoint_bytes"] = grown
    if res.output != ctx.last["checkpoint"].output:
        return ["resumed output differs from the uninterrupted checkpointed run"]
    return []


REVERIFY_FILES = ("out-checkpoint.txt", "out-growth.txt")


def reverify_run(ctx: Context) -> Result:
    """Reload both saved solution files with re-verification, REVERIFY_LOOPS
    times; the output is the reloaded sets rendered as JSON lines."""
    import betachow.search
    start = perf_counter()
    for _ in range(REVERIFY_LOOPS):
        sets = [betachow.search.load_solution_set(str(ctx.workdir / name), reverify=True)
                for name in REVERIFY_FILES]
    seconds = perf_counter() - start
    lines = [json.dumps({"file": name, "descriptor": sols.descriptor,
                         "points": [[str(c) for c in p] for p in sols.points]},
                        sort_keys=True)
             for name, sols in zip(REVERIFY_FILES, sets)]
    return Result(0, ("\n".join(lines) + "\n").encode(), "", seconds)


def reverify_check(ctx: Context, res: Result) -> list[str]:
    out = []
    for line, name in zip(res.output.decode().splitlines(), REVERIFY_FILES):
        source = ctx.last["checkpoint" if name == REVERIFY_FILES[0] else "growth"]
        if len(json.loads(line)["points"]) != len(records(source)):
            out.append(f"{name}: reloaded point count differs from the file")
    return out


def _growth_check(ctx: Context, res: Result) -> list[str]:
    out = cor12_check("one", (2, 3))(ctx, res)
    report = json.loads(res.output.decode().splitlines()[-1])
    if [b for b, _ in report["growth"]] != [int(b) for b in GROWTH_STEPS.split(",")]:
        out.append("degeneracy report lacks the growth curve")
    return out


PERSIST = Workload("search-persist", True, persist_inputs, [
    cli_job("checkpoint", ["search", "thm16", "--forms", "persist-thm16.txt",
                           "--box", str(CHECKPOINT_BOX), "--dim", "2", "--format",
                           "json", "--checkpoint", "full.ckpt"],
            check=_count_checkpoint, prepare=_fresh_checkpoint),
    cli_job("resume", ["search", "thm16", "--forms", "persist-thm16.txt",
                       "--box", str(CHECKPOINT_BOX), "--dim", "2", "--format",
                       "json", "--checkpoint", "half.ckpt"],
            check=_resume_check, prepare=_half_checkpoint),
    cli_job("growth", ["search", "cor12", "--forms", "one.txt", "--box",
                       str(GROWTH_BOX), "--dim", "2", "--s-primes", "2,3",
                       "--denom-cap", "2", "--format", "json", "--degeneracy", "4",
                       "--growth", GROWTH_STEPS],
            check=_growth_check),
    Job("reverify", reverify_run, reverify_check),
], ("cli", "search", "poly", "linalg"))


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def audit_inputs(ctx: Context):
    (ctx.workdir / "subspace.txt").write_text("x0\nx1\nx2\nx0 + x1 + x2\n")
    (ctx.workdir / "coords.txt").write_text("x0\nx1\nx2\n")


def _audit(name: str, kind: str, forms: str, samples: int, height: int) -> Job:
    return cli_job(name, lambda ctx: [
        "audit", kind, "--forms", forms, "--samples", str(samples),
        "--height-bound", str(height), "--seed", str(ctx.seed), "--format", "json"])


AUDIT = Workload("audit", True, audit_inputs, [
    _audit("subspace", "subspace", "subspace.txt", SUBSPACE_SAMPLES, 10 ** 6),
    _audit("subspace_hi", "subspace", "subspace.txt", SUBSPACE_HI_SAMPLES, 10 ** 12),
    _audit("levinduke", "levinduke", "coords.txt", LEVINDUKE_SAMPLES, 10 ** 12),
], ("cli", "audits", "heights", "primes", "reporting"))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY = Workload("verify", False, lambda ctx: None, [
    cli_job("verify", ["verify", *VERIFY_ARGS]),   # checked: exits 0
], ("cli", "chow", "beta", "reporting"))

WORKLOADS = {w.name: w for w in (SCAN, PERSIST, AUDIT, VERIFY)}
