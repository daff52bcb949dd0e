#!/usr/bin/env python3
"""Benchmark of the cac checker: time to verdict, set-up time, memory and
output drift on one workload, or a traced per-module breakdown.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 12 --trace 0

Run it from anywhere inside a checkout of the repository; it imports cac
from the checkout's src/ and reads and writes only inside the checkout
(generated inputs, reports and span dumps go to .perfbench/).  Load comes
from one client in a closed loop: each job starts after the previous one
returns, in this one process, with no threads.  A job is one call of
`cac.cli.main` with its output captured, exactly as the CLI runs it.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones, measured untraced, with times given at the reference speed of the
yardstick (see README.md); with `--trace 1` they are the per-layer
metrics of the traced run (see tracer.py).  Two more modes serve the
pinned stdout digests in digests.json: `--digests` prints this
workload's digests after one pass, and `--selfcheck` checks that two
passes in this process and two fresh processes give the same digests as
the pins.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = Path(".perfbench")          # relative to ROOT
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
MIN_PASSES = 3                    # timed passes, whatever --seconds says
MIN_TRACED = 2                    # traced passes, so counters can be compared
SETUP_PROBES = 11                 # fresh processes per set-up measurement
BLOCK_S = 0.5                     # seconds of jobs between yardstick readings
# The yardstick's time on the tuning machine in a quiet spell.  Times are
# reported at this speed, so that the machine's own drift cancels out.
REF_S = 0.060
PROBE_TIMEOUT = 60


# Public functions whose calls the traced run reports as `<name>.calls`.
COUNTED = (
    "rewriting.step", "rewriting.match_first_order", "rewriting.reduce_one",
    "rewriting.normalize", "rewriting.critical_pairs", "rewriting.unify",
    "rewriting.rename_apart", "terms.alpha_eq", "terms.subst_apply",
    "terms.free_vars", "terms.open_", "signature.Precedence.gt",
    "orderings.rpo_greater", "typing.TypeChecker.infer",
    "typing.TypeChecker.convertible", "schema.cc_check",
    "positivity.polarity", "printer.pp",
)
# Functions whose own self time the traced run reports.
SELF_TIMED = ("rewriting.normalize", "rewriting.joinable",
              "rewriting.critical_pairs", "signature.Precedence.gt")
MODULES = ("syntax", "signature", "terms", "typing", "rewriting", "orderings",
           "positivity", "schema", "cic", "admissibility", "printer", "cli")

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
import cac
t1 = time.perf_counter()
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as f:
        source = f.read()
    try:
        cac.load(source)
    except Exception:
        pass  # a load that fails still counts towards set-up time
print(t1 - t0, time.perf_counter() - t1)
"""


# ---------------------------------------------------------------------------
# running jobs

def run_job(cli_main, job):
    """(exit code, stdout, escaped exception name) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(job.argv))
    except Exception as e:  # an escaping exception is what error_ratio counts
        return None, out.getvalue(), type(e).__name__
    return code, out.getvalue(), None


def run_pass(cli_main, jobs, tracer=None):
    """One pass over the jobs: (wall seconds, results, per-job traced
    counts of the pinned functions)."""
    results, counts = [], []
    t0 = perf_counter()
    for i, job in enumerate(jobs):
        if tracer is None:
            results.append(run_job(cli_main, job))
        else:
            before = {k: tracer.calls[k] for k in job.calls}
            with tracer.job(i):
                results.append(run_job(cli_main, job))
            counts.append({k: tracer.calls[k] - before[k] for k in job.calls})
    return perf_counter() - t0, results, counts


def digest(job, stdout: str) -> str:
    return hashlib.sha256(job.canon(stdout).encode("utf-8")).hexdigest()


class Tally:
    """Outcomes of every job run, against the oracle and the pins."""

    def __init__(self, pins: dict):
        self.pins = pins
        self.attempted = self.errors = self.wrong = self.drift = 0
        self.notes: Counter = Counter()

    def add(self, jobs, results) -> None:
        for job, (code, out, exc) in zip(jobs, results):
            self.attempted += 1
            if job.pinned and digest(job, out) != self.pins.get(job.name):
                self.drift += 1
                self._note(job, "stdout differs from the pinned digest")
            if exc is not None or code not in (0, 1):
                self.errors += 1
                self._note(job, f"error: {exc or f'exit {code}'}")
                continue
            try:
                why = job.expect(code, out)
            except (ValueError, KeyError, IndexError, TypeError) as e:
                why = f"unreadable output: {e!r}"
            if why is not None:
                self.wrong += 1
                self._note(job, f"wrong: {why}")

    def _note(self, job, what: str) -> None:
        self.notes[f"{job.name}: {what}"] += 1

    def ratio(self, n: int) -> float:
        return n / self.attempted


# ---------------------------------------------------------------------------
# measurements

def yardstick() -> float:
    """Seconds for a fixed computation that shares no code with cac:
    Peano addition by rewriting nested tuples.  The collector is off, so
    the heap that cac leaves behind does not bear on it."""
    def num(k):
        t = ("z",)
        for _ in range(k):
            t = ("s", t)
        return t

    def step(t):
        if t[0] == "add":
            return t[2] if t[1][0] == "z" else ("s", ("add", t[1][1], t[2]))
        if t[0] == "s":
            r = step(t[1])
            return None if r is None else ("s", r)
        return None

    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(40):
            t = ("add", num(150), num(150))
            while (r := step(t)) is not None:
                t = r
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(seconds: float, readings) -> float:
    """`seconds` measured while the yardstick read `readings`, rescaled to
    a machine on which the yardstick takes REF_S."""
    return seconds * REF_S / statistics.median(readings)


def setup_seconds(files):
    """Median seconds, at reference speed, over fresh interpreters run one
    at a time, to import cac and load every input file; and the raw
    readings."""
    walls, splits, refs = [], [], [yardstick()]
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, *files],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=PROBE_TIMEOUT, check=True)
        walls.append(perf_counter() - t0)
        splits.append([float(x) for x in proc.stdout.split()])
        refs.append(yardstick())
    median = statistics.median(walls)
    return at_reference_speed(median, refs), {
        "median_s": median, "probes_s": walls, "import_and_load_s": splits,
        "yardstick_s": refs}


def timed_passes(cli_main, jobs, seconds: float, tally):
    """Timed passes for `seconds`, at least MIN_PASSES, reading the
    yardstick at the first job boundary after every BLOCK_S.  Returns the
    pass times (each the sum of its jobs' times, so the readings are left
    out), the per-job times and the readings."""
    passes, per_job, refs = [], [[] for _ in jobs], [yardstick()]
    block = perf_counter()
    deadline = block + seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        passes.append(0.0)
        results = []
        for acc, job in zip(per_job, jobs):
            t0 = perf_counter()
            results.append(run_job(cli_main, job))
            t = perf_counter() - t0
            passes[-1] += t
            acc.append(t)
            if perf_counter() - block >= BLOCK_S:
                refs.append(yardstick())
                block = perf_counter()
        tally.add(jobs, results)
    refs.append(yardstick())
    return passes, per_job, refs


def peak_mib(cli_main, jobs, tally) -> float:
    """Peak traced Python heap over one untimed pass, in MiB.  The pass
    runs the jobs in name order and collects garbage before each, because
    memory a job leaves behind raises the peak of the jobs after it: the
    peak then depends on neither the seed's order nor the collector's
    timing."""
    jobs = sorted(jobs, key=lambda j: j.name)
    results = []
    tracemalloc.start()
    try:
        for job in jobs:
            gc.collect()
            results.append(run_job(cli_main, job))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tally.add(jobs, results)
    return peak / 2**20


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def high_percentile(values):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value), or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def environment() -> dict:
    git = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            git = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "cac").rglob("*")):
        if p.suffix in (".py", ".cac"):
            src.update(p.relative_to(ROOT).as_posix().encode() + b"\0")
            src.update(p.read_bytes())
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "git_sha": git, "src_sha256": src.hexdigest(),
            "loadavg_at_start": list(os.getloadavg())}


# ---------------------------------------------------------------------------
# the two kinds of run

def end_to_end(cli_main, jobs, seconds: float, tally: Tally, report: dict):
    files = sorted({f for job in jobs for f in job.files})
    setup_s, report["setup"] = setup_seconds(files)
    mem = peak_mib(cli_main, jobs, tally)       # also the warm-up pass
    passes, per_job, refs = timed_passes(cli_main, jobs, seconds, tally)
    wall_s = at_reference_speed(statistics.median(passes), refs)
    hp = high_percentile(passes)
    report["passes"] = {
        "count": len(passes), "median_s": statistics.median(passes),
        "min_s": min(passes), "spread": spread(passes),
        "high_percentile": None if hp is None else {
            "percentile": hp[0], "value_s": hp[1]},
        "all_s": passes, "yardstick_s": refs,
        "at_reference_speed": {
            "median_s": wall_s, "high_percentile_s": None if hp is None
            else at_reference_speed(hp[1], refs)}}
    # one row per job; scaling ratios use each job's fastest run
    best = {job.name: min(ts) for job, ts in zip(jobs, per_job)}
    report["jobs_s"] = {
        job.name: {"min": min(ts), "median": statistics.median(ts),
                   "spread": spread(ts)}
        for job, ts in sorted(zip(jobs, per_job), key=lambda jt: jt[0].name)}
    report["scaling"] = [
        {"ratio": f"{a} / {b}", "value": best[a] / best[b], "base_s": best[b]}
        for a, b in workloads.SCALING.get(report["workload"], [])]
    return {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_mib": (mem, "MiB"),
        "clean_ratio": (1.0 - tally.ratio(tally.errors), "ratio"),
        "right_ratio": (1.0 - tally.ratio(tally.wrong), "ratio"),
        "nodrift_ratio": (1.0 - tally.ratio(tally.drift), "ratio"),
    }, []


def _traced_counts(tr) -> dict:
    counts = {f"{k}.calls": tr.calls.get(k, 0) for k in COUNTED}
    for k in ("rewriting.match_first_order", "rewriting.unify"):
        counts[f"{k}.hit_ratio"] = (tr.hits.get(k, 0) / tr.outer[k]
                                    if tr.outer.get(k) else 0.0)
    counts["rewriting.fuel_exhausted"] = tr.fuel_exhausted
    counts["syntax.tokens"] = tr.tokens
    return counts


def traced(cli_main, jobs, seconds: float, tally: Tally, report: dict,
           seed: int):
    import cac
    package = Path(cac.__file__).parent
    problems = set()
    _, results, _ = run_pass(cli_main, jobs)                # warm-up
    tally.add(jobs, results)
    plain_digests = [digest(j, r[1]) for j, r in zip(jobs, results)]
    plain, runs = [], []
    deadline = perf_counter() + seconds
    while (len(runs) < MIN_TRACED or perf_counter() < deadline):
        wall, results, _ = run_pass(cli_main, jobs)
        tally.add(jobs, results)
        plain.append(wall)
        tr = Tracer(str(package), cac.FuelExhausted)
        wall, results, counts = run_pass(cli_main, jobs, tr)
        tally.add(jobs, results)
        runs.append((wall, tr, counts))
        for job, r, want in zip(jobs, results, plain_digests):
            if digest(job, r[1]) != want:
                problems.add(f"{job.name}: traced stdout differs from "
                             "untraced stdout")
        for job, got in zip(jobs, counts):
            if got != job.calls:
                problems.add(f"{job.name}: traced calls {got}, "
                             f"expected {job.calls}")
    first = _traced_counts(runs[0][1])
    for _, tr, _ in runs[1:]:
        if _traced_counts(tr) != first:
            problems.add("traced counters differ between passes")
    metrics = {k: (v, "ratio" if k.endswith("hit_ratio") else "count")
               for k, v in first.items()}
    selfs = [tr.self_times() for _, tr, _ in runs]
    for m in MODULES:
        metrics[f"{m}.self_s"] = (statistics.median(
            s[1].get(m, 0.0) for s in selfs), "s")
    for k in SELF_TIMED:
        metrics[f"{k}.self_s"] = (statistics.median(
            s[0].get(k, 0.0) for s in selfs), "s")
    traced_wall = statistics.median(w for w, _, _ in runs)
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(plain), "s")
    report["traced_passes_s"] = [w for w, _, _ in runs]
    report["untraced_passes_s"] = plain
    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    report["span_files"] = []
    for k, (_, tr, _) in enumerate(runs):
        path = trace_dir / f"{report['workload']}-seed{seed}-pass{k}.tsv"
        tr.dump(path)
        report["span_files"].append(path.as_posix())
    return metrics, sorted(problems)


# ---------------------------------------------------------------------------

def load_pins(workload: str) -> dict:
    with open(DIGESTS, encoding="utf-8") as f:
        return json.load(f).get(workload, {})


def pass_digests(cli_main, jobs) -> dict:
    _, results, _ = run_pass(cli_main, jobs)
    return {j.name: digest(j, r[1])
            for j, r in sorted(zip(jobs, results), key=lambda jr: jr[0].name)
            if j.pinned}


def selfcheck(cli_main, jobs, args) -> int:
    """Two passes here and two fresh processes must give the same
    digests, equal to the pins."""
    runs = [pass_digests(cli_main, jobs) for _ in range(2)]
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--digests",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=600, check=True)
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    pins = load_pins(args.workload)
    same = all(r == runs[0] for r in runs) and runs[0] == pins
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "identical": all(r == runs[0] for r in runs),
                      "match_pins": runs[0] == pins}))
    return 0 if same else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--digests", action="store_true",
                      help="print the pinned jobs' stdout digests")
    mode.add_argument("--selfcheck", action="store_true",
                      help="check that digests repeat and match the pins")
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    if not (ROOT / "src" / "cac" / "__init__.py").is_file():
        print(f"error: no cac sources under {ROOT / 'src' / 'cac'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import cac
    import cac.cli
    if Path(cac.__file__).resolve().parent != ROOT / "src" / "cac":
        print(f"error: imported cac from {cac.__file__}", file=sys.stderr)
        return 2

    jobs = workloads.build(args.workload, args.seed, OUT / "work")
    if args.digests:
        print(json.dumps(pass_digests(cac.cli.main, jobs), sort_keys=True))
        return 0
    if args.selfcheck:
        return selfcheck(cac.cli.main, jobs, args)

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "jobs": [j.name for j in jobs], "environment": environment()}
    tally = Tally(load_pins(args.workload))
    if args.trace:
        metrics, problems = traced(cac.cli.main, jobs, args.seconds, tally,
                                   report, args.seed)
    else:
        metrics, problems = end_to_end(cac.cli.main, jobs, args.seconds,
                                       tally, report)
    report.update({"attempted": tally.attempted, "errors": tally.errors,
                   "wrong": tally.wrong, "drift": tally.drift,
                   "error_ratio": tally.ratio(tally.errors),
                   "wrong_ratio": tally.ratio(tally.wrong),
                   "drift_ratio": tally.ratio(tally.drift),
                   "outcomes": tally.notes, "problems": problems,
                   "metrics": {k: v for k, (v, _) in metrics.items()}})
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} report={path.as_posix()}")
    if "passes" in report:
        p = report["passes"]
        high = p["high_percentile"]
        print(f"#   {p['count']} passes: median {p['median_s']:.6f} s, "
              f"spread {p['spread']:.3f}"
              + ("" if high is None else
                 f", p{high['percentile']:.1f} {high['value_s']:.6f} s")
              + f"; at reference speed {p['at_reference_speed']['median_s']:.6f} s")
    for name, t in report.get("jobs_s", {}).items():
        print(f"#   {name:32s} min {t['min']:.6f} s  median "
              f"{t['median']:.6f} s  spread {t['spread']:.3f}")
    for s in report.get("scaling", []):
        print(f"#   scaling {s['ratio']} = {s['value']:.3f} "
              f"(base {s['base_s']:.6f} s)")
    for note, n in sorted(tally.notes.items()):
        print(f"#   {n} x {note}")
    for p in problems:
        print(f"#   problem: {p}")
    correct = tally.wrong == 0 and tally.drift == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.errors,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
