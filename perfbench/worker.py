"""One benchmark run of one workload, in a process of its own.

Set-up imports the package from ``src/`` (no bytecode cache, so every
set-up compiles it) and, for ``requery``, fills an orbit cache with cold
queries and keeps a snapshot of it; set-up is repeated and its median
reported.  Then a closed loop with one client runs whole passes of jobs
until the run's seconds are spent.  Each job is one in-process call of
``origami_h2.cli.main(argv)`` with stdout captured, parsed and checked
against the oracles.  With ``--trace 1`` the run does one fixed pass
untraced, then the same pass traced, and reports per-layer metrics.

The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# set-up repeats at least 3 times, and up to 9 while the repeats stay under
# a second in total (import-only set-ups take about 20 ms each)
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 3, 9, 1.0

# every end-to-end metric: (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("surfaces_per_s", "1/s", "higher"),
    ("job_s_p50", "s", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


class Record(NamedTuple):
    job: workloads.Job
    seconds: float
    answer: Optional[object]
    problems: list

    @property
    def surfaces(self) -> int:
        """Census keys, or orbit surfaces, that a correct answer returned."""
        if self.problems:
            return 0
        if self.job.kind == "counts":
            return int(self.answer["total"])
        return self.answer["size" if self.job.kind == "orbit" else "d"]


def import_cli():
    """A fresh import of the package's command line (drops earlier imports)."""
    for name in [m for m in sys.modules if m == "origami_h2" or m.startswith("origami_h2.")]:
        del sys.modules[name]
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    return importlib.import_module("origami_h2.cli")


def call_cli(main, argv: list) -> tuple:
    """(seconds, exit status, stdout, stderr) of one ``main(argv)`` call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:  # the program crashed: a failed job, not a failed benchmark
        status = f"exception {exc!r}"
    return time.perf_counter() - start, status, out.getvalue(), err.getvalue()


def check(job: workloads.Job, status, stdout: str, stderr: str) -> tuple:
    """(parsed answer, problems) of one job's output."""
    if status != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return None, [f"exit status {status!r} {tail[0]}"]
    try:
        answer = oracle.PARSERS[job.kind](stdout)
    except (ValueError, KeyError) as exc:
        return None, [f"unparsable output: {exc}"]
    if job.kind == "counts":
        return answer, oracle.check_counts(job.n, answer)
    if job.kind == "orbit":
        return answer, oracle.check_orbit(job.n, job.label, answer)
    return answer, oracle.check_noncong(job.label, job.n, answer)


class Run:
    def __init__(self, workload: str, size: str, seed: int, work: Path):
        self.workload, self.size, self.seed = workload, size, seed
        self.cache_dir = work / "cache"
        self.snapshot = {}  # file name -> bytes of the warm cache
        self.reference = {}  # (kind, label, n) -> first computed answer
        self.cli = None

    def setup(self) -> None:
        """One repetition of set-up: import the package, warm the requery cache."""
        self.cli = import_cli()
        if self.workload != "requery":
            return
        self.reference.clear()
        _reset(self.cache_dir)
        for job in workloads.warm_jobs(self.size):
            rec = self.run_job(job, restore=False)
            if rec.problems:
                raise RuntimeError(f"set-up query {job.args} failed: {rec.problems}")
            self.reference[_orbit_id(job)] = rec.answer
        self.snapshot = {p.name: p.read_bytes() for p in self.cache_dir.iterdir()}

    def run_job(self, job: workloads.Job, restore: bool = True) -> Record:
        if restore:
            _reset(self.cache_dir)
            if job.cache == "warm":
                for name, data in self.snapshot.items():
                    (self.cache_dir / name).write_bytes(data)
        seconds, status, stdout, stderr = call_cli(self.cli.main, job.argv(str(self.cache_dir)))
        return Record(job, seconds, *check(job, status, stdout, stderr))

    def run_pass(self, index: int) -> list:
        return [self.run_job(job) for job in workloads.pass_jobs(self.workload, self.size, self.seed, index)]


def _orbit_id(job: workloads.Job) -> tuple:
    return job.kind, job.label, job.n


def cross_check(records: list, reference: dict) -> None:
    """Answers for one orbit must all equal the first answer the program computed.

    That compares answers read from a warm cache with computed ones, and
    computed ones with each other.  A mismatch is a failed job.
    """
    reference = dict(reference)
    answered = [r for r in records if not r.problems and r.job.kind != "counts"]
    for r in answered:
        if r.job.computed:
            reference.setdefault(_orbit_id(r.job), r.answer)
    for r in answered:
        ref = reference.get(_orbit_id(r.job), r.answer)
        if r.answer != ref:
            r.problems.append(f"answer differs from the computed one: {r.answer} vs {ref}")


def _reset(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def measure(run: Run, seconds: float) -> tuple:
    """Whole passes until ``seconds`` are spent, to the nearest half pass."""
    records, pass_walls = [], []
    begin = time.perf_counter()
    while True:
        recs = run.run_pass(len(pass_walls))
        records += recs
        pass_walls.append(sum(r.seconds for r in recs))
        elapsed = time.perf_counter() - begin
        per_pass = elapsed / len(pass_walls)
        if elapsed + per_pass > seconds + per_pass / 2:
            return records, pass_walls


def end_to_end(records: list, pass_walls: list, setup_times: list) -> dict:
    busy = sum(r.seconds for r in records)
    ok = sum(1 for r in records if not r.problems)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(pass_walls),
        "surfaces_per_s": sum(r.surfaces for r in records) / busy,
        "job_s_p50": statistics.median(r.seconds for r in records),
        "ok_ratio": ok / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)

    run = Run(args.workload, args.size, args.seed, args.work)
    setup_times = []  # a traced run reports no set-up time and sets up once
    while not setup_times or not args.trace and (
        len(setup_times) < SETUP_MIN_REPS
        or len(setup_times) < SETUP_MAX_REPS and sum(setup_times) < SETUP_BUDGET_S
    ):
        start = time.perf_counter()
        run.setup()
        setup_times.append(time.perf_counter() - start)

    if args.trace:
        untraced = run.run_pass(0)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run.run_pass(0)
        finally:
            tracer.uninstall()
        if tracer.hook_errors:
            print(f"{tracer.hook_errors} span counts could not be taken", file=sys.stderr)
        records = untraced + traced
        cross_check(records, run.reference)
        walls = [sum(r.seconds for r in recs) for recs in (untraced, traced)]
        values = tracer.report(*walls)
        units = {name: unit for name, unit, _ in spans.catalog()}
    else:
        records, pass_walls = measure(run, args.seconds)
        cross_check(records, run.reference)
        values = end_to_end(records, pass_walls, setup_times)
        units = {name: unit for name, unit, _ in END_TO_END}
        walls = pass_walls

    failed = [r for r in records if r.problems]
    print(json.dumps({
        "passes": len(walls),
        "pass_wall_s": walls,
        "jobs": len(records),
        "job_s_p50_samples": len(records),
        "failed_ratio": len(failed) / len(records),
        "failures": [{"argv": list(r.job.args), "problems": r.problems} for r in failed[:5]],
    }))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
