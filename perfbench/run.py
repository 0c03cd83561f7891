"""Benchmark of the origami-h2 command line: one workload per invocation.

    python3 perfbench/run.py --workload census|orbit-cold|requery \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It prints the run context (machine,
Python, load, why the workload exists) as one JSON line, runs the workload
in a single-threaded child process (``worker.py``) and prints the child's
lines; the last is the result object.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  ``--size tiny`` is
a seconds-long version for the benchmark's own tests.  Exits non-zero,
without a result, when the checkout has no package source or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

CHILD_TIMEOUT_S = 170


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "loadavg_at_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="origami-h2 benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "origami_h2" / "cli.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    print(json.dumps({"context": context(args)}), flush=True)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               ORIGAMI_H2_CACHE=str(work / "default-cache"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, "-B", str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--work", str(work)]
    try:
        with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as child:
            try:
                out, err = child.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
                print(f"workload run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if child.returncode != 0 or not isinstance(result, dict) or "metrics" not in result:
        sys.stderr.write(err)
        sys.stderr.write(out)
        print(f"workload run failed with exit status {child.returncode}", file=sys.stderr)
        return 1
    sys.stderr.write(err)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
