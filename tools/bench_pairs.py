"""Paired benchmark runs of the working tree's ``src/`` against a parent commit.

    python3 tools/bench_pairs.py --parent REV --seed-base N --out BENCH_K.json

Run from the root of a checkout.  Each workload of ``BENCHMARK.json`` runs
ten pairs of ``run_seconds`` each.  Two copies X and Y of the parent commit
are made with ``git archive`` under ``.bench_build/``, so both sides run the
parent's benchmark code.  Before each pair the parent's ``src/`` goes into X
and the change's into Y, except on the swapped pairs (1, 2, 5, 6, 9, ...,
counting from 0), where they trade places, since the same source reads
differently between two checkouts.  ``__pycache__`` is removed before every
run, the side that runs first alternates from pair to pair, and the
workloads' pairs are interleaved.  Workload k runs seeds N + 100·k + 1 to
N + 100·k + 10; N + 100·k + 34 is held out: run last and listed under
``held_out``, not in the summary.  Pick an N whose seeds the change was not
written against.

The output holds the ``workloads``, ``machine``, ``parent_commit``,
``command`` and ``protocol`` sections, each metric summarised against its
bound in ``BENCHMARK.json`` and given a verdict; any other section of an
existing output file is kept.  The file is written after every pair.  A
run that exits non-zero or overruns ten times ``run_seconds`` leaves its
exit code and last stderr line in its pair, the schedule goes on, and a
pair with a failed run is left out of the summary and counted in the
workload's ``failed_runs``.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"
PAIRS = 10
HELD_OUT = 34
COMMAND = "python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {seconds} --trace 0"


def swapped(i: int) -> bool:
    """Whether pair i puts the parent's ``src/`` in Y: pairs 1, 2, 5, 6, 9, ..."""
    return i % 4 in (1, 2)


def schedule(workloads: list, pairs: int, seed_base: int) -> list:
    """Every run pair in order: the workloads interleaved, then the held-out seeds."""
    plan = [
        {"workload": w, "seed": seed_base + 100 * k + i + 1, "held_out": False,
         "first": "change" if i % 2 else "parent", "src_swapped": swapped(i)}
        for i in range(pairs)
        for k, w in enumerate(workloads)
    ]
    plan += [{"workload": w, "seed": seed_base + 100 * k + HELD_OUT, "held_out": True,
              "first": "parent", "src_swapped": False} for k, w in enumerate(workloads)]
    return plan


def summarize(pairs: list, metrics: list) -> dict:
    """Quartiles (inclusive), wins, the change's median against the parent's and a verdict, per metric.

    ``metrics`` are ``BENCHMARK.json``'s end-to-end entries.  A win is a
    strictly better value; ``change_worse_by_share`` is positive when the
    change's median is worse.  The ``verdict`` is ``gain`` when the change
    wins at least nine tenths of the pairs and its median is better by more
    than the parent's interquartile range; ``worse`` when its median is
    worse by more than the bound, a share of the parent's median;
    ``unresolved`` when the parent's interquartile range is wider than the
    bound and not every change run is better than every parent run; and
    ``within bound`` otherwise.
    """
    summary = {}
    for m in metrics:
        name, sign, bound = m["name"], 1 if m["better"] == "lower" else -1, m["bound"]
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        pq = statistics.quantiles(parent, n=4, method="inclusive")
        cq = statistics.quantiles(change, n=4, method="inclusive")
        diff, iqr = cq[1] - pq[1], pq[2] - pq[0]
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        if 10 * wins >= 9 * len(pairs) and -sign * diff > iqr:
            verdict = "gain"
        elif sign * diff > bound * abs(pq[1]):
            verdict = "worse"
        elif iqr > bound * abs(pq[1]) and max(sign * c for c in change) >= min(sign * p for p in parent):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        summary[name] = {
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "change_wins": wins,
            "parent_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "parent_iqr": iqr,
            "median_diff": diff,
            "change_worse_by_share": round(sign * diff / pq[1], 4) if pq[1] else 0.0,
            "bound": bound,
            "verdict": verdict,
        }
    return summary


def _extract(rev: str, dest: Path, *paths: str) -> None:
    """``git archive`` of ``paths`` at ``rev`` (the whole tree if none), unpacked into dest."""
    tar = subprocess.run(["git", "archive", rev, *paths], cwd=ROOT, check=True, capture_output=True)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest)


def _place(src: Path, checkout: Path) -> None:
    shutil.rmtree(checkout / "src", ignore_errors=True)
    shutil.copytree(src, checkout / "src", ignore=shutil.ignore_patterns("__pycache__"))


def _last_line(text) -> str:
    # a timed-out run's stderr comes back as bytes, or None
    if isinstance(text, bytes):
        text = text.decode(errors="replace")
    lines = (text or "").strip().splitlines()
    return lines[-1] if lines else ""


def _run(checkout: Path, workload: str, seed: int, seconds: int) -> tuple:
    """(context, result) of one benchmark run in a checkout with no bytecode left over.

    A run that exits non-zero, or is stopped after ten times ``seconds``,
    gives (None, {"failed_run": {"exit_code": ..., "stderr": ...}}), with
    no exit code on a timeout and its last stderr line (a row's ``failed``
    counts the jobs that failed in a run that finished).
    """
    for cache in checkout.rglob("__pycache__"):
        shutil.rmtree(cache)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=10 * seconds)
    except subprocess.TimeoutExpired as exc:
        return None, {"failed_run": {"exit_code": None, "stderr": _last_line(exc.stderr)}}
    if done.returncode:
        return None, {"failed_run": {"exit_code": done.returncode, "stderr": _last_line(done.stderr)}}
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    result = lines[-1]
    row = {name: v["value"] for name, v in result["metrics"].items()}
    row.update(correct=result["correct"], attempted=result["attempted"], failed=result["failed"])
    return lines[0]["context"], row


def run_pairs(plan: list, bench: dict, build: Path, out: Path, doc: dict) -> None:
    """Run ``plan``'s pairs in ``build``'s checkouts, writing ``doc`` to ``out`` after each pair.

    ``build`` holds the checkouts X and Y and the sources ``parent/src`` and
    ``change/src``; ``doc`` already holds the sections that do not depend on
    the runs.
    """
    results = {w["name"]: {"pairs": [], "held_out": []} for w in bench["workloads"]}
    for i, item in enumerate(plan):
        sides = {"parent": "Y", "change": "X"} if item["src_swapped"] else {"parent": "X", "change": "Y"}
        for side, checkout in sides.items():
            _place(build / side / "src", build / checkout)
        record = {k: item[k] for k in ("seed", "first", "src_swapped")}
        record.update(parent_checkout=sides["parent"], change_checkout=sides["change"])
        order = ("parent", "change") if item["first"] == "parent" else ("change", "parent")
        for side in order:
            context, record[side] = _run(build / sides[side], item["workload"], item["seed"],
                                         bench["run_seconds"])
            if context and not doc.get("machine"):
                doc["machine"] = {k: context[k] for k in ("nproc", "cpus_usable", "python", "cpu_model")}
        results[item["workload"]]["held_out" if item["held_out"] else "pairs"].append(record)
        doc["workloads"] = {}
        for w, r in results.items():
            runs = [p[side] for p in r["pairs"] + r["held_out"] for side in ("parent", "change")]
            done = [p for p in r["pairs"] if "failed_run" not in p["parent"] and "failed_run" not in p["change"]]
            summary = summarize(done, bench["end_to_end"]) if len(done) > 1 else {}
            doc["workloads"][w] = {"summary": summary, "failed_runs": sum("failed_run" in run for run in runs), **r}
        out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"{i + 1}: {item['workload']} seed {item['seed']} done", file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parent = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()

    shutil.rmtree(BUILD, ignore_errors=True)
    for name in "XY":
        _extract(parent, BUILD / name)
    _extract(parent, BUILD / "parent", "src")
    shutil.copytree(ROOT / "src", BUILD / "change" / "src", ignore=shutil.ignore_patterns("__pycache__"))

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update(
        parent_commit=parent,
        machine=None,
        command=COMMAND.format(seconds=bench["run_seconds"]),
        protocol=(
            "Two checkouts X and Y of the parent commit (git archive), so the same benchmark "
            "code; before each pair the parent's and the change's src/ trees are copied into "
            "them, X holding the parent's and Y the change's, except on the pairs marked "
            "src_swapped (1, 2, 5, 6, 9 counting from 0), where they trade places.  "
            "__pycache__ is removed before every run.  Each pair runs both sides at the same "
            "seed, one run at a time; the side that runs first alternates from pair to pair "
            "('first'), and the pairs of the workloads are interleaved.  "
            + "; ".join(f"{w}: seeds {args.seed_base + 100 * k + 1}-{args.seed_base + 100 * k + PAIRS}, "
                        f"held out {args.seed_base + 100 * k + HELD_OUT}" for k, w in enumerate(workloads))
            + ".  Held-out pairs run last and are not in the summary.  Quartiles are inclusive; "
            "a win is a strictly better value, ties count for neither.  change_worse_by_share is "
            "the change's median against the parent's, signed so that a positive share is worse.  "
            "A pair with a failed run is left out of the summary and counted in failed_runs."
        ),
    )
    run_pairs(schedule(workloads, PAIRS, args.seed_base), bench, BUILD, args.out, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
