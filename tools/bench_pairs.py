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
bound in ``BENCHMARK.json``; any other section of an existing output file
is kept.  Standard library only.
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
    """Quartiles (inclusive), wins and the change's median against the parent's, per metric.

    ``metrics`` are ``BENCHMARK.json``'s end-to-end entries.  A win is a
    strictly better value; ``change_worse_by_share`` is positive when the
    change's median is worse.
    """
    summary = {}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        pq = statistics.quantiles(parent, n=4, method="inclusive")
        cq = statistics.quantiles(change, n=4, method="inclusive")
        diff = cq[1] - pq[1]
        summary[name] = {
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "parent_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "parent_iqr": pq[2] - pq[0],
            "median_diff": diff,
            "change_worse_by_share": round(sign * diff / pq[1], 4) if pq[1] else 0.0,
            "bound": m["bound"],
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


def _run(checkout: Path, workload: str, seed: int, seconds: int) -> tuple:
    """(context, result) of one benchmark run in a checkout with no bytecode left over."""
    for cache in checkout.rglob("__pycache__"):
        shutil.rmtree(cache)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=checkout, check=True, capture_output=True, text=True).stdout
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    result = lines[-1]
    row = {name: v["value"] for name, v in result["metrics"].items()}
    row.update(correct=result["correct"], attempted=result["attempted"], failed=result["failed"])
    return lines[0]["context"], row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    parent = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()

    shutil.rmtree(BUILD, ignore_errors=True)
    for name in "XY":
        _extract(parent, BUILD / name)
    _extract(parent, BUILD / "parent", "src")
    shutil.copytree(ROOT / "src", BUILD / "change" / "src", ignore=shutil.ignore_patterns("__pycache__"))

    results = {w: {"pairs": [], "held_out": []} for w in workloads}
    machine = None
    for i, item in enumerate(schedule(workloads, PAIRS, args.seed_base)):
        sides = {"parent": "Y", "change": "X"} if item["src_swapped"] else {"parent": "X", "change": "Y"}
        for side, checkout in sides.items():
            _place(BUILD / side / "src", BUILD / checkout)
        record = {k: item[k] for k in ("seed", "first", "src_swapped")}
        record.update(parent_checkout=sides["parent"], change_checkout=sides["change"])
        order = ("parent", "change") if item["first"] == "parent" else ("change", "parent")
        for side in order:
            context, record[side] = _run(BUILD / sides[side], item["workload"], item["seed"], seconds)
            machine = machine or {k: context[k] for k in ("nproc", "cpus_usable", "python", "cpu_model")}
        results[item["workload"]]["held_out" if item["held_out"] else "pairs"].append(record)
        print(f"{i + 1}: {item['workload']} seed {item['seed']} done", file=sys.stderr, flush=True)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update(
        parent_commit=parent,
        machine=machine,
        command=COMMAND.format(seconds=seconds),
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
            "the change's median against the parent's, signed so that a positive share is worse."
        ),
        workloads={w: {"summary": summarize(r["pairs"], bench["end_to_end"]), **r}
                   for w, r in results.items()},
    )
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
