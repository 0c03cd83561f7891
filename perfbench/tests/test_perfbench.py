"""Tests of the benchmark itself (not of the package).

    python3 -m pytest perfbench/tests -q

They run the workloads at ``--size tiny``, which takes seconds.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WHY)


def run_bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny(workload: str, trace: int, seed: int = 3) -> dict:
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(worker.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.catalog()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    result = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = [m[0] for m in (spans.catalog() if trace else worker.END_TO_END)]
    assert list(result["metrics"]) == names
    for name in names:
        assert isinstance(result["metrics"][name]["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_with_the_same_seed(workload):
    first, second = (tiny(workload, 1, seed=11)["metrics"] for _ in range(2))
    exact = [n for n in first if n.endswith(".calls")] + [
        "sl2_orbit.orbit.surfaces", "sl2_orbit.keys_per_surface", "enumeration.keys_per_candidate",
        "cli.cache.hit_ratio", "cli.cache.bytes_written", "cli.cache.bytes_read",
        "congruence.scan_position",
    ]
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}


def test_traced_layers_see_the_work():
    census = tiny("census", 1)["metrics"]
    assert census["origami_core.canonical_key.calls"]["value"] > 0
    assert census["enumeration.keys_per_candidate"]["value"] > 0
    requery = tiny("requery", 1)["metrics"]
    # the seed and noncong queries hit; a random other member of the orbit misses
    assert 0 < requery["cli.cache.hit_ratio"]["value"] < 1
    assert requery["sl2_orbit.orbit_from_json.calls"]["value"] > 0


@pytest.mark.parametrize("workload,kind,field", [
    ("census", "counts", "total"),
    ("orbit-cold", "orbit", "size"),
    ("orbit-cold", "noncong", "delta"),
    ("requery", "orbit", "level"),
])
def test_wrong_answer_in_the_parser_counts_as_failed(tmp_path, capsys, monkeypatch, workload, kind, field):
    real = oracle.PARSERS[kind]

    def tampered(stdout):
        answer = real(stdout)
        value = answer[field]
        answer[field] = str(int(value) + 1) if isinstance(value, str) else value + 1
        return answer

    monkeypatch.setitem(oracle.PARSERS, kind, tampered)
    worker.main(["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0",
                 "--size", "tiny", "--work", str(tmp_path / "work")])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    if workload != "census":  # only the tampered kind of job fails
        assert result["failed"] < result["attempted"]
    assert result["metrics"]["ok_ratio"]["value"] < 1


def test_cache_answer_differing_from_computed_one_is_failed(tmp_path):
    run = worker.Run("requery", "tiny", 5, tmp_path / "work")
    run.setup()
    records = run.run_pass(0)
    hit = next(r for r in records if r.job.kind == "orbit" and not r.job.computed)
    hit.answer["cusp_widths"] = list(reversed(hit.answer["cusp_widths"]))
    worker.cross_check(records, run.reference)
    assert hit.problems and sum(bool(r.problems) for r in records) == 1


def test_without_package_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_sampled_surfaces_match_the_program():
    from origami_h2.origami_core import (
        build_from_diagram, integer_weierstrass_count, is_primitive, parse_diagram,
    )

    rng = random.Random(0)
    for n in (5, 7, 9, 10, 13):
        for label in ("C",) if n % 2 == 0 else ("A", "B"):
            for _ in range(25):
                text = workloads.random_surface(rng, n, label)
                o = build_from_diagram(parse_diagram(text))
                assert is_primitive(o), text
                dims = [int(v) for v in text[5:-1].replace(";", ",").split(",")]
                perms = (workloads.two_cylinder_perms(*dims) if text.startswith("2cyl")
                         else workloads.one_cylinder_perms(*dims[:4]))
                assert (tuple(perms[0]), tuple(perms[1])) == (o.right, o.up), text
                if n % 2:
                    assert integer_weierstrass_count(o) == {"A": 1, "B": 3}[label], text


def test_oracles_agree_with_the_library_formulas():
    from origami_h2.congruence import expected_index, lcm_upto, principal_index
    from origami_h2.enumeration import formula_split, formula_total

    for n in range(4, 80):
        assert oracle.census_total(n) == formula_total(n)
        assert oracle.orbit_index("C", n) == (expected_index("C", n) if n % 2 == 0 else formula_total(n))
        if n % 2 and n >= 5:
            assert oracle.census_split(n) == formula_split(n)
            assert oracle.expected_level("B", n) == lcm_upto(n).value // 4
        assert oracle.principal_index(n) == principal_index(n)
