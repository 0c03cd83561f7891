"""The pair protocol of ``tools/bench_pairs.py``: its schedule and its summary, with no benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


class TestSchedule:
    def test_pairs_swap_src_and_alternate_the_first_side(self):
        plan = bench_pairs.schedule(["census"], 10, 3500)
        pairs = [item for item in plan if not item["held_out"]]
        assert [item["seed"] for item in pairs] == list(range(3501, 3511))
        assert [i for i, item in enumerate(pairs) if item["src_swapped"]] == [1, 2, 5, 6, 9]
        assert [item["first"] for item in pairs] == ["parent", "change"] * 5

    def test_workloads_interleave_and_the_held_out_seeds_run_last(self):
        plan = bench_pairs.schedule(["census", "orbit-cold", "requery"], 10, 3500)
        assert len(plan) == 33
        assert [item["workload"] for item in plan[:6]] == ["census", "orbit-cold", "requery"] * 2
        assert [item["seed"] for item in plan[:4]] == [3501, 3601, 3701, 3502]
        held = plan[30:]
        assert all(item["held_out"] for item in held)
        assert [item["seed"] for item in held] == [3534, 3634, 3734]
        # a held-out seed is none of the summarised ones
        assert not {item["seed"] for item in held} & {item["seed"] for item in plan[:30]}


def pair(parent: dict, change: dict) -> dict:
    return {"parent": parent, "change": change}


class TestSummary:
    def test_quartiles_wins_and_signed_share(self):
        metrics = [m for m in END_TO_END if m["name"] in ("wall_s", "surfaces_per_s")]
        parents = [(1.0, 100.0), (2.0, 200.0), (3.0, 300.0), (4.0, 400.0), (5.0, 500.0)]
        changes = [(0.5, 150.0), (2.0, 200.0), (2.5, 330.0), (4.5, 390.0), (4.0, 600.0)]
        pairs = [pair({"wall_s": pw, "surfaces_per_s": ps}, {"wall_s": cw, "surfaces_per_s": cs})
                 for (pw, ps), (cw, cs) in zip(parents, changes)]
        summary = bench_pairs.summarize(pairs, metrics)

        wall = summary["wall_s"]
        assert wall["parent_q1_median_q3"] == [2.0, 3.0, 4.0]
        assert wall["change_q1_median_q3"] == [2.0, 2.5, 4.0]
        # lower is better; the tie at 2.0 counts for neither
        assert (wall["change_wins"], wall["parent_wins"], wall["pairs"]) == (3, 1, 5)
        assert wall["parent_iqr"] == 2.0
        assert wall["median_diff"] == -0.5
        assert wall["change_worse_by_share"] == pytest.approx(-0.1667)
        assert wall["bound"] == 0.25

        rate = summary["surfaces_per_s"]
        assert rate["change_q1_median_q3"] == [200.0, 330.0, 390.0]
        # higher is better, so a higher median is a negative worse-share
        assert (rate["change_wins"], rate["parent_wins"]) == (3, 1)
        assert rate["median_diff"] == 30.0
        assert rate["change_worse_by_share"] == pytest.approx(-0.1)

    def test_every_end_to_end_metric_is_summarised_with_its_bound(self):
        row = {m["name"]: 1.0 for m in END_TO_END}
        worse = {m["name"]: 1.1 if m["better"] == "lower" else 0.9 for m in END_TO_END}
        summary = bench_pairs.summarize([pair(row, worse), pair(row, worse)], END_TO_END)
        assert list(summary) == [m["name"] for m in END_TO_END]
        for m in END_TO_END:
            assert summary[m["name"]]["bound"] == m["bound"]
            assert summary[m["name"]]["change_worse_by_share"] == pytest.approx(0.1)
            assert summary[m["name"]]["parent_wins"] == 2
