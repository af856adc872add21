"""tools/bench_pairs.py: the summary of paired benchmark runs, on
hand-written run output, with no subprocess."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "verdicts_per_s", "unit": "1/s", "better": "higher"},
              {"name": "verdict_ms.p50", "unit": "ms", "better": "lower"}]


def _output(revision: str, per_s: float, p50: float) -> str:
    metrics = {"verdicts_per_s": {"value": per_s, "unit": "1/s"},
               "verdict_ms.p50": {"value": p50, "unit": "ms"}}
    return "\n".join([
        "run record: " + json.dumps({"git_revision": revision, "seed": 1}),
        "workload cusp_ci (1 passes)",
        "  verdicts_per_s     100 1/s",
        json.dumps({"correct": True, "attempted": 2, "failed": 0,
                    "metrics": metrics})])


def test_summary_of_two_result_lines():
    parent = bench_pairs.parse_run(_output("aaa", 100.0, 0.5))
    change = bench_pairs.parse_run(_output("bbb", 110.0, 0.5))
    assert parent[0] == {"git_revision": "aaa", "seed": 1}
    pair = {side: {"run_record": record, "result": result}
            for side, (record, result) in (("parent", parent),
                                           ("change", change))}
    summary = bench_pairs.summarize([pair], END_TO_END)
    per_s, p50 = summary["verdicts_per_s"], summary["verdict_ms.p50"]
    assert (per_s["parent_median"], per_s["change_median"]) == (100.0, 110.0)
    assert per_s["parent_quartiles"] == [100.0, 100.0]
    assert per_s["relative"] == pytest.approx(0.1)
    assert (per_s["change_wins"], per_s["pairs"]) == (1, 1)
    assert per_s["beyond_parent_spread"]
    # a tie counts for neither side
    assert (p50["change_wins"], p50["beyond_parent_spread"]) == (0, False)
    # a lower-is-better metric wins when it falls
    pair["change"]["result"]["metrics"]["verdict_ms.p50"]["value"] = 0.4
    assert bench_pairs.summarize([pair], END_TO_END)[
        "verdict_ms.p50"]["change_wins"] == 1


def test_output_without_a_result_line_is_an_error():
    with pytest.raises(ValueError):
        bench_pairs.parse_run("run record: {}\nerror: no workload\n")
    assert list(bench_pairs._seeds("3-5")) == [3, 4, 5]
    assert list(bench_pairs._seeds("7")) == [7]


def _argv(out: Path, seeds: str) -> list[str]:
    return ["--parent", ".", "--change", ".", "--workload", "cusp_ci",
            "--seeds", seeds, "--seconds", "1", "--out", str(out)]


def _no_run(*args):
    raise AssertionError("no run may start")


def test_empty_seed_range_stops_before_any_run(tmp_path, monkeypatch):
    # a reversed range would otherwise write an empty entry over the file's
    out = tmp_path / "BENCH.json"
    out.write_text('{"workloads": {"cusp_ci": {"pairs": [1]}}}\n')
    before = out.read_text()
    monkeypatch.setattr(bench_pairs, "run_once", _no_run)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(_argv(out, "5-3"))
    assert exc.value.code == 2 and out.read_text() == before


def test_unreadable_out_file_stops_before_any_run(tmp_path, monkeypatch):
    out = tmp_path / "BENCH.json"
    out.write_text("not json\n")
    monkeypatch.setattr(bench_pairs, "run_once", _no_run)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(_argv(out, "1-2"))
    assert exc.value.code == 2 and out.read_text() == "not json\n"
