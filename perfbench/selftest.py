"""Self-test of the benchmark on a tiny seeded pass of each workload.

Run from the repository root:  python3 perfbench/selftest.py

Checks that every end-to-end metric is printed by name with its unit,
that no verdict fails, that the metric lists agree with BENCHMARK.json,
and that in the traced run each input's root span lasts at least as long
as the sum of its report's stage timings and every traced verdict equals
the untraced one.
"""

import json
import os
import subprocess
import sys

import run

SEED = 5
LIMIT = 6  # inputs per pass


def run_cli(trace: int) -> list:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
           "all", "--seed", str(SEED), "--seconds", "0.1", "--trace",
           str(trace), "--limit", str(LIMIT)]
    out = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    return out.splitlines()


def test_printed_metrics() -> None:
    lines = run_cli(0)
    for name, unit in run.END_TO_END:
        printed = [ln for ln in lines if ln.split()[:1] == [name]]
        assert len(printed) == len(run.WORKLOADS), (name, printed)
        assert all(ln.split()[2] == unit for ln in printed), (name, printed)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, result
    for line in lines:
        if line.split()[:1] == ["failed_frac"]:
            assert float(line.split()[1]) == 0.0, line
    expected = {f"{w}/{name}": unit for w in run.WORKLOADS
                for name, unit in run.REPORTED_END_TO_END}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_traced_metrics() -> None:
    result = json.loads(run_cli(1)[-1])
    assert result["correct"] and result["failed"] == 0, result
    expected = {f"{w}/{name}": unit for w in run.WORKLOADS
                for name, unit in run.PER_LAYER}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_benchmark_json_lists() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.REPORTED_END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_spans_cover_stages() -> None:
    for workload in run.WORKLOADS:
        passes, _ = run.run_workload(workload, SEED, 0.1, True, LIMIT)
        for plain, traced in passes:
            roots = run.tracer.root_ms(traced["spans"])
            assert len(roots) == len(traced["inputs"]), workload
            for i, (pr, tr) in enumerate(zip(plain["inputs"], traced["inputs"])):
                assert tr["failure"] is None, tr
                assert tr["verdict"] == pr["verdict"], (tr, pr)
                assert roots[i] >= sum(tr["stages_ms"].values()), (roots[i], tr)


def main() -> int:
    tests = [test_printed_metrics, test_traced_metrics,
             test_benchmark_json_lists, test_spans_cover_stages]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
