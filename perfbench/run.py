"""fliftlab benchmark: time to a verdict and verdict throughput.

Usage (from the repository root):

    python3 perfbench/run.py --workload cusp_hyp --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

A run makes a fixed number of passes of the workload, sized from the
seed machine's CPU time per pass so that a run measures about
`--seconds` (at least one pass); the count depends on `--seconds` alone,
never on the clock, so two commits classify the same inputs.  Each pass
runs in a fresh interpreter (perfbench/worker.py) that sets up, classifies
its inputs in a closed loop with one client, checks every verdict and
reports back.  The library is called in-process; the CLI and its process
pool are never used.  Times are CPU times of the client, scaled to a
fixed host speed (see worker.py and hostspeed.py).

With `--trace 0` the last line of standard output carries the end-to-end
metrics; with `--trace 1` each pass is run twice on the same inputs,
untraced and traced, and the last line carries the per-layer metrics.
The traced spans are also written to perfbench/out/.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402

WORKLOADS = ("cusp_hyp", "cusp_ci", "interactive_mix")
# CPU seconds of one untraced pass on the seed machine (2 vCPUs under KVM,
# Python 3.11.7); they fix the number of passes a run makes.
PASS_CPU_S = {"cusp_hyp": 3.8, "cusp_ci": 1.85, "interactive_mix": 3.0}
# Passes come in whole cycles through the 3! orders of the variables of
# the three-variable workloads, so that a run times each of their classes
# under every permutation.
PASS_CYCLE = {"cusp_hyp": 6, "cusp_ci": 1, "interactive_mix": 6}
RUN_LIMIT_S = 170.0  # every run must end within 180 s
MIN_SETUPS = 21  # set-ups whose median is setup_s

END_TO_END = (("setup_s", "s"), ("verdicts_per_s", "1/s"),
              ("verdict_ms.p50", "ms"), ("verdict_ms.p90", "ms"),
              ("failed_frac", "ratio"), ("peak_rss_mb", "MB"))
# failed_frac is 0 on a correct program, so the result line carries it as
# `failed` / `attempted` rather than as a metric.
REPORTED_END_TO_END = tuple(m for m in END_TO_END if m[0] != "failed_frac")

PER_LAYER = (
    [(f"criteria.stage.{s}_ms", "ms") for s in tracer.STAGES]
    + [(f"criteria.verdicts.{v}", "count")
       for v in ("liftable", "not_liftable", "not_fpure", "inconclusive")]
    + list(tracer.SPAN_METRICS)
    + [("trace.overhead_frac", "ratio")]
)


class BenchError(Exception):
    pass


def run_pass(workload: str, seed: int, index: int, mode: str,
             limit: int | None, deadline: float) -> dict:
    """One worker process; `mode` is plain, traced or setup."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), str(index), mode]
    if limit:
        cmd.append(str(limit))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the pass started")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {index} did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"pass {index} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def passes_per_run(workload: str, seconds: float) -> int:
    cycle = PASS_CYCLE[workload]
    return cycle * max(1, round(seconds / PASS_CPU_S[workload] / cycle))


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 limit: int | None = None) -> tuple:
    """Returns ([(plain, traced or None)] per pass, set-up results).

    Untraced runs report setup_s, so set-up-only workers, spread between
    the passes, make their set-ups up to MIN_SETUPS.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    npasses = passes_per_run(workload, seconds)
    extra = 0 if traced else max(0, MIN_SETUPS - npasses)
    passes, setups = [], []
    for index in range(npasses):
        plain = run_pass(workload, seed, index, "plain", limit, deadline)
        with_trace = (run_pass(workload, seed, index, "traced", limit,
                               deadline) if traced else None)
        passes.append((plain, with_trace))
        setups.append(plain)
        for _ in range(extra * (index + 1) // npasses
                       - extra * index // npasses):
            setups.append(run_pass(workload, seed, npasses + len(setups),
                                   "setup", limit, deadline))
    return passes, setups


def tail_percentile(n: int) -> int:
    """Highest percentile (at most 90) with at least 10 samples beyond it."""
    return max(1, min(90, int(100 * (1 - 10 / n)))) if n > 10 else 50


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list, setups: list) -> tuple:
    """(metrics, notes, attempted, failed, failures) over the plain passes."""
    plain = [p for p, _ in passes]
    ms = [r["ms"] for p in plain for r in p["inputs"]]
    cpu_ms = [r["cpu_ms"] for p in plain for r in p["inputs"]]
    failures = [(r["label"], r["failure"]) for p in plain for r in p["inputs"]
                if r["failure"]]
    failures += composition_failures(plain)
    n = len(ms)
    tail = tail_percentile(n)
    wall = sum(p["wall_s"] for p in plain)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "verdicts_per_s": n / (sum(ms) / 1000.0),
        "verdict_ms.p50": statistics.median(ms),
        "verdict_ms.p90": percentile(ms, tail),
        "failed_frac": len(failures) / n,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in plain),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; unscaled CPU "
                   f"{statistics.median(s['setup_cpu_s'] for s in setups):.4f} s",
        "verdicts_per_s": f"{n} verdicts in {sum(ms) / 1000:.2f} s scaled, "
                          f"{sum(cpu_ms) / 1000:.2f} s CPU, {wall:.2f} s wall; "
                          f"kernel median "
                          f"{statistics.median(p['probe_ms'] for p in plain):.3f}"
                          f" ms",
        "verdict_ms.p50": f"{n} samples; unscaled CPU "
                          f"{statistics.median(cpu_ms):.4g} ms",
        "verdict_ms.p90": f"p{tail} of {n} samples, "
                          f"{n - int(n * tail / 100)} beyond",
        "failed_frac": f"{len(failures)} of {n}",
        "peak_rss_mb": f"max of {len(plain)} pass processes",
    }
    return metrics, notes, n, len(failures), failures


def per_layer(passes: list) -> tuple:
    """(metrics, attempted, failed, failures) from the paired passes."""
    values = {name: [] for name, _ in PER_LAYER}
    failures = composition_failures([p for p, _ in passes])
    attempted = 0
    plain_ms = traced_ms = 0.0
    for plain, traced in passes:
        attempted += len(plain["inputs"]) + len(traced["inputs"])
        plain_ms += sum(r["ms"] for r in plain["inputs"])
        traced_ms += sum(r["ms"] for r in traced["inputs"])
        for pr, tr in zip(plain["inputs"], traced["inputs"]):
            for r in (pr, tr):
                if r["failure"]:
                    failures.append((r["label"], r["failure"]))
            if pr["verdict"] != tr["verdict"] and not tr["failure"]:
                failures.append((tr["label"], "traced verdict differs "
                                 "from the untraced one"))
        ok = [r for r in plain["inputs"] if r["verdict"] is not None]
        for stage in tracer.STAGES:
            values[f"criteria.stage.{stage}_ms"].append(
                sum(r["stages_ms"][stage] for r in ok))
        counts = verdict_counts(ok)
        for kind, count in counts.items():
            values[f"criteria.verdicts.{kind}"].append(count)
        for name, value in tracer.span_metrics(
                traced["spans"], traced["counters"]).items():
            values[name].append(value)
    # traced and untraced passes classify the same inputs
    values["trace.overhead_frac"] = [1.0 - plain_ms / traced_ms]
    metrics = {name: statistics.median(v) for name, v in values.items()}
    return metrics, attempted, len(failures), failures


def composition_failures(plain: list) -> list:
    """Every pass of a run holds the same classes, so it must give the
    same verdict counts."""
    counts = [verdict_counts([r for r in p["inputs"]
                              if r["verdict"] is not None]) for p in plain]
    return [(f"pass {i}", f"verdict counts {c} differ from pass 0's "
             f"{counts[0]}") for i, c in enumerate(counts) if c != counts[0]]


def verdict_counts(records: list) -> dict:
    counts = {"liftable": 0, "not_liftable": 0, "not_fpure": 0,
              "inconclusive": 0}
    for r in records:
        _, pure, liftable, conclusive = r["verdict"]
        if liftable:
            counts["liftable"] += 1
        elif pure:
            counts["not_liftable"] += 1
        elif pure is False:
            counts["not_fpure"] += 1
        if not conclusive:
            counts["inconclusive"] += 1
    return counts


def run_record(seed: int, loadavg: tuple, workloads: dict) -> dict:
    """Machine and revision facts written with every result."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"git_revision": git_revision(),
            "python": platform.python_version(),
            "nproc": nproc,
            "loadavg_start": list(loadavg),
            "seed": seed,
            "inputs_per_pass": workloads}


def git_revision() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def render(workload: str, metrics: dict, units: tuple,
           notes: dict | None = None) -> str:
    lines = [f"workload {workload}"]
    for name, unit in units:
        note = f"  ({notes[name]})" if notes and name in notes else ""
        lines.append(f"  {name:<48} {metrics[name]:>14.6g} {unit:<6}{note}")
    return "\n".join(lines)


def write_spans(workload: str, seed: int, passes: list) -> str:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([{"pass": i, "spans": t["spans"], "counters": t["counters"]}
                   for i, (_, t) in enumerate(passes)], fh)
    return path


def measure(workload: str, seed: int, seconds: float, traced: bool,
            limit: int | None = None) -> dict:
    """Run one workload and return everything the output is built from."""
    passes, setups = run_workload(workload, seed, seconds, traced, limit)
    result = {"workload": workload, "passes": passes,
              "inputs_per_pass": len(passes[0][0]["inputs"])}
    e2e, notes, attempted, failed, failures = end_to_end(passes, setups)
    result.update(end_to_end=e2e, notes=notes)
    if traced:
        result["per_layer"], attempted, failed, failures = per_layer(passes)
    result.update(attempted=attempted, failed=failed, failures=failures)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="inputs per pass (self-test only)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fliftlab", "__init__.py")):
        print("error: src/fliftlab not found next to perfbench/",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    loadavg = os.getloadavg()
    results = []
    try:
        for name in names:
            results.append(measure(name, args.seed, args.seconds,
                                   bool(args.trace), args.limit))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = run_record(args.seed, loadavg,
                        {r["workload"]: r["inputs_per_pass"] for r in results})
    print("run record: " + json.dumps(record))
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}/" if len(results) > 1 else ""
        print(render(f"{r['workload']} ({len(r['passes'])} passes)",
                     r["end_to_end"], END_TO_END, r["notes"]))
        if args.trace:
            print(render(r["workload"] + " (traced)", r["per_layer"],
                         PER_LAYER))
            path = write_spans(r["workload"], args.seed, r["passes"])
            print("spans: " + os.path.relpath(path, ROOT))
        chosen = r["per_layer"] if args.trace else r["end_to_end"]
        units = PER_LAYER if args.trace else REPORTED_END_TO_END
        for name, unit in units:
            metrics[prefix + name] = {"value": chosen[name], "unit": unit}
        for label, reason in r["failures"]:
            print(f"FAILED {label}: {reason}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
