"""Paired benchmark runs of a parent tree and a change tree, to a BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload interactive_mix --seeds 1-10 --seconds 25 \\
        --out BENCH_<tag>.json

For each seed the two trees each run `perfbench/run.py --workload W
--seed S --seconds T --trace 0`, under the interpreter that runs this
script, in a fresh process that writes no bytecode; the parent runs first
on an even seed, the change on an odd one.  Each run's `run record:` line
and its last line, the result, are kept.  The workload's entry in the
file holds every pair (each run record names its tree's git revision),
each side's source digest, and per end-to-end metric of BENCHMARK.json
each side's median and quartiles and the count of pairs the change won
in the metric's better direction, ties counting for neither.  The
workload must be one BENCHMARK.json names.  An existing file keeps its
other workloads' entries; one that is not such a file, or an empty seed
range, stops the tool with status 2 before any run.  Otherwise the exit
status is 1 if any run failed or reports `"correct": false`, else 0.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The run record and the result of one `perfbench/run.py` output;
    ValueError when either is missing."""
    lines = stdout.strip().splitlines()
    records = [json.loads(line.split(": ", 1)[1]) for line in lines
               if line.startswith("run record: ")]
    if not records or not lines[-1].startswith("{"):
        raise ValueError("no run record or no result line")
    return records[0], json.loads(lines[-1])


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric (BENCHMARK.json's entries, with their
    `better` direction): each side's median and quartiles over the pairs'
    results, the change's relative difference from the parent's median,
    its win count, and whether the medians differ, in the better
    direction, by more than the parent's quartile spread."""
    out = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [pair[side]["result"]["metrics"][name]["value"]
                         for pair in pairs] for side in SIDES}
        medians = {side: statistics.median(v) for side, v in values.items()}
        q1, q3 = _quartiles(values["parent"])
        gain = sign * (medians["change"] - medians["parent"])
        out[name] = {
            "better": metric["better"], "unit": metric["unit"],
            **{f"{side}_median": medians[side] for side in SIDES},
            **{f"{side}_quartiles": _quartiles(values[side])
               for side in SIDES},
            "relative": medians["change"] / medians["parent"] - 1,
            "change_wins": sum(sign * (c - a) > 0 for a, c in
                               zip(values["parent"], values["change"])),
            "pairs": len(pairs),
            "beyond_parent_spread": gain > q3 - q1}
    return out


def source_digest(tree: Path) -> str:
    """SHA-256 over the names and bytes of a tree's src/fliftlab/*.py."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "fliftlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `tree`: its run record and result, or the
    failure with its stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    try:
        record, result = parse_run(proc.stdout)
    except ValueError as exc:
        return {"failed": f"exit {proc.returncode}: {exc}",
                "stderr": proc.stderr[-2000:]}
    if proc.returncode or not result.get("correct"):
        return {"failed": f"exit {proc.returncode}, correct "
                          f"{result.get('correct')}",
                "stderr": proc.stderr[-2000:], "result": result}
    return {"run_record": record, "result": result}


def _seeds(text: str) -> range:
    lo, _, hi = text.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=_seeds, required=True,
                        help="an inclusive range A-B, or one seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    try:  # an unreadable --out stops the tool before any run
        out = (json.loads(args.out.read_text()) if args.out.exists()
               else {"workloads": {}})
        workloads = out["workloads"]
    except (ValueError, KeyError, TypeError) as exc:
        parser.error(f"--out {args.out} is not a BENCH file: {exc!r}")

    pairs, failures = [], []
    for seed in args.seeds:
        order = SIDES if seed % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(trees[side], args.workload, seed,
                                  args.seconds)
            if "failed" in pair[side]:
                failures.append(f"seed {seed} {side}: {pair[side]['failed']}")
                print(failures[-1], file=sys.stderr)
        pairs.append(pair)
        print(f"seed {seed} done ({order[0]} first)", file=sys.stderr)

    complete = [p for p in pairs if not any("failed" in p[s] for s in SIDES)]
    entry = {"seconds": args.seconds, "seeds": [p["seed"] for p in pairs],
             **{side: {"src_sha256": source_digest(trees[side])}
                for side in SIDES},
             "summary": summarize(complete, bench["end_to_end"])
             if complete else {},
             "failures": failures, "pairs": pairs}
    workloads[args.workload] = entry
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
