"""One pass of a benchmark workload in a fresh interpreter.

Set-up (starting the interpreter, importing fliftlab, generating the
pass's inputs from the seed, classifying the warm-up inputs) is the CPU
time of this process until the first timed input.  The timed region is a
closed loop: one client in this thread sends the next input only after
the previous verdict's report is serialized.  Each verdict is timed in
CPU time of this thread, which leaves out time a shared host gives to
other tenants, and scaled to a fixed host speed by the reference kernel
of hostspeed.py, timed between verdicts.  Raw CPU time and wall time are
recorded alongside.  Correctness checks run after the timed region.  The
result is one JSON object on standard output.

Usage: python3 perfbench/worker.py WORKLOAD SEED PASS_INDEX MODE [LIMIT]
with MODE one of plain, traced, setup (set up, report set-up time, stop).
"""

import json
import os
import resource
import statistics
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

from fliftlab import criteria, report  # noqa: E402

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PROBE_EVERY_S = 0.025  # CPU time of verdicts between two kernel probes


def verdict(inp):
    """What a user waits for: the classification and its JSON report."""
    rep = criteria.classify(list(inp.gens), certificates=inp.certificates)
    return rep, report.report_to_json(rep)


def check(inp, rep, text) -> str | None:
    """Reason the verdict is wrong, or None.  Uses no Groebner basis."""
    if (rep.f_pure, rep.f_liftable) != inp.expected:
        return (f"verdict {(rep.f_pure, rep.f_liftable)} differs from the "
                f"expected {inp.expected}")
    back = report.report_from_dict(json.loads(text))
    if (back.status, back.f_pure, back.f_liftable, back.conclusive) != \
            (rep.status, rep.f_pure, rep.f_liftable, rep.conclusive):
        return "report did not survive the JSON round trip"
    if inp.certificates and rep.f_liftable and rep.status == "classified":
        f = inp.gens[0]
        cofactors = rep.certificate.cofactors
        if cofactors is None or len(cofactors) != 1 + f.ring.nvars:
            return "certified positive verdict without cofactors"
        total = cofactors[0] * f
        for v in range(f.ring.nvars):
            total = total + cofactors[1 + v] * f.derivative(v).frobenius()
        if total != criteria.residual_polynomial(f):
            return "cofactors do not re-expand to the residual"
    return None


def peak_rss_mb() -> float:
    """High-water resident set of this process image, in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(workload: str, seed: int, index: int, mode: str,
             limit: int | None) -> dict:
    inputs = workloads.timed_pass(workload, seed, index, limit)
    for inp in workloads.warmup(workload):
        verdict(inp)
    setup_cpu_s = time.process_time()
    hostspeed.probe()  # specializes the kernel's bytecode before it is timed
    setup_s = setup_cpu_s * hostspeed.REF_MS / sorted(
        hostspeed.probe() for _ in range(3))[1]
    if mode == "setup":
        return {"setup_s": setup_s, "setup_cpu_s": setup_cpu_s}

    trace = tracer.Tracer() if mode == "traced" else None
    if trace:
        trace.install()
    outcomes = []
    probes = [hostspeed.probe()]
    marks = []  # per input, the index of the last probe before it
    since = 0.0
    begin = time.perf_counter()
    for i, inp in enumerate(inputs):
        marks.append(len(probes) - 1)
        start = time.thread_time()
        try:
            rep, text = trace.run_root(i, verdict, inp) if trace else verdict(inp)
            error = None
        except Exception as exc:  # a failed verdict is counted, not fatal
            rep = text = None
            error = f"{type(exc).__name__}: {exc}"
        secs = time.thread_time() - start
        outcomes.append((secs, rep, text, error))
        since += secs
        if since >= PROBE_EVERY_S or i == len(inputs) - 1:
            probes.append(hostspeed.probe())
            since = 0.0
    wall_s = time.perf_counter() - begin
    if trace:
        trace.uninstall()
    # input i ran between probes[marks[i]] and probes[marks[i] + 1]
    scales = [2.0 * hostspeed.REF_MS / (probes[m] + probes[m + 1])
              for m in marks]

    records = []
    for inp, scale, (secs, rep, text, error) in zip(inputs, scales, outcomes):
        failure = error if rep is None else check(inp, rep, text)
        records.append({
            "label": inp.label,
            "ms": secs * scale * 1000.0,
            "cpu_ms": secs * 1000.0,
            "verdict": None if rep is None else
            [rep.status, rep.f_pure, rep.f_liftable, rep.conclusive],
            "stages_ms": None if rep is None else
            {k: rep.timings_ms.get(k, 0.0) for k in tracer.STAGES},
            "failure": failure,
        })
    result = {"setup_s": setup_s, "setup_cpu_s": setup_cpu_s,
              "wall_s": wall_s, "probe_ms": statistics.median(probes),
              "peak_rss_mb": peak_rss_mb(), "inputs": records}
    if trace:
        result["spans"] = trace.spans
        result["counters"] = trace.counters
    return result


def main(argv: list) -> int:
    workload, seed, index, mode = argv[:4]
    if mode not in ("plain", "traced", "setup"):
        raise SystemExit(f"unknown mode {mode!r}")
    limit = int(argv[4]) if len(argv) > 4 else None
    result = run_pass(workload, int(seed), int(index), mode, limit)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
