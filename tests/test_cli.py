"""Command-line interface: flags, formats, exit codes, determinism."""

import errno
import json
import os
import re
import signal
import time
from pathlib import Path

import pytest

from fliftlab.cli import (CURSOR_FILE, EXIT_INAPPLICABLE, EXIT_INPUT,
                          EXIT_INTERRUPTED, EXIT_OK, EXIT_RESOURCE, main)
from fliftlab.cli import _sweep_worker as _real_sweep_worker


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_json_e81(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "5", "--vars", "x,y,z",
                           "--poly", "z^2+x^3+y^5+x*y^4", "--format", "json")
    assert code == EXIT_OK
    reports = json.loads(out)
    assert len(reports) == 1
    rep = reports[0]
    assert rep["f_pure"] is True and rep["f_liftable"] is False
    assert rep["version"] == "fliftlab/1"


def test_classify_ci(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "2", "--vars", "x,y,z,w",
                           "--poly", "x*y+z^3+w^2", "--poly", "z*w+x^2+y^2",
                           "--format", "json")
    assert code == EXIT_OK
    rep = json.loads(out)[0]
    assert rep["f_liftable"] is True
    assert len(rep["generators"]) == 2


def test_classify_ci_cuspidal_curve_is_not_smooth(capsys):
    # (x, x+y^2-z^3) is the plane cusp y^2 = z^3, not F-pure at p = 5
    code, out, _ = run_cli(capsys, "classify", "--p", "5", "--vars", "x,y,z",
                           "--poly", "x", "--poly", "x+y^2-z^3",
                           "--format", "json")
    assert code == EXIT_OK
    rep = json.loads(out)[0]
    assert rep["status"] == "classified"
    assert (rep["f_pure"], rep["f_liftable"], rep["conclusive"]) == \
        (False, False, True)


def test_classify_nonprime_exit_1(capsys):
    code, out, err = run_cli(capsys, "classify", "--p", "4", "--vars", "x",
                             "--poly", "x")
    assert code == EXIT_INPUT
    assert "not prime" in err


def test_classify_parse_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "classify", "--p", "5", "--vars", "x",
                           "--poly", "x + q")
    assert code == EXIT_INPUT
    assert "unknown identifier" in err


def test_classify_not_isolated_exit_3(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "3", "--vars", "x,y,z",
                           "--poly", "x^2")
    assert code == EXIT_INAPPLICABLE
    assert "not_isolated" in out


def test_classify_degree_guard_exit_2(capsys):
    code, _, err = run_cli(capsys, "classify", "--p", "2", "--vars", "x,y,z",
                           "--poly", "z^2+x^2*y+x*y^2+x*y*z",
                           "--max-degree", "3")
    assert code == EXIT_RESOURCE
    assert "guard" in err


def test_env_var_degree_guard(capsys, monkeypatch):
    monkeypatch.setenv("FLIFTLAB_MAX_DEGREE", "3")
    code, _, err = run_cli(capsys, "classify", "--p", "2", "--vars", "x,y,z",
                           "--poly", "z^2+x^2*y+x*y^2+x*y*z")
    assert code == EXIT_RESOURCE
    monkeypatch.setenv("FLIFTLAB_MAX_DEGREE", "10000")
    code, _, _ = run_cli(capsys, "classify", "--p", "2", "--vars", "x,y,z",
                         "--poly", "z^2+x^2*y+x*y^2+x*y*z")
    assert code == EXIT_OK


def test_usage_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "sweep", "cusp_hyp", "--max", "6")
    assert code == EXIT_INPUT
    code, _, err = run_cli(capsys, "sweep", "cusp_hyp", "--p", "2")
    assert code == EXIT_INPUT
    code, _, err = run_cli(capsys, "classify", "--p", "5", "--vars", "x")
    assert code == EXIT_INPUT  # missing --poly
    code, _, err = run_cli(capsys, "nonsense")
    assert code == EXIT_INPUT
    # an empty or repeated prime list is no sweep
    for primes in (",", "5,5"):
        code, out, err = run_cli(capsys, "sweep", "cusp_hyp", "--p-set",
                                 primes, "--max", "4")
        assert code == EXIT_INPUT and "--p-set" in err and not out, primes
    # each flag exists only on the commands that read it
    for argv in (("table", "--jobs", "2"), ("identity", "--format", "json"),
                 ("classify", "--p", "2", "--vars", "x", "--poly", "x",
                  "--jobs", "2")):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT and "unrecognized arguments" in err, argv


def test_verdict_not_liftable_is_exit_0(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "2", "--vars", "x,y,z",
                           "--poly", "z^2+x^2*y+x*y^3")
    assert code == EXIT_OK
    assert "F-liftable    : N" in out


def test_table_check_small(capsys):
    code, out, err = run_cli(capsys, "table", "--check", "--n-max", "2")
    assert code == EXIT_OK
    assert err == "check: 0 mismatches\n"
    assert "check:" not in out


def test_table_check_keeps_json_and_csv_parseable(capsys):
    # the check line goes to stderr, so stdout is the payload alone
    argv = ("table", "--n-max", "2", "--check", "--format")
    code, out, err = run_cli(capsys, *argv, "json")
    assert code == EXIT_OK and err == "check: 0 mismatches\n"
    assert all(row["match"] for row in json.loads(out))
    code, out, err = run_cli(capsys, *argv, "csv")
    assert code == EXIT_OK and err == "check: 0 mismatches\n"
    header, *rows = out.splitlines()
    assert header == "p,family,params,f_pure,f_liftable,conclusive,ms"
    assert rows and all(len(row.split(",")) == 7 for row in rows)


def test_table_md_format(capsys):
    code, out, _ = run_cli(capsys, "table", "--n-max", "2", "--format", "md")
    assert code == EXIT_OK
    assert out.startswith("| p | type |")
    assert "| E_8^4 | - |" in out.replace("  ", " ") or "E_8^4" in out


def test_table_row_e84(capsys):
    code, out, _ = run_cli(capsys, "table", "--n-max", "2")
    line = next(l for l in out.splitlines() if "E_8^4" in l)
    # computed F-pure Y, F-liftable Y
    assert re.search(r"\bY\s+Y\b", line)


def test_sweep_text_and_summary(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "sweep", "cusp_hyp", "--p", "2",
                           "--max", "6")
    assert code == EXIT_OK
    assert "summary: 87 tuples, 87 liftable, 0 not liftable" in out


def test_sweep_deterministic_output(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "sweep", "cusp_hyp", "--p", "2",
                               "--max", "5", "--format", "csv")
        assert code == EXIT_OK
        # timings vary run to run; strip the trailing ms column
        outs.append("\n".join(line.rsplit(",", 1)[0]
                              for line in out.splitlines()))
    assert outs[0] == outs[1]


def test_sweep_json_summary(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "sweep", "cusp_ci", "--p", "2",
                           "--max", "3", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["family"] == "cusp_ci"
    assert payload["summary"]["non_liftable"] == []
    assert payload["summary"]["total"] == payload["summary"]["liftable"]
    # all admissible tuples are enumerated, not just symmetry classes
    assert payload["summary"]["total"] == 2 ** 4 - 1


def test_sweep_resume_skips_cursor(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, full, _ = run_cli(capsys, "sweep", "cusp_hyp", "--p", "2",
                            "--max", "6", "--format", "csv")
    assert code == EXIT_OK
    lines = [l for l in full.splitlines()[1:] if l]
    k = 40
    p, fam, params = lines[k - 1].split(",")[:3]
    exps = [kv.split("=")[1] for kv in params.split(";")]
    with open(CURSOR_FILE, "w") as fh:
        fh.write(" ".join(["cusp_hyp", p] + exps) + "\n")
    code, resumed, _ = run_cli(capsys, "sweep", "cusp_hyp", "--p", "2",
                               "--max", "6", "--format", "csv", "--resume")
    assert code == EXIT_OK
    resumed_lines = [l for l in resumed.splitlines()[1:] if l]
    strip = lambda ls: [l.rsplit(",", 1)[0] for l in ls]
    assert strip(resumed_lines) == strip(lines[k:])


@pytest.mark.parametrize("cursor", ["cusp_hyp x 2 3", "cusp_hyp 2", "",
                                    "cusp_hyp 2 3 4 5 6", "cusp_foo 2 3 4 5"])
def test_malformed_cursor_is_a_usage_error(cursor, capsys, tmp_path,
                                           monkeypatch):
    # the sweep stops before it classifies anything, naming the file
    import fliftlab.cli as cli_mod

    def no_worker(task):
        raise AssertionError("a class was classified")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli_mod, "_sweep_worker", no_worker)
    Path(CURSOR_FILE).write_text(cursor + "\n")
    code, out, err = run_cli(capsys, "sweep", "cusp_hyp", "--p", "2",
                             "--max", "5", "--resume")
    assert code == EXIT_INPUT and not out
    assert err.startswith("error: ") and CURSOR_FILE in err


def test_sweep_interrupt_flushes_partial_and_cursor(capsys, tmp_path, monkeypatch):
    import fliftlab.cli as cli_mod

    monkeypatch.chdir(tmp_path)
    real_worker = cli_mod._sweep_worker
    calls = {"n": 0}

    def flaky_worker(task):
        calls["n"] += 1
        if calls["n"] > 10:
            raise KeyboardInterrupt
        return real_worker(task)

    monkeypatch.setattr(cli_mod, "_sweep_worker", flaky_worker)
    code, out, err = run_cli(capsys, "sweep", "cusp_hyp", "--p", "2",
                             "--max", "7")
    assert code == 130
    assert "interrupted; cursor at cusp_hyp 2 " in err
    assert os.path.exists(CURSOR_FILE)
    # partial per-tuple lines were flushed before the summary
    assert out.count("F-liftable=") >= 10

    monkeypatch.setattr(cli_mod, "_sweep_worker", real_worker)
    code, resumed, _ = run_cli(capsys, "sweep", "cusp_hyp", "--p", "2",
                               "--max", "7", "--resume")
    assert code == EXIT_OK
    first_resumed = resumed.splitlines()[0]
    assert first_resumed not in out


def test_interrupted_json_sweep_still_parses(capsys, tmp_path, monkeypatch):
    # the interrupt notice goes to stderr, so stdout stays one JSON
    # document holding the rows up to the cursor
    import fliftlab.cli as cli_mod

    monkeypatch.chdir(tmp_path)
    real_worker = cli_mod._sweep_worker
    calls = {"n": 0}

    def flaky_worker(task):
        calls["n"] += 1
        if calls["n"] > 10:
            raise KeyboardInterrupt
        return real_worker(task)

    monkeypatch.setattr(cli_mod, "_sweep_worker", flaky_worker)
    code, out, err = run_cli(capsys, "sweep", "cusp_hyp", "--p", "2",
                             "--max", "7", "--format", "json")
    assert code == EXIT_INTERRUPTED
    payload = json.loads(out)
    results = payload["results"]
    assert len(results) >= 10
    assert payload["summary"]["total"] == len(results)
    last = results[-1]
    cursor = " ".join(map(str, ["cusp_hyp", last["p"], *last["params"]]))
    assert f"interrupted; cursor at {cursor}" in err


def test_sweep_sigterm_flushes_partial_and_cursor(capsys, tmp_path, monkeypatch):
    # SIGTERM stops a serial sweep as SIGINT does, and the handler the run
    # found is back in place afterwards
    import fliftlab.cli as cli_mod

    class Unhandled(Exception):
        pass

    def outer(signum, frame):
        raise Unhandled("SIGTERM reached the handler outside the sweep")

    monkeypatch.chdir(tmp_path)
    real_worker = cli_mod._sweep_worker
    calls = {"n": 0}

    def terminated_worker(task):
        calls["n"] += 1
        if calls["n"] > 10:
            os.kill(os.getpid(), signal.SIGTERM)
        return real_worker(task)

    monkeypatch.setattr(cli_mod, "_sweep_worker", terminated_worker)
    previous = signal.signal(signal.SIGTERM, outer)
    try:
        code, out, err = run_cli(capsys, "sweep", "cusp_hyp", "--p", "2",
                                 "--max", "7")
        assert signal.getsignal(signal.SIGTERM) is outer
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert code == EXIT_INTERRUPTED
    assert "interrupted; cursor at cusp_hyp 2 " in err
    assert os.path.exists(CURSOR_FILE)
    assert out.count("F-liftable=") >= 10


# The worker of this class, the 23rd of 44 in `sweep cusp_hyp --p 2 --max
# 7`, sends SIGTERM to the sweep.  A Pool worker must be a module-level
# function, as it is sent to the workers by name.
def _terminating_worker(task):
    if task[2] == (3, 6, 7):
        # let the parent take the results of the earlier chunks first
        time.sleep(0.3)
        os.kill(os.getppid(), signal.SIGTERM)
    return _real_sweep_worker(task)


def test_sweep_pool_sigterm_flushes_partial_and_cursor(capsys, tmp_path,
                                                       monkeypatch):
    # a SIGTERM from a worker stops a --jobs 2 sweep as SIGINT does: exit
    # 130 with the rows so far and the cursor, the previous handler back
    # in place; the resumed rows complete the uninterrupted run
    import fliftlab.cli as cli_mod

    monkeypatch.chdir(tmp_path)
    sweep = ("sweep", "cusp_hyp", "--p", "2", "--max", "7", "--format",
             "csv")
    code, full, _ = run_cli(capsys, *sweep)
    assert code == EXIT_OK
    rows = lambda text: [l.rsplit(",", 1)[0] for l in text.splitlines()[1:]
                         if l]
    monkeypatch.setattr(cli_mod, "_sweep_worker", _terminating_worker)
    previous = signal.getsignal(signal.SIGTERM)
    code, out, err = run_cli(capsys, *sweep, "--jobs", "2")
    assert signal.getsignal(signal.SIGTERM) is previous
    assert code == EXIT_INTERRUPTED
    assert "interrupted; cursor at cusp_hyp 2 " in err
    assert os.path.exists(CURSOR_FILE)
    partial = rows(out)
    assert 0 < len(partial) < len(rows(full))

    monkeypatch.setattr(cli_mod, "_sweep_worker", _real_sweep_worker)
    code, resumed, _ = run_cli(capsys, *sweep, "--jobs", "2", "--resume")
    assert code == EXIT_OK
    assert partial + rows(resumed) == rows(full)


def test_cursor_write_is_atomic(tmp_path, monkeypatch):
    # a write that fails midway (here: a full disk after a few bytes)
    # leaves the previous cursor intact and no temporary file behind
    import fliftlab.cli as cli_mod

    monkeypatch.chdir(tmp_path)
    cli_mod._write_cursor("cusp_hyp", 2, (2, 3, 5))
    before = Path(CURSOR_FILE).read_text()
    real_open = open

    def full_disk_open(path, mode="r", **kwargs):
        fh = real_open(path, mode, **kwargs)
        if "w" in mode:
            def write(text):
                fh.buffer.write(text[:3].encode())
                fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")
            fh.write = write
        return fh

    monkeypatch.setattr(cli_mod, "open", full_disk_open, raising=False)
    with pytest.raises(OSError):
        cli_mod._write_cursor("cusp_hyp", 2, (2, 3, 7))
    assert Path(CURSOR_FILE).read_text() == before
    assert os.listdir(tmp_path) == [CURSOR_FILE]


def test_full_range_flag_conflicts(capsys):
    code, _, err = run_cli(capsys, "sweep", "cusp_hyp", "--full-range",
                           "--max", "6")
    assert code == EXIT_INPUT
    assert "fixes" in err


def test_table_json_and_csv_formats(capsys):
    code, out, _ = run_cli(capsys, "table", "--n-max", "2", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    e81 = next(r for r in rows if r["family"] == "E_8^1" and r["p"] == 5)
    assert e81["f_pure"] is True and e81["f_liftable"] is False
    assert e81["expected"] == {"f_pure": True, "f_liftable": False}
    assert e81["match"] is True

    code, out, _ = run_cli(capsys, "table", "--n-max", "2", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "p,family,params,f_pure,f_liftable,conclusive,ms"
    assert any(l.startswith("5,E_8^1,,Y,N,Y,") for l in out.splitlines())


GOLDEN = Path(__file__).parent / "golden"

# timings vary run to run: "12.3 ms" in text, the trailing csv column
_TIMING = re.compile(r"\d+\.\d(?= ms)|(?<=,)\d+\.\d$", re.M)

_E81 = ("classify", "--p", "5", "--vars", "x,y,z",
        "--poly", "z^2+x^3+y^5+x*y^4")
_SWEEP_CI = ("sweep", "cusp_ci", "--p", "2", "--max", "3")
# certified runs: their goldens pin the cofactors too
_CUSP237_P3 = ("classify", "--p", "3", "--vars", "x,y,z",
               "--poly", "x^2+y^3+z^7+x*y*z", "--certificates")
_CI_P2 = ("classify", "--p", "2", "--vars", "x,y,z,w",
          "--poly", "x^2+y^3+z*w", "--poly", "z^2+w^3+x*y", "--certificates")

GOLDEN_RUNS = {
    "table_n8.md": ("table", "--n-max", "8", "--format", "md"),
    "sweep_cusp_ci_p2_max3.txt": _SWEEP_CI,
    "sweep_cusp_ci_p2_max3.md": _SWEEP_CI + ("--format", "md"),
    "sweep_cusp_ci_p2_max3.csv": _SWEEP_CI + ("--format", "csv"),
    "classify_e81_p5.txt": _E81,
    "classify_e81_p5.md": _E81 + ("--format", "md"),
    "classify_e81_p5.csv": _E81 + ("--format", "csv"),
    "classify_cusp237_p3_certificates.txt": _CUSP237_P3,
    "classify_ci_p2_certificates.txt": _CI_P2,
    # plain members past the seed: the membership run stops early
    "sweep_cusp_hyp_p5_max6.csv": ("sweep", "cusp_hyp", "--p", "5", "--max",
                                   "6", "--format", "csv"),
    "identity_n10.txt": ("identity", "--n-max", "10"),
    "table_n3.csv": ("table", "--n-max", "3", "--format", "csv"),
    # the Pool side of the sweep loop
    "sweep_cusp_hyp_p2_max5_jobs2.md": ("sweep", "cusp_hyp", "--p", "2",
                                        "--max", "5", "--format", "md",
                                        "--jobs", "2"),
}


def test_table_text_output_is_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "table", "--n-max", "8")
    assert code == EXIT_OK
    assert out == (GOLDEN / "table_n8.txt").read_text()


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_output_matches_golden(name, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, *GOLDEN_RUNS[name])
    assert code == EXIT_OK
    assert _TIMING.sub("*", out) == (GOLDEN / name).read_text()


def test_sweep_parallel_jobs_matches_serial(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, serial, _ = run_cli(capsys, "sweep", "cusp_hyp", "--p", "2",
                              "--max", "5", "--format", "csv", "--jobs", "1")
    assert code == EXIT_OK
    code, parallel, _ = run_cli(capsys, "sweep", "cusp_hyp", "--p", "2",
                                "--max", "5", "--format", "csv", "--jobs", "2")
    assert code == EXIT_OK
    strip = lambda text: [l.rsplit(",", 1)[0] for l in text.splitlines()]
    assert strip(serial) == strip(parallel)


def test_sweep_md_format(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "sweep", "cusp_ci", "--p", "2",
                           "--max", "3", "--format", "md")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "| p | a | b | c | d | F-pure | F-liftable | conclusive |"


def test_identity_command(capsys):
    code, out, _ = run_cli(capsys, "identity", "--n-max", "3")
    assert code == EXIT_OK
    assert out.count("ok ") == 2 * 2 + 3


def test_classify_csv_and_md(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "5", "--vars", "x,y,z",
                           "--poly", "z^2+x^3+y^5+x*y^4", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "p,family,params,f_pure,f_liftable,conclusive,ms"
    code, out, _ = run_cli(capsys, "classify", "--p", "5", "--vars", "x,y,z",
                           "--poly", "z^2+x^3+y^5+x*y^4", "--format", "md")
    assert code == EXIT_OK
    assert "| 5 |" in out


def test_classify_lex_order(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "5", "--vars", "x,y,z",
                           "--poly", "z^2+x^3+y^5+x*y^4", "--order", "lex",
                           "--format", "json")
    assert code == EXIT_OK
    rep = json.loads(out)[0]
    assert rep["order"] == "lex"
    assert rep["f_pure"] is True and rep["f_liftable"] is False


def test_certificates_flag(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "2", "--vars", "x,y,z",
                           "--poly", "z^2+x^2*y+x*y^2+x*y*z",
                           "--certificates", "--format", "json")
    assert code == EXIT_OK
    rep = json.loads(out)[0]
    assert rep["certificate"]["cofactors"]


def test_duplicate_variables_exit_1(capsys):
    code, _, err = run_cli(capsys, "classify", "--p", "5", "--vars", "x,x",
                           "--poly", "x")
    assert code == EXIT_INPUT
    assert "distinct" in err


def test_console_script_installed():
    import shutil
    import subprocess
    exe = shutil.which("fliftlab")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "identity", "--n-max", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_output_stable_across_hash_seeds():
    # different PYTHONHASHSEED values must not change any output byte
    import subprocess
    import sys

    import fliftlab
    src = os.path.dirname(os.path.dirname(os.path.abspath(fliftlab.__file__)))
    path = os.environ.get("PYTHONPATH")
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run([sys.executable, "-m", "fliftlab.cli", "table",
                               "--n-max", "3"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
