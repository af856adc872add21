"""Command-line front end: classify ad-hoc equations, reproduce the
rational-double-point table, and run cusp parameter sweeps, writing text,
json, csv or md.

Exit codes: 0 success (any verdict), 1 input/usage/parse error (also
table --check mismatches), 2 resource limit (degree guard), 3 criterion
inapplicable (singular locus not isolated), 130 interrupted sweep.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import signal
import sys
from collections import namedtuple
from multiprocessing import Pool

from .catalog import (cusp_ci_admissible, cusp_ci_symmetry_class,
                      cusp_hyp_admissible, cusp_hyp_symmetry_class,
                      enumerate_table_rows, make_cusp_ci,
                      make_cusp_hypersurface)
from .criteria import classify as _classify_gens
from .fp_poly import (DEFAULT_MAX_DEGREE, DegreeGuardError, FpPolyError,
                      PolyRing, check_prime, check_variables, format_poly)
from .report import (SCHEMA_VERSION, csv_table, json_text, markdown_table,
                     report_text, report_to_dict, sweep_text, text_table)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RESOURCE = 2
EXIT_INAPPLICABLE = 3
EXIT_INTERRUPTED = 130

CURSOR_FILE = ".fliftlab_cursor"

# A sweep family: `make(p, *exponents, max_degree=...)` gives its
# generators, `admissible(*exponents)` its parameter range, `symmetry` the
# representative of an exponent tuple's class under variable relabelings,
# and `arity` the number of exponents.
_Family = namedtuple("_Family", "make admissible symmetry arity")

SWEEP_FAMILIES = {
    "cusp_hyp": _Family(
        lambda p, *t, max_degree: [make_cusp_hypersurface(
            p, *t, max_degree=max_degree)],
        cusp_hyp_admissible, cusp_hyp_symmetry_class, 3),
    "cusp_ci": _Family(make_cusp_ci, cusp_ci_admissible,
                       cusp_ci_symmetry_class, 4),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _typed(rule, convert=int):
    """The type of a flag: its text converted, by default to an int,
    then passed by `rule`, whose ValueError becomes the flag's error."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        try:
            return rule(value)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
    return parse


def _at_least(low: int):
    def rule(value: int) -> int:
        if value < low:
            raise ValueError(f"must be at least {low}")
        return value
    return _typed(rule)


# classify's `--p`, and each entry of a sweep's; classify's `--vars`, as
# comma-separated names, which `PolyRing`'s rules check in both
_prime = _typed(check_prime)
_names = _typed(check_variables, lambda text: [
    v.strip() for v in text.split(",") if v.strip()])


def _primes(text: str) -> tuple[int, ...]:
    """A sweep's `--p`: one prime or a comma-separated list of distinct
    primes."""
    try:
        primes = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad prime list {text!r}")
    if not primes or len(set(primes)) != len(primes):
        raise argparse.ArgumentTypeError("must list distinct primes")
    return tuple(_prime(str(q)) for q in primes)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fliftlab",
                     description="F-purity and F-liftability of isolated "
                                 "hypersurface and complete-intersection "
                                 "singularities over prime fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    def output(sp):
        sp.add_argument("--format", default="text",
                        choices=("text", "json", "csv", "md"))

    sp = sub.add_parser("classify", help="classify ad-hoc equations")
    sp.add_argument("--p", type=_prime, required=True)
    sp.add_argument("--vars", type=_names, required=True,
                    help="comma-separated variable names")
    sp.add_argument("--poly", action="append", required=True,
                    help="equation text; repeat for a complete intersection")
    sp.add_argument("--certificates", action="store_true")
    sp.add_argument("--max-degree", type=_at_least(1),
                    default=DEFAULT_MAX_DEGREE)
    output(sp)

    sp = sub.add_parser("table", help="reproduce the RDP table")
    sp.add_argument("--n-max", type=_at_least(1), default=8)
    sp.add_argument("--check", action="store_true",
                    help="compare with the expected columns; exit nonzero "
                         "on any mismatch")
    output(sp)

    sp = sub.add_parser("sweep", help="classify a cusp family over a range")
    sp.add_argument("family", choices=tuple(SWEEP_FAMILIES))
    sp.add_argument("--p", dest="primes", type=_primes, required=True,
                    help="a prime or comma-separated distinct primes")
    sp.add_argument("--max", type=_at_least(2), required=True,
                    help="upper bound for all exponents")
    sp.add_argument("--resume", action="store_true",
                    help="skip tuples up to the cursor file")
    sp.add_argument("--jobs", type=_at_least(1), default=1)
    sp.add_argument("--max-degree", type=_at_least(1),
                    default=DEFAULT_MAX_DEGREE)
    output(sp)
    return parser


# --------------------------------------------------------------------- classify

def _cmd_classify(args, out) -> int:
    ring = PolyRing(args.vars, args.p, args.max_degree)
    gens = [ring.parse(text) for text in args.poly]
    report = _classify_gens(gens, certificates=args.certificates)
    if args.format == "json":
        out.write(json_text([report_to_dict(report)]) + "\n")
    elif args.format == "csv":
        out.write(csv_table([_csv_row(report, "adhoc", ";".join(args.poly))]))
    elif args.format == "md":
        out.write(markdown_table(
            ("p", "generators", "F-pure", "F-liftable", "conclusive"),
            [(report.p, "; ".join(report.generators), report.f_pure,
              report.f_liftable, report.conclusive)]))
    else:
        out.write(report_text(report) + "\n")
    return EXIT_INAPPLICABLE if report.status == "not_isolated" else EXIT_OK


def _csv_row(report, family: str, params: str) -> tuple:
    return (report.p, family, params, report.f_pure, report.f_liftable,
            report.conclusive, report.timings_ms.get("total", 0.0))


# --------------------------------------------------------------------- table

def _cmd_table(args, out) -> int:
    rows = []
    for inst in enumerate_table_rows(args.n_max):
        report = _classify_gens([inst.poly])
        expected = inst.expected
        ok = (report.f_pure, report.f_liftable) == \
            (expected.f_pure, expected.f_liftable)
        rows.append((inst, report, ok))
    mismatches = sum(not ok for inst, report, ok in rows)

    if args.format == "json":
        payload = []
        for inst, report, ok in rows:
            d = report_to_dict(report)
            d["family"] = inst.row.row_label
            d["params"] = dict(inst.params)
            d["expected"] = {"f_pure": inst.expected.f_pure,
                             "f_liftable": inst.expected.f_liftable}
            d["match"] = ok
            payload.append(d)
        out.write(json_text(payload) + "\n")
    elif args.format == "csv":
        out.write(csv_table(
            [_csv_row(report, inst.row.row_label,
                      ";".join(f"{k}={v}" for k, v in inst.params))
             for inst, report, ok in rows]))
    else:
        header = ("p", "type", "params", "equation", "F-pure", "F-liftable",
                  "F-regular (lit.)", "RET (lit.)", "LET (lit.)")
        body = [(inst.p, inst.row.row_label,
                 ",".join(f"{k}={v}" for k, v in inst.params) or "-",
                 format_poly(inst.poly), report.f_pure, report.f_liftable,
                 inst.expected.f_regular_ref, inst.expected.ret_ref,
                 inst.expected.let_ref)
                for inst, report, ok in rows]
        render = markdown_table if args.format == "md" else text_table
        out.write(render(header, body))
    if args.check:
        # on stderr, so that stdout stays one document in every format
        print(f"check: {mismatches} mismatches", file=sys.stderr)
    return EXIT_INPUT if args.check and mismatches else EXIT_OK


# --------------------------------------------------------------------- sweep

def _sweep_tuples(args):
    """All admissible tuples in deterministic order: (p, exponents)."""
    family = SWEEP_FAMILIES[args.family]
    exponents = range(2, args.max + 1)
    return [(p, t) for p in args.primes
            for t in itertools.product(exponents, repeat=family.arity)
            if family.admissible(*t)]


def _sweep_worker(task):
    family, p, cls, max_degree = task
    gens = SWEEP_FAMILIES[family].make(p, *cls, max_degree=max_degree)
    report = _classify_gens(gens)
    return (family, p, cls, report.status, report.f_pure, report.f_liftable,
            report.conclusive, report.timings_ms.get("total", 0.0))


def _cursor_text(family, p, exponents) -> str:
    return " ".join([family, str(p)] + [str(e) for e in exponents])


def _read_cursor() -> tuple | None:
    """The cursor's (family, p, exponents), or None when there is no cursor
    file.  A cursor file that cannot be read or parsed is a usage error."""
    try:
        with open(CURSOR_FILE, "r", encoding="utf-8") as fh:
            family, p, *exponents = fh.read().split()
        if len(exponents) == SWEEP_FAMILIES[family].arity:
            return (family, int(p), tuple(int(e) for e in exponents))
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError):
        pass
    raise UsageError(f"bad cursor file {CURSOR_FILE}: expected one line "
                     f"'family p exponents...'")


def _write_cursor(family, p, exponents) -> None:
    """Replace the cursor file atomically: write a temporary file, then
    rename it over the cursor.  A write that fails leaves the previous
    cursor in place and removes the temporary file."""
    tmp = CURSOR_FILE + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(_cursor_text(family, p, exponents) + "\n")
        os.replace(tmp, CURSOR_FILE)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


@contextlib.contextmanager
def _sigterm_interrupts():
    """SIGTERM stops the block as SIGINT does, by KeyboardInterrupt; the
    previous handler is back in place afterwards."""
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _cmd_sweep(args, out) -> int:
    family = args.family
    symmetry = SWEEP_FAMILIES[family].symmetry
    tuples = _sweep_tuples(args)
    if args.resume:
        cursor = _read_cursor()
        # a cursor of another family or range leaves the sweep whole
        if cursor is not None and cursor[0] == family and cursor[1:] in tuples:
            tuples = tuples[tuples.index(cursor[1:]) + 1:]

    # classify one representative per symmetry class; verdicts transfer
    # along variable relabelings
    classes = sorted({(p, symmetry(t)) for p, t in tuples})
    tasks = [(family, p, cls, args.max_degree) for p, cls in classes]
    results: dict[tuple, tuple] = {}

    interrupted = False
    try:
        with contextlib.ExitStack() as stack:
            run = map
            if args.jobs > 1 and len(tasks) > 1:
                # the handler goes in after the workers start, so that they
                # keep the default one and Pool.terminate() still stops them
                pool = stack.enter_context(Pool(min(args.jobs, len(tasks))))
                run = functools.partial(pool.imap, chunksize=4)
            stack.enter_context(_sigterm_interrupts())
            for res in run(_sweep_worker, tasks):
                results[(res[1], res[2])] = res
    except KeyboardInterrupt:
        interrupted = True

    emitted = []
    for p, t in tuples:
        key = (p, symmetry(t))
        if key not in results:
            break
        emitted.append((p, t) + results[key][3:])

    non_liftable = [(p, t) for (p, t, status, pure, lift, concl, ms) in emitted
                    if lift is not True]
    if args.format == "json":
        payload = {
            "version": SCHEMA_VERSION, "command": "sweep", "family": family,
            "results": [
                {"p": p, "params": list(t), "status": status, "f_pure": pure,
                 "f_liftable": lift, "conclusive": concl, "ms": ms}
                for (p, t, status, pure, lift, concl, ms) in emitted],
            "summary": {"total": len(emitted),
                        "liftable": len(emitted) - len(non_liftable),
                        "non_liftable": [
                            {"p": p, "params": list(t)} for p, t in non_liftable]},
        }
        out.write(json_text(payload) + "\n")
    elif args.format == "csv":
        out.write(csv_table(
            [(p, family, ";".join(f"{n}={v}" for n, v in zip("abcd", t)),
              pure, lift, concl, ms)
             for (p, t, status, pure, lift, concl, ms) in emitted]))
    else:
        if args.format == "md":
            exponents = "abcd"[:SWEEP_FAMILIES[family].arity]
            out.write(markdown_table(
                ("p", *exponents, "F-pure", "F-liftable", "conclusive"),
                [(p, *t, pure, lift, concl)
                 for (p, t, status, pure, lift, concl, ms) in emitted]))
        else:
            out.write(sweep_text(
                [(p, t, pure, lift, concl, ms)
                 for (p, t, status, pure, lift, concl, ms) in emitted]))
        out.write(f"summary: {len(emitted)} tuples, "
                  f"{len(emitted) - len(non_liftable)} liftable, "
                  f"{len(non_liftable)} not liftable\n")
        for p, t in non_liftable:
            out.write(f"NOT LIFTABLE: p={p} {tuple(t)}\n")

    if interrupted and emitted:
        p, t = emitted[-1][:2]
        try:
            _write_cursor(family, p, t)
            notice = f"cursor at {_cursor_text(family, p, t)}"
        except OSError as exc:
            notice = f"cursor not saved: {exc}"
        # on stderr, so that the rows on stdout still parse
        print(f"interrupted; {notice}", file=sys.stderr)
    return EXIT_INTERRUPTED if interrupted else EXIT_OK


# --------------------------------------------------------------------- main

_COMMANDS = {"classify": _cmd_classify, "table": _cmd_table,
             "sweep": _cmd_sweep}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args, sys.stdout)
    except DegreeGuardError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    # parse, prime and parameter errors are FpPolyError or ValueError
    except (UsageError, FpPolyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
