"""Serialization of classification reports: JSON (schema "fliftlab/1"),
and the one renderer per format that the commands share: CSV and
markdown tables, aligned text tables and plain text.

JSON schema (stable, versioned):
  { version, p, variables: [...], generators: [...], status, f_pure,
    f_liftable, conclusive, order,
    certificate: { fedder_survivor, sigma_trace_constant, g: [...],
                   remainder, cofactors? } | null,
    timings_ms: { isolated, fedder, delta1, groebner, total } }

Polynomials appear as canonical text; a complete-intersection remainder
is the coordinate list joined into a vector "(r1, r2)".  Certificates
make every verdict independently re-checkable.
"""

from __future__ import annotations

import json

from .criteria import Certificate, LiftabilityReport
from .fp_poly import PolyRing, format_monomial, format_poly

SCHEMA_VERSION = "fliftlab/1"

CSV_HEADER = "p,family,params,f_pure,f_liftable,conclusive,ms"

_TIMING_KEYS = ("isolated", "fedder", "delta1", "groebner", "total")


def _poly_vector_text(polys) -> str:
    texts = [format_poly(q) for q in polys]
    if len(texts) == 1:
        return texts[0]
    return "(" + ", ".join(texts) + ")"


def certificate_to_dict(cert: Certificate | None, variables) -> dict | None:
    if cert is None:
        return None
    out = {
        "fedder_survivor": (format_monomial(cert.fedder_survivor, tuple(variables))
                            if cert.fedder_survivor is not None else None),
        "sigma_trace_constant": cert.sigma_trace_constant,
        "g": [format_poly(g) for g in cert.g] if cert.g is not None else None,
        "remainder": (_poly_vector_text(cert.remainder)
                      if cert.remainder is not None else None),
    }
    if cert.cofactors is not None:
        out["cofactors"] = [format_poly(c) for c in cert.cofactors]
    return out


def report_to_dict(report: LiftabilityReport) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "p": report.p,
        "variables": list(report.variables),
        "generators": list(report.generators),
        "status": report.status,
        "f_pure": report.f_pure,
        "f_liftable": report.f_liftable,
        "conclusive": report.conclusive,
        "order": report.order,
        "certificate": certificate_to_dict(report.certificate, report.variables),
        "timings_ms": {k: report.timings_ms.get(k, 0.0) for k in _TIMING_KEYS},
    }


def report_from_dict(d: dict) -> LiftabilityReport:
    """Rebuild a report from its JSON form (round-trip support).

    Certificate polynomials are reparsed in a reconstructed ring.
    """
    if d.get("version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported report version {d.get('version')!r}")
    ring = PolyRing(d["variables"], d["p"])
    cert = None
    cd = d.get("certificate")
    if cd is not None:
        survivor = None
        if cd.get("fedder_survivor"):
            mono = ring.parse(cd["fedder_survivor"])
            survivor = next(iter(mono.terms))
        g = tuple(ring.parse(t) for t in cd["g"]) if cd.get("g") else None
        remainder = None
        if cd.get("remainder") is not None:
            text = cd["remainder"]
            if text.startswith("("):
                parts = text[1:-1].split(", ")
            else:
                parts = [text]
            remainder = tuple(ring.parse(t) for t in parts)
        cofactors = (tuple(ring.parse(t) for t in cd["cofactors"])
                     if cd.get("cofactors") else None)
        cert = Certificate(fedder_survivor=survivor,
                           sigma_trace_constant=cd["sigma_trace_constant"],
                           g=g, remainder=remainder, cofactors=cofactors)
    return LiftabilityReport(
        p=d["p"], variables=tuple(d["variables"]),
        generators=tuple(d["generators"]), status=d["status"],
        f_pure=d["f_pure"], f_liftable=d["f_liftable"],
        conclusive=d["conclusive"], certificate=cert,
        timings_ms=dict(d["timings_ms"]), order=d.get("order", "grevlex"))


def report_to_json(report: LiftabilityReport, indent: int | None = 2) -> str:
    return json.dumps(report_to_dict(report), indent=indent)


def _yn(v: bool | None) -> str:
    if v is None:
        return "-"
    return "Y" if v else "N"


def _cell(v) -> str:
    """Y/N/- for a verdict field, str() for anything else."""
    return _yn(v) if v is None or isinstance(v, bool) else str(v)


def csv_table(rows) -> str:
    """CSV_HEADER, then one line per (p, family, params, f_pure,
    f_liftable, conclusive, ms) row."""
    lines = [CSV_HEADER]
    lines += [",".join(_cell(c) for c in cells) + f",{ms:.1f}"
              for *cells, ms in rows]
    return "\n".join(lines) + "\n"


def markdown_table(header, rows) -> str:
    """A `|` inside a cell is escaped as `\\|`, so it splits no column."""
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(_cell(c).replace("|", "\\|") for c in row)
              + " |" for row in rows]
    return "\n".join(lines) + "\n"


def text_table(header, rows) -> str:
    """Columns padded to their widest cell, trailing blanks stripped."""
    body = [[_cell(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in body))
              for i, h in enumerate(header)]
    return "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                   + "\n" for row in [header, *body])


def sweep_text(rows) -> str:
    """One line per (p, exponents, f_pure, f_liftable, conclusive, ms) row."""
    return "".join(f"p={p} {tuple(t)}: F-pure={_yn(pure)} "
                   f"F-liftable={_yn(lift)} conclusive={_yn(concl)} "
                   f"({ms:.1f} ms)\n"
                   for p, t, pure, lift, concl, ms in rows)


def report_text(report: LiftabilityReport) -> str:
    lines = [
        f"p             : {report.p}",
        f"variables     : {', '.join(report.variables)}",
    ]
    for i, g in enumerate(report.generators):
        label = "generator" if len(report.generators) == 1 else f"generator {i+1}"
        lines.append(f"{label:<14}: {g}")
    lines += [
        f"status        : {report.status}",
        f"F-pure        : {_yn(report.f_pure)}",
        f"F-liftable    : {_yn(report.f_liftable)}",
        f"conclusive    : {_yn(report.conclusive)}",
        f"order         : {report.order}",
    ]
    cert = report.certificate
    if cert is not None:
        surv = (format_monomial(cert.fedder_survivor, report.variables)
                if cert.fedder_survivor is not None else "-")
        lines.append(f"fedder witness: {surv}")
        lines.append(f"sigma(1)(0)   : {cert.sigma_trace_constant}")
        if cert.g is not None:
            lines.append(f"g             : {_poly_vector_text(cert.g)}")
        if cert.remainder is not None:
            lines.append(f"remainder     : {_poly_vector_text(cert.remainder)}")
        if cert.cofactors is not None:
            lines.append("cofactors     : " +
                         "; ".join(format_poly(c) for c in cert.cofactors))
    ms = report.timings_ms.get("total", 0.0)
    lines.append(f"time          : {ms:.1f} ms")
    return "\n".join(lines)
