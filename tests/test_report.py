"""Report serialization: schema, JSON round-trip, CSV/text rendering."""

import json
import random
import re
from pathlib import Path

import pytest

from fliftlab.catalog import make_cusp_hypersurface
from fliftlab.cli import main
from fliftlab.criteria import classify
from fliftlab.fp_poly import PolyRing
from fliftlab.report import (CSV_HEADER, csv_table, json_text,
                             markdown_table, report_from_dict, report_text,
                             report_to_dict, report_to_json, text_table)

GOLDEN = Path(__file__).parent / "golden"

SCHEMA_KEYS = {"version", "p", "variables", "generators", "status", "f_pure",
               "f_liftable", "conclusive", "order", "certificate",
               "timings_ms"}


def _sample_report(certificates=False):
    ring = PolyRing(["x", "y", "z"], 5)
    return classify([ring.parse("z^2+x^3+y^5+x*y^4")],
                                 certificates=certificates)


def test_schema_keys():
    d = report_to_dict(_sample_report())
    assert set(d) == SCHEMA_KEYS
    assert d["version"] == "fliftlab/1"
    assert set(d["timings_ms"]) == {"isolated", "fedder", "delta1",
                                    "groebner", "total"}
    cert = d["certificate"]
    assert set(cert) == {"fedder_survivor", "sigma_trace_constant", "g",
                         "remainder"}
    assert cert["fedder_survivor"] == "x^4*y^4*z^4"
    assert cert["sigma_trace_constant"] == 2


def test_json_roundtrip():
    # E_8^1 at p = 5, plain and certified, certified cusp (2,3,7) at
    # p = 3, whose order is weighted, x*y + z^10001 at p = 2, plain and
    # certified, whose g = z^10001 lies past the default degree guard, and
    # a smooth and a not_isolated report, whose certificate is null
    cusp = classify([make_cusp_hypersurface(3, 2, 3, 7)], certificates=True)
    assert cusp.order == "grevlex:4,2,1"
    big = PolyRing(["x", "y", "z"], 2, 40000).parse("x*y+z^10001")
    high = [classify([big], certificates=c) for c in (False, True)]
    # z^10001 lies past the table of factor texts, so the printer's
    # fallback writes it
    assert all(report_to_dict(r)["certificate"]["g"] == ["z^10001"]
               and r.generators == ("z^10001 + x*y",) for r in high)
    ring = PolyRing(["x", "y", "z"], 3)
    bare = [classify([ring.parse(t)], certificates=True) for t in ("x", "x^2")]
    assert [(r.status, report_to_dict(r)["certificate"]) for r in bare] == \
        [("smooth", None), ("not_isolated", None)]
    for rep in (_sample_report(False), _sample_report(True), cusp, *high,
                *bare):
        d1 = report_to_dict(rep)
        rebuilt = report_from_dict(json.loads(json.dumps(d1)))
        d2 = report_to_dict(rebuilt)
        assert d1 == d2
        # a report written under the lex order of earlier versions loads
        d1["order"] = "lex"
        assert report_to_dict(report_from_dict(d1)) == d1


def test_report_from_dict_rejects_another_version():
    d = report_to_dict(_sample_report())
    for version in ("fliftlab/2", None):
        d["version"] = version
        with pytest.raises(ValueError, match="unsupported report version"):
            report_from_dict(d)


def test_json_roundtrip_ci():
    ring = PolyRing(["x", "y", "z", "w"], 2)
    rep = classify(
        [ring.parse("x*y+z^3+w^2"), ring.parse("z*w+x^2+y^2")],
        certificates=True)
    d1 = report_to_dict(rep)
    d2 = report_to_dict(report_from_dict(json.loads(json.dumps(d1))))
    assert d1 == d2
    assert d1["certificate"]["remainder"] == "(0, 0)"


def test_json_text_is_valid():
    text = report_to_json(_sample_report())
    parsed = json.loads(text)
    assert parsed["f_pure"] is True and parsed["f_liftable"] is False


def test_csv_row():
    rep = _sample_report()
    text = csv_table([(rep.p, "E_8^1", "", rep.f_pure, rep.f_liftable,
                       rep.conclusive, rep.timings_ms["total"])])
    assert text.splitlines()[0] == CSV_HEADER
    fields = text.splitlines()[1].split(",")
    assert CSV_HEADER.split(",") == ["p", "family", "params", "f_pure",
                                     "f_liftable", "conclusive", "ms"]
    assert fields[0] == "5"
    assert fields[1] == "E_8^1"
    assert fields[3] == "Y" and fields[4] == "N"


def test_text_rendering():
    text = report_text(_sample_report(certificates=True))
    assert "F-pure        : Y" in text
    assert "F-liftable    : N" in text
    assert "fedder witness: x^4*y^4*z^4" in text
    assert "cofactors" not in text  # non-member has no cofactors

    ring = PolyRing(["x", "y", "z"], 2)
    rep = classify([ring.parse("z^2+x^2*y+x*y^2+x*y*z")],
                                certificates=True)
    text = report_text(rep)
    assert "cofactors" in text


def test_cli_json_is_json_dumps(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    hyp = ["classify", "--p", "5", "--vars", "x,y,z",
           "--poly", "z^2+x^3+y^5+x*y^4", "--format", "json"]
    ci = ["classify", "--p", "2", "--vars", "x,y,z,w",
          "--poly", "x*y+z^3+w^2", "--poly", "z*w+x^2+y^2", "--format", "json"]
    runs = [hyp, hyp + ["--certificates"], ci, ci + ["--certificates"],
            ["table", "--n-max", "2", "--format", "json"],
            ["sweep", "cusp_hyp", "--p", "2", "--max", "4", "--format", "json"]]
    for argv in runs:
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def test_renderers_print_the_header_alone_for_no_rows():
    assert text_table(["p", "family"], []) == "p  family\n"
    assert markdown_table(["p", "family"], []) == "| p | family |\n|---|---|\n"
    assert csv_table([]) == CSV_HEADER + "\n"


_TEXTS = ("", "x", "z^2 + x*y", "\u00e9t\u00e9", "\u65e5\u672c", "\x00\x1f\x7f",
          'say "hi"', "a\\b", "\u2028\u2029", "\U0001f600", "tab\tnew\nline")


def _random_json(rng, depth):
    """A nested value of the kinds a report holds: dicts with str keys,
    lists, tuples, str, int, finite float, bool and None."""
    kind = rng.randrange(9 if depth < 4 else 6)
    if kind == 0:
        return rng.choice(_TEXTS) + str(rng.randrange(3))
    if kind == 1:
        return rng.choice((0, 1, -7, 2**64, -(2**70)))
    if kind == 2:
        return rng.choice((0.0, -0.0, 1.5, 1e16, 1e-7, -2.5e300, 0.1))
    if kind == 3:
        return rng.choice((True, False))
    if kind in (4, 5):
        return None
    size = rng.randrange(5)
    items = [_random_json(rng, depth + 1) for _ in range(size)]
    if kind == 6:
        return {rng.choice(_TEXTS) + str(i): v for i, v in enumerate(items)}
    return items if kind == 7 else tuple(items)


def test_json_text_is_json_dumps_on_random_values():
    rng = random.Random(38)
    for _ in range(500):
        value = _random_json(rng, 0)
        assert json_text(value) == json.dumps(value, indent=2), value


def test_json_text_is_json_dumps_on_edge_cases():
    cases = [
        {key: key for key in _TEXTS},
        [-0.0, 1e16, 1e-7, float("nan"), float("inf"), -float("inf")],
        {"x": {"y": [1, float("nan")]}},
        [2**200, -(2**200), True, 1, False, 0, None],
        [[[[]]]], {"a": {"b": {"c": {}}}}, [{}, [], ()], (), {}, [],
        "", "\u2028", 3, 2.5, None, True,
    ]
    for value in cases:
        assert json_text(value) == json.dumps(value, indent=2), value
    # every JSON golden, read and written again, its masked timings `*`
    # carried through as the string "*"
    for path in sorted(GOLDEN.glob("*.json")):
        text = path.read_text()
        quoted = re.sub(r'(": )\*(?=,?$)', r'\1"*"', text, flags=re.M)
        again = json_text(json.loads(quoted)) + "\n"
        assert again == quoted, path.name


def test_json_text_hands_what_it_does_not_know_to_json_dumps(monkeypatch):
    class Count(int):
        def __repr__(self):
            return "Count"

    seen = []
    dumps = json.dumps

    def spy(value, **kw):
        seen.append(value)
        return dumps(value, **kw)

    odd = {1: [2, 3], None: "n"}
    value = {"rows": [{"n": Count(5)}, {"map": odd}, float("nan")]}
    monkeypatch.setattr(json, "dumps", spy)
    text = json_text(value)
    monkeypatch.undo()
    assert text == json.dumps(value, indent=2)
    assert '"n": 5' in text and '"1": [' in text
    assert [type(v) for v in seen] == [Count, dict, float]
    assert seen[1] is odd
    # the errors are the json module's own
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        json_text({"loop": loop})
    with pytest.raises(TypeError, match="not JSON serializable"):
        json_text([{"a": object()}])
