"""The JSON report writer, ``reports.json_text``, against the reference
``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``: byte for byte on
every corpus report payload, on drawn nested payloads and on drawn lists of
rows that share key sets, and a TypeError for any type a report does not
hold.  ``reports.render`` against the reference of ``report_payload``, on
every corpus report and on drawn reports whose rows share data objects,
and the one body it writes per distinct ``(test, verdict, value, data)``."""

import copy
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlink import cli, corpus, reports
from eulerlink.fileio import read_complex
from eulerlink.invariants import ObstructionReport
from eulerlink.invariants import TestRow as Row

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _check_runs() -> list[list[str]]:
    """``check --json`` on every corpus file, and ``check --json --search``
    at a 50-function budget; a 4-complex always searches, so it gets the
    small budget in both runs."""
    runs = []
    for name in corpus.corpus_names():
        path = os.path.join(ROOT, "corpus", f"{name}.cplx")
        budget = ["--max-funcs", "50"]
        plain = budget if read_complex(path).dim == 4 else []
        runs.append(["check", path, "--json", *plain])
        runs.append(["check", path, "--json", "--search", *budget])
    return runs


@pytest.mark.parametrize("argv", _check_runs(),
                         ids=lambda a: " ".join([os.path.basename(a[1])]
                                                + a[2:]))
def test_corpus_reports_match_the_reference(argv, tmp_path, monkeypatch):
    calls = []
    render = reports.render

    def spy(report, config):
        calls.append((report, config))
        return render(report, config)

    monkeypatch.setattr(cli, "render", spy)
    out = tmp_path / "report.json"
    cli.main([*argv, "-o", str(out)])
    [(report, config)] = calls
    payload = reports.report_payload(report, config)
    assert reports.json_text(payload) == reference(payload)
    assert out.read_text(encoding="utf-8") == reference(payload)


def _written_bodies(argv, monkeypatch, tmp_path):
    """The report of ``check --json`` with ``argv``, and the dicts that
    its render wrote as list members."""
    calls, written = [], []
    render, members = reports.render, reports._members

    def spy_render(report, config):
        calls.append(report)
        return render(report, config)

    def spy_members(items, indent):
        written.extend(items)
        return members(items, indent)

    monkeypatch.setattr(cli, "render", spy_render)
    monkeypatch.setattr(reports, "_members", spy_members)
    cli.main(["check", *argv, "--json", "-o", str(tmp_path / "report.json")])
    [report] = calls
    return report, written


@pytest.mark.parametrize("name, args", [
    ("window", []), ("susp_window", []), ("cone_theta", []),
    ("susp_sphere3", ["--max-funcs", "50"]),
])
def test_render_writes_each_distinct_body_once(name, args, monkeypatch,
                                               tmp_path):
    path = os.path.join(ROOT, "corpus", f"{name}.cplx")
    report, written = _written_bodies([path, *args], monkeypatch, tmp_path)
    distinct = {(r.test, r.verdict, r.value, id(r.data)): r
                for r in report.rows}
    assert len(written) == len(distinct) < len(report.rows)
    assert sorted(map(reference, written)) == sorted(
        reference(reports._body(r)) for r in distinct.values())
    if read_complex(path).dim <= 3:
        # Located dim3 rows of one halving value and location share one
        # text too, so no two written bodies are equal.
        assert len(set(map(reference, written))) == len(written)


strings = st.text() | st.text(
    alphabet=st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\uffff'
                             '\U0001f600 a'))
scalars = (st.none() | st.booleans() | strings
           | st.integers(min_value=-2 ** 200, max_value=2 ** 64))
payloads = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(strings, inner, max_size=4),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_drawn_payloads_match_the_reference(payload):
    assert reports.json_text(payload) == reference(payload)


# Keys that a format string or the string encoder could get wrong.
awkward_keys = st.sampled_from(["", "%", "%s", "%%", "%(a)s", '"', "\\",
                                "\xe9", "\u2028", "\U0001f600", "a", "b"])


@st.composite
def row_lists(draw):
    """A list of dicts of a few key sets, each set in one or more key
    orders; values include 0, 1, True and False under the same key, empty
    dicts, and nested values that repeat across rows as equal copies.  Some
    lists have other members too, before, after or between the rows."""
    key_sets = draw(st.lists(st.lists(awkward_keys | strings, max_size=4,
                                      unique=True), min_size=1, max_size=3))
    pool = draw(st.lists(payloads, min_size=1, max_size=3))
    values = (st.sampled_from([0, 1, True, False, None, "", "%s"])
              | scalars | st.sampled_from(pool).map(copy.deepcopy))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        keys = draw(st.permutations(draw(st.sampled_from(key_sets))))
        rows.append({key: draw(values) for key in keys})
    others = draw(st.lists(payloads, max_size=3))
    return draw(st.permutations(rows + others))


@settings(max_examples=300, deadline=None)
@given(row_lists())
def test_drawn_row_lists_match_the_reference(rows):
    assert reports.json_text(rows) == reference(rows)
    assert reports.json_text({"tests": rows}) == reference({"tests": rows})


@settings(max_examples=100, deadline=None)
@given(row_lists(), st.sampled_from([1.5, (1,), [0.5], {"a": ()}]),
       st.data())
def test_a_foreign_value_in_a_later_row_is_a_type_error(rows, bad, data):
    rows = [*rows, {}]
    later = [i for i, x in enumerate(rows) if type(x) is dict][1:]
    row = data.draw(st.sampled_from(later))
    rows[row] = {**rows[row], data.draw(awkward_keys): bad}
    with pytest.raises(TypeError):
        reports.json_text(rows)


def test_row_templates_tell_bools_from_ints():
    rows = [{"a": 1, "b": [1], "c": {"x": 0}},
            {"a": True, "b": [True], "c": {"x": False}},
            {"a": 0, "b": [0], "c": {"x": 1}},
            {"a": False, "b": [False], "c": {"x": True}},
            {"a": "1", "b": ["1"], "c": {"x": "0"}}]
    for order in (rows, rows[::-1]):
        assert reports.json_text(order) == reference(order)


def test_row_templates_with_awkward_keys_and_empty_dicts():
    row = {"%": 1, "%s": "%d", "%%": "%(a)s", '"': None, "\\": [], "\xe9": {},
           "": "\u2028"}
    rows = [{}, row, dict(reversed(row.items())), {}, [row], "%s", row]
    assert reports.json_text(rows) == reference(rows)


@pytest.mark.parametrize("rows", [
    [{"a": 1}, {"a": 1.5}], [{"a": "x"}, {"a": 1.5}],
    [{"a": [1]}, {"a": (1,)}], [{"a": [1]}, {"a": [1.5]}],
    [{"a": {"b": 1}}, {"a": {"b": (1,)}}], [{"a": 1}, {"b": 2}, {"a": (1,)}],
    [{"a": 1}, {"b": 2.5}], ["x", {"a": 1}, {"a": 2.5}],
], ids=repr)
def test_a_float_or_tuple_in_a_later_row_is_a_type_error(rows):
    with pytest.raises(TypeError):
        reports.json_text(rows)


def test_empty_containers_bools_none_and_large_ints():
    payload = {"": [], "a": {}, "b": [True, False, None], "c": -10 ** 40,
               "d": [[], {}, [{}]]}
    assert reports.json_text(payload) == reference(payload)


@pytest.mark.parametrize("value", [
    1.5, (1, 2), {"a": [0.0]}, {"a": (1,)}, [1, {"b": 2.5}], {1: "int key"},
    {"a": b"bytes"},
], ids=repr)
def test_other_types_are_a_type_error(value):
    with pytest.raises(TypeError):
        reports.json_text(value)


# -- render: each distinct row body written once --------------------------------

JSON = reports.RunConfig(inputs=("in.cplx",), output_format="json")

# Row texts that a splice could get wrong: format characters, a NUL, a raw
# newline, the text of a key line, and non-ASCII characters.
awkward_texts = strings | st.sampled_from([
    "%", "%s", "\x00", "\n", '"test": ', '\n      "test": ', '"simplex": ',
    "\xe9", "\U0001f600", "(a u)"])
# Data keys on both sides of "simplex" and "test" in sorted order; the
# row's own four keys only as nested keys.
data_keys = strings.filter(
    lambda key: key not in ("test", "simplex", "verdict", "value")
) | st.sampled_from(["a", "b", "sa", "simplew", "simplex\x00", "simplexa",
                     "stop", "t", "tesa", "test\x00", "tests", "w", "%"])
nested = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.sampled_from(
                          ["test", "simplex", "value", "a", "z"]) | strings,
                          inner, max_size=3),
                      max_leaves=8)
datas = st.none() | st.dictionaries(data_keys, nested, max_size=4)


@st.composite
def drawn_reports(draw):
    """A report whose rows draw their test, verdict, value and data object
    from small pools, so that rows share a data object with other
    verdicts or values, share a verdict and value with other data, and
    hold equal data as separate objects."""
    pool = draw(st.lists(datas, min_size=1, max_size=4))
    tests = draw(st.lists(st.sampled_from(["sullivan", "dim3", "search"])
                          | strings, min_size=1, max_size=2))
    values = draw(st.lists(awkward_texts, min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        data = draw(st.sampled_from(pool))
        if draw(st.integers(0, 3)) == 0:
            data = copy.deepcopy(data)
        rows.append(Row(draw(st.sampled_from(tests)), None,
                            draw(awkward_texts),
                            draw(st.sampled_from(["pass", "fail"])),
                            draw(st.sampled_from(values)), data))
    return ObstructionReport(
        draw(strings), draw(st.integers(0, 4)), tuple(rows),
        draw(st.dictionaries(st.sampled_from(tests),
                             st.sampled_from(["pass", "fail"]))),
        tuple(draw(st.lists(strings, max_size=2))))


def _assert_render_is_the_reference(report):
    assert reports.render(report, JSON) == reference(
        reports.report_payload(report, JSON))


@settings(max_examples=300, deadline=None)
@given(drawn_reports())
def test_render_of_drawn_reports_matches_the_reference(report):
    _assert_render_is_the_reference(report)


SHARED = {"a": {"test": 1, "simplex": [2]}, "stop": "x", "z": [{"test": 0}]}


@pytest.mark.parametrize("rows", [
    # one data object, other verdicts and values
    [("search", "(a b)", "pass", "v", SHARED),
     ("search", "(c)", "fail", "v", SHARED),
     ("search", "(d)", "pass", "w", SHARED)],
    # one verdict and value, other data, equal data as separate objects
    [("dim3", "(a)", "pass", "v", SHARED),
     ("dim3", "(b)", "pass", "v", {"b": [1]}),
     ("dim3", "(c)", "pass", "v", copy.deepcopy(SHARED)),
     ("dim3", "(d)", "pass", "v", None),
     ("sullivan", "(e)", "pass", "v", None)],
    # nested "test" keys before the row's own, awkward texts and names
    [("dim3", "(\xe9 %s)", "fail", '"test": \n\x00%', {"a": {"test": 0}}),
     ("dim3", '("test": )', "fail", '"test": \n\x00%', {"a": {"test": 0}}),
     ("dim3", "(\U0001f600)", "pass", "%s", {"simplex\x00": "%"})],
    [],
], ids=["shared-data", "other-data", "nested-keys", "no-rows"])
def test_render_of_rows_that_share_data(rows):
    _assert_render_is_the_reference(ObstructionReport(
        "k", 2, tuple(Row(test, None, where, verdict, value, data)
                      for test, where, verdict, value, data in rows),
        {"dim3": "fail"}, ("a note",)))
