"""The JSON report writer, ``reports.json_text``, against the reference
``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``: byte for byte on
every corpus report payload, on drawn nested payloads and on drawn lists of
rows that share key sets, and a TypeError for any type a report does not
hold."""

import copy
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlink import cli, corpus, reports
from eulerlink.fileio import read_complex

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
    payloads = []
    writer = reports.json_text

    def spy(payload):
        payloads.append(payload)
        return writer(payload)

    monkeypatch.setattr(reports, "json_text", spy)
    out = tmp_path / "report.json"
    cli.main([*argv, "-o", str(out)])
    [payload] = payloads
    assert writer(payload) == reference(payload)
    assert out.read_text(encoding="utf-8") == reference(payload)


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
