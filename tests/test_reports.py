"""The JSON report writer, ``reports.json_text``, against the reference
``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``: byte for byte on
every corpus report payload and on drawn nested payloads, and a TypeError
for any type a report does not hold."""

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
