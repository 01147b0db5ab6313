"""Text and JSON round trips, canonical form, parse diagnostics."""

import contextlib
import io
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlink import cli, corpus, fileio
from eulerlink.complexes import (SimplicialComplex, barycentric_subdivision,
                                 build_complex, join)
from eulerlink.dyadic import Dyadic
from eulerlink.fileio import (MAX_FACET_VERTICES, ParseError, _label_key,
                              parse_complex,
                              parse_function,
                              read_complex, read_function, save_complex,
                              write_complex, write_complex_json,
                              write_function)
from eulerlink.functions import ConstructibleFunction, indicator_of_subcomplex


def test_write_read_is_identity_on_canonical_form():
    for name in corpus.corpus_names():
        k = corpus.corpus_complex(name)
        text = write_complex(k)
        again = parse_complex(text, name=name)
        assert write_complex(again) == text, name
        assert again.counts_by_dim() == k.counts_by_dim()


def _reference_write_complex(k):
    """The canonical writer with the rows sorted on their lists of label
    keys, one key tuple per label."""
    rows = [sorted((k.label(v) for v in s), key=_label_key)
            for s in k.facets()]
    rows.sort(key=lambda r: (len(r), [_label_key(l) for l in r]))
    return "\n".join([f"complex v={k.n_vertices}"]
                     + [" ".join(r) for r in rows]) + "\n"


def _writer_cases():
    for name in corpus.corpus_names():
        yield corpus.corpus_complex(name)
    for a, b in (("rp2", "rp2"), ("torus", "torus"), ("klein", "theta")):
        yield join(corpus.corpus_complex(a), corpus.corpus_complex(b),
                   name=f"{a}_{b}")
    # numbers in numeric order, before the other labels
    yield build_complex([[0, 1, 2], [1, 3], [2, 3], [0, 3], [3, 4]],
                        labels={0: "b'", 1: "10", 2: "2", 3: "a", 4: "9"},
                        name="mixed")


@pytest.mark.parametrize("k", _writer_cases(), ids=lambda k: k.name)
def test_writer_matches_the_label_key_sort(k):
    text = write_complex(k)
    assert text == _reference_write_complex(k)
    assert write_complex(parse_complex(text, name=k.name)) == text


def test_read_complex_names_after_file_stem(tmp_path):
    path = tmp_path / "twirl.cplx"
    save_complex(corpus.theta(), str(path))
    k = read_complex(str(path))
    assert k.name == "twirl"
    assert k.counts_by_dim() == (5, 6)


def test_json_complex_variant():
    k = corpus.circle()
    text = write_complex_json(k)
    obj = json.loads(text)
    assert set(obj) == {"name", "facets"}
    again = parse_complex(text)
    assert write_complex(again) == write_complex(k)

    anon = parse_complex(json.dumps({"facets": [["x", "y"], ["y", "z"]]}))
    assert anon.counts_by_dim() == (3, 2)


@pytest.mark.parametrize("k", [
    *(corpus.corpus_complex(name) for name in corpus.corpus_names()),
    parse_complex("complex v=4\nα β\nβ γ\nγ 0\n", name="ünï"),
], ids=lambda k: k.name)
def test_json_complex_writer_matches_json_dumps(k):
    text = write_complex_json(k)
    obj = json.loads(text)
    assert text == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_parse_complex_diagnostics():
    with pytest.raises(ParseError, match="header"):
        parse_complex("simplices v=3\na b\n")
    with pytest.raises(ParseError, match="v=4.*3 distinct"):
        parse_complex("complex v=4\na b\nb c\n")
    with pytest.raises(ParseError, match="repeated vertex"):
        parse_complex("complex v=2\na a\n")
    with pytest.raises(ParseError, match="empty complex"):
        parse_complex("complex v=0\n")
    err = None
    try:
        parse_complex("complex v=3\na b\nb :\n")
    except ParseError as e:
        err = e
    assert err is not None and err.line == 3
    assert "line 3" in str(err)


LONG_FACET = " ".join(f"v{i}" for i in range(MAX_FACET_VERTICES + 1))


@pytest.mark.parametrize("body, message", [
    (f"a b\n{LONG_FACET}\nb c\nx a:b\n",
     "line 3: facet has 13 vertices, more than the 12 allowed"),
    (f"a b\nx a:b\nb c\n{LONG_FACET}\n", "line 3: bad vertex label 'a:b'"),
    ("a b\nb c\na b a\nx a:b\n", "line 4: repeated vertex in facet a b a"),
    ("a b\nb c\nx a:b\na b a\n", "line 4: bad vertex label 'a:b'"),
    ("a b\nb c:\n# c:\nc: d\n", "line 3: bad vertex label 'c:'"),
], ids=["long-then-label", "label-then-long", "repeat-then-label",
        "label-then-repeat", "one-label-twice"])
def test_the_earliest_bad_line_is_named(body, message):
    with pytest.raises(ParseError) as err:
        parse_complex("complex v=9\n" + body)
    assert str(err.value) == message


@pytest.mark.parametrize("header, message", [
    ("complexes v=3", "expected header 'complex v=<n>'"),
    ("complex v=1_0", "vertex count is not an integer"),
    ("complex v=+3", "vertex count is not an integer"),
    ("complex v=\u0663", "vertex count is not an integer"),  # Arabic-Indic 3
], ids=["complexes", "underscore", "sign", "non-ascii-digit"])
def test_loose_headers_are_rejected(header, message):
    with pytest.raises(ParseError) as err:
        parse_complex(header + "\na b c\n")
    assert str(err.value) == f"line 1: {message}"
    assert parse_complex("complex v=3\na b c\n").n_vertices == 3


@pytest.mark.parametrize("label, shown", [
    (None, "null"), (True, "true"), (False, "false"), (1.5, "1.5"),
    (["a"], '["a"]'), ({"a": 1}, '{"a": 1}'),
], ids=repr)
def test_json_labels_are_strings_or_integers(label, shown):
    w = corpus.window()
    with pytest.raises(ParseError) as err:
        parse_complex(json.dumps({"facets": [[label, "b"]]}))
    assert str(err.value) == f"bad vertex label {shown}"
    with pytest.raises(ParseError) as err:
        parse_function(json.dumps({"values": [{"simplex": ["0,0", label],
                                               "value": "1"}]}), w)
    assert str(err.value) == f"bad vertex label {shown}"
    k = parse_complex(json.dumps({"facets": [[0, -1, "b"]]}))
    assert sorted(k.labels.values()) == ["-1", "0", "b"]


def test_function_round_trip():
    w = corpus.window()
    q = corpus.quadrant_subcomplex(w)
    phi = indicator_of_subcomplex(w, q).scale(Dyadic(3, 1))
    text = write_function(phi)
    assert text.startswith("function over=window\n")
    again = parse_function(text, w)
    assert again == phi
    assert write_function(again) == text


@given(st.lists(st.one_of(st.integers(-9, 9),
                          st.builds(Dyadic, st.integers(-99, 99),
                                    st.integers(0, 6))),
                min_size=7, max_size=7))
@settings(max_examples=100, deadline=None)
def test_every_function_written_reads_back(values):
    k = build_complex([[0, 1, 2]], labels={0: "a", 1: "b", 2: "c"},
                      name="tri")
    phi = ConstructibleFunction(k, values)
    text = write_function(phi)
    again = parse_function(text, k)
    assert again == phi
    assert write_function(again) == text


def test_a_bool_or_float_value_never_reaches_a_function_file():
    # [True, 1.5, 0] used to make a function that was written as
    # "0 : True" and "1 : 1.5", which did not read back.
    seg = build_complex([[0, 1]], name="seg")
    with pytest.raises(TypeError, match="int numerator"):
        ConstructibleFunction(seg, [True, 1.5, 0])
    phi = ConstructibleFunction(seg, [1, 3, 0])
    assert write_function(phi) == "function over=seg\n0 : 1\n1 : 3\n"
    assert parse_function(write_function(phi), seg) == phi


def test_function_file_reads(tmp_path):
    w = corpus.window()
    path = tmp_path / "phi.fn"
    path.write_text("function over=window\n0,0 : -5/2^2\n1,1 : 7\n",
                    encoding="utf-8")
    phi = read_function(str(path), w)
    names = {w.simplex_name(s): v for s, v in phi.as_dict().items()}
    assert names == {"(0,0)": Dyadic(-5, 2), "(1,1)": Dyadic(7)}


def test_function_json_variant():
    w = corpus.window()
    obj = {"complex": "window", "default": "0",
           "values": [{"simplex": ["0,0"], "value": "1/2^1"}]}
    phi = parse_function(json.dumps(obj), w)
    assert sum(1 for v in phi.values if v != Dyadic(0)) == 1

    constant = parse_function(json.dumps({"values": [], "default": "2"}), w)
    assert constant == ConstructibleFunction.constant(w, Dyadic(2))


@pytest.mark.parametrize("value, shown", [
    (True, "true"), (False, "false"), (None, "null"), (1.5, "1.5"),
    ([1], "[1]"), ({"a": 1}, '{"a": 1}'), ("1/3", "'1/3'"),
], ids=repr)
def test_json_values_are_named_as_json_writes_them(value, shown):
    w = corpus.window()
    for obj in ({"values": [], "default": value},
                {"values": [{"simplex": ["0,0"], "value": value}]}):
        with pytest.raises(ParseError) as err:
            parse_function(json.dumps(obj), w)
        assert str(err.value) == f"not a dyadic rational: {shown}"


@pytest.mark.parametrize("value", ["x", "\u0661"], ids=ascii)
def test_a_non_ascii_digit_is_named_as_a_bad_value(value):
    # Arabic-Indic one reads as no value at all, just as "x" does.
    p = build_complex([[0]], labels={0: "p"}, name="p")
    with pytest.raises(ParseError) as err:
        parse_function(f"function over=p\np : {value}\n", p)
    assert str(err.value) == \
        f"line 2: not a dyadic rational: {' ' + value!r}"
    for obj in ({"values": [], "default": "\u0663"},
                {"values": [{"simplex": ["p"], "value": "\u0663"}]}):
        with pytest.raises(ParseError) as err:
            parse_function(json.dumps(obj), p)
        assert str(err.value) == "not a dyadic rational: '\u0663'"


def test_json_integer_values_read():
    w = corpus.window()
    phi = parse_function(json.dumps(
        {"values": [{"simplex": ["0,0"], "value": 3}], "default": -1}), w)
    assert phi == parse_function(json.dumps(
        {"values": [{"simplex": ["0,0"], "value": "3"}], "default": "-1"}), w)
    assert sorted(map(str, set(phi.values))) == ["-1", "3"]


def test_parse_function_diagnostics():
    w = corpus.window()
    with pytest.raises(ParseError, match="header"):
        parse_function("values over=window\n", w)
    with pytest.raises(ParseError, match="over 'other'"):
        parse_function("function over=other\n", w)
    with pytest.raises(ParseError, match="duplicate"):
        parse_function("function over=window\n0,0 : 1\n0,0 : 2\n", w)
    err = None
    try:
        parse_function("function over=window\n0,0 : 1/3\n", w)
    except ParseError as e:
        err = e
    assert err is not None and err.line == 2
    with pytest.raises(ParseError, match="not a simplex"):
        parse_function("function over=window\n0,0 2,2 : 1\n", w)


PATH_TEXT = "complex v=3\na b\nb c\n"


@pytest.mark.parametrize("labels, message", [
    ("b x", "unknown vertex label 'x'"),
    ("b b", "repeated vertex in simplex (b b)"),
    ("a c", "(a c) is not a simplex of the complex"),
], ids=["unknown", "repeated", "not-a-simplex"])
def test_function_files_name_bad_simplices_by_labels(labels, message):
    k = parse_complex(PATH_TEXT, name="path")
    with pytest.raises(ParseError) as err:
        parse_function(f"function over=path\na b : 1\n\n{labels} : 1\n", k)
    assert str(err.value) == f"line 4: {message}"
    obj = {"complex": "path", "values": [
        {"simplex": ["a", "b"], "value": "1"},
        {"simplex": labels.split(), "value": "1"}]}
    with pytest.raises(ParseError) as err:
        parse_function(json.dumps(obj), k)
    assert str(err.value) == message


HEADERS = {"complex": ("complex v=<n>", "a b\n"),
           "function": ("function over=<name>", "a b : 1\n")}


@pytest.mark.parametrize("fmt", sorted(HEADERS))
@pytest.mark.parametrize("text, message", [
    ("", "empty input: missing '{header}' header"),
    ("# nothing\n\n", "empty input: missing '{header}' header"),
    ("# c\n{word}s {key}=path\n{body}",
     "line 2: expected header '{header}'"),
    ("{word} to=path\n{body}", "line 1: expected header '{header}'"),
    ("{word}\n{body}", "line 1: expected header '{header}'"),
], ids=["empty", "comments-only", "wrong-word", "wrong-key", "no-key"])
def test_text_headers_are_checked_alike(fmt, text, message):
    header, body = HEADERS[fmt]
    word, field = header.split()
    text = text.format(word=word, key=field.split("=")[0], body=body)
    with pytest.raises(ParseError) as err:
        if fmt == "complex":
            parse_complex(text)
        else:
            parse_function(text, parse_complex(PATH_TEXT, name="path"))
    assert str(err.value) == message.format(header=header)


def test_hash_lines_are_comments():
    text = "# a complex\ncomplex v=3\n# a comment\n  # indented\na b\n\nb c\n"
    k = parse_complex(text, name="path")
    assert k.counts_by_dim() == (3, 2)
    assert write_complex(k) == "complex v=3\na b\nb c\n"

    w = corpus.window()
    phi = parse_function("# q\nfunction over=window\n# 0,0 : 5\n0,0 : 1\n", w)
    assert {w.simplex_name(s): v for s, v in phi.as_dict().items()} == \
        {"(0,0)": Dyadic(1)}


def test_hash_labels_are_rejected_so_files_round_trip():
    with pytest.raises(ParseError, match="bad vertex label '#b'"):
        parse_complex("complex v=2\na #b\n")
    with pytest.raises(ParseError, match="bad vertex label"):
        parse_complex(json.dumps({"facets": [["#", "a"]]}))
    from eulerlink.complexes import build_complex
    hashed = build_complex([(0, 1)], labels={0: "a", 1: "#b"})
    with pytest.raises(ParseError):
        write_complex(hashed)


@pytest.mark.parametrize("label", ["", " a", "a\tb", "a\xa0b", "#a", "a:b"])
def test_bad_label_messages(label):
    # JSON facets keep every label as given, whitespace and all.
    with pytest.raises(ParseError) as err:
        parse_complex(json.dumps({"facets": [[label, "z"]]}))
    assert str(err.value) == f"bad vertex label {label!r}"
    with pytest.raises(ParseError) as err:
        write_complex(build_complex([(0, 1)], labels={0: "z", 1: label}))
    assert str(err.value) == f"bad vertex label {label!r}"


def test_labels_with_any_unicode_space_are_rejected():
    spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
    assert "\x1c" in spaces and "\u3000" in spaces
    for c in spaces:
        with pytest.raises(ParseError, match="bad vertex label"):
            parse_complex(json.dumps({"facets": [["a" + c + "b"]]}))


def test_function_writer_rejects_labels_its_reader_rejects():
    # Subdivision names a barycenter "(s0 s1)", which no reader accepts.
    sd = barycentric_subdivision(corpus.segment()).complex
    with pytest.raises(ParseError, match="bad vertex label"):
        write_complex(sd)
    with pytest.raises(ParseError, match=r"bad vertex label '\(s0 s1\)'"):
        write_function(ConstructibleFunction.one(sd))


def test_function_readers_map_labels_once_per_read(monkeypatch):
    sd = barycentric_subdivision(corpus.torus()).complex
    k = SimplicialComplex(sd.simplices, name="sd_torus",
                          labels={v: f"v{v}" for v in sd.vertex_ids})
    phi = ConstructibleFunction(k, [Dyadic(i % 5 - 2, i % 3)
                                    for i in range(len(k))])
    obj = {"complex": k.name,
           "values": [{"simplex": [k.label(v) for v in s], "value": str(x)}
                      for s, x in phi.as_dict().items()]}
    texts = (write_function(phi), json.dumps(obj))
    calls = []
    label = SimplicialComplex.label

    def counting_label(self, v):
        calls.append(v)
        return label(self, v)

    monkeypatch.setattr(SimplicialComplex, "label", counting_label)
    for text in texts:
        calls.clear()
        assert parse_function(text, k) == phi
        assert len(calls) == k.n_vertices


def test_function_values_above_the_exponent_cap_are_parse_errors():
    w = corpus.window()
    with pytest.raises(ParseError, match="line 2: exponent 4000000000"):
        parse_function("function over=window\n0,0 : 1/2^4000000000\n", w)
    obj = {"values": [{"simplex": ["0,0"], "value": "1/2^4000000000"}]}
    with pytest.raises(ParseError, match="limit"):
        parse_function(json.dumps(obj), w)
    with pytest.raises(ParseError, match="limit"):
        parse_function(json.dumps({"values": [], "default": "1/2^5000"}), w)


def test_facets_above_the_size_cap_are_parse_errors(monkeypatch):
    # The readers hand the facets over to build_complex, which is replaced
    # here so that no test builds the 2^n - 1 faces of a long facet.
    monkeypatch.setattr(fileio, "build_complex", lambda facets, **kw: facets)
    at_cap = [f"v{i}" for i in range(MAX_FACET_VERTICES)]
    over = at_cap + ["w"]
    assert len(parse_complex(json.dumps({"facets": [at_cap]}))[0]) == 12
    with pytest.raises(ParseError, match="line 3: facet has 13 vertices"):
        parse_complex(f"complex v=13\na b\n{' '.join(over)}\n")
    with pytest.raises(ParseError, match="facet has 13 vertices, more than"
                                         " the 12 allowed"):
        parse_complex(json.dumps({"facets": [["a", "b"], over]}))


THIRTEEN = [f"v{i}" for i in range(13)]


@pytest.mark.parametrize("obj, message", [
    ({"facets": [["a", "b"], THIRTEEN]},
     "facet has 13 vertices, more than the 12 allowed"),
    ({"facets": [["a", "b"], ["a", "b c"]]}, "bad vertex label 'b c'"),
    ({"facets": [["a", "b"], ["a", 1, "1"]]}, "repeated vertex in facet a 1 1"),
    ({"facets": [["a", "b"], "a"]},
     "each facet must be a nonempty array of labels"),
    ({"facets": [["a", "b"], []]},
     "each facet must be a nonempty array of labels"),
    # Two faults: a facet that is no array, a label that is neither a
    # string nor an integer, and a bad name come before any other label
    # fault, in that order.
    ({"facets": [["a", "a"], "b"]},
     "each facet must be a nonempty array of labels"),
    ({"facets": [["a", "a"], ["b", None]]}, "bad vertex label null"),
    ({"facets": [[*THIRTEEN, None]]}, "bad vertex label null"),
    ({"facets": [["b", None], "b"]}, "bad vertex label null"),
    ({"name": 3, "facets": [["a", "a"]]}, "'name' must be a string"),
    ({"facets": [["a", "a"], THIRTEEN]}, "repeated vertex in facet a a"),
], ids=["too-many-labels", "bad-label", "repeated-label", "non-list-facet",
        "empty-facet", "label-then-non-list", "label-then-null",
        "too-many-and-null", "null-then-non-list", "label-and-name",
        "first-facet-first"])
def test_json_facet_faults_are_named(obj, message, monkeypatch):
    monkeypatch.setattr(fileio, "build_complex",
                        lambda facets, **kw: pytest.fail("built"))
    with pytest.raises(ParseError) as err:
        parse_complex(json.dumps(obj))
    assert str(err.value) == message


def _long_facets(count: int = 300, size: int = 12) -> list[list[str]]:
    rng = random.Random(0)
    return [[f"v{i}" for i in sorted(rng.sample(range(40), size))]
            for _ in range(count)]


def test_a_dimension_above_max_dim_is_a_parse_error(monkeypatch):
    # Rejected by the largest facet, before build_complex (replaced here)
    # builds any face.
    built = []
    monkeypatch.setattr(fileio, "build_complex",
                        lambda facets, **kw: built.append(facets) or facets)
    facets = _long_facets()
    labels = {l for f in facets for l in f}
    text = f"complex v={len(labels)}\n" + "".join(
        " ".join(f) + "\n" for f in facets)
    for given in (text, json.dumps({"facets": facets})):
        for max_dim in (4, 2, 10):
            with pytest.raises(ParseError, match=f"^dimension 11 is out of"
                                                 f" range \\(supported: <="
                                                 f" {max_dim}\\)$"):
                parse_complex(given, max_dim=max_dim)
        assert not built
        assert len(parse_complex(given, max_dim=11)) == 300
        assert len(parse_complex(given)) == 300
        built.clear()


@pytest.mark.parametrize("obj, message", [
    ({"values": [{"value": "1"}]}, "'simplex' and 'value'"),
    ({"values": [{"simplex": ["0,0"]}]}, "'simplex' and 'value'"),
    ({"values": [3]}, "'simplex' and 'value'"),
    ({"values": ["0,0 : 1"]}, "'simplex' and 'value'"),
    ({"values": {"simplex": ["0,0"], "value": "1"}}, "'values' must be"),
    ({"values": "0,0"}, "'values' must be"),
    ({"values": [{"simplex": "0,0", "value": "1"}]}, "'simplex' must be"),
    ({"values": [{"simplex": [], "value": "1"}]}, "'simplex' must be"),
    ({"values": [{"simplex": 7, "value": "1"}]}, "'simplex' must be"),
    ({"values": [], "complex": 3}, "'complex' must be"),
    ({"values": [], "default": "1/3"}, "not a dyadic"),
])
def test_malformed_json_functions_are_parse_errors(obj, message):
    with pytest.raises(ParseError, match=message):
        parse_function(json.dumps(obj), corpus.window())


@pytest.mark.parametrize("text, message", [
    (json.dumps({"name": 3, "facets": [["a", "b"]]}), "'name' must be"),
    (json.dumps({"name": ["x"], "facets": [["a", "b"]]}), "'name' must be"),
    ('{"facets": [["a", "b"]]', "bad JSON"),
    ("{" * 100000, "bad JSON"),
], ids=["int-name", "list-name", "truncated", "deeply-nested"])
def test_malformed_json_complexes_are_parse_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_complex(text)


# -- fuzzing the readers through the command line ------------------------------

labels = st.sampled_from(["c0", "c1", "c2", "a", "b", "#", "#c0", ":", "a:b",
                          "0", "", "c0 c1"])
# exponents stay small enough to be harmless if the cap were missing
values = st.sampled_from(["1", "-3", "1/2^3", "7/2^4096", "1/2^4097", "1/3",
                          "x", "", "2^3"])
json_any = st.recursive(
    st.none() | st.booleans() | st.integers() | labels | values,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["name", "facets", "complex", "values",
                                       "default", "simplex", "value", "x"]),
                      inner, max_size=4),
    max_leaves=12)
label_lists = st.lists(labels, max_size=4)
text_lines = st.lists(
    label_lists.map(" ".join)
    | st.tuples(label_lists.map(" ".join), values).map(" : ".join)
    | st.sampled_from(["complex v=3", "complex v=x", "complex", "# note",
                       "function over=circle", "function over=other",
                       "function", "{", ""]),
    max_size=6).map("\n".join)
raw_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=60)

json_complexes = (
    st.fixed_dictionaries({"facets": json_any | st.lists(label_lists,
                                                         max_size=4)},
                          optional={"name": json_any})
    | json_any).map(json.dumps)
json_functions = (
    st.fixed_dictionaries(
        {"values": json_any | st.lists(st.fixed_dictionaries(
            {"simplex": json_any | label_lists, "value": json_any | values}),
            max_size=3)},
        optional={"complex": json_any | st.just("circle"),
                  "default": json_any | values})
    | json_any).map(json.dumps)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    save_complex(corpus.circle(), str(d / "circle.cplx"))
    return d


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _assert_clean_exit(code, err):
    """Exit 0 without a word on stderr, or exit 1 with one line on it."""
    if code == 0:
        assert err == ""
    else:
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("\n")


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


@settings(max_examples=200, deadline=None)
@given(text=json_complexes | text_lines | raw_text)
def test_fuzzed_complex_files_fail_in_one_line(fuzz_dir, text):
    path = str(fuzz_dir / "fuzz.cplx")
    _write(path, text)
    _assert_clean_exit(*_run_cli(["validate", path]))


@settings(max_examples=200, deadline=None)
@given(text=json_functions | text_lines | raw_text)
def test_fuzzed_function_files_fail_in_one_line(fuzz_dir, text):
    path = str(fuzz_dir / "fuzz.fn")
    _write(path, text)
    _assert_clean_exit(*_run_cli(["integrate", str(fuzz_dir / "circle.cplx"),
                                  path]))


@pytest.mark.parametrize("name, text", [
    ("f.fn", '{"complex": "circle", "values": [{"value": "1"}]}'),
    ("f.fn", '{"values": [3]}'),
    ("f.fn", '{"values": {"c0": "1"}}'),
    ("f.fn", "function over=circle\nc0 : 1/2^4097\n"),
    ("k.cplx", '{"name": 3, "facets": [["a", "b"]]}'),
    ("k.cplx", '{"facets": [[null, 2]]}'),
    ("k.cplx", '{"facets": [[true, 2]]}'),
    ("k.cplx", '{"facets": [[1.5, 2]]}'),
    ("k.cplx", '{"facets": [[["a"], "b"]]}'),
    ("f.fn", '{"values": [{"simplex": [null], "value": "1"}]}'),
    ("f.fn", '{"values": [{"simplex": [false, "c0"], "value": "1"}]}'),
    ("f.fn", '{"values": [{"simplex": [1.5], "value": "1"}]}'),
    ("f.fn", '{"values": [{"simplex": [["c0"], "c1"], "value": "1"}]}'),
    ("k.cplx", "complex v=13\n" + " ".join(f"v{i}" for i in range(13)) + "\n"),
])
def test_reported_malformed_files_exit_one(fuzz_dir, name, text):
    path = str(fuzz_dir / name)
    _write(path, text)
    argv = (["integrate", str(fuzz_dir / "circle.cplx"), path]
            if name.endswith(".fn") else ["validate", path])
    code, err = _run_cli(argv)
    assert code == 1
    _assert_clean_exit(code, err)
