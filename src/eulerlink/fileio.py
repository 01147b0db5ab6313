"""Reading and writing complexes and functions.

Text complex format (canonical)::

    complex v=<vertex count>
    <facet as space-separated vertex labels, one per line>

Text function format::

    function over=<complex name>
    <vertex labels of a simplex> : <value as p or p/2^k>

Blank lines and lines starting with ``#`` are skipped in both text formats,
so no vertex label may start with ``#``.  A facet may have at most
``MAX_FACET_VERTICES`` labels, in either format, since the reader builds
all 2^n - 1 faces of an n-label facet.  Simplices omitted from a function
file default to zero.  A JSON variant of
each is also accepted: ``{"name": ..., "facets": [[labels]]}`` and
``{"complex": ..., "values": [{"simplex": [labels], "value": "p/2^k"}],
"default": "0"}``, where a label is a string or an integer.

The canonical writer orders everything by label (numbers first, in numeric
order, then remaining labels lexicographically), never by internal vertex
id, so write -> read -> write is the identity on canonical files.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii
from itertools import chain, repeat
from operator import itemgetter, ne

from .complexes import Simplex, SimplicialComplex, _trusted, build_complex
from .dyadic import Dyadic, ZERO
from .functions import ConstructibleFunction

MAX_FACET_VERTICES = 12


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _label_key(label: str):
    try:
        return (0, int(label), label)
    except ValueError:
        return (1, 0, label)


def _label_ok(label: str) -> bool:
    # A nonempty label holds whitespace exactly when splitting on it does
    # not give the label back.
    return (bool(label) and not label.startswith("#") and ":" not in label
            and label.split() == [label])


def _check_label(label: str, line: int | None = None) -> str:
    if not _label_ok(label):
        raise ParseError(f"bad vertex label {label!r}", line)
    return label


def _token_text(token, error: str, line: int | None = None) -> str:
    """A JSON label or value as read: a string, or an integer (not a bool)
    in decimal.  Any other JSON value raises ``error`` followed by the
    value as JSON writes it."""
    t = type(token)
    if t is str:
        return token
    if t is int:
        return int.__repr__(token)
    raise ParseError(error + json.dumps(token), line)


def _load_json(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ParseError(f"bad JSON: {e}") from None


def _parse_value(token, line: int | None = None) -> Dyadic:
    """A value as read (``_token_text``), as a dyadic rational."""
    token = _token_text(token, "not a dyadic rational: ", line)
    try:
        return Dyadic.parse(token)
    except ValueError as e:
        raise ParseError(str(e), line) from None


def _json(v, indent: str) -> str:
    """``v`` as ``json.dumps(v, indent=2, sort_keys=True)`` writes it, with
    its nested lines indented by ``indent`` further.

    Only the types of a report or a complex file are accepted: str, int,
    bool, None, list, and dict with str keys (the C string encoder rejects
    any other key).  ``type(v) is int`` keeps bools out of the int branch;
    anything else, tuples and floats included, is a TypeError.

    A dict is written from its ``_template``, a list by ``_members``."""
    t = type(v)
    if t is str:
        return encode_basestring_ascii(v)
    if t is int:
        return int.__repr__(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if t is list:
        if not v:
            return "[]"
        inner = indent + "  "
        return ("[\n" + inner + (",\n" + inner).join(_members(v, inner))
                + "\n" + indent + "]")
    if t is dict:
        if not v:
            return "{}"
        fmt, order = _template(v, indent)
        return fmt % tuple(map(_json, map(v.__getitem__, order),
                               repeat(indent + "  ")))
    raise TypeError(f"json_text does not write a {t.__name__}")


def _template(keys, indent: str) -> tuple[str, list]:
    """The format string of a nonempty dict with ``keys`` at ``indent``,
    one ``%s`` per value (a ``%`` in a key is doubled), and the keys in
    the order of the slots, sorted."""
    order = sorted(keys)
    sep = ",\n" + indent + "  "
    return ("{" + sep[1:] + sep.join([
        encode_basestring_ascii(key).replace("%", "%%") + ": %s"
        for key in order]) + "\n" + indent + "}", order)


def _members(items: list, indent: str) -> list[str]:
    """The text of each member of a list, written at ``indent``.  Rows are
    most of a report, and rows of one test share a key order, so the
    nonempty dicts of one key order are written together, from one
    template, a key at a time (``_column``)."""
    shapes = [tuple(x) if type(x) is dict else None for x in items]
    groups = {shape: [] for shape in shapes}
    for shape, x in zip(shapes, items):
        groups[shape].append(x)
    texts = {}
    for shape, group in groups.items():
        if not shape:  # None or an empty dict's
            texts[shape] = map(_json, group, repeat(indent))
            continue
        fmt, order = _template(shape, indent)
        columns = [_column(list(map(itemgetter(key), group)), indent + "  ")
                   for key in order]
        texts[shape] = map(fmt.__mod__, zip(*columns))
    return list(map(next, map(texts.__getitem__, shapes)))


def _column(values: list, indent: str):
    """The texts of one key's values in a group of rows, for ``%s``
    slots: the ints themselves (``%s`` writes an int as ``int.__repr__``
    does), the encoded strs, or else ``_json`` once per distinct ``repr``.
    ``repr`` tells every built-in type apart (``True`` from ``1``, ``"1"``
    from ``1``), so a float or a tuple still reaches ``_json`` and
    raises."""
    types = set(map(type, values))
    if types == {int}:
        return values
    if types == {str}:
        return map(encode_basestring_ascii, values)
    reprs = list(map(repr, values))
    texts = {r: _json(y, indent) for r, y in dict(zip(reprs, values)).items()}
    return map(texts.__getitem__, reprs)


def json_text(payload) -> str:
    """The bytes of ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``,
    for the payload types that ``_json`` accepts."""
    return _json(payload, "") + "\n"


def _headed_records(text: str, header: str) -> tuple[str, int, list]:
    """The value of the header ``header`` (``<word> <key>=<placeholder>``)
    of a text file, the header's line number, and the ``(line number,
    line)`` records after it, each line stripped.  Blank lines and lines
    starting with ``#`` are skipped."""
    word, field = header.split()
    key = field[:field.index("=") + 1]
    records = [(i, line) for i, line in enumerate(
        map(str.strip, text.splitlines()), start=1)
        if line and not line.startswith("#")]
    if not records:
        raise ParseError(f"empty input: missing '{header}' header")
    i, line = records[0]
    parts = line.split()
    if len(parts) != 2 or parts[0] != word or not parts[1].startswith(key):
        raise ParseError(f"expected header '{header}'", i)
    return parts[1][len(key):], i, records[1:]


# -- complexes ------------------------------------------------------------------


def parse_complex(text: str, name: str | None = None,
                  max_dim: int | None = None) -> SimplicialComplex:
    """The complex of a text or JSON complex file.  Given ``max_dim``, a
    facet of higher dimension is a parse error, raised before any face is
    built."""
    if text.lstrip().startswith("{"):
        return _complex_from_obj(_load_json(text), name, max_dim)
    count, i, records = _headed_records(text, "complex v=<n>")
    # int() would also take signs, underscores and non-ASCII digits
    if not (count.isascii() and count.isdigit()):
        raise ParseError("vertex count is not an integer", i)
    facets = [line.split() for _, line in records]
    if not facets:
        raise ParseError("empty complex: no facets")
    return _from_label_facets(facets, name, max_dim,
                              map(itemgetter(0), records), int(count))


def _complex_from_obj(obj, name: str | None,
                      max_dim: int | None) -> SimplicialComplex:
    if not isinstance(obj, dict) or "facets" not in obj:
        raise ParseError("structured complex needs a 'facets' field")
    raw = obj["facets"]
    if not isinstance(raw, list) or not raw:
        raise ParseError("'facets' must be a nonempty array")
    facets = []
    for f in raw:
        if not isinstance(f, list) or not f:
            raise ParseError("each facet must be a nonempty array of labels")
        facets.append([_token_text(t, "bad vertex label ") for t in f])
    got = obj.get("name")
    if got is not None and not isinstance(got, str):
        raise ParseError("'name' must be a string")
    return _from_label_facets(facets, got if got is not None else name,
                              max_dim)


def _from_label_facets(facets, name, max_dim: int | None, lines=None,
                       expected_vertices: int | None = None):
    """The complex of the facets, lists of label strings.  Each distinct
    label is checked once; only a fault sends the facets, one by one with
    their text file ``lines``, through the checks that name it."""
    labels = set(chain.from_iterable(facets))
    if (max(map(len, facets)) > MAX_FACET_VERTICES
            or not all(map(_label_ok, labels))
            or any(map(ne, map(len, map(set, facets)), map(len, facets)))):
        for facet, line in zip(facets, lines or repeat(None)):
            if len(facet) > MAX_FACET_VERTICES:
                raise ParseError(f"facet has {len(facet)} vertices, more than"
                                 f" the {MAX_FACET_VERTICES} allowed", line)
            for label in facet:
                _check_label(label, line)
            if len(set(facet)) != len(facet):
                raise ParseError("repeated vertex in facet"
                                 f" {' '.join(facet)}", line)
    labels = sorted(labels, key=_label_key)
    if expected_vertices is not None and len(labels) != expected_vertices:
        raise ParseError(f"header says v={expected_vertices} but facets use"
                         f" {len(labels)} distinct vertices")
    dim = max(map(len, facets)) - 1
    if max_dim is not None and dim > max_dim:
        raise ParseError(f"dimension {dim} is out of range (supported:"
                         f" <= {max_dim})")
    ids = dict(zip(labels, range(len(labels))))
    get = ids.__getitem__
    return build_complex([*_trusted(sorted(map(get, f)) for f in facets)],
                         labels=dict(enumerate(labels)), name=name)


def read_complex(path: str, max_dim: int | None = None) -> SimplicialComplex:
    """``parse_complex`` of the file at ``path``, named by its stem."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_complex(text, name=stem, max_dim=max_dim)


def _label_rows(k: SimplicialComplex, simplices) -> list[tuple[list, Simplex]]:
    """``(labels, simplex)`` for each simplex, its labels sorted, in the
    canonical writers' order: by size, then by the labels' ``_label_key``s.
    Every label is checked first, so the readers accept what the writers
    write.

    The labels are ranked once, equal labels alike, so each row sorts on
    its size and its list of ranks."""
    names = {v: _check_label(k.label(v)) for v in k.vertex_ids}
    order = sorted(set(names.values()), key=_label_key)
    pos = dict(zip(order, range(len(order))))
    rank = {v: pos[l] for v, l in names.items()}.__getitem__
    keyed = [(len(s), sorted(map(rank, s)), s) for s in simplices]
    keyed.sort(key=itemgetter(0, 1))
    label = order.__getitem__
    return [(list(map(label, ranks)), s) for _, ranks, s in keyed]


def write_complex(k: SimplicialComplex) -> str:
    lines = [f"complex v={k.n_vertices}"]
    lines += [" ".join(ls) for ls, _ in _label_rows(k, k.facets())]
    return "\n".join(lines) + "\n"


def write_complex_json(k: SimplicialComplex) -> str:
    obj = {"name": k.name or "complex",
           "facets": [ls for ls, _ in _label_rows(k, k.facets())]}
    return json_text(obj)


def save_complex(k: SimplicialComplex, path: str) -> None:
    text = write_complex_json(k) if path.endswith(".json") else write_complex(k)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- functions -------------------------------------------------------------------


def simplex_resolver(k: SimplicialComplex):
    """The function that turns a list of vertex labels of ``k`` into the
    simplex they span, given the line it was read from, if any.  An
    unknown or repeated label, or labels that span no simplex of ``k``, is
    a ParseError.  The label table is built once, here."""
    ids = {k.label(v): v for v in k.vertex_ids}

    def resolve(labels, line: int | None = None) -> Simplex:
        for l in labels:
            if l not in ids:
                raise ParseError(f"unknown vertex label {l!r}", line)
        verts = {ids[l] for l in labels}
        if len(verts) != len(labels):
            raise ParseError(
                f"repeated vertex in simplex ({' '.join(labels)})", line)
        s = Simplex(sorted(verts))
        if s not in k:
            raise ParseError(
                f"({' '.join(labels)}) is not a simplex of the complex", line)
        return s

    return resolve


def _function_from_entries(k: SimplicialComplex, entries,
                           default: Dyadic) -> ConstructibleFunction:
    """The function with the given ``(labels, value, line)`` entries and
    ``default`` elsewhere; a value is as ``_parse_value`` reads it."""
    resolve = simplex_resolver(k)
    table: dict[Simplex, Dyadic] = {}
    for labels, value, line in entries:
        s = resolve(labels, line)
        if s in table:
            raise ParseError(f"duplicate assignment for ({' '.join(labels)})",
                             line)
        table[s] = _parse_value(value, line)
    return ConstructibleFunction.from_dict(k, table, default=default)


def parse_function(text: str, k: SimplicialComplex) -> ConstructibleFunction:
    if text.lstrip().startswith("{"):
        return _function_from_obj(_load_json(text), k)
    return _function_from_entries(k, _text_entries(text, k), ZERO)


def _text_entries(text: str, k: SimplicialComplex):
    over, i, records = _headed_records(text, "function over=<name>")
    if k.name is not None and over != k.name:
        raise ParseError(f"function is over {over!r}, complex is"
                         f" {k.name!r}", i)
    for i, line in records:
        if ":" not in line:
            raise ParseError("expected '<labels> : <value>'", i)
        left, _, right = line.partition(":")
        labels = left.split()
        if not labels:
            raise ParseError("missing simplex before ':'", i)
        yield labels, right, i


def _function_from_obj(obj, k: SimplicialComplex) -> ConstructibleFunction:
    if not isinstance(obj, dict) or "values" not in obj:
        raise ParseError("structured function needs a 'values' field")
    if not isinstance(obj["values"], list):
        raise ParseError("'values' must be an array")
    over = obj.get("complex")
    if over is not None and not isinstance(over, str):
        raise ParseError("'complex' must be a string")
    if over is not None and k.name is not None and over != k.name:
        raise ParseError(f"function is over {over!r}, complex is {k.name!r}")
    default = _parse_value(obj.get("default", "0"))
    return _function_from_entries(k, _json_entries(obj["values"]), default)


def _json_entries(values):
    for entry in values:
        if not isinstance(entry, dict) or "simplex" not in entry \
                or "value" not in entry:
            raise ParseError("each entry of 'values' must be an object with"
                             " 'simplex' and 'value' fields")
        if not isinstance(entry["simplex"], list) or not entry["simplex"]:
            raise ParseError("'simplex' must be a nonempty array of labels")
        yield ([_token_text(t, "bad vertex label ") for t in entry["simplex"]],
               entry["value"], None)


def read_function(path: str, k: SimplicialComplex) -> ConstructibleFunction:
    with open(path, encoding="utf-8") as fh:
        return parse_function(fh.read(), k)


def write_function(phi: ConstructibleFunction) -> str:
    k = phi.complex
    values = phi.as_dict()
    lines = [f"function over={k.name or 'complex'}"]
    lines += [" ".join(ls) + " : " + str(values[s])
              for ls, s in _label_rows(k, values)]
    return "\n".join(lines) + "\n"
