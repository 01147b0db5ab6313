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
"default": "0"}``.

The canonical writer orders everything by label (numbers first, in numeric
order, then remaining labels lexicographically), never by internal vertex
id, so write -> read -> write is the identity on canonical files.
"""

from __future__ import annotations

import json
import os

from .complexes import Simplex, SimplicialComplex, build_complex
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


def _check_label(label: str, line: int | None = None) -> str:
    if (not label or label.startswith("#") or ":" in label
            or any(c.isspace() for c in label)):
        raise ParseError(f"bad vertex label {label!r}", line)
    return label


def _parse_facet(tokens, line: int | None = None) -> tuple[str, ...]:
    if len(tokens) > MAX_FACET_VERTICES:
        raise ParseError(f"facet has {len(tokens)} vertices, more than the"
                         f" {MAX_FACET_VERTICES} allowed", line)
    labels = tuple(_check_label(str(t), line) for t in tokens)
    if len(set(labels)) != len(labels):
        raise ParseError(f"repeated vertex in facet {' '.join(labels)}", line)
    return labels


def _load_json(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ParseError(f"bad JSON: {e}") from None


def _parse_value(text: str, line: int | None = None) -> Dyadic:
    try:
        return Dyadic.parse(text)
    except ValueError as e:
        raise ParseError(str(e), line) from None


# -- complexes ------------------------------------------------------------------


def parse_complex(text: str, name: str | None = None) -> SimplicialComplex:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _complex_from_obj(_load_json(text), name)
    lines = text.splitlines()
    header = None
    facets: list[tuple[str, ...]] = []
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            if not line.startswith("complex"):
                raise ParseError("expected header 'complex v=<n>'", i)
            parts = line.split()
            if len(parts) != 2 or not parts[1].startswith("v="):
                raise ParseError("expected header 'complex v=<n>'", i)
            try:
                header = int(parts[1][2:])
            except ValueError:
                raise ParseError("vertex count is not an integer", i) from None
            continue
        facets.append(_parse_facet(line.split(), i))
    if header is None:
        raise ParseError("empty input: missing 'complex v=<n>' header")
    if not facets:
        raise ParseError("empty complex: no facets")
    return _from_label_facets(facets, name, expected_vertices=header)


def _complex_from_obj(obj, name: str | None) -> SimplicialComplex:
    if not isinstance(obj, dict) or "facets" not in obj:
        raise ParseError("structured complex needs a 'facets' field")
    raw = obj["facets"]
    if not isinstance(raw, list) or not raw:
        raise ParseError("'facets' must be a nonempty array")
    facets = []
    for f in raw:
        if not isinstance(f, list) or not f:
            raise ParseError("each facet must be a nonempty array of labels")
        facets.append(_parse_facet(f))
    got = obj.get("name")
    if got is not None and not isinstance(got, str):
        raise ParseError("'name' must be a string")
    return _from_label_facets(facets, name=got if got is not None else name)


def _from_label_facets(facets, name, expected_vertices: int | None = None):
    labels = sorted({l for f in facets for l in f}, key=_label_key)
    if expected_vertices is not None and len(labels) != expected_vertices:
        raise ParseError(f"header says v={expected_vertices} but facets use"
                         f" {len(labels)} distinct vertices")
    ids = {l: i for i, l in enumerate(labels)}
    return build_complex([sorted(ids[l] for l in f) for f in facets],
                         labels={i: l for l, i in ids.items()}, name=name)


def read_complex(path: str) -> SimplicialComplex:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_complex(text, name=stem)


def _facet_rows(k: SimplicialComplex) -> list[list[str]]:
    """The facets as label lists, in the canonical writers' order."""
    for v in k.vertex_ids:
        _check_label(k.label(v))
    rows = [sorted((k.label(v) for v in f), key=_label_key) for f in k.facets()]
    rows.sort(key=lambda ls: (len(ls), [_label_key(l) for l in ls]))
    return rows


def write_complex(k: SimplicialComplex) -> str:
    lines = [f"complex v={k.n_vertices}"]
    lines += [" ".join(ls) for ls in _facet_rows(k)]
    return "\n".join(lines) + "\n"


def write_complex_json(k: SimplicialComplex) -> str:
    obj = {"name": k.name or "complex", "facets": _facet_rows(k)}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def save_complex(k: SimplicialComplex, path: str) -> None:
    text = write_complex_json(k) if path.endswith(".json") else write_complex(k)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- functions -------------------------------------------------------------------


def _simplex_by_labels(k: SimplicialComplex, labels, line=None) -> Simplex:
    ids = {k.label(v): v for v in k.vertex_ids}
    verts = []
    for l in labels:
        if l not in ids:
            raise ParseError(f"unknown vertex label {l!r}", line)
        verts.append(ids[l])
    if len(set(verts)) != len(verts):
        raise ParseError(f"repeated vertex in simplex {' '.join(labels)}", line)
    s = Simplex(sorted(verts))
    if s not in k:
        raise ParseError(f"({' '.join(labels)}) is not a simplex of the complex",
                         line)
    return s


def parse_function(text: str, k: SimplicialComplex) -> ConstructibleFunction:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _function_from_obj(_load_json(text), k)
    lines = text.splitlines()
    over = None
    table: dict[Simplex, Dyadic] = {}
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if over is None:
            parts = line.split()
            if (len(parts) != 2 or parts[0] != "function"
                    or not parts[1].startswith("over=")):
                raise ParseError("expected header 'function over=<name>'", i)
            over = parts[1][5:]
            if k.name is not None and over != k.name:
                raise ParseError(f"function is over {over!r}, complex is"
                                 f" {k.name!r}", i)
            continue
        if ":" not in line:
            raise ParseError("expected '<labels> : <value>'", i)
        left, _, right = line.partition(":")
        labels = left.split()
        if not labels:
            raise ParseError("missing simplex before ':'", i)
        s = _simplex_by_labels(k, labels, i)
        if s in table:
            raise ParseError(f"duplicate assignment for ({' '.join(labels)})", i)
        table[s] = _parse_value(right, i)
    if over is None:
        raise ParseError("empty input: missing 'function over=<name>' header")
    return ConstructibleFunction.from_dict(k, table, default=ZERO)


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
    default = _parse_value(str(obj.get("default", "0")))
    table: dict[Simplex, Dyadic] = {}
    for entry in obj["values"]:
        if not isinstance(entry, dict) or "simplex" not in entry \
                or "value" not in entry:
            raise ParseError("each entry of 'values' must be an object with"
                             " 'simplex' and 'value' fields")
        if not isinstance(entry["simplex"], list) or not entry["simplex"]:
            raise ParseError("'simplex' must be a nonempty array of labels")
        labels = [str(l) for l in entry["simplex"]]
        s = _simplex_by_labels(k, labels)
        if s in table:
            raise ParseError(f"duplicate assignment for ({' '.join(labels)})")
        table[s] = _parse_value(str(entry["value"]))
    return ConstructibleFunction.from_dict(k, table, default=default)


def read_function(path: str, k: SimplicialComplex) -> ConstructibleFunction:
    with open(path, encoding="utf-8") as fh:
        return parse_function(fh.read(), k)


def write_function(phi: ConstructibleFunction) -> str:
    k = phi.complex
    rows = []
    for s, v in phi.as_dict().items():
        labels = sorted((k.label(u) for u in s), key=_label_key)
        rows.append((len(labels), [_label_key(l) for l in labels],
                     " ".join(labels) + " : " + str(v)))
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = [f"function over={k.name or 'complex'}"]
    lines += [r[2] for r in rows]
    return "\n".join(lines) + "\n"
