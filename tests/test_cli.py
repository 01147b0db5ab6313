"""Command-line behavior: exit codes, output shapes, golden stability."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys

import pytest

from eulerlink import cli, corpus, fileio, reports
from eulerlink.complexes import Simplex, geometric_link
from eulerlink.fileio import read_complex, save_complex, write_complex
from eulerlink.functions import indicator_of_subcomplex
from eulerlink.search import DEFAULT_BUDGET, SearchBudget


@pytest.fixture
def theta_file(tmp_path):
    p = tmp_path / "theta.cplx"
    save_complex(corpus.theta(), str(p))
    return str(p)


def run(argv):
    return cli.main(argv)


def test_validate_counts(theta_file, capsys):
    assert run(["validate", theta_file]) == 0
    assert capsys.readouterr().out == "theta: 5 vertices, 6 edges\n"


def test_validate_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.cplx"
    bad.write_text("complex v=2\na a\n", encoding="utf-8")
    assert run(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 2" in err

    empty = tmp_path / "empty.cplx"
    empty.write_text("", encoding="utf-8")
    assert run(["validate", str(empty)]) == 1

    assert run(["validate", str(tmp_path / "missing.cplx")]) == 1


def test_a_complex_over_the_simplex_limit_is_refused(tmp_path, capsys,
                                                     monkeypatch):
    # Three disjoint edges close to exactly 9 simplices, the bound; an
    # isolated vertex more bounds the vertex level at 3 + 6 + 1 = 10.
    from eulerlink import complexes
    monkeypatch.setattr(complexes, "MAX_SIMPLICES", 9)
    under, over = tmp_path / "under.cplx", tmp_path / "over.cplx"
    under.write_text("complex v=6\na b\nc d\ne f\n", encoding="utf-8")
    over.write_text("complex v=7\na b\nc d\ne f\ng\n", encoding="utf-8")
    assert run(["validate", str(under)]) == 0
    assert capsys.readouterr().out == "under: 6 vertices, 3 edges\n"
    assert run(["validate", str(over)]) == 1
    assert capsys.readouterr() == ("", "error: complex too large: up to 10"
                                   " simplices of 1 or more vertices, over"
                                   " the limit of 9\n")


def test_check_exit_codes(tmp_path, theta_file, capsys):
    assert run(["check", theta_file]) == 2
    out = capsys.readouterr().out
    assert "(a)" in out and "(b)" in out and "sullivan" in out

    s3 = tmp_path / "s3.cplx"
    save_complex(corpus.sphere3(), str(s3))
    assert run(["check", str(s3)]) == 0
    out = capsys.readouterr().out
    assert "all tests passed" in out

    cone_rp2 = tmp_path / "c.cplx"
    save_complex(corpus.corpus_complex("cone_rp2"), str(cone_rp2))
    assert run(["check", str(cone_rp2)]) == 2
    assert "(apex)" in capsys.readouterr().out


def test_check_rejects_high_dimension(tmp_path, capsys):
    from eulerlink.complexes import cone
    five = tmp_path / "five.cplx"
    save_complex(cone(corpus.corpus_complex("susp_sphere3")), str(five))
    assert run(["check", str(five)]) == 1
    assert "dimension" in capsys.readouterr().err


def test_a_dimension_out_of_range_is_rejected_before_building(
        tmp_path, capsys, monkeypatch):
    # 300 twelve-label facets: building their faces would take seconds and
    # hundreds of MiB, so build_complex is replaced, and check and
    # invariants must reject the file before they reach it.
    built = []
    monkeypatch.setattr(fileio, "build_complex",
                        lambda facets, **kw: built.append(facets)
                        or corpus.theta())
    rng = random.Random(0)
    facets = [sorted(rng.sample(range(40), 12)) for _ in range(300)]
    path = tmp_path / "eleven.cplx"
    path.write_text(json.dumps({"facets": facets}), encoding="utf-8")
    for command, top in (("check", 4), ("invariants", 2)):
        assert run([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: dimension 11 is out of range"
                                f" (supported: <= {top})\n")
    assert not built
    assert run(["validate", str(path)]) == 0  # no dimension limit
    assert len(built) == 1 and len(built[0]) == 300


def test_check_report_is_byte_identical_across_runs(tmp_path, theta_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["check", theta_file, "--json", "-o", str(a)]) == 2
    assert run(["check", theta_file, "--json", "-o", str(b)]) == 2
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["exit_code"] == 2
    assert payload["config"]["budget"]["max_depth"] == 6
    assert set(payload["config"]) == {"budget", "command", "format", "inputs",
                                      "search_forced"}
    assert payload["config"]["command"] == "check"
    assert reports.RunConfig._fields == ("inputs", "output_format", "budget",
                                         "search_forced")
    assert set(payload["config"]["budget"]) == {"max_depth", "max_functions"}
    assert any("necessary conditions" in n for n in payload["notes"])


def test_invariants_command(tmp_path, capsys):
    rp2 = tmp_path / "rp2.cplx"
    save_complex(corpus.rp2(), str(rp2))
    assert run(["invariants", str(rp2)]) == 0
    assert capsys.readouterr().out == "(1,0,0,0,0)\n"

    th = tmp_path / "theta.cplx"
    save_complex(corpus.theta(), str(th))
    assert run(["invariants", str(th)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("obstruction: HALFLINK(ONE)")

    for path, payload in [
            (rp2, {"complex": "rp2", "b": [1, 0, 0, 0, 0], "exit_code": 0}),
            (th, {"complex": "theta", "exit_code": 2, "witness": {
                "depth": 1, "expr": "HALFLINK(ONE)",
                "kind": "non-integer value", "location": "(a)", "size": 2,
                "value": "3/2^1"}})]:
        assert run(["invariants", str(path), "--json"]) == payload["exit_code"]
        assert capsys.readouterr().out == json.dumps(
            payload, indent=2, sort_keys=True) + "\n"

    s3 = tmp_path / "s3.cplx"
    save_complex(corpus.sphere3(), str(s3))
    assert run(["invariants", str(s3)]) == 1   # only defined through dim 2


def test_integrate_command(tmp_path, capsys):
    w = corpus.window()
    wp = tmp_path / "window.cplx"
    save_complex(w, str(wp))
    fp = tmp_path / "q.fn"
    from eulerlink.fileio import write_function
    one_q = indicator_of_subcomplex(w, corpus.quadrant_subcomplex(w))
    fp.write_text(write_function(one_q), encoding="utf-8")
    assert run(["integrate", str(wp), str(fp)]) == 0
    assert capsys.readouterr().out == "1\n"

    half = fp.read_text().replace(" : 1", " : 1/2^1")
    fp.write_text(half, encoding="utf-8")
    assert run(["integrate", str(wp), str(fp)]) == 0
    assert capsys.readouterr().out == "1/2^1\n"


def test_integrate_rejects_a_non_ascii_digit(tmp_path, capsys):
    cp = tmp_path / "p.cplx"
    cp.write_text("complex v=1\np\n", encoding="utf-8")
    fp = tmp_path / "p.fn"
    fp.write_text("function over=p\np : \u0661\n", encoding="utf-8")
    assert run(["integrate", str(cp), str(fp)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: line 2: not a dyadic rational: ' \u0661'\n"


def test_link_command_round_trips(tmp_path, theta_file, capsys):
    out_path = tmp_path / "link.cplx"
    assert run(["link", theta_file, "a", "-o", str(out_path)]) == 0
    reread = read_complex(str(out_path))
    th = corpus.theta()
    junction = next(v for v in th.vertex_ids if th.label(v) == "a")
    expected = geometric_link(th, Simplex((junction,)))
    assert write_complex(reread) == write_complex(expected)

    assert run(["link", theta_file, "nope"]) == 1
    assert capsys.readouterr().err == "error: unknown vertex label 'nope'\n"


# The same messages as a function file's, which add the line number
# (tests/test_fileio.py::test_function_files_name_bad_simplices_by_labels).
@pytest.mark.parametrize("labels, message", [
    (["a", "a"], "repeated vertex in simplex (a a)"),
    (["a", "b"], "(a b) is not a simplex of the complex"),
    (["a", "nope", "zz"], "unknown vertex label 'nope'"),
], ids=["repeated", "not-a-simplex", "unknown"])
def test_link_errors_name_the_simplex_by_its_labels(theta_file, capsys,
                                                    labels, message):
    assert run(["link", theta_file, *labels]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_bounds_command(capsys):
    assert run(["bounds", "2", "2", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "N=5 N'=13"

    assert run(["bounds", "0", "2", "1"]) == 1
    assert "positive" in capsys.readouterr().err


def test_corpus_command(tmp_path, capsys):
    assert run(["corpus", "--list"]) == 0
    listed = capsys.readouterr().out.split()
    assert set(listed) == set(corpus.corpus_names())

    assert run(["corpus", "theta"]) == 0
    assert capsys.readouterr().out == write_complex(corpus.theta())

    target = tmp_path / "data"
    assert run(["corpus", "--write", str(target)]) == 0
    capsys.readouterr()
    written = sorted(p.name for p in target.iterdir())
    assert len(written) == len(corpus.corpus_names()) + 1
    assert "quadrant_indicator.fn" in written

    assert run(["corpus", "no_such_complex"]) == 1


@pytest.mark.parametrize("search", [[], ["--search"]], ids=["", "search"])
@pytest.mark.parametrize("flags", [["--max-funcs", "0"], ["--depth", "-1"]],
                         ids=["max-funcs", "depth"])
def test_an_invalid_budget_is_one_error_line(theta_file, capsys, flags,
                                             search):
    assert run(["check", theta_file, *flags, *search]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: search budget out of range: depth must be"
                          " >= 0 and max functions >= 1")


@pytest.mark.parametrize("flags", [["--max-funcs", "0"], ["--depth", "-1"]],
                         ids=["max-funcs", "depth"])
def test_a_bad_budget_is_rejected_before_the_file_is_read(
        theta_file, capsys, monkeypatch, flags):
    def no_read(*args, **kwargs):
        pytest.fail("check read the complex before rejecting its budget")
    monkeypatch.setattr(cli, "read_complex", no_read)
    assert run(["check", theta_file, *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: search budget out of range: ")


def test_one_version_string(theta_file, capsys):
    """Reports carry ``eulerlink.__version__``, as pyproject.toml gives it
    (read with a regex: ``tomllib`` needs Python 3.11)."""
    import eulerlink
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        [pinned] = re.findall(r'^version = "([^"]*)"$', fh.read(), re.M)
    assert run(["check", theta_file, "--json"]) == 2  # theta's odd links
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool_version"] == eulerlink.__version__ == pinned
    assert run(["check", theta_file]) == 2
    assert capsys.readouterr().out.startswith(f"eulerlink {pinned}: check on")


def test_depth_zero_is_a_valid_budget(theta_file, capsys):
    assert run(["check", theta_file, "--search", "--depth", "0"]) == 2
    assert capsys.readouterr().err == ""


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_twice(argv) -> tuple:
    """The exit code, stdout and stderr of ``argv``, run twice in this
    process, which shares one parser across command lines: both runs must
    give the same."""
    results = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as e:
                code = e.code
        results.append((code, out.getvalue(), err.getvalue()))
    assert results[0] == results[1]
    return results[0]


@pytest.fixture
def at_root(monkeypatch):
    """Run from the repository root, at argparse's default help width."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("argv, err", [
    (["check", "--depth", "abc", "corpus/circle.cplx"],
     "eulerlink check: argument --depth: invalid int value: 'abc'"),
    (["check"], "eulerlink check: the following arguments are required: path"),
    (["frobnicate"],
     "eulerlink: argument command: invalid choice: 'frobnicate' (choose from"
     " 'validate', 'check', 'invariants', 'integrate', 'link', 'bounds',"
     " 'corpus')"),
    (["check", "corpus/circle.cplx", "--seed", "0"],
     "eulerlink check: unrecognized arguments: --seed 0"),
    (["check", "corpus/circle.cplx", "--no-P"],
     "eulerlink check: unrecognized arguments: --no-P"),
    ([], "eulerlink: the following arguments are required: command"),
    (["--bogus", "check", "corpus/circle.cplx"],
     "eulerlink check: unrecognized arguments: --bogus"),
    (["check", "corpus/circle.cplx", "extra"],
     "eulerlink check: unrecognized arguments: extra"),
    (["check", "-o"],
     "eulerlink check: argument -o/--output: expected one argument"),
    (["validate"],
     "eulerlink validate: the following arguments are required: path"),
    (["link", "corpus/theta.cplx"],
     "eulerlink link: the following arguments are required: simplex"),
    (["bounds", "x", "2", "1"],
     "eulerlink bounds: argument d: invalid int value: 'x'"),
    (["corpus", "--write"],
     "eulerlink corpus: argument --write: expected one argument"),
], ids=["bad-int", "no-path", "no-command", "no-seed", "no-P", "empty",
        "option-before-command", "extra-argument", "no-option-value",
        "validate-no-path", "link-no-simplex", "bounds-bad-int",
        "corpus-no-dir"])
def test_usage_errors_exit_one(argv, err, at_root):
    # 2 is the obstruction code, so a usage error must not exit 2.  An
    # unrecognized argument is named by the subcommand's parser, wherever
    # it stands.
    assert run_twice(argv) == (1, "", f"error: {err}\n")


def test_main_builds_the_parser_once(monkeypatch, at_root):
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counted)
    cli.build_parser.cache_clear()
    try:
        assert run(["validate", "corpus/circle.cplx"]) == 0
        with pytest.raises(SystemExit):
            run(["check", "corpus/circle.cplx", "--seed", "0"])
        assert run(["validate", "corpus/torus.cplx"]) == 0
    finally:
        cli.build_parser.cache_clear()
    # the whole program's parser and each subcommand's, once
    assert built == ["eulerlink", *(f"eulerlink {c}" for c in cli._COMMANDS)]



def test_check_defaults_are_the_default_budget():
    args = cli.build_parser().parse_args(["check", "x.cplx"])
    budget = SearchBudget(max_depth=args.depth, max_functions=args.max_funcs)
    assert budget == DEFAULT_BUDGET


# argparse 3.13 writes an option with a short form and a metavar once.
OUTPUT_OPTION = ("  -o, --output OUTPUT   write the report here instead of"
                 " stdout\n" if sys.version_info >= (3, 13) else
                 "  -o OUTPUT, --output OUTPUT\n"
                 "                        write the report here instead of"
                 " stdout\n")

HELP = {
    "whole": (["--help"], """\
usage: eulerlink [-h]
                 {validate,check,invariants,integrate,link,bounds,corpus} ...

Exact Euler-calculus engine and local obstruction checker for finite
simplicial complexes.

positional arguments:
  {validate,check,invariants,integrate,link,bounds,corpus}
    validate            parse a complex file and report its face counts
    check               run the local obstruction tests
    invariants          b-vector of a complex of dimension <= 2
    integrate           Euler integral of a function file
    link                write the geometric link of a simplex as a complex
                        file
    bounds              presentation bounds N, N' for value range [delta-k,
                        delta+k] in dimension d
    corpus              built-in example complexes

options:
  -h, --help            show this help message and exit
"""),
    "check": (["check", "--help"], """\
usage: eulerlink check [-h] [--json] [--depth DEPTH] [--max-funcs MAX_FUNCS]
                       [--search] [-o OUTPUT]
                       path

positional arguments:
  path

options:
  -h, --help            show this help message and exit
  --json                structured report instead of text
  --depth DEPTH         search: maximum expression depth (default 6)
  --max-funcs MAX_FUNCS
                        search: distinct-function budget (default 20000)
  --search              force the per-simplex closure search below dimension 4
""" + OUTPUT_OPTION),
    "validate": (["validate", "--help"], """\
usage: eulerlink validate [-h] path

positional arguments:
  path

options:
  -h, --help  show this help message and exit
"""),
}


def test_help_still_exits_zero(at_root):
    argv, text = HELP["check"]
    assert run_twice(argv) == (0, text, "")


@pytest.mark.parametrize("name", ["whole", "validate"])
def test_help_is_pinned(name, at_root):
    argv, text = HELP[name]
    assert run_twice(argv) == (0, text, "")


def sha(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


# Every subcommand: exit code and stdout, the longer outputs by digest.
SUBCOMMANDS = {
    "validate": (["validate", "corpus/torus.cplx"], 0,
                 "torus: 7 vertices, 21 edges, 14 triangles\n"),
    "check": (["check", "corpus/theta.cplx"], 2, "sha256:"
              "38ac44867fd4d6a8545ac94166b13aa3b3a5a7768b37c3f520984f93e922cca6"),
    "check-json": (["check", "corpus/theta.cplx", "--json"], 2, "sha256:"
                   "5b3ac547a4e245c1cd1628837a66f01f11c47a0b94dc147c2273052fa09cdfd7"),
    "check-search": (["check", "corpus/circle.cplx", "--search",
                      "--depth", "3"], 0, "sha256:"
                     "5343af2bf9e8f3fee1f8b85bec72f9950527ab201f5162c906bf5e0ef7a6340d"),
    "check-dim4": (["check", "corpus/susp_sphere3.cplx", "--max-funcs", "50",
                    "--json"], 0, "sha256:"
                   "cc20f4c5b9435ff7065192be54c89e2a3d383ad8ded405288e702f239053ce4f"),
    "invariants": (["invariants", "corpus/rp2.cplx"], 0, "(1,0,0,0,0)\n"),
    "invariants-json": (["invariants", "corpus/theta.cplx", "--json"], 2,
                        "sha256:0a050346cedcdb9038f1f0ae15ec759c"
                        "b55f490232e1fb040378a50c8dec0f32"),
    "integrate": (["integrate", "corpus/window.cplx",
                   "corpus/quadrant_indicator.fn"], 0, "1\n"),
    "link": (["link", "corpus/theta.cplx", "a"], 0,
             "complex v=3\nl\nm\nu\n"),
    "bounds": (["bounds", "2", "2", "1"], 0,
               "N=5 N'=13\nnote: generic bound N additionally assumes the"
               " domain is irreducible\n"),
    "bounds-json": (["bounds", "2", "2", "1", "--json"], 0, "sha256:"
                    "91c7f903c6149107b40b62bd05c090a27b62adcd05e52b72e020b2260c86fd79"),
    "corpus-list": (["corpus", "--list"], 0,
                    "".join(f"{n}\n" for n in corpus.corpus_names())),
    "corpus-name": (["corpus", "theta"], 0,
                    "complex v=5\na l\na m\na u\nb l\nb m\nb u\n"),
}


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_every_subcommand_is_pinned(name, at_root):
    argv, code, want = SUBCOMMANDS[name]
    got, out, err = run_twice(argv)
    assert (got, err) == (code, "")
    assert (sha(out) if want.startswith("sha256:") else out) == want


def test_bounds_rejects_a_dimension_above_the_cap(capsys):
    assert run(["bounds", "4097", "1", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "4096" in err


@pytest.mark.parametrize("k, delta, what", [
    ("9" * 4000, "0", "range radius"),
    ("1", "9" * 4000, "offset"),
    ("1", "-" + "9" * 4000, "offset"),
], ids=["radius", "offset", "negative-offset"])
def test_bounds_rejects_a_range_too_large_to_print(capsys, k, delta, what):
    assert run(["bounds", "4096", k, delta]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert what in err and "10^1000" in err
