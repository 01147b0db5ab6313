"""Report bytes and exit codes of ``eulerlink check`` on the shipped corpus,
pinned by sha256 in ``tests/data/report_digests.json``.

Every run goes through ``cli.main`` with the working directory at the repo
root and a relative ``corpus/<name>.cplx`` path, because the path is echoed
into the report.  A change to the report format must regenerate the file:

    PYTHONPATH=src python tests/test_report_digests.py

With ``--check`` the script writes nothing: it prints how many digests
changed and exits 1 if any did, so that a change meant to keep every report
byte can be checked without touching the file:

    PYTHONPATH=src python tests/test_report_digests.py --check

The script needs the standard library alone, so it runs under any
supported interpreter, with or without pytest installed.
"""

import contextlib
import hashlib
import io
import os

import pins
from eulerlink import cli, corpus
from eulerlink.fileio import read_complex

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "tests", "data", "report_digests.json")
# The 4-complexes run the closure search, so they get a small budget; their
# JSON report is also pinned at the default budget, the only runs that
# reach depth 5.
SEARCH_BUDGET = ["--max-funcs", "50"]


def _runs() -> list[list[str]]:
    """The argv of every pinned run."""
    runs = []
    for name in corpus.corpus_names():
        path = f"corpus/{name}.cplx"
        dim = read_complex(os.path.join(ROOT, path)).dim
        budget = SEARCH_BUDGET if dim == 4 else []
        runs.append(["check", path, "--json", *budget])
        runs.append(["check", path, *budget])
        if dim == 4:
            runs.append(["check", path, "--json"])
        if dim <= 3:
            runs.append(["check", path, "--json", "--search", *SEARCH_BUDGET])
    return runs


def _digest(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"exit_code": code,
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _key(argv: list[str]) -> str:
    return " ".join(argv)


def test_runs_cover_the_corpus():
    assert len(_runs()) == 81


_pinned = pins.loader(DIGESTS)


def pytest_generate_tests(metafunc):
    # Parametrized by this hook, not a decorator, so that the module does
    # not import pytest.
    if metafunc.function is test_report_bytes_are_pinned:
        metafunc.parametrize("argv", _runs(), ids=_key)


def test_report_bytes_are_pinned(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert _digest(argv) == _pinned()[_key(argv)]


if __name__ == "__main__":
    os.chdir(ROOT)
    pins.main(DIGESTS, lambda: {_key(argv): _digest(argv) for argv in _runs()},
              "digest", "Regenerate the pinned report digests.")
