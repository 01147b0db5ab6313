"""The calculus outputs on the five mid-size complexes of the benchmark's
``calculus-mid`` workload, pinned by sha256 in
``tests/data/calculus_digests.json``.

For each complex: its simplices, its simplex names, the fields of every
Sullivan row, and the text of every value of ``dual`` and of ``dual``
applied twice to a seeded int function.  The two subdivisions also pin the
base function moved by ``subdivide_function`` and its Euler integral; the
three joins pin the bytes of ``write_complex`` and the simplices that
``parse_complex`` reads back from them (a subdivision's vertex labels hold
spaces, so it has no text file).  A change meant to keep
these outputs must leave every digest as it is; a change to them must
regenerate the file:

    PYTHONPATH=src python tests/test_calculus_pins.py

With ``--check`` the script writes nothing: it prints how many cases
changed and exits 1 if any did, so that a change meant to keep these
outputs can be checked without touching the file:

    PYTHONPATH=src python tests/test_calculus_pins.py --check

The script needs the standard library alone, so it runs under any
supported interpreter, with or without pytest installed.
"""

import hashlib
import os
import random

import pins
from eulerlink.complexes import barycentric_subdivision, join
from eulerlink.corpus import corpus_complex
from eulerlink.fileio import parse_complex, write_complex
from eulerlink.functions import (ConstructibleFunction, dual, euler_integral,
                                 subdivide_function)
from eulerlink.invariants import sullivan_check

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "tests", "data", "calculus_digests.json")
CASES = ("sd(susp_rp2)", "sd(susp_torus)", "join(rp2, rp2)",
         "join(torus, torus)", "join(klein, theta)")


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _ints(k, seed: str) -> list[int]:
    return random.Random(seed).choices(range(-3, 4), k=len(k.simplices))


def _outputs(case: str) -> dict:
    op, args = case.rstrip(")").split("(")
    parts = [corpus_complex(a) for a in args.split(", ")]
    extra = {}
    if op == "sd":
        sub = barycentric_subdivision(parts[0])
        k = sub.complex
        phi = ConstructibleFunction(parts[0], _ints(parts[0], case))
        moved = subdivide_function(phi, sub)
        extra = {"subdivide_function": _sha(tuple(map(str, moved.values))),
                 "euler_integral": str(euler_integral(moved))}
    else:
        k = join(*parts, name=case)
        text = write_complex(k)
        extra = {"write_complex": hashlib.sha256(text.encode()).hexdigest(),
                 "read_back": _sha(parse_complex(text).simplices)}
    once = dual(ConstructibleFunction(k, _ints(k, case)))
    rows = tuple((r.simplex, r.where, r.verdict, r.value, r.data)
                 for r in sullivan_check(k).rows)
    return {"simplices": _sha(k.simplices),
            "simplex_names": _sha(k.simplex_names()),
            "sullivan_rows": _sha(rows),
            "dual": _sha(tuple(map(str, once.values))),
            "dual_dual": _sha(tuple(map(str, dual(once).values))),
            **extra}


_pinned = pins.loader(DIGESTS)


def pytest_generate_tests(metafunc):
    # Parametrized by this hook, not a decorator, so that the module does
    # not import pytest.
    if metafunc.function is test_calculus_outputs_are_pinned:
        metafunc.parametrize("case", CASES)


def test_calculus_outputs_are_pinned(case):
    assert _outputs(case) == _pinned()[case]


if __name__ == "__main__":
    pins.main(DIGESTS, lambda: {case: _outputs(case) for case in CASES},
              "case", "Regenerate the pinned calculus digests.")
