"""Command-line interface.

Exit codes everywhere: 0 = pass, 1 = error (bad usage, bad input, parse
failure, unsupported dimension), 2 = obstruction found.

One parser, built once per process, reads every command line.  A usage
error is one ``error:`` line that names the subcommand when there is
one: ``error: eulerlink check: unrecognized arguments: --seed 0``.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .complexes import geometric_link
from .fileio import (ParseError, json_text, read_complex, read_function,
                     save_complex, simplex_resolver, write_complex,
                     write_function)
from .functions import euler_integral, indicator_of_subcomplex
from .invariants import (BoundQuery, InvariantVector, b_vector, bonnard_bounds,
                         dim3_check, merge_reports, search_check,
                         sullivan_check)
from .reports import RunConfig, exit_code_for, render
from .search import DEFAULT_BUDGET, SearchBudget, witness_text


def _dim_word(d: int, count: int) -> str:
    if d == 0:
        return "vertex" if count == 1 else "vertices"
    if d == 1:
        return "edge" if count == 1 else "edges"
    if d == 2:
        return "triangle" if count == 1 else "triangles"
    return f"{d}-simplex" if count == 1 else f"{d}-simplices"


def _counts_phrase(k) -> str:
    return ", ".join(f"{c} {_dim_word(d, c)}"
                     for d, c in enumerate(k.counts_by_dim()))


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    k = read_complex(args.path)
    print(f"{k.name}: {_counts_phrase(k)}")
    return 0


def cmd_check(args) -> int:
    budget = SearchBudget(max_depth=args.depth, max_functions=args.max_funcs)
    config = RunConfig(inputs=(args.path,),
                       output_format="json" if args.json else "text",
                       budget=budget, search_forced=args.search)
    k = read_complex(args.path, max_dim=4)
    parts = [sullivan_check(k)]
    if k.dim <= 3:
        parts.append(dim3_check(k))
    if k.dim == 4 or args.search:
        parts.append(search_check(k, budget))
    report = merge_reports(*parts)
    _emit(render(report, config), args.output)
    return exit_code_for(report)


def cmd_invariants(args) -> int:
    k = read_complex(args.path, max_dim=2)
    res = b_vector(k)
    code = 0 if isinstance(res, InvariantVector) else 2
    if args.json:
        found = ({"b": list(res)} if code == 0
                 else {"witness": res.as_dict(k.labels)})
        sys.stdout.write(json_text({"complex": k.name, **found,
                                    "exit_code": code}))
    else:
        print(res if code == 0
              else f"obstruction: {witness_text(res.as_dict(k.labels))}")
    return code


def cmd_integrate(args) -> int:
    k = read_complex(args.complex_path)
    phi = read_function(args.function_path, k)
    print(str(euler_integral(phi)))
    return 0


def cmd_link(args) -> int:
    k = read_complex(args.path)
    link = geometric_link(k, simplex_resolver(k)(args.simplex))
    if not link.simplices:
        raise ValueError("the link is empty (isolated maximal vertex);"
                         " nothing to write")
    if args.output:
        save_complex(link, args.output)
    else:
        sys.stdout.write(write_complex(link))
    return 0


def cmd_bounds(args) -> int:
    q = BoundQuery(d=args.d, k=args.k, delta=args.delta)
    b = bonnard_bounds(q)
    if args.json:
        payload = {"d": q.d, "k": q.k, "delta": q.delta, "N": b.n,
                   "N'": b.n_prime, "note": b.note}
        sys.stdout.write(json_text(payload))
    else:
        print(f"N={b.n} N'={b.n_prime}")
        print(f"note: {b.note}")
    return 0


def cmd_corpus(args) -> int:
    from . import corpus as corpus_mod
    if args.list:
        for name in corpus_mod.corpus_names():
            print(name)
        return 0
    if args.write:
        import os
        os.makedirs(args.write, exist_ok=True)
        for name in corpus_mod.corpus_names():
            save_complex(corpus_mod.corpus_complex(name),
                         os.path.join(args.write, f"{name}.cplx"))
        w = corpus_mod.window()
        one_q = indicator_of_subcomplex(w, corpus_mod.quadrant_subcomplex(w))
        _emit(write_function(one_q),
              os.path.join(args.write, "quadrant_indicator.fn"))
        print(f"wrote {len(corpus_mod.corpus_names())} complexes and 1"
              " function file")
        return 0
    if args.name:
        sys.stdout.write(write_complex(corpus_mod.corpus_complex(args.name)))
        return 0
    raise ValueError("corpus: give a name, --list, or --write <dir>")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one ``error:`` line, like every other
    error; argparse's own code, 2, is the obstruction code here.
    Subparsers are built with the parent's class, so they inherit this."""

    def error(self, message: str):
        self.exit(1, f"error: {self.prog}: {message}\n")


def _validate_arguments(v: argparse.ArgumentParser) -> None:
    v.add_argument("path")


def _check_arguments(c: argparse.ArgumentParser) -> None:
    c.add_argument("path")
    c.add_argument("--json", action="store_true",
                   help="structured report instead of text")
    c.add_argument("--depth", type=int, default=DEFAULT_BUDGET.max_depth,
                   help="search: maximum expression depth (default %(default)s)")
    c.add_argument("--max-funcs", type=int, default=DEFAULT_BUDGET.max_functions,
                   help="search: distinct-function budget (default %(default)s)")
    c.add_argument("--search", action="store_true",
                   help="force the per-simplex closure search below"
                        " dimension 4")
    c.add_argument("-o", "--output", default=None,
                   help="write the report here instead of stdout")


def _invariants_arguments(i: argparse.ArgumentParser) -> None:
    i.add_argument("path")
    i.add_argument("--json", action="store_true")


def _integrate_arguments(g: argparse.ArgumentParser) -> None:
    g.add_argument("complex_path")
    g.add_argument("function_path")


def _link_arguments(l: argparse.ArgumentParser) -> None:
    l.add_argument("path")
    l.add_argument("simplex", nargs="+",
                   help="vertex labels of the simplex")
    l.add_argument("-o", "--output", default=None)


def _bounds_arguments(b: argparse.ArgumentParser) -> None:
    b.add_argument("d", type=int)
    b.add_argument("k", type=int)
    b.add_argument("delta", type=int)
    b.add_argument("--json", action="store_true")


def _corpus_arguments(s: argparse.ArgumentParser) -> None:
    s.add_argument("name", nargs="?")
    s.add_argument("--list", action="store_true")
    s.add_argument("--write", metavar="DIR")


# Subcommand -> (help, the function adding its arguments, the command).
_COMMANDS = {
    "validate": ("parse a complex file and report its face counts",
                 _validate_arguments, cmd_validate),
    "check": ("run the local obstruction tests", _check_arguments, cmd_check),
    "invariants": ("b-vector of a complex of dimension <= 2",
                   _invariants_arguments, cmd_invariants),
    "integrate": ("Euler integral of a function file", _integrate_arguments,
                  cmd_integrate),
    "link": ("write the geometric link of a simplex as a complex file",
             _link_arguments, cmd_link),
    "bounds": ("presentation bounds N, N' for value range [delta-k, delta+k]"
               " in dimension d", _bounds_arguments, cmd_bounds),
    "corpus": ("built-in example complexes", _corpus_arguments, cmd_corpus),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole program's parser, built once: a parse leaves it as is."""
    p = _Parser(
        prog="eulerlink",
        description="Exact Euler-calculus engine and local obstruction"
                    " checker for finite simplicial complexes.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, fn) in _COMMANDS.items():
        c = sub.add_parser(name, help=help_text)
        add_arguments(c)
        c.set_defaults(fn=fn, parser=c)
    return p


def main(argv=None) -> int:
    # Given None, argparse reads sys.argv[1:].
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        # parse_args's error, from the parser that names the subcommand
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.fn(args)
    except (ParseError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
