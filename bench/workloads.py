"""The benchmark's workloads.

A workload is built once per set-up from the seed (locating or generating
its inputs), then yields the same operations every round.  Every operation
starts from a file or a generator, so it builds fresh complex objects and
pays for lazy tables (the coface table above all) as a fresh ``eulerlink``
process would.  ``digest`` and ``check`` run outside the timed region.
"""

from __future__ import annotations

import glob
import hashlib
import itertools
import json
import os
import random
from fractions import Fraction

import oracle

# Closed manifolds are real algebraic sets (Nash-Tognoli), so every sound
# obstruction test passes them.
CLOSED_MANIFOLDS = ("circle", "sphere2", "sphere3", "torus", "klein", "rp2",
                    "susp_circle", "susp_sphere2")

SEARCH_INPUTS = ("susp_sphere3", "cone_sphere3")
# Small enough that every search row stops at the function budget, so the
# work per search is fixed whatever order the search enumerates in.
SEARCH_MAX_FUNCTIONS = 50

# The calculus inputs: 2,109 and 2,942 simplices after subdivision; joins
# of 1,023, 1,848 and 1,163 simplices.  Each stage of an operation takes
# under 1.5 s, short enough for run.Clock to scale it (see README.md).
SD_INPUTS = ("susp_rp2", "susp_torus")
JOIN_INPUTS = (("rp2", "rp2"), ("torus", "torus"), ("klein", "theta"))

# Simplices per complex on which Lambda(1) is compared with brute force.
LINK_SAMPLE = 12


class OperationFailed(Exception):
    pass


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _fraction(v) -> Fraction:
    return Fraction(v.num, 1 << v.exp)


def _integral(simplices, values) -> Fraction:
    return sum((_fraction(v) if len(s) % 2 else -_fraction(v)
                for s, v in zip(simplices, values)), Fraction(0))


class CheckWorkload:
    """``eulerlink check --json`` on corpus files, one operation per file."""

    name = ""
    extra_args: tuple[str, ...] = ()

    def __init__(self, el, root: str, seed: int):
        self.el = el
        self.out = os.path.join(root, "bench", "out", self.name)
        os.makedirs(self.out, exist_ok=True)
        self.inputs = []  # (stem, path, text)
        for path in sorted(glob.glob(os.path.join(root, "corpus", "*.cplx"))):
            stem = os.path.splitext(os.path.basename(path))[0]
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if self.wanted(stem, text):
                self.inputs.append((stem, path, text))
        if not self.inputs:
            raise OperationFailed(f"{self.name}: no input files found")
        random.Random(seed).shuffle(self.inputs)

    def wanted(self, stem: str, text: str) -> bool:
        raise NotImplementedError

    def ops(self):
        for stem, path, _ in self.inputs:
            yield stem, (lambda path=path, stem=stem:
                         self._run_check(path, stem))

    def _report_path(self, stem: str) -> str:
        return os.path.join(self.out, stem + ".json")

    def _run_check(self, path: str, stem: str) -> int:
        rc = self.el.cli.main(["check", "--json", *self.extra_args, path,
                               "-o", self._report_path(stem)])
        if rc not in (0, 2):
            raise OperationFailed(f"check {path} exited {rc}")
        return rc

    def digest(self, stem: str, rc: int) -> str:
        with open(self._report_path(stem), "rb") as fh:
            return f"{rc}:{_sha(fh.read())}"

    def check(self, outputs: dict) -> list[str]:
        problems = []
        for stem, path, text in self.inputs:
            if stem not in outputs:
                continue
            with open(self._report_path(stem), encoding="utf-8") as fh:
                report = json.load(fh)
            faces = oracle.closure(oracle.parse_cplx(text))
            problems += [f"{stem}: {p}" for p in
                         self.check_report(stem, faces, report, outputs[stem])]
        return problems

    def check_report(self, stem, faces, report, rc) -> list[str]:
        out = []
        rows = report["tests"]
        if report["complex"] != stem or report["exit_code"] != rc:
            out.append("report names another complex or exit code")
        if (rc == 0) != all(r["verdict"] == "pass" for r in rows):
            out.append(f"exit code {rc} disagrees with the verdicts")
        for test in sorted({r["test"] for r in rows}):
            named = [oracle.simplex_labels(r["simplex"]) for r in rows
                     if r["test"] == test]
            if len(named) != len(faces) or set(named) != faces:
                out.append(f"{test} rows do not cover each simplex once")
        labels = set().union(*faces)
        for r in rows:
            tau = oracle.simplex_labels(r["simplex"])
            if r["test"] == "sullivan":
                chi = oracle.link_chi(faces, tau)
                failed = r["verdict"] == "fail"
                if r["link_chi"] != chi or failed != (chi % 2 == 1):
                    out.append(f"sullivan {r['simplex']}: link chi {chi},"
                               f" row {r['link_chi']} {r['verdict']}")
            elif "witness" in r:
                if r["verdict"] != "fail":
                    out.append(f"{r['test']} {r['simplex']}: witness row passes")
                out += [f"{r['test']} {r['simplex']}: {p}" for p in
                        oracle.witness_problems(r["witness"], faces, tau, labels)]
            elif r["test"] == "dim3":
                chi = oracle.link_chi(faces, tau)
                passed = r["verdict"] == "pass"
                if r["b"][0] != chi % 2 or passed != (not any(r["b"])):
                    out.append(f"dim3 {r['simplex']}: link chi {chi},"
                               f" row b = {r['b']} {r['verdict']}")
        return out


class CorpusDim3(CheckWorkload):
    name = "corpus-dim3"

    def wanted(self, stem, text):
        return max(len(f) for f in oracle.parse_cplx(text)) <= 4

    def check_report(self, stem, faces, report, rc):
        out = super().check_report(stem, faces, report, rc)
        if stem in CLOSED_MANIFOLDS and rc != 0:
            out.append(f"closed manifold exits {rc}, not 0")
        return out


class SearchDim4(CheckWorkload):
    name = "search-dim4"
    extra_args = ("--max-funcs", str(SEARCH_MAX_FUNCTIONS))

    def wanted(self, stem, text):
        return stem in SEARCH_INPUTS

    def check_report(self, stem, faces, report, rc):
        out = super().check_report(stem, faces, report, rc)
        if report["config"]["budget"]["max_functions"] != SEARCH_MAX_FUNCTIONS:
            out.append("report echoes another function budget")
        rows = report["tests"]
        for r in rows:
            if r["test"] == "search" and r["verdict"] == "pass" and (
                    r["stop"] != "max-functions"
                    or r["explored"] != SEARCH_MAX_FUNCTIONS):
                out.append(f"search {r['simplex']}: pass row stopped at"
                           f" {r['stop']} after {r['explored']} functions")
        if stem == "susp_sphere3" and rc != 0:
            out.append("S^4 fails a test")
        if stem == "cone_sphere3":
            # The cone point lies in every facet; the boundary sphere is
            # everything that avoids it.
            facets = [f for f in faces if not any(f < g for g in faces)]
            apex = frozenset.intersection(*facets)
            boundary = {f for f in faces if not f & apex}
            failing = {oracle.simplex_labels(r["simplex"]) for r in rows
                       if r["test"] == "sullivan" and r["verdict"] == "fail"}
            if len(apex) != 1 or failing != boundary:
                out.append("Sullivan does not fail exactly on the boundary")
        return out


class CalculusMid:
    """The calculus on barycentric subdivisions and joins of 1,000 to 3,000
    simplices, one operation per complex."""

    name = "calculus-mid"

    def __init__(self, el, root: str, seed: int):
        self.el = el
        self.out = os.path.join(root, "bench", "out", self.name)
        os.makedirs(self.out, exist_ok=True)
        # Sizes from the corpus files of the same complexes, so the inputs
        # are made without building anything with the program.
        sizes = {}
        for stem in {*SD_INPUTS, *itertools.chain(*JOIN_INPUTS)}:
            path = os.path.join(root, "corpus", stem + ".cplx")
            with open(path, encoding="utf-8") as fh:
                sizes[stem] = len(oracle.closure(oracle.parse_cplx(fh.read())))
        self.rng = random.Random(seed)
        self.values = {}
        for stem in SD_INPUTS:
            self.values[f"sd.{stem}"] = self._draw(sizes[stem])
        for a, b in JOIN_INPUTS:
            n, m = sizes[a], sizes[b]
            self.values[f"join.{a}.{b}"] = self._draw(n + m + n * m)

    def _draw(self, n: int) -> list[int]:
        return self.rng.choices(range(-3, 4), k=n)

    def ops(self):
        for stem in SD_INPUTS:
            yield f"sd.{stem}", (lambda stem=stem: self._subdivision(stem))
        for a, b in JOIN_INPUTS:
            yield f"join.{a}.{b}", (lambda a=a, b=b: self._join(a, b))

    def lap(self) -> None:
        """Marks a stage boundary inside an operation.  A timed run
        replaces it, so that each stage is scaled by the host's speed apart
        (see ``run.Clock``)."""

    def _subdivision(self, stem: str) -> dict:
        el = self.el
        base = el.corpus.corpus_complex(stem)
        sub = el.complexes.barycentric_subdivision(base)
        self.lap()
        report = el.invariants.sullivan_check(sub.complex)
        self.lap()
        phi = el.functions.ConstructibleFunction(
            base, self.values[f"sd.{stem}"])
        moved = el.functions.subdivide_function(phi, sub)
        integral = el.functions.euler_integral(moved)
        return {"base": base, "sd": sub.complex, "report": report,
                "phi": phi, "moved": moved, "integral": integral}

    def _join(self, a: str, b: str) -> dict:
        el = self.el
        name = f"{a}_{b}"
        k, l = el.corpus.corpus_complex(a), el.corpus.corpus_complex(b)
        joined = el.complexes.join(k, l, name=name)
        self.lap()
        report = el.invariants.sullivan_check(joined)
        self.lap()
        phi = el.functions.ConstructibleFunction(
            joined, self.values[f"join.{a}.{b}"])
        once = el.functions.dual(phi)
        twice = el.functions.dual(once)
        self.lap()
        text = el.fileio.write_complex(joined)
        path = os.path.join(self.out, name + ".cplx")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        back = el.fileio.read_complex(path)
        return {"k": k, "l": l, "join": joined, "report": report, "phi": phi,
                "dual": once, "dual_dual": twice, "text": text, "back": back}

    def digest(self, name: str, out: dict) -> str:
        rows = tuple(r.value for r in out["report"].rows)
        if name.startswith("sd."):
            return _sha(repr((rows, str(out["integral"]), out["sd"].simplices)))
        return _sha(repr((rows, tuple(map(str, out["dual_dual"].values)),
                          out["text"])))

    def _links_problems(self, complex_, report) -> list[str]:
        faces = set(map(frozenset, complex_.simplices))
        rows = self.rng.sample(report.rows, min(LINK_SAMPLE, len(report.rows)))
        out = []
        for r in rows:
            chi = oracle.link_chi(faces, frozenset(r.simplex))
            if r.data["link_chi"] != chi:
                out.append(f"Lambda(1) at {r.where} is {r.data['link_chi']},"
                           f" brute force {chi}")
        return out

    def check(self, outputs: dict) -> list[str]:
        out = []
        for name, o in outputs.items():
            out += [f"{name}: {p}" for p in (
                self._check_subdivision(o) if name.startswith("sd.")
                else self._check_join(o))]
        return out

    def _check_subdivision(self, o: dict) -> list[str]:
        out = []
        base, sd = o["base"].simplices, o["sd"].simplices
        if oracle.euler_characteristic(sd) != oracle.euler_characteristic(base):
            out.append("chi(sd K) differs from chi(K)")
        before = _integral(base, o["phi"].values)
        if not (before == _fraction(o["integral"])
                == _integral(sd, o["moved"].values)):
            out.append("subdivide_function changed the Euler integral")
        return out + self._links_problems(o["sd"], o["report"])

    def _check_join(self, o: dict) -> list[str]:
        out = []
        nk, nl = len(o["k"].simplices), len(o["l"].simplices)
        simplices = o["join"].simplices
        if len(simplices) != nk + nl + nk * nl:
            out.append("join has the wrong number of simplices")
        phi = [_fraction(v) for v in o["phi"].values]
        if [_fraction(v) for v in o["dual_dual"].values] != phi:
            out.append("dual(dual phi) is not phi")
        # dual phi = phi - Lambda phi, and Lambda phi integrates to 0.
        if _integral(simplices, o["dual"].values) \
                != _integral(simplices, o["phi"].values):
            out.append("the link of phi does not integrate to 0")
        out += self._links_problems(o["join"], o["report"])
        if len(o["back"].simplices) != len(simplices) \
                or self.el.fileio.write_complex(o["back"]) != o["text"]:
            out.append("write, read, write is not byte-identical")
        return out


WORKLOADS = {w.name: w for w in (CorpusDim3, SearchDim4, CalculusMid)}
