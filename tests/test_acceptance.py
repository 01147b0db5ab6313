"""End-to-end acceptance: ten numbered criteria, one printed line each.

Each test prints `criterion NN [...]: PASS/FAIL (elapsed)` straight to the
terminal (bypassing capture) so a full `pytest -v` run shows the scorecard
inline. Stated runtime budgets are asserted, not just hoped for.
"""

import json
import time
from contextlib import contextmanager

from eulerlink import cli, corpus
from eulerlink.complexes import (Simplex, cone, disjoint_union,
                                 euler_characteristic, geometric_link)
from eulerlink.dyadic import Dyadic
from eulerlink.functions import (ConstructibleFunction, euler_integral,
                                 indicator, indicator_of_subcomplex, is_euler,
                                 link_operator)
from eulerlink.invariants import (InvariantVector, ZERO_VECTOR, b_vector,
                                  bonnard_bounds, BoundQuery, dim3_check,
                                  divisibility_certificate)
from eulerlink.fileio import save_complex
from eulerlink.search import (ExpressionWitness, SearchBudget,
                              closure_search, replay_witness)

import test_oracles
import test_properties


@contextmanager
def criterion(capsys, number, title, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number:2d} [{title}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, \
            f"criterion {number} took {elapsed:.2f}s (budget {budget_seconds}s)"
    with capsys.disabled():
        print(f"criterion {number:2d} [{title}]: PASS ({elapsed:.2f}s)")


def window_model():
    w = corpus.window()
    coords = corpus.window_coordinates(w)
    one_q = indicator_of_subcomplex(w, corpus.quadrant_subcomplex(w))
    return w, coords, one_q


def axis_ray(w, coords, axis):
    """Open ray simplices: everything on the positive closed `axis` half-line
    except the origin itself (so the open edge at O is included)."""
    chosen = []
    for s in w.simplices:
        pts = [coords[v] for v in s]
        on_axis = all(p[1 - axis] == 0 and p[axis] >= 0 for p in pts)
        if on_axis and max(p[axis] for p in pts) > 0:
            chosen.append(s)
    return chosen


def test_criterion_01_theta_junctions(tmp_path, capsys):
    with criterion(capsys, 1, "theta junction check", budget_seconds=1.0):
        path = tmp_path / "theta.cplx"
        save_complex(corpus.theta(), str(path))
        out = tmp_path / "report.json"
        code = cli.main(["check", str(path), "--json", "-o", str(out)])
        assert code == 2
        payload = json.loads(out.read_text())
        failing = [r for r in payload["tests"] if r["verdict"] == "fail"]
        assert {r["simplex"] for r in failing} == {"(a)", "(b)"}
        sullivan = [r for r in failing if r["test"] == "sullivan"]
        assert len(sullivan) == 2
        assert all(r["link_chi"] == 3 for r in sullivan)


def test_criterion_02_quadrant_calculus(capsys):
    with criterion(capsys, 2, "quadrant worked examples", budget_seconds=1.0):
        w, coords, one_q = window_model()
        origin = corpus.origin_vertex(w)

        lam = link_operator(one_q)
        expected = indicator(
            w, [origin] + axis_ray(w, coords, 0) + axis_ray(w, coords, 1))
        star = [s for s in w.simplices if set(origin) <= set(s)]
        for s in star:
            assert lam[s] == expected[s], w.simplex_name(s)

        ok, _ = is_euler(one_q)
        assert not ok
        ok, _ = is_euler(one_q.scale(Dyadic(2)))
        assert ok

        c = corpus.xaxis_subcomplex(w)
        psi = indicator_of_subcomplex(w, c) * lam
        ok, _ = is_euler(psi)
        assert not ok

        assert divisibility_certificate(one_q.scale(Dyadic(4))).certified


def test_criterion_03_smooth_link_rule(capsys):
    with criterion(capsys, 3, "smooth link rule", budget_seconds=5.0):
        for name, factor in [("circle", 2), ("sphere3", 2),
                             ("sphere2", 0), ("torus", 0), ("klein", 0),
                             ("rp2", 0)]:
            k = corpus.corpus_complex(name)
            assert link_operator(ConstructibleFunction.one(k)) == \
                ConstructibleFunction.constant(k, Dyadic(factor)), name


def test_criterion_04_b_invariants(capsys):
    with criterion(capsys, 4, "b-invariant vectors", budget_seconds=5.0):
        assert b_vector(corpus.rp2()) == InvariantVector(1, 0, 0, 0, 0)
        assert b_vector(corpus.sphere2()) == ZERO_VECTOR
        assert b_vector(corpus.torus()) == ZERO_VECTOR

        members = [corpus.corpus_complex(n) for n in corpus.corpus_names()]
        members = [k for k in members if k.dim <= 2]
        assert len(members) == 14
        vectors = {k.name: b_vector(k) for k in members}
        for x in members:
            for y in members:
                both = b_vector(disjoint_union(x, y))
                bx, by = vectors[x.name], vectors[y.name]
                if isinstance(bx, InvariantVector) and \
                        isinstance(by, InvariantVector):
                    assert both == bx + by, (x.name, y.name)
                    if x.name == y.name:
                        assert both == ZERO_VECTOR
                else:
                    # parity failure on a part survives into the whole
                    assert isinstance(both, ExpressionWitness), (x.name, y.name)


def test_criterion_05_dim3_check(capsys):
    with criterion(capsys, 5, "dimension-3 criterion", budget_seconds=10.0):
        assert dim3_check(corpus.sphere3()).passed
        assert dim3_check(corpus.corpus_complex("susp_torus")).passed
        report = dim3_check(corpus.corpus_complex("cone_rp2"))
        assert not report.passed
        apex = [r for r in report.failing() if r.where == "(apex)"]
        assert len(apex) == 1
        assert apex[0].data["b"][0] == 1   # chi2 component set


def test_criterion_06_operator_identities(capsys):
    with criterion(capsys, 6, "operator property suite", budget_seconds=60.0):
        test_properties.test_integral_of_link_vanishes()
        test_properties.test_link_is_idempotent_up_to_factor_two()
        test_properties.test_dual_is_an_involution()
        test_properties.test_link_value_is_integral_over_the_link()
        test_properties.test_subdivision_preserves_integral_and_link()
        test_properties.test_pushforward_functoriality()
        test_properties.test_link_commutes_with_pushforward()
        test_properties.test_half_link_restriction_identity_on_even_functions()


def test_criterion_07_oracle_validation(capsys):
    with criterion(capsys, 7, "geometric oracles"):
        test_oracles.test_link_coefficients_on_closed_simplices()
        test_oracles.test_pushforward_matches_fiber_oracle_on_all_small_maps()


def test_criterion_08_search_consistency(capsys):
    with criterion(capsys, 8, "witness search on 3-complexes",
                   budget_seconds=120.0):
        budget = SearchBudget()
        three_complexes = [corpus.corpus_complex(n)
                           for n in corpus.corpus_names()
                           if corpus.corpus_complex(n).dim == 3]
        assert len(three_complexes) == 11
        flagged = 0
        for k in three_complexes:
            for tau in k.simplices:
                link = geometric_link(k, tau)
                b = b_vector(link)
                nonzero = not (isinstance(b, InvariantVector) and b.is_zero)
                if not nonzero:
                    continue
                flagged += 1
                res = closure_search(link, budget)
                assert res.verdict == "witness", \
                    (k.name, k.simplex_name(tau))
                w = res.witness
                assert replay_witness(w, link) == w.value
        assert flagged > 0


def test_criterion_09_presentation_bounds(capsys):
    with criterion(capsys, 9, "presentation bounds", budget_seconds=1.0):
        for (d, k, delta), expected in [((1, 1, 0), (1, 2)),
                                        ((2, 2, 1), (5, 13)),
                                        ((3, 0, -4), (4, 4))]:
            b = bonnard_bounds(BoundQuery(d, k, delta))
            assert (b.n, b.n_prime) == expected


def test_criterion_10_reporting_stability(tmp_path, capsys):
    with criterion(capsys, 10, "golden reports and exit codes"):
        theta = tmp_path / "theta.cplx"
        save_complex(corpus.theta(), str(theta))
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.json"
            code = cli.main(["check", str(theta), "--json", "-o", str(out)])
            runs.append((code, out.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 2

        s3 = tmp_path / "s3.cplx"
        save_complex(corpus.sphere3(), str(s3))
        assert cli.main(["check", str(s3)]) == 0

        garbage = tmp_path / "garbage.cplx"
        garbage.write_text("not a header\n", encoding="utf-8")
        assert cli.main(["check", str(garbage)]) == 1

        seen = {cli.main(["check", str(p)])
                for p in (theta, s3, garbage)}
        assert seen == {0, 1, 2}
