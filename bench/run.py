"""Benchmark of ``eulerlink``: end-to-end runs and a traced per-layer run.

Usage, from the root of a checkout::

    python3 bench/run.py --workload corpus-dim3 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One process, one client, closed loop: the operations of a workload run
back to back in rounds of the same operations, for at least ``--seconds``
seconds of operations.  With ``--trace 0`` it prints ``norm_wall_s``
(median round time, scaled to the host's speed by a reference computation
run between operations), ``setup_s`` (median of several set-ups, scaled
alike) and ``peak_rss_mib``.
With ``--trace 1`` it replays one round of every workload untraced and
then traced, and prints the per-layer metrics; the spans go to
``bench/out/trace.json``.  ``--workload all`` runs each workload in its own
process, then the traced run, and prints every metric with its unit.  The
last line of standard output is always one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import types
from fractions import Fraction
from time import perf_counter

import oracle
from tracing import Tracer
from workloads import WORKLOADS

HASH_SEED = "0"
SETUP_REPEATS = 15
MODULES = ("cli", "complexes", "corpus", "dyadic", "fileio", "functions",
           "invariants", "reports", "search")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_eulerlink() -> types.SimpleNamespace:
    """Import ``eulerlink`` afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules
                 if m == "eulerlink" or m.startswith("eulerlink.")]:
        del sys.modules[name]
    pkg = importlib.import_module("eulerlink")
    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) != SRC:
        raise ImportError(f"eulerlink was imported from {pkg.__file__},"
                          f" not from {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"eulerlink.{m}") for m in MODULES})


# The reference computation: brute-force links on the 2-skeleton of the
# 8-simplex, and a run of Fraction sums and products.
REF_FACES = oracle.closure(itertools.combinations(range(9), 3))
REF_FRACTIONS = 700
# What the reference took on the 2-core Intel Xeon virtual machine the
# bounds were measured on; scaled times are in that machine's seconds.
REF_SECONDS = 0.013
# Seconds between reference runs inside a stretch of work.
SAMPLE_PERIOD = 0.2


def reference() -> float:
    """Time one fixed computation that shares no code with ``eulerlink``
    but does the same kinds of work: set and frozenset filtering, and
    rational arithmetic on small powers of two.  The cyclic collector is
    off meanwhile, so that it does not charge the reference for scanning
    the objects of an operation that is under way."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for tau in REF_FACES:
            oracle.link_chi(REF_FACES, tau)
        x = Fraction(0)
        for i in range(1, REF_FRACTIONS):
            x += Fraction(i, 1 << (i % 9)) * Fraction(3, 1 << (i % 5))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Time of stretches of work, raw and scaled to the host's speed.

    The host slows this process by up to 2x, in spells of a fraction of a
    second to minutes, and the reference computation slows with it.  With
    ``scaled``, the reference runs at the end of every stretch and, from a
    timer signal, every ``SAMPLE_PERIOD`` seconds within one; a stretch of
    ``dt`` seconds, not counting the reference runs inside it, counts
    ``dt * REF_SECONDS / r``, where ``r`` is the mean time of the reference
    runs inside it and just before and after it.  Use it as a context
    manager, which stops the timer.
    """

    def __init__(self, scaled: bool):
        self.scaled = scaled
        self._last = REF_SECONDS
        self._refs: list[float] = []
        self._paused = 0.0
        self._busy = False
        self._start = perf_counter()

    def __enter__(self) -> "Clock":
        if self.scaled:
            self._last = reference()
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        if self.scaled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        self._refs.append(reference())
        self._paused += perf_counter() - start
        self._busy = False

    def start(self) -> None:
        self._busy = True
        self._refs = []
        self._paused = 0.0
        self._start = perf_counter()
        self._busy = False

    def lap(self) -> tuple[float, float]:
        """(raw, scaled) time since ``start`` or the last lap; restarts."""
        dt = perf_counter() - self._start - self._paused
        factor = 1.0
        if self.scaled:
            self._busy = True
            refs = [self._last, *self._refs]
            self._last = reference()
            self._busy = False
            refs.append(self._last)
            factor = REF_SECONDS * len(refs) / sum(refs)
        self.start()
        return dt, dt * factor


class Rounds:
    """Whole rounds of a workload's operations, timed one by one.

    ``times`` and ``raw_times`` hold one round's summed operation times,
    scaled and raw.  With ``scaled``, an operation that calls
    ``workload.lap()`` between its stages has each stage scaled apart.
    """

    def __init__(self, workload, seconds: float, tracer=None,
                 scaled: bool = False):
        self.times: list[float] = []
        self.raw_times: list[float] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digests: dict = {}
        self.outputs: dict = {}
        start = perf_counter()
        with Clock(scaled) as clock:
            while not self.times or perf_counter() - start < seconds:
                self.outputs = {}
                raw, scaled_time = self._round(workload, tracer, clock)
                self.raw_times.append(raw)
                self.times.append(scaled_time)
        gc.collect()

    def _round(self, workload, tracer, clock) -> tuple[float, float]:
        raw = scaled = 0.0

        def lap():
            nonlocal raw, scaled
            r, s = clock.lap()
            raw += r
            scaled += s

        if clock.scaled:
            workload.lap = lap
        try:
            for name, op in workload.ops():
                gc.collect()
                self.attempted += 1
                clock.start()
                try:
                    out = op() if tracer is None else tracer.span(
                        f"op.{workload.name}.{name}", op)
                except Exception as e:  # a failed operation is counted
                    lap()
                    self.failed += 1
                    print(f"{workload.name}: {name} failed: {e!r}",
                          file=sys.stderr)
                    continue
                lap()
                self.outputs[name] = out
                digest = workload.digest(name, out)
                if self.digests.setdefault(name, digest) != digest:
                    self.problems.append(
                        f"{name}: output differs between rounds")
        finally:
            workload.__dict__.pop("lap", None)
        return raw, scaled


def timed_run(workload_cls, seed: int, seconds: float) -> dict:
    setups = []
    with Clock(scaled=True) as clock:
        for _ in range(SETUP_REPEATS):
            gc.collect()
            clock.start()
            el = import_eulerlink()
            workload = workload_cls(el, ROOT, seed)
            setups.append(clock.lap())
    rounds = Rounds(workload, seconds, scaled=True)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = rounds.problems + workload.check(rounds.outputs)
    print(f"{workload.name}: raw rounds {rounds.raw_times},"
          f" scaled rounds {rounds.times},"
          f" raw set-ups {[r for r, _ in setups]}", file=sys.stderr)
    return result(problems, rounds.attempted, rounds.failed, {
        "norm_wall_s": (statistics.median(rounds.times), "s"),
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "peak_rss_mib": (peak, "MiB"),
    })


def traced_run(seed: int) -> dict:
    el = import_eulerlink()
    tracer = Tracer(el)
    problems = []
    attempted = failed = 0
    untraced = traced = 0.0
    for workload_cls in WORKLOADS.values():
        workload = workload_cls(el, ROOT, seed)
        plain = Rounds(workload, 0)  # one round
        tracer.install()
        try:
            rounds = Rounds(workload, 0, tracer=tracer)
        finally:
            tracer.uninstall()
        if plain.digests != rounds.digests:
            problems.append(f"{workload.name}: tracing changed the outputs")
        problems += plain.problems + rounds.problems
        problems += workload.check(rounds.outputs)
        attempted += plain.attempted + rounds.attempted
        failed += plain.failed + rounds.failed
        untraced += sum(plain.raw_times)
        traced += sum(rounds.raw_times)
    metrics = tracer.metrics(traced / untraced - 1)
    os.makedirs(os.path.join(ROOT, "bench", "out"), exist_ok=True)
    with open(os.path.join(ROOT, "bench", "out", "trace.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"seed": seed, "metrics": metrics, **tracer.dump()}, fh)
    return result(problems, attempted, failed,
                  {k: (v["value"], v["unit"]) for k, v in metrics.items()})


def result(problems, attempted, failed, metrics) -> dict:
    for p in problems:
        print(f"incorrect: {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_all(args) -> dict:
    """Each workload in its own process (peak memory is per process), then
    the traced run; prints a table of every metric."""
    runs = [(w, 0) for w in WORKLOADS] + [("all", 1)]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in runs:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        prefix = "trace" if trace else workload
        print(f"{prefix}: correct={res['correct']}"
              f" attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
            combined["metrics"][f"{prefix}.{name}"] = m
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
    return combined


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set iteration order changes the work done inside the program, so
        # every run hashes alike.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable,
                 [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "eulerlink", "__init__.py")):
        print(f"error: no eulerlink package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all" and not args.trace:
        res = run_all(args)
    elif args.trace:
        res = traced_run(args.seed)
    else:
        res = timed_run(WORKLOADS[args.workload], args.seed, args.seconds)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
