#!/usr/bin/env python3
"""The lcnf benchmark: a closed loop of CLI requests on a seeded corpus.

    python3 bench/run.py --workload witness-sat --seed 1 --seconds 20 --trace 0

One client sends one request at a time, in a seeded fixed order, and sends
the next only when the previous one has returned.  A request is one ``lcnf``
command (``lcnf.main(argv)`` with stdout captured) on one generated file, with
``--jobs 1``.  The corpus is written to disk first, so parsing is measured.

Phases of a run:

1. Generate and write the corpus (not measured).
2. Set-up, repeated ``SETUP_ROUNDS`` times, each in a fresh interpreter
   (``setup_round.py``): import ``lcnf`` and run one warm-up request per
   command on a small file that is the same for every seed.  ``setup_s``
   is the median round.  This process then imports ``lcnf`` and warms it
   up the same way, untimed.
3. Whole passes over the corpus, at least enough for ``MIN_SAMPLES``
   verdicts, and more while they fit in ``--seconds``; every request runs
   equally often.  With ``--trace 1``, untraced and traced passes alternate.
4. Every answer is checked against its definition by ``checker``, outside
   the timed passes, and the checker must reject one corrupted answer per
   command.

Request times are scaled to a reference machine speed.  A fixed probe (the
checker's own DPLL and truth table on fixed formulas, pure Python like
lcnf) runs before every request.  Each request's time is multiplied by
``probe.REFERENCE_S`` over the median of the probes within ``WINDOW``
requests of it; rates and per-layer times are scaled the same way.  On a
shared host the speed of a process drifts by a factor of up to two over
seconds to minutes, and the probe drifts with it; scaling by nearby probes
cut the run-to-run spread of the verdict times several-fold (numbers in
README.md).  Each set-up round is scaled by the probe run in its own
interpreter just after it.  The unscaled figures are printed too.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0`` and its per-layer metrics with ``--trace 1``.  The lines
before it are for people.  ``error_ratio`` is ``failed / attempted``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import corpus
import probe
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_ROUNDS = 11
MIN_SAMPLES = 110  # so that at least ten lie beyond the 90th percentile
WINDOW = 5  # probes on each side of a request that scale its time


def _check_source(path: str):
    if Path(path).resolve().parent != (SRC / "lcnf").resolve():
        raise ImportError(f"lcnf was imported from {path}, not {SRC}")


def _import_lcnf(warm_argv):
    """Import lcnf into this process and warm it up, untimed."""
    import lcnf

    _check_source(lcnf.__file__)
    for argv in warm_argv:
        _call(lcnf, argv)
    return lcnf


def _call(lcnf, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = lcnf.main(argv)
    return code, out.getvalue()


class Loop:
    """Runs requests and keeps every execution's time and outcome."""

    def __init__(self, requests, directory: Path):
        self.requests = requests
        self.argv = [r.argv(directory) for r in requests]
        self.lcnf = None
        self.tracer = None
        self.probes = []  # seconds, one before every execution
        self.passes = []  # (traced, first execution, end execution)
        self.times = []  # seconds, every execution
        self.executions = []  # request index of every execution
        self.first = {}  # request index -> (code, stdout) of its first execution
        self.repeats = []  # per execution: same outcome as the request's first

    def run_pass(self, traced: bool):
        """Run every request once."""
        first = len(self.times)
        if traced:
            self.tracer.install()
        try:
            for i in range(len(self.requests)):
                self.run(i, traced)
        finally:
            if traced:
                self.tracer.uninstall()
        self.passes.append((traced, first, len(self.times)))

    def run(self, index, traced=False):
        self.probes.append(probe.probe())
        argv = self.argv[index]
        start = time.perf_counter()
        try:
            if traced:
                outcome = self.tracer.request(_call, self.lcnf, argv)
            else:
                outcome = _call(self.lcnf, argv)
        except Exception as e:  # a crashing request is a failed request
            outcome = (None, f"{type(e).__name__}: {e}")
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        self.executions.append(index)
        self.repeats.append(self.first.setdefault(index, outcome) == outcome)

    def scales(self) -> list:
        """Per execution, probe.REFERENCE_S over the median of nearby probes."""
        p = self.probes
        return [
            probe.REFERENCE_S / statistics.median(p[max(0, i - WINDOW): i + WINDOW + 1])
            for i in range(len(p))
        ]


def _setup(warm_argv):
    """Time SETUP_ROUNDS set-up rounds, each in a fresh interpreter.

    Returns (seconds, probe seconds) for every round; the probe runs in the
    round's interpreter, just after the timed part.
    """
    rounds = []
    for _ in range(SETUP_ROUNDS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_round.py"), str(SRC),
             *("\n".join(argv) for argv in warm_argv)],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) != 3:
            raise ImportError(f"set-up round exited {proc.returncode}: {proc.stderr.strip()}")
        _check_source(lines[2])
        rounds.append((float(lines[0]), float(lines[1])))
    return rounds


def _passes(loop, seconds, kinds, minimum):
    """Run rounds of whole passes, one pass per kind (False untraced, True traced).

    At least ``minimum`` rounds run; another starts only if it should end
    within ``seconds``, judged by the mean round so far.
    """
    start = time.perf_counter()
    rounds = 0
    while True:
        for kind in kinds:
            loop.run_pass(kind)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= minimum and elapsed * (rounds + 1) / rounds > seconds:
            return


def _check(lcnf, loop):
    """Check each distinct answer once, and one corrupted answer per kind.

    Returns (failed executions, failure notes, corruptions rejected, tried).
    """
    def solve(clauses):
        return lcnf.solve(clauses).model

    tables = {}
    wrong = set()
    notes = []
    mutated = set()
    rejected = 0
    for index, (code, out) in sorted(loop.first.items()):
        r = loop.requests[index]
        if code is None:
            wrong.add(index)
            notes.append(f"{r.key}: {out}")
            continue
        reason = checker.check(r.kind, r.rows, code, out, solve, tables)
        if reason is not None:
            wrong.add(index)
            notes.append(f"{r.key}: {reason}")
        elif r.kind not in mutated:
            mutated.add(r.kind)
            bad = checker.corrupt(r.kind, r.rows, out)
            if checker.check(r.kind, r.rows, code, bad, solve, tables) is not None:
                rejected += 1
            else:
                notes.append(f"{r.key}: checker accepted a corrupted answer")
    unsteady = {i for i, same in zip(loop.executions, loop.repeats) if not same}
    notes.extend(f"{loop.requests[i].key}: outcome differs between passes" for i in sorted(unsteady))
    failed = sum(1 for i, same in zip(loop.executions, loop.repeats) if i in wrong or not same)
    return failed, notes, rejected, len(mutated)


def _end_to_end(loop, setup_rounds, peak_rss_mb, result) -> dict:
    scaled = [t * f * 1e3 for t, f in zip(loop.times, loop.scales())]
    p90 = statistics.quantiles(scaled, n=10, method="inclusive")[8]
    raw_ms = [t * 1e3 for t in loop.times]
    result["unscaled"] = {
        "setup_s": statistics.median(t for t, _ in setup_rounds),
        "verdict_p50_ms": statistics.median(raw_ms),
        "verdict_p90_ms": statistics.quantiles(raw_ms, n=10, method="inclusive")[8],
        "requests_per_s": len(raw_ms) / sum(loop.times),
    }
    result["verdict_samples"] = len(scaled)
    result["beyond_p90"] = sum(1 for t in scaled if t > p90)
    return {
        "setup_s": statistics.median(t * probe.REFERENCE_S / p for t, p in setup_rounds),
        "verdict_p50_ms": statistics.median(scaled),
        "verdict_p90_ms": p90,
        "requests_per_s": len(scaled) / (sum(scaled) / 1e3),
        "peak_rss_mb": peak_rss_mb,
    }


def _per_layer(loop, result) -> dict:
    scales = loop.scales()
    totals = {False: [], True: []}
    traced_scales = []
    for traced, first, end in loop.passes:
        totals[traced].append(sum(t * f for t, f in zip(loop.times[first:end], scales[first:end])))
        if traced:
            traced_scales.extend(scales[first:end])
    scale = statistics.median(traced_scales)
    layers = {
        k: v * scale if k.endswith("_s") else v
        for k, v in loop.tracer.layer_metrics(len(totals[True])).items()
    }
    untraced = statistics.median(totals[False])
    traced = statistics.median(totals[True])
    layers["trace.untraced_pass_s"] = untraced
    layers["trace.traced_pass_s"] = traced
    layers["trace.overhead_s"] = traced - untraced
    result["passes"] = {"untraced": len(totals[False]), "traced": len(totals[True])}
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result as JSON to this file")
    args = parser.parse_args(argv)

    if not (SRC / "lcnf" / "__init__.py").is_file():
        print(f"error: no lcnf sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))

    phases = [time.perf_counter()]
    requests = corpus.build(args.workload, args.seed)
    warm = corpus.warmups(args.workload)
    digest = corpus.digest(requests)
    directory = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        corpus.write(requests + warm, directory)
        phases.append(time.perf_counter())
        loop = Loop(requests, directory)
        warm_argv = [r.argv(directory) for r in warm]
        try:
            setup_rounds = _setup(warm_argv)
            loop.lcnf = _import_lcnf(warm_argv)
        except ImportError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        if args.trace:
            loop.tracer = tracer.Tracer()
            _passes(loop, args.seconds, (False, True), 1)
        else:
            _passes(loop, args.seconds, (False,), -(-MIN_SAMPLES // len(requests)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        phases.append(time.perf_counter())
        failed, notes, rejected, mutants = _check(loop.lcnf, loop)
        phases.append(time.perf_counter())
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    probe_s = statistics.median(loop.probes)
    attempted = len(loop.times)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "corpus_sha256": digest,
        "files": len(corpus.instances(requests)),
        "requests": len(requests),
        "attempted": attempted,
        "failed": failed,
        "error_ratio": failed / attempted,
        "mutants_rejected": f"{rejected}/{mutants}",
        "probe_ms": probe_s * 1e3,
        "notes": notes,
        "phase_s": dict(zip(("corpus", "measure", "check"), (b - a for a, b in zip(phases, phases[1:])))),
    }
    if args.trace:
        measured = _per_layer(loop, result)
        loop.tracer.write(BENCH / "_out", f"spans-{args.workload}",
                          {"workload": args.workload, "seed": args.seed, "corpus_sha256": digest})
    else:
        measured = _end_to_end(loop, setup_rounds, peak_rss_mb, result)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    result["metrics"] = measured
    correct = failed == 0 and rejected == mutants and not notes

    print(f"workload {args.workload}  seed {args.seed}  corpus sha256 {digest}")
    print(f"  {result['files']} files, {len(requests)} requests per pass, {attempted} attempted, "
          f"{failed} failed, error_ratio {failed / attempted:g}")
    print(f"  checker rejected {rejected} of {mutants} corrupted answers")
    print("  wall time: " + ", ".join(f"{k} {v:.1f} s" for k, v in result["phase_s"].items()))
    print(f"  probe median {probe_s * 1e3:.4f} ms (reference {probe.REFERENCE_S * 1e3:g} ms)")
    if not args.trace:
        print(f"  {attempted} verdict samples, {result['beyond_p90']} beyond p90")
        for k, v in result["unscaled"].items():
            print(f"  unscaled {k} = {v:.6g}")
    for note in notes[:20]:
        print(f"  FAILED {note}")
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"  analysis.labels = {measured['analysis.labels']} "
              "(the base of analysis.queries_per_label)")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
