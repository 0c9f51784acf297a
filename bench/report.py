#!/usr/bin/env python3
"""Run every workload untraced and twice traced, and print one report.

    python3 bench/report.py [--seed 1]

Each run measures for ``run_seconds`` of ``BENCHMARK.json``.  For each
workload it prints the end-to-end metrics with their units, the error ratio
and the verdict sample count; the per-layer metrics; the tracing overhead
(traced pass total minus untraced pass total, with both); and whether the
corpus digest and the exact counts agree across the runs, which all use the
same seed.  Exits 1 if any answer was wrong or anything that
must repeat did not.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402

EXACT = (
    "solver.calls",
    "oracle.sat_queries",
    "oracle.entail_queries",
    "oracle.equiv_queries",
    "core.labels_of_calls",
    "bruteforce.subsets",
    "duality.hitting_sets_out",
)


def _run(workload, seed, seconds, trace, scratch: Path) -> dict:
    out = scratch / f"{workload}-{trace}-{len(list(scratch.iterdir()))}.json"
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(out.read_text())
    result["correct"] = json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    ok = True
    (BENCH / "_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "_out") as tmp:
        scratch = Path(tmp)
        for w in corpus.WORKLOADS:
            plain = _run(w, args.seed, seconds, 0, scratch)
            traced = [_run(w, args.seed, seconds, 1, scratch) for _ in range(2)]
            runs = [plain, *traced]
            print(f"== {w}  seed {args.seed}  corpus sha256 {plain['corpus_sha256'][:16]}…  "
                  f"{plain['requests']} requests per pass")
            print(f"   end to end ({plain['verdict_samples']} verdict samples, "
                  f"{plain['beyond_p90']} beyond p90):")
            for m in spec["end_to_end"]:
                print(f"     {m['name']:<18} {plain['metrics'][m['name']]:>12.5g} {m['unit']}")
            print(f"     {'error_ratio':<18} {plain['error_ratio']:>12.5g} "
                  f"({plain['failed']} failed / {plain['attempted']} attempted)")
            print("   per layer (one pass, traced run 1):")
            for m in spec["per_layer"]:
                print(f"     {m['name']:<28} {traced[0]['metrics'][m['name']]:>14.6g} {m['unit']}")
            print(f"     (analysis.queries_per_label base: "
                  f"{traced[0]['metrics']['analysis.labels']:g} labels)")
            t = traced[0]["metrics"]
            print(f"   tracing overhead: {t['trace.traced_pass_s']:.4f} s traced - "
                  f"{t['trace.untraced_pass_s']:.4f} s untraced = {t['trace.overhead_s']:+.4f} s per pass")
            same_corpus = len({r["corpus_sha256"] for r in runs}) == 1
            diffs = [k for k in EXACT if traced[0]["metrics"][k] != traced[1]["metrics"][k]]
            correct = all(r["correct"] and r["failed"] == 0 for r in runs)
            print(f"   corpus identical across 3 runs: {same_corpus}; exact counts identical "
                  f"across 2 traced runs: {not diffs}{' ' + str(diffs) if diffs else ''}; "
                  f"all answers correct: {correct}; corrupted answers rejected: "
                  f"{', '.join(r['mutants_rejected'] for r in runs)}")
            ok = ok and same_corpus and not diffs and correct
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
