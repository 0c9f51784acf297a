"""A fixed pure-Python workload that measures how fast this process runs now.

``probe()`` times the checker's DPLL and truth table on fixed formulas
(about ``REFERENCE_S`` seconds on the machine the benchmark was tuned on).
Timings are scaled by ``REFERENCE_S`` over nearby probes, which takes out
most of the drift in process speed on a shared host.
"""
from __future__ import annotations

import random
import time

import checker
import corpus

REFERENCE_S = 0.0024


def _inputs():
    rng = random.Random("probe")
    clauses = [
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 31), 3))
        for _ in range(100)
    ]
    return clauses, corpus.dup_weak(rng, 8, 7, (1,), 1)


CLAUSES, ROWS = _inputs()


def probe() -> float:
    """Seconds taken by a fixed mix of pure-Python work: a DPLL search and a truth table."""
    start = time.perf_counter()
    checker.dpll(CLAUSES)
    checker.TruthTable(ROWS).family("lmes")
    return time.perf_counter() - start
