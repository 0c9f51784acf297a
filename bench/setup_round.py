"""One set-up round in a fresh interpreter: import lcnf and warm it up.

    python3 bench/setup_round.py SRC REQUEST...

Each REQUEST is one ``lcnf`` argv with its words joined by newlines.  The
round is timed from just before ``import lcnf`` to just after the last
warm-up request, so everything lcnf loads, from its own modules to the
standard library it pulls in, is paid inside it.  Only ``io``, ``sys`` and
``time`` are loaded first; they are part of every interpreter start.  Then
it runs the speed probe five times.  Prints the seconds taken, the median
probe and the file lcnf was imported from, one per line.
"""
import io
import sys
import time

sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import lcnf  # noqa: E402

for request in sys.argv[2:]:
    saved = sys.stdout, sys.stderr
    sys.stdout = sys.stderr = io.StringIO()
    try:
        lcnf.main(request.split("\n"))
    finally:
        sys.stdout, sys.stderr = saved
elapsed = time.perf_counter() - start
import probe  # noqa: E402

probes = sorted(probe.probe() for _ in range(5))
print(repr(elapsed))
print(repr(probes[2]))
print(lcnf.__file__)
