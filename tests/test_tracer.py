"""The benchmark's tracer patches lcnf's entry points by name; they must exist."""
import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

from lcnf import analysis, interface

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(tmp_path):
    # unlabelled clause present, so an oracle-backed gate would need solves
    path = tmp_path / "gate.lcnf"
    path.write_text("p lcnf 2 3\n{} 1 0\n{1} 1 2 0\n{2} 2 0\n")
    originals = (
        analysis.duality_preconditions,
        interface.compute_lmes,
        interface.parse_lcnf,
        interface.classify_all,
    )
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert interface.compute_lmes is not originals[1]
        with redirect_stdout(io.StringIO()) as out:
            code = tracer.request(interface.main, ["verify-duality", str(path)])
    finally:
        tracer.uninstall()
    assert (code, out.getvalue().splitlines()[-1]) == (0, "result: pass")
    assert (
        analysis.duality_preconditions,
        interface.compute_lmes,
        interface.parse_lcnf,
        interface.classify_all,
    ) == originals
    counts = tracer.counts
    assert counts["duality.verify"] == 1 and counts["bruteforce.classify"] == 1
    # verify_duality dualizes twice by the public name the tracer wraps; a
    # call routed around it would zero the duality.hitting_set_calls metric
    assert counts["duality.hitting_sets"] == 2
    assert counts["oracle.build"] == 0
    assert counts["duality.precondition_solves"] == 0


def test_tracer_reaches_witness_commands(worked_example_path):
    # the witness commands name compute_* and parse_* when they run, so the
    # spans patched in by name wrap them
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()) as out:
            code = tracer.request(interface.main, ["lmns", worked_example_path])
    finally:
        tracer.uninstall()
    assert (code, out.getvalue()) == (0, "1 3 4\n")
    assert tracer.counts["analysis.compute"] == 1
    assert tracer.counts["interface.parse"] >= 1
