"""Self-check of the span tracer: exclusive-time attribution and wrapping.

    python3 -m pytest perfbench
"""

import os
import time

import pytest

from tracing import LAYERS, _exclusive_times

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _span(name, start, end, parent, thread):
    return [name, start, end, parent, thread, None]


def test_exclusive_times_split_concurrent_threads():
    root = _span("cli.run", 0.0, 10.0, None, "main")
    a = _span("geometry.fs_metric", 1.0, 5.0, root, "A")
    a_child = _span("coherent.state", 3.0, 4.0, a, "A")
    b = _span("geometry.fs_metric", 2.0, 6.0, root, "B")
    got = _exclusive_times([root, a, a_child, b])
    # root waits on its worker threads from 1 to 6; 2..5 is shared by A and B
    assert got[id(root)] == pytest.approx(5.0)
    assert got[id(a)] == pytest.approx(1.0 + 0.5 + 0.5)
    assert got[id(a_child)] == pytest.approx(0.5)
    assert got[id(b)] == pytest.approx(0.5 * 3 + 1.0)
    assert sum(got.values()) == pytest.approx(10.0)


def test_exclusive_times_same_thread_nesting():
    root = _span("cli.run", 0.0, 4.0, None, "main")
    child = _span("dynamics.integrate", 1.0, 3.0, root, "main")
    got = _exclusive_times([root, child])
    assert got[id(root)] == pytest.approx(2.0)
    assert got[id(child)] == pytest.approx(2.0)


def test_traced_cli_run_attributes_all_time(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(SRC)
    monkeypatch.setenv("ENHQ_THREADS", "2")
    import enhq.cli
    import enhq.coherent
    import enhq.geometry
    import enhq.hilbert
    from tracing import Tracer

    originals = (enhq.cli.run, enhq.geometry.fs_metric, enhq.coherent.position_operator)
    tracer = Tracer()
    tracer.install()
    try:
        # a name imported into another module is wrapped there too
        assert enhq.coherent.position_operator is enhq.hilbert.position_operator
        assert enhq.coherent.position_operator is not originals[2]
        t0 = time.perf_counter()
        code = enhq.cli.run(["--out", str(tmp_path), "metric", "--family", "spin",
                             "--p=1.0,2.0", "--q=0.5"])
        t1 = time.perf_counter()
    finally:
        tracer.uninstall()
    assert code == 0
    assert (enhq.cli.run, enhq.geometry.fs_metric, enhq.coherent.position_operator) == originals
    tracer.mark_pass(0, t1 - t0)
    m = tracer.pass_metrics(0)
    assert m["cli.calls"] == 1
    assert m["coherent.init_calls"] == 1
    assert m["geometry.curvature_calls"] == 2
    assert m["geometry.metric_calls"] == 2 + 2 * 18
    assert m["geometry.states_per_curvature"] == 162
    assert m["trace.attributed_frac"] == pytest.approx(1.0, abs=0.02)
    layers = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert layers == pytest.approx(m["trace.attributed_frac"] * m["trace.wall_s"])
    # spans of the fan-out worker threads hang under cli.run
    assert len({rec[4] for rec in tracer.spans}) >= 2
    assert all(rec[3] is not None for rec in tracer.spans if rec[0] != "cli.run")
