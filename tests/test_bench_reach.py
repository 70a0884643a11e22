"""The benchmark's reduced workloads still reach every layer they must.

`perfbench/run.py --trace 1` fails a workload whose traced pass records no
call to one of the layers in `run.MUST_REACH`.  This builds the reduced
operations of `verify_fixtures` and `random_sections`, runs one traced pass
of each, and checks that every operation is correct and every required
layer is called, so a change that takes a layer (`fgab.smith_normal_form`,
`chargroup.kernel_coordinates`, `RationalMatrix.apply`, ...) off the
production path fails the test suite, not only the benchmark run.

`window_scan`'s reduced build has no `stabilize` operation, so it never
reaches `deloc.cocycles`, which its full build does; its traced pass is
checked for `RationalMatrix.apply`, the layer `run._derived` needs called
to give it a `useful_ratio`, so a change that drops the last apply call
fails here instead of crashing `--trace 1`.  The same pass with the full
build's `stabilize` operation on the plane added must reach every layer of
`run.MUST_REACH["window_scan"]` and give `ratmat.rref` its `cells`, so a
change that computes the dimensions without `rref` also fails here.
The perfbench modules are imported as they are and not changed.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


@pytest.fixture
def bench(monkeypatch):
    # the perfbench modules import each other by plain name; sys.path is
    # restored when the test ends
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import oracle
    import run
    import tracer
    import workloads

    return run, workloads, oracle, tracer


def _traced_summary(bench, workload, tmp_path, extra=None):
    """The derived tracer summary of one correct traced pass of the reduced workload.

    `extra(workloads, ops)` gives operations appended to the reduced ones.
    """
    run, workloads, oracle, tracer_module = bench
    rk = run.load_program()
    record = oracle.load_digests()
    ops = workloads.build(rk, workload, SEED, tmp_path, record["random_pool"], reduced=True)
    ops += extra(workloads, ops) if extra else []
    tally = run.Tally()
    tracer = tracer_module.Tracer(rk.package)
    tracer.reset()
    tracer.install()
    try:
        run.run_pass(rk, ops, record["outputs"], tally, tracer)
    finally:
        tracer.uninstall()
    assert tally.attempted == len(ops) > 0
    assert tally.failed == 0, tally.problems
    return run._derived(tracer.summary())


@pytest.mark.parametrize("workload", ["verify_fixtures", "random_sections"])
def test_reduced_workload_reaches_every_layer(bench, workload, tmp_path):
    run = bench[0]
    summary = _traced_summary(bench, workload, tmp_path)
    missing = [name for name in run.MUST_REACH[workload] if summary[name]["calls"] == 0]
    assert not missing, f"{workload} recorded no call to {missing}"


def test_reduced_window_scan_calls_apply(bench, tmp_path):
    summary = _traced_summary(bench, "window_scan", tmp_path)
    apply = summary["ratmat.apply"]
    assert apply["calls"] > 0
    assert "useful_ratio" in apply


def test_window_scan_with_one_stabilize_reaches_every_layer(bench, tmp_path):
    run = bench[0]

    def stabilize(workloads, ops):
        # the full build's scan of the plane (the window its digest is recorded at)
        (plane,) = [op for op in ops if op.name == "projective_plane"]
        return [workloads.CliOp("stabilize", plane.name, plane.path, 7, fixture=plane.fixture)]

    summary = _traced_summary(bench, "window_scan", tmp_path, stabilize)
    missing = [name for name in run.MUST_REACH["window_scan"] if summary[name]["calls"] == 0]
    assert not missing, f"window_scan recorded no call to {missing}"
    assert summary["ratmat.rref"]["cells"] > 0
