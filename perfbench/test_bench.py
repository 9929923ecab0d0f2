"""Tests of the benchmark's own arithmetic.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


def _span(name, start, end, parent=-1, shape=None):
    return Span(name, float(start), float(end), parent, 0, shape)


def test_self_time_subtracts_children_once():
    s = [
        _span("cli.main", 0, 10),                       # 0
        _span("simulate.compute_series", 1, 9, 0),      # 1
        _span("pfaffian.pfaffian_batch", 2, 5, 1),      # 2
        _span("pfaffian.pfaffian_batch", 6, 8, 1),      # 3
    ]
    got = spans.layer_self_times(s)
    assert got == {"cli": 2.0, "simulate": 3.0, "pfaffian": 5.0}
    assert sum(got.values()) == 10.0


def test_nested_same_layer_is_not_double_counted():
    s = [
        _span("odd_observables.c_expectations", 0, 10),                 # 0
        _span("odd_observables.CrossParityKernel.c_series", 1, 9, 0),   # 1
        _span("pfaffian.pfaffian_batch", 2, 8, 1),                      # 2
        _span("pfaffian.pfaffian", 3, 4, 2),                            # 3
    ]
    assert spans.layer_self_times(s) == {"odd_observables": 4.0, "pfaffian": 6.0}
    assert spans.inclusive(s, "odd_observables.CrossParityKernel.c_series") == 8.0
    assert spans.inclusive_without(
        s, "odd_observables.CrossParityKernel.c_series", "pfaffian") == 2.0
    # one outermost elimination call, with its nested call inside it
    assert [c[0] for c in spans.pfaffian_calls(s)] == [6.0]


def test_inclusive_counts_recursive_name_once():
    s = [_span("model.f", 0, 5), _span("model.f", 1, 4, 0), _span("model.f", 6, 7)]
    assert spans.inclusive(s, "model.f") == 6.0
    assert spans.count(s, "model.f") == 3


def test_pfaffian_work_for_known_size():
    # n=4: one update of a 2x2 trailing block; n=6: blocks of 4x4 and 2x2
    assert spans.pfaffian_work(4, 3) == (3 * 16 * 4.0, 3 * 32 * 4.0)
    assert spans.pfaffian_work(6, 1) == (16 * 20.0, 32 * 20.0)
    assert spans.pfaffian_work(2, 5) == (0.0, 0.0)
    # ~ (8/3) n^3 flops per matrix for large n
    flop, _ = spans.pfaffian_work(400, 1)
    assert flop == pytest.approx(16 * 400**3 / 6, rel=0.01)


def test_pfaffian_calls_read_batch_and_dimension():
    s = [_span("pfaffian.pfaffian_batch", 0, 2, shape=(16, 40, 40)),
         _span("pfaffian.pfaffian", 3, 4, shape=(8, 8)),
         _span("pfaffian.SkewMatrix.__post_init__", 5, 6)]
    assert spans.pfaffian_calls(s) == [(2.0, 16, 40), (1.0, 1, 8)]


def test_csv_value_cells_skip_echo_and_time_column():
    text = "# command = evolve\n# g = 1\nt,sx,sy\n0,1,0\n0.5,0.9,0.1\n"
    assert workloads.csv_value_cells(text) == 4
    assert workloads.parse_csv(text)["sx"] == [1.0, 0.9]
    assert workloads.csv_value_cells("") == 0


def test_ed_check_cells_are_points_times_nine():
    report = ("sx           max|dev| = 3.386e-15  ok\n"
              "ed-check passed for N=12, g=0.83 (20 times, tolerance 1e-08)\n")
    assert workloads.ed_check_value_cells(report) == 180
    assert workloads.ed_check_value_cells("ed-check FAILED") == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_ops_are_seeded(name):
    import random
    w = workloads.WORKLOADS[name]
    a = [w.make_op(random.Random("7/x")).argv for _ in range(2)]
    b = w.make_op(random.Random("8/x")).argv
    assert a[0] == a[1] and a[0] != b


def test_grids_have_the_intended_point_count():
    import random
    rng = random.Random(5)
    for name, points in (("evolve_n200", 32), ("lightcone_n60", 17),
                         ("fine_grid_n10", 2000)):
        for _ in range(50):
            p = workloads.WORKLOADS[name].make_op(rng).params
            assert round((p["t_max"] - p["t_min"]) / p["dt"]) + 1 == points
    for _ in range(50):     # thermodynamic-limit check must cover the grid
        p = workloads.WORKLOADS["evolve_n200"].make_op(rng).params
        assert p["t_max"] <= p["n"] / 8


def test_runs_stop_within_half_an_op_of_the_deadline():
    # 14 s ops in a 28 s run: the second op starts (it would end at 28),
    # a third would end 14 s late and does not.
    assert not run.time_is_up(14.0, 14.0, 28.0)
    assert run.time_is_up(28.0, 14.0, 28.0)
    # a third 12 s op would end 8 s late, more than half an op
    assert run.time_is_up(24.0, 12.0, 28.0)
    assert not run.time_is_up(21.0, 12.0, 28.0)


def test_layer_totals_shares_and_ratios():
    totals = run.LayerTotals()
    op = [_span("cli.main", 0, 10),
          _span("odd_observables.CrossParityKernel.c_series", 1, 9, 0),
          _span("pfaffian.pfaffian_batch", 2, 8, 1, shape=(2, 4, 4))]
    totals.add_op(op, 10.0)
    totals.add_op(op, 10.0)
    m = totals.metrics(serial_wall=16.0, pool_wall=5.0, workers=2)
    assert m["pfaffian.calls"] == 1 and m["pfaffian.matrices"] == 2
    assert m["pfaffian.self_share"] == pytest.approx(0.6)
    assert m["bench.accounted_share"] == pytest.approx(1.0)
    assert m["odd_observables.assembly_self_s"] == pytest.approx(2.0)
    assert m["simulate.pool_efficiency"] == pytest.approx(1.6)
    assert m["bench.trace_overhead"] == pytest.approx(20.0 / 16.0)
    assert m["pfaffian.gflops"] == pytest.approx(2 * 2 * 16 * 4 / 1e9 / 12.0)
    assert set(m) == set(run.PER_LAYER)


def test_tracer_wraps_where_the_caller_looks_up():
    def helper(x):
        return x + 1

    def entry(x):
        return lib.helper(x) * 2

    lib = types.ModuleType("pkg.lib")
    helper.__module__ = entry.__module__ = "pkg.lib"
    lib.helper, lib.entry = helper, entry
    tracer = spans.Tracer([lib])
    tracer.install()
    try:
        assert lib.entry(1) == 4
    finally:
        tracer.uninstall()
    got = tracer.take()
    assert [(s.name, s.parent) for s in got] == [("lib.entry", -1), ("lib.helper", 0)]
    assert lib.helper is helper and lib.entry is entry


def test_tracer_on_the_package_spans_every_layer_of_an_evolve():
    cli = run.import_cli()
    modules = run.package_modules()
    classes = [c for m in modules for c in vars(m).values()
               if isinstance(c, type) and c.__module__ == m.__name__]
    before = [dict(vars(x)) for x in modules + classes]
    tracer = spans.Tracer(modules)
    (code, out, _, wall), hits = run.traced_call(
        tracer, cli, ("evolve", "--n-sites", "6", "--g", "0.7", "--t-max", "0.2",
                      "--dt", "0.1", "--workers", "2"))
    got = tracer.take()
    assert code == 0 and hits == 0
    assert workloads.csv_value_cells(out) == 3 * 9
    assert got[0].name == "cli.main" and got[0].parent == -1
    assert {s.layer for s in got} >= {"cli", "simulate", "model", "even_observables",
                                      "odd_observables", "pfaffian", "rdm"}
    # run serially (--workers forced to 1): one (3, 12, 12) batch per direction and site
    assert [(m, d) for _, m, d in spans.pfaffian_calls(got)] == [(3, 12)] * 4
    assert sum(spans.layer_self_times(got).values()) <= wall
    assert [dict(vars(x)) for x in modules + classes] == before


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
