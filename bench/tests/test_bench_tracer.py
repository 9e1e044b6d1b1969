"""Tests of the benchmark's tracer: patching, restoring and self time."""

import builtins
import sys

import halftwist  # noqa: F401  (loads every halftwist module)
from halftwist import covers, cyclotomic, hodge, jacobian, sweeps
from halftwist.covers import CoverSpec

from stats import tail, upper_quartile
from tracer import ROOT, Span, Tracer, layer_values, self_times


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "halftwist" or name.startswith("halftwist.")
        for attr, value in vars(module).items()
    }


def test_install_patches_every_binding_and_uninstall_restores_them():
    before = _bindings()
    original = jacobian.eigenspace_dims
    original_init = hodge.CMHodgeStructure.__init__
    original_import = builtins.__import__
    tracer = Tracer()
    with tracer:
        wrapped = jacobian.eigenspace_dims
        assert wrapped is not original
        assert covers.eigenspace_dims is wrapped
        assert halftwist.eigenspace_dims is wrapped
        assert covers.make_cyclotomic is cyclotomic.make_cyclotomic
        assert covers.tensor_invariants is hodge.tensor_invariants
        assert hodge.CMHodgeStructure.__init__ is not original_init
        assert builtins.__import__ is not original_import
    assert covers.eigenspace_dims is jacobian.eigenspace_dims is original
    assert hodge.CMHodgeStructure.__init__ is original_init
    assert builtins.__import__ is original_import
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_calls_through_from_imports_are_traced():
    with Tracer() as tracer:
        V = covers.primitive_V(CoverSpec(5, 2))
        sweeps.run_check("monotonicity", 5, 2)
    assert V.rank == jacobian.primitive_middle_rank(5, 2)
    names = [span.name for span in tracer.spans]
    assert names[:2] == ["covers.primitive_V", "jacobian.eigenspace_dims"]
    assert tracer.spans[1].parent == 0
    assert names.count("sweeps.run_check") == 1
    assert tracer.calls["cyclotomic.make_cyclotomic"] >= 1
    assert tracer.calls["jacobian.count_bounded_monomials"] > 0
    values, _ = layer_values(tracer)
    assert values["jacobian.eigenspace_dims.calls"] == names.count("jacobian.eigenspace_dims")
    assert values["jacobian.eigenspace_dims.distinct_ratio"] == 1 / values[
        "jacobian.eigenspace_dims.calls"
    ]


def test_generator_and_matrix_counts():
    with Tracer() as tracer:
        types = list(cyclotomic.all_cm_types(cyclotomic.make_cyclotomic(7)))
        rank = jacobian.exact_rank([[1, 0, 2], [2, 0, 4]])
    assert len(types) == 8
    assert tracer.yielded["cyclotomic.all_cm_types"] == 8
    assert rank == 1
    assert dict(tracer.matrix) == {"rows": 2, "cols": 3, "nonzeros": 4, "rank": 1}


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("root", 0, 100, ROOT),
        Span("a", 10, 40, 0),
        Span("b", 30, 60, 0),  # overlaps a: the union 10..60 counts once
        Span("a.child", 15, 20, 1),
        Span("late", 90, 120, 0),  # only 90..100 lies inside root
        Span("other", 200, 230, ROOT),
    ]
    assert self_times(spans) == [40, 25, 30, 5, 30, 30]


def test_layer_values_of_a_synthetic_trace():
    tracer = Tracer()
    tracer.spans = [
        Span("claims.evaluate", 0, 3_000_000_000, ROOT, "slow.claim"),
        Span("jacobian.eigenspace_dims", 500_000_000, 1_500_000_000, 0),
        Span("claims.evaluate", 3_000_000_000, 3_500_000_000, ROOT, "fast.claim"),
    ]
    values, notes = layer_values(tracer)
    assert values["claims.evaluate.calls"] == 2
    assert values["claims.evaluate.self_s"] == 2.5
    assert values["claims.evaluate.max_s"] == 3.0
    assert notes["slowest_claim"] == "slow.claim"
    assert values["jacobian.eigenspace_dims.self_s"] == 1.0
    assert values["sweeps.run_check.calls"] == 0
    assert values["sweeps.run_check.tail_s"] == 0.0


def test_tail_has_ten_samples_beyond_it():
    assert tail(range(1, 31)) == (20, 100 * 20 / 30)
    assert tail([3, 1, 2]) == (3, 100.0)


def test_upper_quartile_interpolates():
    assert upper_quartile([5.0]) == 5.0
    assert upper_quartile([4, 1, 3, 2, 5]) == 4
    assert upper_quartile([1, 2]) == 1.75
