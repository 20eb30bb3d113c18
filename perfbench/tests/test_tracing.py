from sawkit import lattice
from sawkit.lattice import Point, Walk

from perfbench.tracing import FALSE, RAISED, Tracer, select


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
    tr = Tracer(clock=fake_clock([0, 1, 4, 5, 6, 7, 9, 10]))
    with tr.span("a"):
        with tr.span("b"):
            pass
        with tr.span("c"):
            with tr.span("d"):
                pass
    assert [tr.names[n] for n in tr.name] == ["a", "b", "c", "d"]
    assert list(tr.parent) == [-1, 0, 0, 2]
    assert tr.self_times() == [3, 3, 3, 1]
    assert tr.roots() == [0, 0, 0, 0]


def test_wrapped_calls_nest_and_aggregate_by_root_and_parent():
    tr = Tracer(clock=fake_clock([0, 1, 3, 4, 6, 10, 11, 12, 13, 20]))
    inner = tr.wrap(lambda x: x * 2, "inner", units=lambda r: r)
    outer = tr.wrap(lambda: inner(1) + inner(2), "outer")
    with tr.span("phase"):
        assert outer() == 6
        assert inner(5) == 10
    aggs = tr.aggregate()
    under_outer = select(aggs, "inner", parent="outer")
    assert (under_outer.calls, under_outer.total, under_outer.units) == (2, 5, 6)
    everywhere = select(aggs, "inner", root="phase")
    assert (everywhere.calls, everywhere.total, everywhere.units) == (3, 6, 16)
    out = select(aggs, "outer")
    assert (out.total, out.self_total) == (10, 5)
    assert select(aggs, "phase").self_total == 20 - 10 - 1


def test_outcomes_are_recorded_and_exceptions_propagate():
    tr = Tracer()

    def fail():
        raise ValueError("no")

    no = tr.wrap(lambda: False, "no")
    boom = tr.wrap(fail, "boom")
    assert no() is False
    try:
        boom()
    except ValueError:
        pass
    else:
        raise AssertionError("exception swallowed")
    assert list(tr.status) == [FALSE, RAISED]
    assert tr._stack == []


def test_install_wraps_methods_and_restores_them():
    original = Walk.is_self_avoiding
    tr = Tracer()
    assert tr.install("sawkit", "lattice", "Walk.is_self_avoiding")
    walk = Walk(Point(0, 0), "URDL")
    assert walk.is_self_avoiding() is False
    assert Walk(Point(0, 0), "UR").is_self_avoiding() is True
    tr.uninstall()
    assert Walk.is_self_avoiding is original
    agg = select(tr.aggregate(), "lattice.Walk.is_self_avoiding")
    assert (agg.calls, agg.false) == (2, 1)


def test_install_patches_every_module_binding_a_function():
    from sawkit import aztec, sampling

    original = sampling.sample_length_then_walk
    tr = Tracer()
    assert tr.install("sawkit", "sampling", "sample_length_then_walk")
    assert aztec.sample_length_then_walk is sampling.sample_length_then_walk
    assert aztec.sample_length_then_walk is not original
    tr.uninstall()
    assert aztec.sample_length_then_walk is original
    assert sampling.sample_length_then_walk is original


def test_missing_names_are_reported_not_raised():
    tr = Tracer()
    assert not tr.install("sawkit", "lattice", "no_such_function")
    assert not tr.install("sawkit", "lattice", "Walk.no_such_method")
    assert not tr.install("sawkit", "no_such_module", "f")
    assert tr.missing == ["lattice.no_such_function", "lattice.Walk.no_such_method", "no_such_module.f"]
    assert lattice.Walk.is_self_avoiding.__name__ == "is_self_avoiding"
