import types

import pytest

import layers
from tracing import Tracer


def _modules(now):
    """Two fake layers: a.outer calls b.inner twice, b.inner calls the leaf b.leafy."""

    def advance(k):
        now[0] += k

    b = types.ModuleType("pkg.b")
    b.advance = advance
    exec(
        "def inner():\n    advance(5)\n    leafy()\n"
        "def leafy():\n    advance(7)\n"
        "def counted():\n    advance(11)\n    return True\n"
        "def failing():\n    advance(4)\n    raise ValueError('boom')\n",
        b.__dict__,
    )
    a = types.ModuleType("pkg.a")
    a.advance, a.inner = advance, b.inner
    exec("def outer():\n    advance(1)\n    inner()\n    advance(2)\n    inner()\n    advance(3)\n", a.__dict__)
    return a, b


def _traced():
    now = [0]
    a, b = _modules(now)
    tracer = Tracer(clock=lambda: now[0])
    tracer.install(
        [a, b],
        lambda name: name.split(".")[1] if name.startswith("pkg.") else None,
        {"b.leafy": "leaf", "b.counted": "count"},
        {"b.counted": lambda st, args, result: setattr(st, "extra", st.extra + result)},
    )
    return tracer, a, b


def test_self_time_subtracts_nested_children():
    tracer, a, b = _traced()
    a.outer()
    outer, inner, leafy = (tracer.stats[n] for n in ("a.outer", "b.inner", "b.leafy"))
    assert (leafy.calls, leafy.total_ns, leafy.self_ns) == (2, 14, 14)
    assert (inner.calls, inner.total_ns, inner.self_ns) == (2, 24, 10)
    assert (outer.calls, outer.total_ns, outer.self_ns) == (1, 30, 6)
    assert tracer.layer_self_ns("a") == 6 and tracer.layer_self_ns("b") == 24
    # b is busy only while called from a; leafy's calls come from inside b.
    assert tracer.layer_busy_ns("a") == 30 and tracer.layer_busy_ns("b") == 24


def test_spans_carry_op_and_parent_and_skip_leaves():
    tracer, a, b = _traced()
    tracer.op = 7
    a.outer()
    by_name = {}
    for op, span, parent, name, start, end, own in tracer.spans:
        assert op == 7 and end - start >= own
        by_name.setdefault(name, []).append((span, parent, own))
    assert sorted(by_name) == ["a.outer", "b.inner"]
    (outer_id, root, outer_self), = by_name["a.outer"]
    assert root == 0 and outer_self == 6
    assert [(parent, own) for _, parent, own in by_name["b.inner"]] == [(outer_id, 5), (outer_id, 5)]


def test_one_wrapper_serves_every_binding():
    tracer, a, b = _traced()
    assert a.inner is b.inner
    a.inner()
    b.inner()
    assert tracer.stats["b.inner"].calls == 2


def test_counted_functions_keep_their_time_in_the_caller():
    tracer, a, b = _traced()
    b.counted()
    b.counted()
    st = tracer.stats["b.counted"]
    assert (st.calls, st.total_ns, st.extra) == (2, 0, 2)


def test_a_raising_call_is_still_timed():
    tracer, a, b = _traced()
    with pytest.raises(ValueError):
        b.failing()
    st = tracer.stats["b.failing"]
    assert (st.calls, st.total_ns) == (1, 4)
    assert tracer.stack == [[0, None, 4]]


def test_vanished_functions_make_metrics_missing_not_errors():
    trace = layers.Trace(Tracer(), import_s=0.25, rank_cache=(0, 0))
    values, missing = layers.read_all(trace)
    assert values == {"cli.import_s": 0.25}
    assert set(missing) == {m.name for m in layers.METRICS} - {"cli.import_s"}
