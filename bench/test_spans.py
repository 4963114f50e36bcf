"""Tests of the span recorder and the self-time arithmetic.

Run from the repository root with ``python3 -m pytest bench``.
"""

import types

import pytest

from spans import HOOK, Tracer, covered, self_times


def test_covered_is_the_union_clipped_to_the_parent():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0)]) == 4.0    # overlap once
    assert covered(0.0, 10.0, [(4.0, 6.0), (1.0, 2.0)]) == 3.0    # gaps, any order
    assert covered(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == 6.0    # nested child
    assert covered(0.0, 10.0, [(-5.0, 1.0), (9.0, 20.0)]) == 2.0  # clipped


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        ("a", 0.0, 10.0, None),
        ("b", 1.0, 4.0, 0),
        ("c", 3.0, 6.0, 0),     # overlaps b: [1, 6] is covered once
        ("d", 2.0, 3.0, 1),     # grandchild: only b loses it
        ("b", 7.0, 8.0, 0),
    ]
    assert self_times(spans) == pytest.approx(
        {"a": 10.0 - 6.0, "b": (3.0 - 1.0) + 1.0, "c": 3.0, "d": 1.0})


def test_tracer_wraps_every_namespace_and_restores_them():
    home, user = types.ModuleType("home"), types.ModuleType("user")

    def inner(x):
        return x + 1

    def outer(x):
        return user.inner(x) * 2    # looked up in the importing namespace

    home.inner = user.inner = inner
    home.outer = outer
    tracer = Tracer([home, user])
    with tracer:
        tracer.wrap(inner, "inner", lambda counts, args, kwargs, result:
                    counts.update(seen=result))
        tracer.wrap(outer, "outer")
        assert home.outer(1) == 4
        assert home.inner(5) == 6
    assert (home.inner, user.inner, home.outer) == (inner, inner, outer)
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("outer", None), ("inner", 0), (HOOK, 0), ("inner", None), (HOOK, None)]
    assert tracer.counts["seen"] == 8
    outer_span, inner_span, hook_span = tracer.spans[:3]
    assert self_times(tracer.spans[:3])["outer"] == pytest.approx(
        (outer_span[2] - outer_span[1]) - (inner_span[2] - inner_span[1])
        - (hook_span[2] - hook_span[1]))


def test_wrapping_a_function_no_module_holds_fails():
    with Tracer([types.ModuleType("empty")]) as tracer:
        with pytest.raises(LookupError):
            tracer.wrap(len, "len")
