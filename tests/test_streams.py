import numpy as np
import pytest

from hplb import RngStream
from hplb.streams import _philox_key


def test_same_key_same_sequence():
    a = RngStream(123456789, 42).random(1000)
    b = RngStream(123456789, 42).random(1000)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(1, 0).random(100)
    b = RngStream(1, 1).random(100)
    assert not np.array_equal(a, b)


def test_cross_stream_correlation_small():
    n = 100_000
    u0 = RngStream(2024, 0).random(n)
    u1 = RngStream(2024, 1).random(n)
    assert abs(np.corrcoef(u0, u1)[0, 1]) < 0.02


def test_lagged_correlation_small():
    n = 100_000
    u = RngStream(7, 3).random(n)
    for lag in (1, 2, 10):
        r = np.corrcoef(u[:-lag], u[lag:])[0, 1]
        assert abs(r) < 0.02


def test_children_are_independent_of_parent_consumption():
    parent = RngStream(5, 0)
    child_before = parent.child("task").random(50)
    parent.random(1000)  # consuming the parent must not move the child stream
    child_after = RngStream(5, 0).child("task").random(50)
    assert np.array_equal(child_before, child_after)


def test_sibling_children_differ():
    parent = RngStream(5, 0)
    a = parent.child("a").random(100)
    b = parent.child("b").random(100)
    assert not np.array_equal(a, b)


def _eager(*identity):
    return np.random.Generator(np.random.Philox(key=_philox_key(*identity)))


def test_a_stream_draws_what_its_philox_key_gives():
    for identity in [(3, 0, ()), (2 ** 40, 7, ("rep", 5)), (1, 2, ("rep", 3, "sample-p"))]:
        stream = RngStream(*identity)
        expect = _eager(*identity)
        assert np.array_equal(stream.random(64), expect.random(64))
        assert np.array_equal(stream.integers(0, 2 ** 63 - 1, size=4),
                              expect.integers(0, 2 ** 63 - 1, size=4))
        assert np.array_equal(stream.normal(1.0, 2.0, 8), expect.normal(1.0, 2.0, 8))


def test_a_stream_generator_is_philox_at_its_key_and_counter_zero():
    # the key-only seed gives the state that Philox(key=...) does
    for identity in [(3, 0, ()), (2 ** 40, 7, ("rep", 5)), (0, 0, ("null-band", 2, 2, 100, 0.05))]:
        got, want = RngStream(*identity).generator, _eager(*identity)
        state, expect = got.bit_generator.state, want.bit_generator.state
        assert state["bit_generator"] == expect["bit_generator"] == "Philox"
        for name in ("counter", "key"):
            assert np.array_equal(state["state"][name], expect["state"][name])
        assert not state["state"]["counter"].any()
        assert {k: v for k, v in state.items() if k not in ("state", "buffer")} == \
            {k: v for k, v in expect.items() if k not in ("state", "buffer")}
        assert np.array_equal(state["buffer"], expect["buffer"])
        assert np.array_equal(got.integers(0, 2 ** 63 - 1, size=16),
                              want.integers(0, 2 ** 63 - 1, size=16))


def test_a_child_of_a_stream_that_never_drew_draws_the_same():
    parent = RngStream(9, 4)
    child = parent.child("rep", 2)
    assert child.identity == (9, 4, ("rep", 2))
    assert np.array_equal(child.random(32), _eager(9, 4, ("rep", 2)).random(32))
    assert np.array_equal(parent.random(32), _eager(9, 4, ()).random(32))
    assert parent.generator is parent.generator


def test_seeds_are_checked_when_the_stream_is_made():
    with pytest.raises((TypeError, ValueError)):
        RngStream("seed")
    with pytest.raises((TypeError, ValueError)):
        RngStream(1, None)
