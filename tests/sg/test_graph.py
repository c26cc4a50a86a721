"""Unit tests for the StateGraph data structure."""

import pickle

import pytest

from repro._util import FrozenVector
from repro.errors import StgError
from repro.sg.graph import (Diamond, StateGraph, event_direction,
                            event_signal, opposite_event)


def vec(**kwargs):
    return FrozenVector(kwargs)


class TestEventHelpers:
    def test_event_signal(self):
        assert event_signal("req+") == "req"
        assert event_signal("a-") == "a"

    def test_event_direction(self):
        assert event_direction("a+") == "+"
        assert event_direction("a-") == "-"

    def test_opposite_event(self):
        assert opposite_event("a+") == "a-"
        assert opposite_event("a-") == "a+"


@pytest.fixture
def diamond_sg():
    """a+ and b+ concurrent from the initial state."""
    sg = StateGraph("diamond", ["a"], ["b"])
    sg.add_state("s0", vec(a=0, b=0))
    sg.add_state("sa", vec(a=1, b=0))
    sg.add_state("sb", vec(a=0, b=1))
    sg.add_state("st", vec(a=1, b=1))
    sg.add_arc("s0", "a+", "sa")
    sg.add_arc("s0", "b+", "sb")
    sg.add_arc("sa", "b+", "st")
    sg.add_arc("sb", "a+", "st")
    sg.set_initial("s0")
    return sg


class TestStructure:
    def test_signal_partition_disjoint(self):
        with pytest.raises(StgError):
            StateGraph("x", ["a"], ["a"])

    def test_code_must_cover_signals(self):
        sg = StateGraph("x", ["a"], ["b"])
        with pytest.raises(StgError):
            sg.add_state(0, vec(a=0))

    def test_duplicate_state_rejected(self, diamond_sg):
        with pytest.raises(StgError):
            diamond_sg.add_state("s0", vec(a=0, b=0))

    def test_arc_validation(self, diamond_sg):
        with pytest.raises(StgError):
            diamond_sg.add_arc("s0", "z+", "sa")
        with pytest.raises(StgError):
            diamond_sg.add_arc("nope", "a+", "sa")

    def test_duplicate_arc_ignored(self, diamond_sg):
        before = len(diamond_sg.successors("s0"))
        diamond_sg.add_arc("s0", "a+", "sa")
        assert len(diamond_sg.successors("s0")) == before

    def test_successor_unique(self, diamond_sg):
        assert diamond_sg.successor("s0", "a+") == "sa"
        assert diamond_sg.successor("s0", "a-") is None

    def test_enabled_sorted(self, diamond_sg):
        assert diamond_sg.enabled("s0") == ["a+", "b+"]

    def test_is_excited(self, diamond_sg):
        assert diamond_sg.is_excited("s0", "a")
        assert not diamond_sg.is_excited("st", "a")

    def test_predecessors(self, diamond_sg):
        preds = diamond_sg.predecessors("st")
        assert ("b+", "sa") in preds and ("a+", "sb") in preds


class TestAlgorithms:
    def test_reachable_from(self, diamond_sg):
        assert diamond_sg.reachable_from(["sa"]) == {"sa", "st"}

    def test_reachable_restricted(self, diamond_sg):
        allowed = {"s0", "sa"}
        assert diamond_sg.reachable_from(["s0"], allowed) == allowed

    def test_prune_unreachable(self, diamond_sg):
        diamond_sg.add_state("island", vec(a=0, b=0))
        assert diamond_sg.prune_unreachable() == 1
        assert "island" not in diamond_sg

    def test_connected_components(self, diamond_sg):
        parts = diamond_sg.connected_components({"s0", "st"})
        assert len(parts) == 2

    def test_diamonds_found(self, diamond_sg):
        diamonds = diamond_sg.diamonds()
        assert len(diamonds) == 1
        d = diamonds[0]
        assert d.bottom == "s0" and d.top == "st"
        assert {d.event_a, d.event_b} == {"a+", "b+"}
        assert set(d.states) == {"s0", "sa", "sb", "st"}
        assert d.path_a_first[1] in ("sa", "sb")

    def test_diamond_cache_invalidation(self, diamond_sg):
        assert len(diamond_sg.diamonds()) == 1
        diamond_sg.add_state("extra", vec(a=1, b=1))
        # adding a state alone cannot create a diamond
        assert len(diamond_sg.diamonds()) == 1

    def test_diamond_index_cached_and_invalidated(self):
        sg = StateGraph("half", ["a"], ["b"])
        sg.add_state("s0", vec(a=0, b=0))
        sg.add_state("sa", vec(a=1, b=0))
        sg.add_state("sb", vec(a=0, b=1))
        sg.add_arc("s0", "a+", "sa")
        sg.add_arc("s0", "b+", "sb")
        index = sg.diamond_index()
        assert index == {}
        assert sg.diamond_index() is index               # cached
        sg.add_state("st", vec(a=1, b=1))
        sg.add_arc("sa", "b+", "st")
        assert sg.diamond_index() == {}                  # one side only
        sg.add_arc("sb", "a+", "st")
        index = sg.diamond_index()
        assert set(index) == {"s0", "sa", "sb", "st"}
        assert index["st"] == sg.diamonds()

    def test_pickle_drops_the_diamond_cache(self, diamond_sg):
        diamonds = diamond_sg.diamonds()
        clone = pickle.loads(pickle.dumps(diamond_sg))
        assert clone._diamond_cache is None
        assert clone.diamonds() == diamonds
        assert diamond_sg._diamond_cache is not None   # source intact

    def test_copy_equivalent(self, diamond_sg):
        clone = diamond_sg.copy()
        assert len(clone) == len(diamond_sg)
        assert clone.initial == diamond_sg.initial
        assert clone.enabled("s0") == diamond_sg.enabled("s0")

    def test_bfs_order_deterministic_and_complete(self, diamond_sg):
        order = diamond_sg.bfs_order()
        assert order[diamond_sg.initial] == 0
        assert sorted(order.values()) == list(range(len(diamond_sg)))
        assert diamond_sg.bfs_order() is order          # cached

    def test_bfs_order_invalidated_by_mutation(self, diamond_sg):
        order = diamond_sg.bfs_order()
        diamond_sg.add_state("extra", vec(a=1, b=1))
        diamond_sg.add_arc("st", "a-", "extra")
        fresh = diamond_sg.bfs_order()
        assert fresh is not order
        assert "extra" in fresh

    def test_bfs_order_shared_by_copy(self, diamond_sg):
        order = diamond_sg.bfs_order()
        clone = diamond_sg.copy()
        assert clone.bfs_order() is order
        # mutating the clone detaches only the clone's cache
        clone.add_state("extra", vec(a=1, b=1))
        assert clone.bfs_order() is not order
        assert diamond_sg.bfs_order() is order

    def test_relabel_bfs_names(self, diamond_sg):
        renamed = diamond_sg.relabel()
        assert renamed.initial == "s0"
        assert len(renamed) == len(diamond_sg)
        assert renamed.enabled("s0") == ["a+", "b+"]

    def test_to_dot_contains_states(self, diamond_sg):
        dot = diamond_sg.to_dot()
        assert "digraph" in dot and "a+" in dot
