"""Unit tests for :mod:`repro.boolean.cube`."""

import pickle

import pytest

from repro.boolean.cube import Cube
from repro.errors import ParseError


class TestConstruction:
    def test_empty_cube_is_one(self):
        assert Cube.one().is_one()
        assert len(Cube.one()) == 0

    def test_literal_values_validated(self):
        with pytest.raises(ValueError):
            Cube({"a": 2})

    def test_from_string_apostrophe(self):
        cube = Cube.from_string("a b' c")
        assert cube.literals == {"a": 1, "b": 0, "c": 1}

    def test_from_string_bang_and_tilde(self):
        assert Cube.from_string("!a ~b c").literals == {
            "a": 0, "b": 0, "c": 1}

    def test_from_string_star_separator(self):
        assert Cube.from_string("a*b'*c") == Cube({"a": 1, "b": 0, "c": 1})

    def test_from_string_contradiction_rejected(self):
        with pytest.raises(ParseError):
            Cube.from_string("a a'")

    def test_from_string_bad_token(self):
        with pytest.raises(ParseError):
            Cube.from_string("a+b")

    def test_from_minterm_projection(self):
        cube = Cube.from_minterm({"a": 1, "b": 0, "c": 1}, support=["a", "b"])
        assert cube.literals == {"a": 1, "b": 0}

    def test_literal_count_is_len(self):
        assert len(Cube.from_string("a b c'")) == 3


class TestSemantics:
    def test_evaluate(self):
        cube = Cube.from_string("a b'")
        assert cube.evaluate({"a": 1, "b": 0, "c": 0})
        assert not cube.evaluate({"a": 1, "b": 1, "c": 0})

    def test_one_covers_everything(self):
        assert Cube.one().evaluate({"a": 0})

    def test_contains_reflexive(self):
        cube = Cube.from_string("a b")
        assert cube.contains(cube)

    def test_contains_wider_covers_narrower(self):
        assert Cube.from_string("a").contains(Cube.from_string("a b"))
        assert not Cube.from_string("a b").contains(Cube.from_string("a"))

    def test_contains_polarity_mismatch(self):
        assert not Cube.from_string("a").contains(Cube.from_string("a'"))

    def test_intersect(self):
        left = Cube.from_string("a b")
        right = Cube.from_string("b c'")
        assert left.intersect(right) == Cube.from_string("a b c'")

    def test_intersect_orthogonal_is_none(self):
        assert Cube.from_string("a").intersect(Cube.from_string("a'")) is None

    def test_distance(self):
        assert Cube.from_string("a b").distance(Cube.from_string("a' b'")) == 2
        assert Cube.from_string("a b").distance(Cube.from_string("a c")) == 0

    def test_supercube(self):
        sup = Cube.from_string("a b c").supercube(Cube.from_string("a b' c"))
        assert sup == Cube.from_string("a c")

    def test_consensus_distance_one(self):
        left = Cube.from_string("a b")
        right = Cube.from_string("a' c")
        assert left.consensus(right) == Cube.from_string("b c")

    def test_consensus_undefined_otherwise(self):
        assert Cube.from_string("a b").consensus(
            Cube.from_string("a' b'")) is None

    def test_cofactor_conflicting_is_none(self):
        assert Cube.from_string("a b").cofactor("a", 0) is None

    def test_cofactor_removes_literal(self):
        assert Cube.from_string("a b").cofactor("a", 1) == \
            Cube.from_string("b")

    def test_cofactor_free_variable(self):
        assert Cube.from_string("b").cofactor("a", 0) == \
            Cube.from_string("b")

    def test_cube_cofactor(self):
        cube = Cube.from_string("a b c")
        assert cube.cube_cofactor(Cube.from_string("a b")) == \
            Cube.from_string("c")
        assert cube.cube_cofactor(Cube.from_string("a'")) is None


class TestPlumbing:
    def test_equality_and_hash(self):
        assert Cube.from_string("a b'") == Cube({"b": 0, "a": 1})
        assert hash(Cube.from_string("a b'")) == hash(Cube({"b": 0, "a": 1}))

    def test_set_membership(self):
        cubes = {Cube.from_string("a"), Cube.from_string("a")}
        assert len(cubes) == 1

    def test_to_string_sorted_and_roundtrip(self):
        cube = Cube({"b": 0, "a": 1})
        assert cube.to_string() == "a b'"
        assert Cube.from_string(cube.to_string()) == cube

    def test_one_to_string(self):
        assert Cube.one().to_string() == "1"

    def test_rename(self):
        cube = Cube.from_string("a b'")
        assert cube.rename({"a": "x"}) == Cube.from_string("x b'")

    def test_without(self):
        assert Cube.from_string("a b c").without(["b"]) == \
            Cube.from_string("a c")

    def test_support_sorted(self):
        assert Cube.from_string("c a b").support == ("a", "b", "c")

    def test_pickle_round_trip(self):
        cube = Cube.from_string("a b' c")
        restored = pickle.loads(pickle.dumps(cube))
        assert restored == cube
        assert hash(restored) == hash(cube)
        assert restored.polarity("b") == 0
