"""Property tests for the column-bitset minimizer kernels.

The kernels in :mod:`repro.boolean.minimize` work on per-literal column
bitsets (one Python int per literal, one bit per vector).  They must
agree exactly with the scalar reference semantics kept here, in test
code, as the executable specification: EXPAND's greedy choice, the
irredundant greedy cover, REDUCE, cube coverage and the dict-backed
cube algebra.  The references take plain lists of packed vectors.
"""

import itertools
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

import repro.synthesis.cover as cover_module
from repro.bench_suite import benchmark
from repro.boolean.cube import Cube
from repro.boolean.minimize import (_bin_popcount, _columns, _contains,
                                    _cover_bits, _covered_once,
                                    _cube_back, _cube_int, _expand,
                                    _irredundant, _popcount, _reduce,
                                    _vector_int, minimize)
from repro.boolean.sop import SopCover
from repro.errors import CoverError
from repro.mapping.decompose import map_circuit
from repro.synthesis.library import GateLibrary

SIGNALS = ["a", "b", "c", "d", "e"]
WIDTH = len(SIGNALS)

IntCube = Tuple[int, int]


def all_vectors():
    return [dict(zip(SIGNALS, bits))
            for bits in itertools.product((0, 1), repeat=WIDTH)]


cube_strategy = st.dictionaries(
    st.sampled_from(SIGNALS), st.integers(0, 1), max_size=WIDTH
).map(Cube)

int_set_strategy = st.sets(st.integers(0, 2 ** WIDTH - 1), max_size=12)

spec_strategy = st.lists(st.integers(0, 2), min_size=2 ** WIDTH,
                         max_size=2 ** WIDTH)


# ----------------------------------------------------------------------
# Scalar reference implementations (the executable specification)
# ----------------------------------------------------------------------


def _hits(cube: IntCube, vectors: Sequence[int]) -> bool:
    mask, value = cube
    return any((v & mask) == value for v in vectors)


def _covered(cube: IntCube, vectors: Sequence[int]) -> List[int]:
    mask, value = cube
    return [v for v in vectors if (v & mask) == value]


def reference_expand(cube: IntCube, off: Sequence[int],
                     prefer: Sequence[int], width: int) -> IntCube:
    """The original per-bit EXPAND loop."""
    mask, value = cube
    improved = True
    while improved:
        improved = False
        best: Optional[Tuple[int, int, IntCube]] = None
        for index in range(width):
            bit = 1 << index
            if not mask & bit:
                continue
            wider = (mask & ~bit, value & ~bit)
            if _hits(wider, off):
                continue
            gain = len(_covered(wider, prefer))
            key = (gain, index)
            if best is None or key > best[:2]:
                best = (gain, index, wider)
        if best is not None:
            mask, value = best[2]
            improved = True
    return mask, value


def reference_irredundant(cubes: List[IntCube],
                          on: Sequence[int]) -> List[IntCube]:
    """The original greedy set-based irredundant step."""
    owners: Dict[int, List[IntCube]] = {
        v: [c for c in cubes if (v & c[0]) == c[1]] for v in on}
    for vector, who in owners.items():
        if not who:
            raise CoverError("uncoverable")
    chosen: List[IntCube] = []
    remaining: Set[int] = set(on)
    for vector, who in owners.items():
        if len(who) == 1 and who[0] not in chosen:
            chosen.append(who[0])
    for cube in chosen:
        remaining -= set(_covered(cube, sorted(remaining)))
    pool = [c for c in cubes if c not in chosen]
    while remaining:
        remaining_list = sorted(remaining)
        best = max(pool or chosen,
                   key=lambda c: (len(_covered(c, remaining_list)),
                                  -bin(c[0]).count("1")))
        gained = set(_covered(best, remaining_list))
        if not gained:
            raise CoverError("stuck")
        if best not in chosen:
            chosen.append(best)
        remaining -= gained
    pruned = list(chosen)
    for cube in list(chosen):
        trial = [c for c in pruned if c != cube]
        if trial and all(any((v & c[0]) == c[1] for c in trial)
                         for v in on):
            pruned = trial
    return pruned


def reference_reduce(cube: IntCube, owned: Sequence[int],
                     width: int) -> IntCube:
    """The original REDUCE: supercube of the owned vectors, kept only
    if it lies inside ``cube``."""
    if not owned:
        return cube
    full_mask = (1 << width) - 1
    common_ones = common_zeros = full_mask
    for v in owned:
        common_ones &= v
        common_zeros &= ~v
    mask = (common_ones | common_zeros) & full_mask
    value = common_ones & mask
    if (cube[0] & ~mask) or ((value & cube[0]) != cube[1]):
        return cube
    return mask, value


def reference_minimize(on: Sequence[int], off: Sequence[int], width: int,
                       passes: int = 2) -> List[IntCube]:
    """minimize()'s EXPAND / IRREDUNDANT / REDUCE loop, built from the
    scalar reference kernels (inputs already packed, disjoint, and both
    non-empty)."""
    on, off = sorted(set(on)), sorted(set(off))
    full_mask = (1 << width) - 1
    cubes = [(full_mask, v) for v in on]
    for round_index in range(max(1, passes)):
        expanded: List[IntCube] = []
        for cube in cubes:
            if cube[0] == full_mask and any(
                    _hits(c, [cube[1]]) for c in expanded):
                continue
            expanded.append(reference_expand(cube, off, on, width))
        kept: List[IntCube] = []
        for cube in sorted(set(expanded),
                           key=lambda c: bin(c[0]).count("1")):
            if not any(_contains(other, cube) for other in kept):
                kept.append(cube)
        cubes = reference_irredundant(kept, on)
        if round_index + 1 < passes:
            cubes = [reference_reduce(
                cube, [v for v in _covered(cube, on)
                       if sum(1 for c in cubes
                              if (v & c[0]) == c[1]) == 1], width)
                     for cube in cubes]
    return cubes


def _normalized(raw_cubes) -> List[IntCube]:
    """Well-formed (mask, value) pairs, deduplicated — what the
    minimize() call site guarantees."""
    return sorted({(mask, value & mask) for mask, value in raw_cubes})


# ----------------------------------------------------------------------
# The column kernels agree with the reference
# ----------------------------------------------------------------------


class TestVectorizedKernels:
    """The column kernels (bit-parallel over the vectors of a set)."""

    @given(st.integers(0, 2 ** WIDTH - 1), int_set_strategy,
           int_set_strategy)
    @settings(max_examples=200, deadline=None)
    def test_expand_matches_reference(self, seed, off, prefer):
        off = sorted(off - {seed})
        prefer = sorted(prefer)
        cube = ((1 << WIDTH) - 1, seed)
        assert _expand(cube, _columns(off, WIDTH),
                       _columns(prefer, WIDTH)) \
            == reference_expand(cube, off, prefer, WIDTH)

    @given(st.data(), st.integers(64, 80))
    @settings(max_examples=60, deadline=None)
    def test_expand_matches_reference_beyond_63_signals(self, data, width):
        vector = st.integers(0, 2 ** width - 1)
        seed = data.draw(vector)
        # OFF vectors near the seed, so EXPAND is actually blocked.
        flips = st.sets(st.integers(0, width - 1), min_size=1, max_size=3)
        off = sorted({seed ^ sum(1 << i for i in flip)
                      for flip in data.draw(st.lists(flips, max_size=10))})
        prefer = sorted(data.draw(st.sets(vector, max_size=10)) | {seed})
        cube = ((1 << width) - 1, seed)
        assert _expand(cube, _columns(off, width),
                       _columns(prefer, width)) \
            == reference_expand(cube, off, prefer, width)

    @given(int_set_strategy, int_set_strategy)
    @settings(max_examples=100, deadline=None)
    def test_expand_of_cube_already_hitting_off(self, off, prefer):
        # A cube that covers an OFF vector cannot grow: every drop
        # still hits that vector.
        cube = (0b00011, 0b00001)
        off = sorted(off | {0b10101})
        prefer = sorted(prefer)
        assert _expand(cube, _columns(off, WIDTH),
                       _columns(prefer, WIDTH)) == cube \
            == reference_expand(cube, off, prefer, WIDTH)

    @given(st.lists(st.tuples(st.integers(0, 2 ** WIDTH - 1),
                              st.integers(0, 2 ** WIDTH - 1)),
                    max_size=8),
           int_set_strategy)
    @settings(max_examples=200, deadline=None)
    def test_irredundant_matches_reference(self, raw_cubes, on):
        cubes = _normalized(raw_cubes)
        on_list = sorted(on)
        try:
            expected = reference_irredundant(list(cubes), on_list)
        except CoverError:
            with pytest.raises(CoverError):
                _irredundant(list(cubes), _columns(on_list, WIDTH))
            return
        assert _irredundant(list(cubes), _columns(on_list, WIDTH)) \
            == expected

    @given(st.lists(st.tuples(st.integers(0, 2 ** WIDTH - 1),
                              st.integers(0, 2 ** WIDTH - 1)),
                    min_size=1, max_size=6),
           int_set_strategy)
    @settings(max_examples=150, deadline=None)
    def test_reduce_matches_reference(self, raw_cubes, on):
        cubes = _normalized(raw_cubes)
        on_list = sorted(on)
        columns = _columns(on_list, WIDTH)
        cover = [_cover_bits(cube, columns) for cube in cubes]
        once, twice = _covered_once(cover)
        for cube, bits in zip(cubes, cover):
            owned = bits & once & ~twice
            owned_vectors = [v for j, v in enumerate(on_list)
                             if (owned >> j) & 1]
            assert _reduce(cube, owned, columns) \
                == reference_reduce(cube, owned_vectors, WIDTH)

    @given(st.lists(cube_strategy, min_size=1, max_size=6),
           int_set_strategy)
    @settings(max_examples=100, deadline=None)
    def test_coverage_matrix_matches_cube_evaluate(self, cubes, vectors):
        # The cube-covers-vector matrix, one coverage bitset per cube.
        vec_list = sorted(vectors)
        columns = _columns(vec_list, WIDTH)
        matrix = [_cover_bits(_cube_int(cube, SIGNALS), columns)
                  for cube in cubes]
        for j, packed in enumerate(vec_list):
            vector = {name: (packed >> k) & 1
                      for k, name in enumerate(SIGNALS)}
            for bits, cube in zip(matrix, cubes):
                assert bool((bits >> j) & 1) == cube.evaluate(vector)
        assert all(bits >> len(vec_list) == 0 for bits in matrix)

    @given(st.integers(0, 80).flatmap(lambda width: st.tuples(
        st.just(width),
        st.lists(st.integers(0, 2 ** width - 1), max_size=20))))
    @settings(max_examples=100, deadline=None)
    def test_columns_transpose_the_vectors(self, case):
        width, vectors = case
        literals, every = _columns(vectors, width)
        assert every == (1 << len(vectors)) - 1
        assert len(literals) == 2 * width
        for i in range(width):
            for j, vector in enumerate(vectors):
                high = (vector >> i) & 1
                assert (literals[2 * i + 1] >> j) & 1 == high
                assert (literals[2 * i] >> j) & 1 == 1 - high

    def test_columns_of_no_vectors(self):
        assert _columns([], 3) == ([0] * 6, 0)
        assert _columns([0, 0], 0) == ([], 0b11)


class TestPopcount:
    def test_fallback_matches_bit_by_bit_count(self):
        rng = random.Random(7)
        values = [0, 1, 2, 3, (1 << 63) - 1, 1 << 63, (1 << 200) - 1]
        values += [rng.getrandbits(rng.randint(1, 300)) for _ in range(200)]
        for value in values:
            expected = sum((value >> i) & 1
                           for i in range(value.bit_length()))
            assert _bin_popcount(value) == expected
            assert _popcount(value) == expected


# ----------------------------------------------------------------------
# Int-cube algebra agrees with the Cube reference
# ----------------------------------------------------------------------


class TestCubeAgreement:
    @given(cube_strategy, cube_strategy)
    @settings(max_examples=150, deadline=None)
    def test_containment(self, a, b):
        ia, ib = _cube_int(a, SIGNALS), _cube_int(b, SIGNALS)
        assert _contains(ia, ib) == a.contains(b)

    @given(cube_strategy, cube_strategy)
    @settings(max_examples=150, deadline=None)
    def test_intersection_semantics(self, a, b):
        ia, ib = _cube_int(a, SIGNALS), _cube_int(b, SIGNALS)
        conflict = (ia[1] ^ ib[1]) & ia[0] & ib[0]
        both = a.intersect(b)
        assert (conflict == 0) == (both is not None)
        if both is not None:
            merged = (ia[0] | ib[0], ia[1] | ib[1])
            assert _cube_back(merged, SIGNALS) == both

    @given(cube_strategy, cube_strategy)
    @settings(max_examples=150, deadline=None)
    def test_consensus_against_truth_table(self, a, b):
        # The dict-backed consensus must still be the standard one:
        # defined iff distance == 1, and covered by a ∪ b pointwise
        # union with the conflict variable freed.
        consensus = a.consensus(b)
        assert (consensus is not None) == (a.distance(b) == 1)
        if consensus is not None:
            for vector in all_vectors():
                if consensus.evaluate(vector):
                    flipped = dict(vector)
                    conflicts = [n for n in SIGNALS
                                 if a.polarity(n) is not None
                                 and b.polarity(n) is not None
                                 and a.polarity(n) != b.polarity(n)]
                    assert len(conflicts) == 1
                    name = conflicts[0]
                    flipped[name] = a.polarity(name)
                    other = dict(vector)
                    other[name] = b.polarity(name)
                    assert a.evaluate(flipped) and b.evaluate(other)

    @given(cube_strategy)
    @settings(max_examples=100, deadline=None)
    def test_polarity_matches_literal_tuple(self, cube):
        literals = dict(tuple(cube))
        for name in SIGNALS:
            assert cube.polarity(name) == literals.get(name)


# ----------------------------------------------------------------------
# minimize() accepts packed ints and agrees with the reference loop
# ----------------------------------------------------------------------


class TestPackedInputs:
    @given(spec_strategy)
    @settings(max_examples=60, deadline=None)
    def test_packed_and_mapping_inputs_agree(self, spec):
        vectors = all_vectors()
        on = [v for v, kind in zip(vectors, spec) if kind == 1]
        off = [v for v, kind in zip(vectors, spec) if kind == 0]
        on_ints = [_vector_int(v, SIGNALS) for v in on]
        off_ints = [_vector_int(v, SIGNALS) for v in off]
        assert minimize(on, off, SIGNALS) \
            == minimize(on_ints, off_ints, SIGNALS)

    @given(spec_strategy)
    @settings(max_examples=60, deadline=None)
    def test_minimize_matches_reference_loop(self, spec):
        on = [v for v, kind in enumerate(spec) if kind == 1]
        off = [v for v, kind in enumerate(spec) if kind == 0]
        if not on or not off:
            return
        expected = reference_minimize(on, off, WIDTH)
        assert minimize(on, off, SIGNALS) \
            == SopCover(_cube_back(c, SIGNALS) for c in expected)


class TestMappingDifferential:
    """Every minimize() call made while mapping two benchmarks gives
    exactly the cover the scalar reference loop gives."""

    @pytest.mark.parametrize("name", ["seq_mix", "trimos-send"])
    def test_mapping_calls_match_reference(self, name, monkeypatch):
        calls = []

        def recording(on, off, support, passes=2):
            on, off = list(on), list(off)
            calls.append((on, off, tuple(support), passes))
            return minimize(on, off, support, passes)

        monkeypatch.setattr(cover_module, "minimize", recording)
        assert map_circuit(benchmark(name), GateLibrary(2)).success
        assert calls
        checked = 0
        for on, off, support, passes in calls:
            assert all(isinstance(v, int) for v in on + off)
            if not on or not off or set(on) & set(off):
                continue
            expected = reference_minimize(on, off, len(support), passes)
            assert minimize(on, off, support, passes) \
                == SopCover(_cube_back(c, support) for c in expected)
            checked += 1
        assert checked
