"""Espresso-style two-level minimization with implicit don't-cares.

The synthesis path of this library always minimizes *incompletely
specified* functions given as two explicit sets of binary vectors:

* ``on``  — vectors the cover must evaluate to 1 on;
* ``off`` — vectors the cover must evaluate to 0 on;

everything else (unreachable state codes, quiescent-region freedom) is a
don't-care.  This matches how covers arise from a state graph, where the
reachable state set is small and the don't-care set is astronomically
large — so, unlike textbook espresso, the OFF-set is kept *explicit* and
the DC-set *implicit*.

The loop is the classical one: EXPAND each implicant against the
OFF-set, drop single-cube-contained implicants, make the result
IRREDUNDANT by greedy covering, then one REDUCE/re-EXPAND pass to escape
local minima.  Heuristic, but verified: the result is checked to cover
``on`` and avoid ``off`` before being returned.

Internally a vector over ``support`` is an int and a cube a ``(mask,
value)`` pair.  The kernels work on the transpose — one *column* bitset
per literal, bit ``j`` set when vector ``j`` has the literal — so a
cube's coverage of a whole vector set is the AND of its literal columns,
at any support width.  The public API speaks
:class:`~repro.boolean.cube.Cube` / :class:`~repro.boolean.sop.SopCover`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.boolean.cube import Cube
from repro.boolean.sop import SopCover
from repro.errors import CoverError

Vector = Mapping[str, int]
IntCube = Tuple[int, int]  # (mask, value): v covered iff v & mask == value
#: column bitsets of one vector set: ``(literals, every)`` where
#: ``literals[2 * i + p]`` has bit ``j`` set iff vector ``j`` has signal
#: ``i`` at polarity ``p``, and ``every`` has one bit per vector
Columns = Tuple[List[int], int]


def _bin_popcount(bits: int) -> int:
    return bin(bits).count("1")


#: number of set bits; ``int.bit_count`` only exists from Python 3.10
_popcount = getattr(int, "bit_count", _bin_popcount)


def _vector_int(vector: Vector, support: Sequence[str]) -> int:
    try:
        return _vector_int_cached(vector, tuple(support))
    except TypeError:        # unhashable mapping (plain dict input)
        return _vector_int_compute(vector, tuple(support))


@lru_cache(maxsize=1 << 18)
def _vector_int_cached(vector: Vector, support: Tuple[str, ...]) -> int:
    return _vector_int_compute(vector, support)


def _vector_int_compute(vector: Vector, support: Tuple[str, ...]) -> int:
    # State codes (FrozenVector) hash by content and recur across the
    # thousands of minimize() calls of one mapping run; the memo turns
    # the dominant cost of cover synthesis into a dict lookup.
    bits = 0
    for name, index in _position_map(support).items():
        if vector[name]:
            bits |= 1 << index
    return bits


@lru_cache(maxsize=4096)
def _position_map(support: Tuple[str, ...]) -> Dict[str, int]:
    """The ``{name: bit position}`` map of one support, cached — shared
    by vector and cube packing so it is built once per support."""
    return {name: i for i, name in enumerate(support)}


def _cube_int(cube: Cube, support: Sequence[str]) -> IntCube:
    mask = value = 0
    position = _position_map(tuple(support))
    for name, polarity in cube:
        bit = 1 << position[name]
        mask |= bit
        if polarity:
            value |= bit
    return mask, value


def _cube_back(int_cube: IntCube, support: Sequence[str]) -> Cube:
    mask, value = int_cube
    literals = {}
    for index, name in enumerate(support):
        bit = 1 << index
        if mask & bit:
            literals[name] = 1 if value & bit else 0
    return Cube(literals)


def _columns(vectors: Sequence[int], width: int) -> Columns:
    """Transpose packed vectors into per-literal column bitsets.

    The vectors are laid end to end in one big int, last vector in the
    high bits, so its binary string holds signal ``i`` of every vector
    at every ``width``-th digit: one slice and one parse per column,
    bit ``j`` of the result standing for vector ``j``.
    """
    every = (1 << len(vectors)) - 1
    literals = [0] * (2 * width)
    if vectors and width:
        full_mask = (1 << width) - 1
        rows = 0
        for vector in reversed(vectors):
            rows = (rows << width) | (vector & full_mask)
        digits = bin(rows | (1 << (width * len(vectors))))[3:]
        for i in range(width):
            high = int(digits[width - 1 - i::width], 2)
            literals[2 * i], literals[2 * i + 1] = every ^ high, high
    return literals, every


def _cover_bits(cube: IntCube, columns: Columns) -> int:
    """Bitset of the vectors of ``columns`` that ``cube`` covers."""
    literals, covered = columns
    mask, value = cube
    while mask:
        low = mask & -mask
        i = low.bit_length() - 1
        covered &= literals[2 * i + ((value >> i) & 1)]
        mask ^= low
    return covered


def _covered_once(cover: Sequence[int]) -> Tuple[int, int]:
    """``(once, twice)``: the bits set in at least one and in at least
    two of the bitsets in ``cover``."""
    once = twice = 0
    for bits in cover:
        twice |= once & bits
        once |= bits
    return once, twice


def _expand(cube: IntCube, off: Columns, prefer: Columns) -> IntCube:
    """EXPAND: greedily drop literals while staying off the OFF-set,
    favouring drops that absorb the most ON-vectors.

    Dropping literal ``k`` adds exactly the vectors that ``k`` alone
    excludes, so one once/twice sweep over the literals' *miss* columns
    tests every drop against the OFF-set and scores it against
    ``prefer`` by popcount; the highest gain wins, ties going to the
    highest bit index.  A drop that hits the OFF-set keeps hitting it
    as the cube grows, so its literal is kept for good.
    """
    mask, value = cube
    free = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
    off_miss = [off[0][2 * i + 1 - ((value >> i) & 1)] for i in free]
    on_miss = [prefer[0][2 * i + 1 - ((value >> i) & 1)] for i in free]
    off_kept = on_kept = 0
    while free:
        once, twice = _covered_once(off_miss)
        if off[1] & ~(once | off_kept):
            break                    # the cube already hits the OFF-set
        alone = once & ~twice & ~off_kept
        for k in [k for k, miss in enumerate(off_miss) if miss & alone][::-1]:
            del free[k]
            off_kept |= off_miss.pop(k)
            on_kept |= on_miss.pop(k)
        if not free:
            break
        once, twice = _covered_once(on_miss)
        alone = once & ~twice & ~on_kept
        gains = [_popcount(miss & alone) for miss in on_miss]
        pick = len(gains) - 1 - gains[::-1].index(max(gains))
        bit = 1 << free.pop(pick)
        del off_miss[pick], on_miss[pick]
        mask &= ~bit
        value &= ~bit
    return mask, value


def _contains(outer: IntCube, inner: IntCube) -> bool:
    """Every point of ``inner`` lies in ``outer``."""
    o_mask, o_value = outer
    i_mask, i_value = inner
    if o_mask & ~i_mask:
        return False
    return (i_value & o_mask) == o_value


def _irredundant(cubes: List[IntCube], on: Columns) -> List[IntCube]:
    """Greedy minimum-ish subset of ``cubes`` still covering ``on``.

    Each cube's ON coverage is one bitset; the vectors covered exactly
    once (``once & ~twice``) give the essentials.  Pick order:
    essentials in ON order first, then first-maximal ``(covered count,
    -literal count)`` over the pool, then a prune of cubes made
    redundant by later picks.
    """
    every = on[1]
    if not every:
        return []
    cover = [_cover_bits(cube, on) for cube in cubes]
    once, twice = _covered_once(cover)
    if once != every:
        raise CoverError("irredundant step cannot make progress; "
                         "ON-set vector not covered by any implicant")
    single = once & ~twice
    # Essential cubes first, ordered by the first vector they own.
    owners = sorted(((bits & single) & -(bits & single), k)
                    for k, bits in enumerate(cover) if bits & single)
    chosen = [k for _, k in owners]
    remaining = every & ~_covered_once([cover[k] for k in chosen])[0]
    pool = [k for k in range(len(cubes)) if k not in chosen]
    literal_counts = [_popcount(mask) for mask, _ in cubes]
    while remaining:
        best = max(pool or chosen,
                   key=lambda k: (_popcount(cover[k] & remaining),
                                  -literal_counts[k]))
        if not remaining & cover[best]:
            raise CoverError("irredundant step cannot make progress")
        if best not in chosen:
            chosen.append(best)
        remaining &= ~cover[best]
    # Drop cubes made redundant by later picks.
    pruned = list(chosen)
    for index in list(chosen):
        trial = [k for k in pruned if k != index]
        if trial and _covered_once([cover[k] for k in trial])[0] == every:
            pruned = trial
    return [cubes[k] for k in pruned]


def _reduce(cube: IntCube, owned: int, on: Columns) -> IntCube:
    """REDUCE: shrink a cube to the supercube of the ON-vectors only it
    covers (the ``owned`` bitset), so the next EXPAND can take a
    different direction."""
    if not owned:
        return cube
    literals = on[0]
    mask = value = 0
    for i in range(len(literals) // 2):
        high = not owned & literals[2 * i]   # every owned vector high
        if high or not owned & literals[2 * i + 1]:
            mask |= 1 << i
            value |= high << i
    outer_mask, outer_value = cube
    # Only shrink (never move outside the original cube).
    if (outer_mask & ~mask) or ((value & outer_mask) != outer_value):
        return cube
    return mask, value


def minimize(on: Iterable[Vector], off: Iterable[Vector],
             support: Sequence[str], passes: int = 2) -> SopCover:
    """Minimize the incompletely specified function (ON, OFF, DC=rest).

    Parameters
    ----------
    on, off:
        Complete assignments over ``support`` (or supersets; extra
        signals are projected away).
    support:
        Signal names the cover may mention.
    passes:
        Number of EXPAND/IRREDUNDANT(/REDUCE) rounds.

    Returns
    -------
    SopCover
        A cover ``c`` with ``c(v) = 1`` for all ``v`` in ``on`` and
        ``c(v) = 0`` for all ``v`` in ``off``.

    Raises
    ------
    CoverError
        If some vector appears in both ON and OFF (no cover exists).
    """
    support = tuple(support)
    width = len(support)
    # Callers on the packed path (repro.sg.encoding.next_state_ints,
    # synthesis/cover.py) pass vectors already packed in support bit
    # order; mapping inputs are packed here.
    on_ints = sorted({v if isinstance(v, int) else _vector_int(v, support)
                      for v in on})
    off_ints = sorted({v if isinstance(v, int) else _vector_int(v, support)
                       for v in off})
    overlap = set(on_ints) & set(off_ints)
    if overlap:
        bits = format(min(overlap), f"0{width}b")[::-1]
        raise CoverError(
            f"ON and OFF sets overlap on vector {bits} over "
            f"{support}: the function is over-constrained (typically a "
            "CSC violation)")
    if not on_ints:
        return SopCover.zero()
    if not off_ints:
        return SopCover.one()

    full_mask = (1 << width) - 1
    off_columns = _columns(off_ints, width)
    on_columns = _columns(on_ints, width)
    on_index = {v: j for j, v in enumerate(on_ints)}
    cubes: List[IntCube] = [(full_mask, v) for v in on_ints]
    for round_index in range(max(1, passes)):
        # Espresso-style EXPAND with covered-minterm skipping: a seed
        # minterm (full-mask cubes are always ON vectors) already in the
        # ON coverage of an earlier prime is not expanded (IRREDUNDANT
        # would drop it anyway).
        expanded: List[IntCube] = []
        absorbed = 0
        for cube in cubes:
            if cube[0] == full_mask and \
                    (absorbed >> on_index[cube[1] & full_mask]) & 1:
                continue
            prime = _expand(cube, off_columns, on_columns)
            expanded.append(prime)
            absorbed |= _cover_bits(prime, on_columns)
        kept: List[IntCube] = []
        for cube in sorted(set(expanded), key=lambda c: _popcount(c[0])):
            if not any(_contains(other, cube) for other in kept):
                kept.append(cube)
        cubes = _irredundant(kept, on_columns)
        if round_index + 1 < passes:
            # A cube owns the vectors that no other cube covers.
            cover = [_cover_bits(cube, on_columns) for cube in cubes]
            once, twice = _covered_once(cover)
            cubes = [_reduce(cube, bits & once & ~twice, on_columns)
                     for cube, bits in zip(cubes, cover)]

    result = SopCover(_cube_back(c, support) for c in cubes)
    _verify(cubes, on_columns, off_columns)
    return result


def _verify(cubes: Sequence[IntCube], on: Columns, off: Columns) -> None:
    if _covered_once([_cover_bits(c, on) for c in cubes])[0] != on[1]:
        raise CoverError("minimized cover misses an ON vector")
    if any(_cover_bits(c, off) for c in cubes):
        raise CoverError("minimized cover hits an OFF vector")


def expand_cube(cube: Cube, off: Sequence[Vector],
                prefer: Optional[Sequence[Vector]] = None) -> Cube:
    """Expand one cube into a prime-like implicant against ``off``.

    Public wrapper around the integer EXPAND primitive (used directly
    by tests and by callers that want a single-cube expansion).
    """
    support = sorted(set(cube.support)
                     | {n for v in off for n in v.keys()}
                     | {n for v in (prefer or []) for n in v.keys()})
    width = len(support)
    off_columns = _columns([_vector_int(v, support) for v in off], width)
    prefer_columns = _columns([_vector_int(v, support)
                               for v in (prefer or [])], width)
    expanded = _expand(_cube_int(cube, support), off_columns,
                       prefer_columns)
    return _cube_back(expanded, support)


def literal_complexity(on: Iterable[Vector], off: Iterable[Vector],
                       support: Sequence[str]) -> Tuple[int, SopCover, SopCover]:
    """The paper's gate-complexity measure.

    "We have measured the complexity of each gate as the number of
    literals required to implement it as a sum-of-product gate, either
    complemented or not" (§4) — i.e. ``min(lit(f), lit(f'))`` where both
    polarities are minimized against the same don't-care set.

    Returns ``(complexity, cover, complement_cover)``.
    """
    on_list = list(on)
    off_list = list(off)
    cover = minimize(on_list, off_list, support)
    complement = minimize(off_list, on_list, support)
    return (min(cover.literal_count(), complement.literal_count()),
            cover, complement)
