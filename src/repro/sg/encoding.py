"""Next-state functions, code partitions and the packed integer view.

The bridge between the behavioural world (states, regions) and the
boolean world (vectors, covers): every synthesis step ultimately calls
:func:`vectors_of` to turn state sets into ON/OFF vector sets for the
minimizer, or :func:`next_state_sets` for complete covers.

:class:`Encoding` is the shared integer-packing layer under all of it:
one instance per (immutable snapshot of a) state graph fixes

* a stable ``signal -> bit position`` map (sorted signal order, the
  same order :func:`repro.boolean.minimize._vector_int` packs vectors
  in), so every state code becomes one machine int;
* a stable ``state -> index`` map, so every state *set* (excitation
  region, quiescent cone, candidate block) becomes one arbitrary-width
  Python int bitset — intersection, union, difference, containment and
  emptiness checks collapse to single bulk bitwise operations;
* packed adjacency (successor/predecessor bitsets per state) and
  per-event enabledness bitsets, so forward/backward closures run as
  word-parallel frontier sweeps instead of per-arc Python loops.

Instances are cached on the graph (:meth:`repro.sg.graph.StateGraph.
encoding`) and invalidated by any mutation, so derived caches (stable
closures, value half-spaces) may live here safely.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro._util import FrozenVector
from repro.errors import CscViolation
from repro.sg.graph import Event, State, StateGraph


class Encoding:
    """Packed-integer view of one state graph snapshot.

    All bitsets index states by :attr:`index`; all packed codes place
    signal ``signals[i]`` at bit ``i`` (sorted signal order).  The
    instance never mutates the graph and keeps no reference to it, so
    content-identical copies may share one encoding.
    """

    __slots__ = ("signals", "bit", "states", "index", "codes",
                 "full_mask", "succ_bits", "pred_bits", "_event_bits",
                 "_event_arcs", "_excited_bits", "_value_bits",
                 "_closure_cache", "_repr_rank")

    def __init__(self, sg: StateGraph):
        signals = sg.signals
        self.signals: Tuple[str, ...] = signals
        self.bit: Dict[str, int] = {name: i
                                    for i, name in enumerate(signals)}
        states = sg.states
        self.states: Tuple[State, ...] = states
        self.index: Dict[State, int] = {s: i for i, s in enumerate(states)}
        n = len(states)
        self.full_mask: int = (1 << n) - 1

        bit = self.bit
        codes: List[int] = []
        for state in states:
            packed = 0
            for name, value in sg.code(state).items():
                if value:
                    packed |= 1 << bit[name]
            codes.append(packed)
        self.codes: List[int] = codes

        succ_bits = [0] * n
        pred_bits = [0] * n
        event_bits: Dict[Event, int] = {}
        event_arcs: Dict[Event, List[Tuple[int, int]]] = {}
        index = self.index
        for i, state in enumerate(states):
            sbit = 1 << i
            for event, target in sg.successors(state):
                j = index[target]
                succ_bits[i] |= 1 << j
                pred_bits[j] |= sbit
                event_bits[event] = event_bits.get(event, 0) | sbit
                event_arcs.setdefault(event, []).append((i, j))
        self.succ_bits: List[int] = succ_bits
        self.pred_bits: List[int] = pred_bits
        self._event_bits = event_bits
        excited: Dict[str, int] = {}
        for event, bits in event_bits.items():
            name = event[:-1]
            excited[name] = excited.get(name, 0) | bits
        self._excited_bits = excited
        self._event_arcs = event_arcs
        self._value_bits: Dict[str, int] = {}
        self._closure_cache: Dict[Tuple[Event, int], int] = {}
        self._repr_rank: List[int] = []

    # ------------------------------------------------------------------
    # Bitset plumbing
    # ------------------------------------------------------------------

    def bitset(self, states: Iterable[State]) -> int:
        """Pack a collection of states into one bitset."""
        index = self.index
        bits = 0
        for state in states:
            bits |= 1 << index[state]
        return bits

    def states_of(self, bits: int) -> List[State]:
        """Unpack a bitset into states, in stable index order."""
        states = self.states
        out: List[State] = []
        while bits:
            low = bits & -bits
            out.append(states[low.bit_length() - 1])
            bits ^= low
        return out

    def states_by_repr(self, bits: int) -> List[State]:
        """``sorted(self.states_of(bits), key=repr)`` — an order that
        does not depend on the hash seed — from a table of repr ranks
        built on first use."""
        rank = self._repr_rank
        if len(rank) != len(self.states):
            order = sorted(range(len(self.states)),
                           key=lambda i: repr(self.states[i]))
            rank = self._repr_rank = [0] * len(order)
            for position, i in enumerate(order):
                rank[i] = position
        return [self.states[i]
                for i in sorted(self.iter_bits(bits), key=rank.__getitem__)]

    @staticmethod
    def iter_bits(bits: int) -> Iterator[int]:
        """Yield the set bit positions of a bitset, ascending."""
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    # ------------------------------------------------------------------
    # Codes
    # ------------------------------------------------------------------

    def pack(self, vector) -> int:
        """Pack a signal vector (mapping) into a machine int."""
        bit = self.bit
        packed = 0
        for name in vector:
            if vector[name]:
                packed |= 1 << bit[name]
        return packed

    def unpack(self, packed: int) -> FrozenVector:
        """The :class:`FrozenVector` of a packed code."""
        return FrozenVector({name: (packed >> i) & 1
                             for i, name in enumerate(self.signals)})

    def codes_of(self, bits: int) -> Set[int]:
        """Distinct packed codes of the states in a bitset."""
        codes = self.codes
        return {codes[i] for i in self.iter_bits(bits)}

    def project(self, packed: int, support: Sequence[str]) -> int:
        """Re-pack a code onto ``support`` (bit ``i`` = ``support[i]``),
        matching :func:`repro.boolean.minimize._vector_int`."""
        bit = self.bit
        out = 0
        for i, name in enumerate(support):
            if (packed >> bit[name]) & 1:
                out |= 1 << i
        return out

    def value_bits(self, signal: str) -> int:
        """Bitset of states whose code sets ``signal`` to 1."""
        cached = self._value_bits.get(signal)
        if cached is None:
            vbit = 1 << self.bit[signal]
            cached = 0
            for i, code in enumerate(self.codes):
                if code & vbit:
                    cached |= 1 << i
            self._value_bits[signal] = cached
        return cached

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------

    def event_bits(self, event: Event) -> int:
        """Bitset of states where ``event`` is enabled."""
        return self._event_bits.get(event, 0)

    def excited_bits(self, signal: str) -> int:
        """Bitset of states where some transition of ``signal`` is
        enabled."""
        return self._excited_bits.get(signal, 0)

    def event_targets(self, event: Event, sources: int) -> int:
        """Bitset of states entered by firing ``event`` from
        ``sources`` (the packed switching-region primitive)."""
        out = 0
        for i, j in self._event_arcs.get(event, ()):
            if (sources >> i) & 1:
                out |= 1 << j
        return out

    def closure_forward(self, start: int, allowed: int) -> int:
        """Forward closure of ``start & allowed`` through arcs staying
        inside ``allowed`` — one word-parallel frontier sweep."""
        succ = self.succ_bits
        closure = start & allowed
        frontier = closure
        while frontier:
            step = 0
            bits = frontier
            while bits:
                low = bits & -bits
                step |= succ[low.bit_length() - 1]
                bits ^= low
            frontier = step & allowed & ~closure
            closure |= frontier
        return closure

    def components(self, bits: int) -> List[int]:
        """Weakly connected components of the subgraph induced by
        ``bits`` (adjacency through arcs in either direction), as
        bitsets in ascending lowest-index order."""
        succ, pred = self.succ_bits, self.pred_bits
        components: List[int] = []
        pool = bits
        while pool:
            component = pool & -pool
            frontier = component
            while frontier:
                reach = 0
                probe = frontier
                while probe:
                    low = probe & -probe
                    i = low.bit_length() - 1
                    reach |= succ[i] | pred[i]
                    probe ^= low
                frontier = reach & pool & ~component
                component |= frontier
            components.append(component)
            pool &= ~component
        return components


def vectors_of(sg: StateGraph, states: Iterable[State]) -> List[FrozenVector]:
    """Binary codes of the given states (deduplicated, sorted)."""
    return sorted({sg.code(s) for s in states}, key=lambda v: v.items())


def code_partition(sg: StateGraph) -> Dict[FrozenVector, List[State]]:
    """Group states by binary code."""
    partition: Dict[FrozenVector, List[State]] = {}
    for state in sg.states:
        partition.setdefault(sg.code(state), []).append(state)
    return partition


def next_value(sg: StateGraph, state: State, signal: str) -> int:
    """The *implied value* of a signal at a state.

    1 if the signal is 1 and stable or rising (``a+`` enabled); 0 if it
    is 0 and stable or falling.  This is the function a combinational
    (complete-cover) implementation of the signal must compute.
    """
    value = sg.code(state)[signal]
    if sg.is_excited(state, signal):
        return 1 - value
    return value


def next_state_ints(sg: StateGraph, signal: str,
                    support: Sequence[str]) -> Tuple[List[int], List[int]]:
    """ON / OFF packed-vector sets of the signal's next-state function,
    projected onto ``support`` in :func:`repro.boolean.minimize.
    _vector_int` bit order.

    The packed twin of :func:`next_state_sets`: one pass over the
    precomputed codes and excitation bitsets instead of a per-state,
    per-arc :meth:`~repro.sg.graph.StateGraph.is_excited` scan.  Raises
    :class:`CscViolation` if some *full* code appears with both implied
    values (checked before projection, exactly like the vector twin).
    """
    enc = sg.encoding()
    excited = enc.excited_bits(signal)
    vbit = 1 << enc.bit[signal]
    on: Set[int] = set()
    off: Set[int] = set()
    for i, code in enumerate(enc.codes):
        implied = bool(code & vbit) ^ bool((excited >> i) & 1)
        (on if implied else off).add(code)
    clash = on & off
    if clash:
        sample = enc.unpack(min(clash))
        raise CscViolation(
            f"next-state function of {signal!r} is ill-defined on code "
            f"{sample!r} (CSC violation)")
    if tuple(support) == enc.signals:
        return sorted(on), sorted(off)
    return (sorted({enc.project(code, support) for code in on}),
            sorted({enc.project(code, support) for code in off}))


def next_state_sets(sg: StateGraph,
                    signal: str) -> Tuple[List[FrozenVector], List[FrozenVector]]:
    """ON / OFF vector sets of the signal's next-state function.

    Raises :class:`CscViolation` if some code appears with both implied
    values — exactly the situation in which no logic function can
    implement the signal.
    """
    enc = sg.encoding()
    excited = enc.excited_bits(signal)
    vbit = 1 << enc.bit[signal]
    on_states: List[State] = []
    off_states: List[State] = []
    for i, state in enumerate(enc.states):
        implied = bool(enc.codes[i] & vbit) ^ bool((excited >> i) & 1)
        (on_states if implied else off_states).append(state)
    on = vectors_of(sg, on_states)
    off = vectors_of(sg, off_states)
    clash = set(on) & set(off)
    if clash:
        sample = min(clash, key=repr)
        raise CscViolation(
            f"next-state function of {signal!r} is ill-defined on code "
            f"{sample!r} (CSC violation)")
    return on, off


def excited_value_states(sg: StateGraph, signal: str,
                         direction: str) -> Set[State]:
    """States where the given transition of the signal is enabled."""
    enc = sg.encoding()
    return set(enc.states_of(enc.event_bits(signal + direction)))
