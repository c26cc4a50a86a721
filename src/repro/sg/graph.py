"""State graphs: labelled transition systems over binary-encoded states.

A :class:`StateGraph` is the semantic object everything in this library
works on: states carry a binary code over the signal set, arcs carry
*events* (``"a+"`` / ``"a-"`` strings), signals are partitioned into
inputs and outputs.  State identities are opaque hashable objects —
Petri-net markings after reachability, ``(state, phase)`` pairs after a
signal insertion.

The class stores arcs as a list per state so that non-deterministic
graphs can be represented (and then *rejected* by the property checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, Hashable, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from repro._util import FrozenVector
from repro.errors import StgError

State = Hashable
Event = str  # "a+" or "a-"


def event_signal(event: Event) -> str:
    """Signal name of an event label."""
    return event[:-1]


def event_direction(event: Event) -> str:
    """Direction (``'+'`` or ``'-'``) of an event label."""
    return event[-1]


def opposite_event(event: Event) -> Event:
    """``a+`` ↔ ``a-``."""
    return event_signal(event) + ("-" if event_direction(event) == "+"
                                  else "+")


@dataclass(frozen=True)
class Diamond:
    """A commutativity diamond.

    ``bottom`` enables both ``event_a`` and ``event_b``; the two firing
    orders meet again in ``top``::

            top
           a/  \\b
        side_b  side_a
           b\\  /a
           bottom
    """

    bottom: State
    event_a: Event
    event_b: Event
    side_a: State  # after firing event_a from bottom
    side_b: State  # after firing event_b from bottom
    top: State

    @property
    def states(self) -> Tuple[State, State, State, State]:
        return (self.bottom, self.side_a, self.side_b, self.top)

    @property
    def path_a_first(self) -> Tuple[State, State, State]:
        return (self.bottom, self.side_a, self.top)


class StateGraph:
    """A mutable labelled transition system with binary-encoded states."""

    def __init__(self, name: str, inputs: Iterable[str],
                 outputs: Iterable[str]):
        self.name = name
        self._inputs: Tuple[str, ...] = tuple(sorted(set(inputs)))
        self._outputs: Tuple[str, ...] = tuple(sorted(set(outputs)))
        overlap = set(self._inputs) & set(self._outputs)
        if overlap:
            raise StgError(f"signals {sorted(overlap)} are both input "
                           "and output")
        self._codes: Dict[State, FrozenVector] = {}
        self._succ: Dict[State, List[Tuple[Event, State]]] = {}
        self._pred: Dict[State, List[Tuple[Event, State]]] = {}
        self._initial: Optional[State] = None
        #: ``(diamonds, state -> diamonds index)``, built together
        self._diamond_cache: Optional[Tuple[
            List[Diamond], Dict[State, List[Diamond]]]] = None
        self._order_cache: Optional[Dict[State, int]] = None
        self._encoding_cache = None  # repro.sg.encoding.Encoding

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------

    @property
    def inputs(self) -> Tuple[str, ...]:
        return self._inputs

    @property
    def outputs(self) -> Tuple[str, ...]:
        return self._outputs

    @property
    def signals(self) -> Tuple[str, ...]:
        return tuple(sorted(self._inputs + self._outputs))

    def is_input(self, signal: str) -> bool:
        return signal in self._inputs

    def is_input_event(self, event: Event) -> bool:
        return event_signal(event) in self._inputs

    # ------------------------------------------------------------------
    # States and arcs
    # ------------------------------------------------------------------

    @property
    def states(self) -> Tuple[State, ...]:
        return tuple(self._codes)

    def __len__(self) -> int:
        return len(self._codes)

    def __contains__(self, state: State) -> bool:
        return state in self._codes

    @property
    def initial(self) -> State:
        if self._initial is None:
            raise StgError("state graph has no initial state")
        return self._initial

    def set_initial(self, state: State) -> None:
        if state not in self._codes:
            raise StgError(f"unknown state {state!r}")
        self._initial = state
        self._order_cache = None

    def add_state(self, state: State, code: FrozenVector) -> State:
        if state in self._codes:
            raise StgError(f"state {state!r} added twice")
        expected = set(self.signals)
        if set(code.keys()) != expected:
            raise StgError(
                f"state code must cover signals {sorted(expected)}, "
                f"got {code.keys()}")
        self._codes[state] = code
        self._succ[state] = []
        self._pred[state] = []
        self._diamond_cache = None
        self._order_cache = None
        self._encoding_cache = None
        return state

    def add_arc(self, source: State, event: Event, target: State) -> None:
        if source not in self._codes:
            raise StgError(f"unknown source state {source!r}")
        if target not in self._codes:
            raise StgError(f"unknown target state {target!r}")
        if event_signal(event) not in self.signals:
            raise StgError(f"event {event!r} uses unknown signal")
        if (event, target) in self._succ[source]:
            return
        self._succ[source].append((event, target))
        self._pred[target].append((event, source))
        self._diamond_cache = None
        self._order_cache = None
        self._encoding_cache = None

    def code(self, state: State) -> FrozenVector:
        try:
            return self._codes[state]
        except KeyError:
            raise StgError(f"unknown state {state!r}")

    def successors(self, state: State) -> List[Tuple[Event, State]]:
        return list(self._succ[state])

    def predecessors(self, state: State) -> List[Tuple[Event, State]]:
        return list(self._pred[state])

    def successor(self, state: State, event: Event) -> Optional[State]:
        """The unique successor by ``event`` (None if not enabled).

        Raises on non-determinism — call sites rely on the property
        checks having passed.
        """
        targets = [t for e, t in self._succ[state] if e == event]
        if not targets:
            return None
        if len(targets) > 1:
            raise StgError(f"non-deterministic event {event!r} at "
                           f"{state!r}")
        return targets[0]

    def enabled(self, state: State) -> List[Event]:
        """Event labels enabled at a state (sorted, deduplicated)."""
        return sorted({event for event, _ in self._succ[state]})

    def is_excited(self, state: State, signal: str) -> bool:
        """True iff some transition of ``signal`` is enabled at state."""
        return any(event_signal(event) == signal
                   for event, _ in self._succ[state])

    def encoding(self):
        """The packed-integer view of this graph (cached).

        Returns a :class:`repro.sg.encoding.Encoding` — stable
        signal→bit and state→index maps plus packed codes, adjacency
        and enabledness bitsets.  Invalidated by any mutation; shared
        with content-identical :meth:`copy` clones (the encoding holds
        no reference back to the graph)."""
        if self._encoding_cache is None:
            from repro.sg.encoding import Encoding
            self._encoding_cache = Encoding(self)
        return self._encoding_cache

    # ------------------------------------------------------------------
    # Graph algorithms
    # ------------------------------------------------------------------

    def bfs_order(self) -> Dict[State, int]:
        """Deterministic BFS numbering of states from the initial state
        (successors visited in ``repr`` order).

        The mapping is cached — region indexing consults it once per
        excitation-region computation — and invalidated by any graph
        mutation.  Callers must treat the returned dict as read-only.
        """
        if self._order_cache is None:
            order: Dict[State, int] = {self.initial: 0}
            frontier: List[State] = [self.initial]
            index = 0
            while index < len(frontier):
                state = frontier[index]
                index += 1
                for _, target in sorted(self._succ[state], key=repr):
                    if target not in order:
                        order[target] = len(order)
                        frontier.append(target)
            self._order_cache = order
        return self._order_cache

    def reachable_from(self, sources: Iterable[State],
                       allowed: Optional[Set[State]] = None) -> Set[State]:
        """Forward closure of ``sources`` (restricted to ``allowed``)."""
        frontier = [s for s in sources
                    if allowed is None or s in allowed]
        seen: Set[State] = set(frontier)
        while frontier:
            state = frontier.pop()
            for _, target in self._succ[state]:
                if target in seen:
                    continue
                if allowed is not None and target not in allowed:
                    continue
                seen.add(target)
                frontier.append(target)
        return seen

    def prune_unreachable(self) -> int:
        """Drop states unreachable from the initial state."""
        keep = self.reachable_from([self.initial])
        dropped = [s for s in self._codes if s not in keep]
        for state in dropped:
            for event, target in self._succ.pop(state):
                self._pred[target] = [(e, s) for e, s in self._pred[target]
                                      if s != state]
            for event, source in self._pred.pop(state):
                self._succ[source] = [(e, t) for e, t in self._succ[source]
                                      if t != state]
            del self._codes[state]
        self._diamond_cache = None
        self._order_cache = None
        self._encoding_cache = None
        return len(dropped)

    def connected_components(self, states: Iterable[State]) -> List[Set[State]]:
        """Weakly connected components of the subgraph induced by
        ``states`` (adjacency through arcs in either direction)."""
        pool = set(states)
        components: List[Set[State]] = []
        while pool:
            # seed selection fixes the order of the returned component
            # list — repr order keeps it hash-seed independent
            seed = min(pool, key=repr)
            pool.remove(seed)
            component = {seed}
            frontier = [seed]
            while frontier:
                state = frontier.pop()
                neighbours = ([t for _, t in self._succ[state]]
                              + [s for _, s in self._pred[state]])
                for other in neighbours:
                    if other in pool:
                        pool.remove(other)
                        component.add(other)
                        frontier.append(other)
            components.append(component)
        return components

    def diamonds(self) -> List[Diamond]:
        """All commutativity diamonds of the graph (cached).

        Only complete diamonds are returned: both interleavings must
        exist and meet in the same top state.  (Incomplete diamonds are
        commutativity/persistency violations, reported by the property
        checks, not here.)
        """
        return list(self._diamonds_indexed()[0])

    def diamond_index(self) -> Dict[State, List[Diamond]]:
        """Map each state to the diamonds containing it (cached with
        :meth:`diamonds`; used by region-growth loops that only care
        about diamonds touching a state set).  The cached dict itself
        is returned: treat it as read-only."""
        return self._diamonds_indexed()[1]

    def _diamonds_indexed(self) -> Tuple[List[Diamond],
                                         Dict[State, List[Diamond]]]:
        if self._diamond_cache is not None:
            return self._diamond_cache
        diamonds: List[Diamond] = []
        for bottom in self._codes:
            arcs = self._succ[bottom]
            for i, (event_a, side_a) in enumerate(arcs):
                for event_b, side_b in arcs[i + 1:]:
                    if event_a == event_b:
                        continue
                    tops_ab = {t for e, t in self._succ[side_a]
                               if e == event_b}
                    tops_ba = {t for e, t in self._succ[side_b]
                               if e == event_a}
                    for top in sorted(tops_ab & tops_ba, key=repr):
                        diamonds.append(Diamond(bottom, event_a, event_b,
                                                side_a, side_b, top))
        index: Dict[State, List[Diamond]] = {}
        for diamond in diamonds:
            for state in diamond.states:
                index.setdefault(state, []).append(diamond)
        self._diamond_cache = (diamonds, index)
        return self._diamond_cache

    # ------------------------------------------------------------------
    # Serialization helpers
    # ------------------------------------------------------------------

    def __getstate__(self) -> Dict[str, object]:
        # Pickles skip the diamond cache: it is rebuilt on demand, and
        # its per-state index would only grow every stored artifact.
        state = dict(self.__dict__)
        state["_diamond_cache"] = None
        return state

    def copy(self, name: Optional[str] = None) -> "StateGraph":
        clone = StateGraph(name or self.name, self._inputs, self._outputs)
        for state, code in self._codes.items():
            clone.add_state(state, code)
        for state, arcs in self._succ.items():
            for event, target in arcs:
                clone.add_arc(state, event, target)
        if self._initial is not None:
            clone.set_initial(self._initial)
        # The clone is content-identical, so the BFS numbering and the
        # packed encoding carry over; a later mutation of either graph
        # only drops its own reference (neither cache is ever mutated
        # in place).
        clone._order_cache = self._order_cache
        clone._encoding_cache = self._encoding_cache
        return clone

    def relabel(self) -> "StateGraph":
        """Return a copy whose states are renamed ``s0, s1, ...`` in BFS
        order from the initial state (stable, readable identities)."""
        order: List[State] = [self.initial]
        seen = {self.initial}
        index = 0
        while index < len(order):
            state = order[index]
            index += 1
            for _, target in sorted(self._succ[state], key=repr):
                if target not in seen:
                    seen.add(target)
                    order.append(target)
        mapping = {state: f"s{i}" for i, state in enumerate(order)}
        clone = StateGraph(self.name, self._inputs, self._outputs)
        for state in order:
            clone.add_state(mapping[state], self._codes[state])
        for state in order:
            for event, target in self._succ[state]:
                if target in mapping:
                    clone.add_arc(mapping[state], event, mapping[target])
        clone.set_initial(mapping[self.initial])
        return clone

    def to_dot(self) -> str:
        """GraphViz rendering (debugging aid)."""
        lines = [f'digraph "{self.name}" {{']
        order = sorted(self.signals)
        names = {state: f"s{i}" for i, state in enumerate(self._codes)}
        for state, node in names.items():
            bits = self._codes[state].bits(order)
            shape = ("doublecircle" if self._initial == state
                     else "circle")
            lines.append(f'  {node} [label="{bits}" shape={shape}];')
        for state, arcs in self._succ.items():
            for event, target in arcs:
                lines.append(
                    f'  {names[state]} -> {names[target]} '
                    f'[label="{event}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"StateGraph({self.name!r}, |S|={len(self._codes)}, "
                f"signals={list(self.signals)})")
