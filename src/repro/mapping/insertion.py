"""Event insertion by state splitting (§2.3, Figure 3).

Given a validated :class:`~repro.mapping.partition.IPartition`, a new
signal ``x`` is inserted into the state graph:

* every state of ``ER(x+)`` splits into a pre-fire copy (``x = 0``) and
  a post-fire copy (``x = 1``) connected by an ``x+`` arc;
* symmetrically for ``ER(x-)``;
* every other state gets the single copy its block dictates
  (``S1 → x=1``, ``S0 → x=0``);
* an original arc ``s → t`` is replicated at every level where *both*
  endpoints have a copy — events that leave an excitation region toward
  the other level fire only after ``x`` (they are *delayed*, i.e. they
  acknowledge the new signal).

The result is re-verified from scratch (consistency, determinism,
commutativity, output persistency including the new signal, CSC, and
input preservation); any violation raises :class:`InsertionError`, which
the mapper treats as "reject this divisor".  Soundness therefore never
depends on the growth heuristics in :mod:`repro.mapping.partition`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro._util import FrozenVector
from repro.errors import InsertionError
from repro.mapping.partition import IPartition
from repro.sg.graph import State, StateGraph
from repro.sg.properties import check_speed_independence


@dataclass
class InsertionChanges:
    """What a signal insertion did to the state graph.

    The summary is what incremental resynthesis consumes: a signal
    whose excitation/quiescent zone avoids every split state (and sits
    at a single level of the new signal per event) kept its covering
    problem intact and can carry its covers over to the new code space;
    everything else must be resynthesized.

    ``split_states`` are the original states with *both* copies
    reachable after pruning (the ER(x+) / ER(x-) states of the
    partition, minus copies pruning removed); ``levels`` maps every
    unsplit original state to the level of its single surviving copy.
    """

    signal: str
    split_states: FrozenSet[State]
    levels: Dict[State, int] = field(default_factory=dict)

    def is_split(self, state: State) -> bool:
        return state in self.split_states

    def copy_of(self, state: State) -> State:
        """New-graph identity of an unsplit state's single copy."""
        return (state, self.levels[state])

    def touches(self, states: Iterable[State]) -> bool:
        """True iff any of the given original states was split."""
        return any(state in self.split_states for state in states)

    def __repr__(self) -> str:
        return (f"InsertionChanges({self.signal!r}, "
                f"split={len(self.split_states)}, "
                f"unsplit={len(self.levels)})")


@dataclass
class InsertionResult:
    """A signal insertion: the new state graph plus its change summary."""

    sg: StateGraph
    changes: InsertionChanges


def insert_signal(sg: StateGraph, partition: IPartition, name: str,
                  verify: bool = True,
                  require_csc: bool = True) -> InsertionResult:
    """Insert a new (internal output) signal according to the partition.

    State identities in the result graph are ``(old_state, level)``
    tuples; the returned :class:`InsertionResult` pairs the graph with
    the :class:`InsertionChanges` summary that incremental resynthesis
    consumes.
    """
    if name in sg.signals:
        raise InsertionError(f"signal name {name!r} already in use")

    new_sg = StateGraph(sg.name, sg.inputs, list(sg.outputs) + [name])

    def copies(state: State) -> List[int]:
        block = partition.block_of(state)
        if block in ("S+", "S-"):
            return [0, 1]
        return [1] if block == "S1" else [0]

    for state in sg.states:
        base = sg.code(state)
        for level in copies(state):
            new_sg.add_state((state, level),
                             FrozenVector({**base.as_dict(), name: level}))

    # x transitions inside the excitation regions.
    for state in partition.er_plus:
        new_sg.add_arc((state, 0), f"{name}+", (state, 1))
    for state in partition.er_minus:
        new_sg.add_arc((state, 1), f"{name}-", (state, 0))

    # Original arcs replicated level-wise.
    for state in sg.states:
        source_levels = copies(state)
        for event, target in sg.successors(state):
            target_levels = copies(target)
            for level in source_levels:
                if level in target_levels:
                    new_sg.add_arc((state, level), event, (target, level))

    initial_level = partition.initial_value(sg.initial)
    new_sg.set_initial((sg.initial, initial_level))
    new_sg.prune_unreachable()

    if verify:
        verify_insertion(sg, new_sg, name, require_csc=require_csc)

    surviving: Dict[State, List[int]] = {}
    for original, level in new_sg.states:
        surviving.setdefault(original, []).append(level)
    split = frozenset(s for s, levels in surviving.items()
                      if len(levels) > 1)
    levels = {s: levels[0] for s, levels in surviving.items()
              if len(levels) == 1}
    return InsertionResult(new_sg,
                           InsertionChanges(name, split, levels))


def verify_insertion(old_sg: StateGraph, new_sg: StateGraph,
                     name: str, require_csc: bool = True) -> None:
    """Full posterior verification of an insertion.

    Checks, in order:

    1. every original state keeps at least one reachable copy (no
       behaviour was amputated);
    2. input events are never delayed: every input event enabled at an
       original state is enabled at *every* reachable copy of it;
    3. the new SG passes the whole SI property suite (consistency,
       determinism, commutativity, output persistency — including the
       inserted signal — and CSC);
    4. the inserted signal actually switches (it would otherwise be
       useless as a decomposition signal).
    """
    reachable: Dict[State, List[int]] = {}
    for state in new_sg.states:
        original, level = state
        reachable.setdefault(original, []).append(level)

    for state in old_sg.states:
        if state not in reachable:
            raise InsertionError(
                f"insertion of {name!r} makes original state {state!r} "
                "unreachable")

    for state in old_sg.states:
        inputs_enabled = [e for e in old_sg.enabled(state)
                          if old_sg.is_input_event(e)]
        if not inputs_enabled:
            continue
        for level in reachable[state]:
            enabled_here = set(new_sg.enabled((state, level)))
            for event in inputs_enabled:
                if event not in enabled_here:
                    raise InsertionError(
                        f"input event {event} is delayed by {name!r} at "
                        f"state {state!r} (level {level})")

    report = check_speed_independence(new_sg)
    ok = report.implementable if require_csc else (
        report.speed_independent and not report.consistency)
    if not ok:
        raise InsertionError(
            f"insertion of {name!r} breaks the specification: "
            + "; ".join(report.all_violations()[:3]))

    fires = any(event in (f"{name}+", f"{name}-")
                for state in new_sg.states
                for event, _ in new_sg.successors(state))
    if not fires:
        raise InsertionError(f"inserted signal {name!r} never fires")
