"""Workload inputs: circuit lists, job parameter sets and the seeded
request sequence of the service mix.

Pure standard library, so the orchestrator can plan a run before it
imports anything from the program under test.  README.md explains why
each circuit and parameter set is here.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple, Union

#: map-heavy: a cold serial battery; ``map`` is over 99% of its time
MAP_HEAVY = ("seq_mix", "trimos-send", "mmu", "sbuf-send-pkt2",
             "sbuf-ram-write", "nak-pa", "mr1")

#: warm-store: the documented ``report --cache-dir`` re-run over the
#: repository's representative subset (``repro.bench_suite.SUBSET``,
#: copied so the plan needs no import of the program)
WARM_STORE = ("chu133", "converta", "dff", "half", "hazard", "nowick",
              "rcv-setup", "vbe5b", "vbe6a", "mp-forward-pkt",
              "alloc-outbound", "seq_mix", "trimos-send", "mr1",
              "wrdatab", "vbe10b")

#: service-mix: the 15 small suite circuits plus three mid-size ones
SERVICE_CIRCUITS = ("alloc-outbound", "chu133", "chu150", "converta",
                    "dff", "ebergen", "half", "hazard",
                    "mp-forward-pkt", "nowick", "rcv-setup", "rpdft",
                    "vbe5b", "vbe5c", "vbe6a",
                    "seq_mix", "trimos-send", "mmu")

#: service-mix job parameters as ``(libraries, with_siegel)``; their
#: mapping batteries overlap, so a known circuit with new parameters
#: reuses shared artifacts and computes only the maps it lacks
PARAM_SETS: Tuple[Tuple[Tuple[int, ...], bool], ...] = (
    ((2, 3, 4), True),
    ((2,), True),
    ((3, 4), False),
    ((2, 3), True),
)

#: the default battery ``run_battery`` runs (the batch workloads)
DEFAULT_PARAMS: Tuple[Tuple[int, ...], bool] = ((2, 3, 4), True)

#: requests in one service-mix round; every (circuit, params) pair is
#: requested once as new work, the rest are exact repeats
SERVICE_REQUESTS = 300


def params_query(libraries: Tuple[int, ...], with_siegel: bool) -> str:
    """The job query string of a parameter set, the same text
    ``JobParams.to_query`` produces."""
    query = "k=" + ",".join(str(k) for k in libraries)
    return query if with_siegel else query + "&siegel=0"


def reference_key(circuit: str, libraries: Tuple[int, ...],
                  with_siegel: bool) -> str:
    """The key of one (circuit, params) pair in reference.json."""
    return f"{circuit}?{params_query(libraries, with_siegel)}"


def permuted(names: Tuple[str, ...], rng: random.Random) -> List[str]:
    order = list(names)
    rng.shuffle(order)
    return order


def service_sequence(seed: Union[int, str]) -> List[Dict[str, object]]:
    """The service-mix request sequence for ``seed``.

    Every (circuit, params) pair appears once as new work, at random
    positions (the first request is always new); every other request
    repeats a pair already sent.  So the counts of each request kind
    are the same for every seed and only the order varies: a seed
    changes which requests overlap, not how much work a round holds.
    """
    rng = random.Random(seed)
    pairs = [(circuit, index) for circuit in SERVICE_CIRCUITS
             for index in range(len(PARAM_SETS))]
    rng.shuffle(pairs)
    new_at = set([0] + rng.sample(range(1, SERVICE_REQUESTS),
                                  len(pairs) - 1))
    fresh = iter(pairs)
    sent: List[Tuple[str, int]] = []
    seen_circuits = set()
    sequence: List[Dict[str, object]] = []
    for position in range(SERVICE_REQUESTS):
        if position in new_at:
            circuit, index = next(fresh)
            kind = ("new_params" if circuit in seen_circuits
                    else "first_sight")
            sent.append((circuit, index))
            seen_circuits.add(circuit)
        else:
            circuit, index = rng.choice(sent)
            kind = "repeat"
        libraries, with_siegel = PARAM_SETS[index]
        sequence.append({"circuit": circuit,
                         "libraries": list(libraries),
                         "with_siegel": with_siegel, "kind": kind})
    return sequence
