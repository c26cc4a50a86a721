"""The si-mapper benchmark of record.

    python3 perfbench/run.py --workload map-heavy --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source checkout.  Every workload runs in fresh
interpreters (``worker.py``), so module-level memo caches of the
program never carry over between runs.  With ``--trace 0`` the last
stdout line is a JSON object with every end-to-end metric; with
``--trace 1`` it has every per-layer metric from a separate traced
run, whose wrappers are in ``layers.py``.  Every row the program
produces is compared byte for byte with ``reference.json``.  README.md
explains the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
WORK = os.path.join(HERE, ".work")

#: extra interpreters per run that only set up, for the setup_s median
SETUP_PROBES = 4
#: a run must exit within 180 s; workers are killed after this
RUN_DEADLINE_SECONDS = 170.0

END_TO_END = (("setup_s", "s"), ("battery_s", "s"),
              ("jobs_per_s", "1/s"), ("job_p50_s", "s"),
              ("job_p95_s", "s"), ("peak_rss_mb", "MB"),
              ("success_frac", "ratio"))

_SPANS = ("boolean.minimize", "boolean.generate_divisors",
          "synthesis.synthesize_all", "synthesis.synthesize_signal",
          "synthesis.resynthesize_signal", "mapping.map",
          "mapping.compute_insertion_sets", "mapping.insert_signal",
          "mapping.verify_insertion", "sg.check_speed_independence",
          "mapping.check_property_31", "mapping.estimate_global_impact",
          "sg.state_graph_of", "stg.parse_g", "stg.write_g",
          "pipeline.run", "pipeline.store.get", "pipeline.store.put",
          "dist.envelope.decode", "dist.envelope.encode")
#: spans that also report calls that raised (as ``failed`` or, for
#: the posterior insertion check, ``rejected``)
_FAILED = {"boolean.minimize": "failed",
           "mapping.compute_insertion_sets": "failed",
           "mapping.insert_signal": "failed",
           "mapping.verify_insertion": "rejected"}

PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    [(f"{span}.calls", "count") for span in _SPANS]
    + [(f"{span}.self_s", "s") for span in _SPANS]
    + [(f"{span}.{label}", "count") for span, label in _FAILED.items()]
    + [("synthesis.resynthesize_signal.reused", "count"),
       ("synthesis.reuse_ratio", "ratio"),
       ("mapping.map.ni", "count"), ("mapping.map.ni_s", "s"),
       ("mapping.steps_accepted", "count"),
       ("mapping.accept_ratio", "ratio"),
       ("sg.peak_states", "states")]
    + [(f"pipeline.stage.{stage}_s", "s")
       for stage in ("load", "reach", "synthesize", "map", "report")]
    + [("pipeline.cache.hits", "count"),
       ("pipeline.cache.misses", "count"),
       ("pipeline.cache.store_fills", "count"),
       ("pipeline.store.get.bytes", "bytes"),
       ("pipeline.store.put.bytes", "bytes"),
       ("pipeline.store.hit_ratio", "ratio"),
       ("pipeline.store.errors", "count"),
       ("dist.client.jobs", "count"),
       ("dist.client.poll_interval_s", "s"),
       ("dist.client.submit_s_p50", "s"),
       ("dist.client.poll_s_p50", "s"),
       ("dist.client.polls_per_job", "count"),
       ("dist.jobs.wait_s_p50", "s"), ("dist.jobs.wait_s_p95", "s"),
       ("dist.jobs.run_s_p50", "s"), ("dist.jobs.run_s_p95", "s"),
       ("dist.jobs.dedupe_ratio", "ratio"),
       ("dist.jobs.failed", "count"),
       ("dist.daemon.cpu_s", "s"),
       ("dist.mix.first_sight_share", "ratio"),
       ("dist.mix.new_params_share", "ratio"),
       ("dist.mix.repeat_share", "ratio"),
       ("verify.verify_implementation.calls", "count"),
       ("verify.verify_implementation.failed", "count"),
       ("verify.weakly_bisimilar.calls", "count"),
       ("verify.weakly_bisimilar.failed", "count"),
       ("obs.trace_overhead_frac", "ratio")])

#: the benchmark's self-test: layer metrics that must be nonzero (or
#: zero) on a workload.  A rename in the program that silently zeroes
#: a metric fails the run here.
EXPECT: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "map-heavy": {
        "nonzero": (
            "boolean.minimize.calls", "boolean.generate_divisors.calls",
            "synthesis.synthesize_all.calls",
            "synthesis.synthesize_signal.calls",
            "synthesis.resynthesize_signal.calls",
            "synthesis.resynthesize_signal.reused",
            "mapping.map.calls", "mapping.map.ni", "mapping.map.ni_s",
            "mapping.steps_accepted",
            "mapping.compute_insertion_sets.calls",
            "mapping.insert_signal.calls",
            "mapping.verify_insertion.calls",
            "sg.check_speed_independence.calls",
            "mapping.check_property_31.calls",
            "mapping.estimate_global_impact.calls",
            "sg.state_graph_of.calls", "sg.peak_states",
            "stg.write_g.calls", "pipeline.run.calls",
            "pipeline.stage.map_s", "pipeline.cache.misses",
            "verify.verify_implementation.calls",
            "verify.weakly_bisimilar.calls"),
        "zero": (
            "pipeline.store.get.calls", "pipeline.store.put.calls",
            "dist.envelope.decode.calls", "dist.envelope.encode.calls",
            "verify.verify_implementation.failed",
            "verify.weakly_bisimilar.failed")},
    "warm-store": {
        "nonzero": (
            "pipeline.run.calls", "pipeline.store.get.calls",
            "pipeline.store.get.bytes", "dist.envelope.decode.calls",
            "stg.write_g.calls", "pipeline.cache.store_fills",
            "pipeline.store.hit_ratio"),
        "zero": (
            "boolean.minimize.calls", "mapping.map.calls",
            "sg.state_graph_of.calls", "synthesis.synthesize_all.calls",
            "pipeline.cache.misses", "pipeline.store.put.calls",
            "dist.envelope.encode.calls", "pipeline.store.errors")},
    "service-mix": {
        "nonzero": (
            "boolean.minimize.calls", "mapping.map.calls",
            "synthesis.resynthesize_signal.calls",
            "sg.state_graph_of.calls", "stg.parse_g.calls",
            "stg.write_g.calls", "pipeline.run.calls",
            "pipeline.cache.hits", "pipeline.store.put.calls",
            "pipeline.store.put.bytes", "dist.envelope.encode.calls",
            "dist.client.submit_s_p50", "dist.client.polls_per_job",
            "dist.jobs.run_s_p50", "dist.jobs.dedupe_ratio",
            "dist.daemon.cpu_s",
            "dist.mix.first_sight_share", "dist.mix.new_params_share",
            "dist.mix.repeat_share"),
        "zero": ("dist.jobs.failed", "pipeline.store.errors")},
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# ----------------------------------------------------------------------
# Process management
# ----------------------------------------------------------------------

class Runner:
    """Spawns workers in fresh interpreters under one run deadline."""

    def __init__(self, work: str):
        self.work = work
        self.deadline = time.monotonic() + RUN_DEADLINE_SECONDS
        self.count = 0
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("SI_MAPPER_")}
        self.env.update(PYTHONPATH=SOURCE, PYTHONHASHSEED="0",
                        TMPDIR=work)

    def worker(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        self.count += 1
        spec_path = os.path.join(self.work, f"spec-{self.count}.json")
        out_path = os.path.join(self.work, f"out-{self.count}.json")
        spec = dict(spec, reference=REFERENCE, work=self.work)
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        spawned = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path,
             out_path], cwd=ROOT, env=self.env, start_new_session=True)
        try:
            code = process.wait(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            process.kill()
            process.wait()
            _reap_group(process.pid)
        if code != 0:
            raise BenchError(f"{spec['task']} worker "
                             + ("timed out" if code is None
                                else f"exited with code {code}"))
        with open(out_path, encoding="utf-8") as handle:
            result = json.load(handle)
        if "ready" in result:
            result["setup_s"] = result["ready"] - spawned
        return result

    def setups(self, circuits) -> List[float]:
        return [self.worker({"task": "setup",
                             "circuits": list(circuits)})["setup_s"]
                for _ in range(SETUP_PROBES)]


def _reap_group(group: int) -> None:
    """Kill what is left of a worker's session (a daemon it started)
    and wait until the whole group is gone."""
    for _ in range(100):
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise BenchError(f"processes of group {group} did not stop")


def source_digest() -> str:
    """SHA-256 over the program's Python sources."""
    digest = hashlib.sha256()
    package = os.path.join(SOURCE, "repro")
    for directory, subdirs, files in os.walk(package):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SOURCE).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def warm_store(runner: Runner) -> str:
    """The warm-store directory for this source tree, filled by the
    code under test on first use.  It is keyed by the source digest,
    so two versions of the program never share one."""
    store = os.path.join(WORK, f"store-{source_digest()[:16]}")
    if os.path.isdir(store):
        return store
    filling = os.path.join(runner.work, "fill")
    fill = runner.worker({"task": "fill",
                          "circuits": list(workloads.WARM_STORE),
                          "cache_dir": filling})
    if fill["failures"]:
        raise BenchError("filling the warm store failed: "
                         + "; ".join(fill["failures"]))
    try:
        os.rename(filling, store)
    except OSError:
        if not os.path.isdir(store):
            raise
    return store


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def percentile(values: List[float], share: float) -> float:
    """Linear-interpolated percentile (``share`` in 0..1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(setups, passes, rates, job_seconds, rss_mb, attempted,
               failed):
    """The end-to-end metrics; ``passes`` are the wall times of whole
    passes (rounds) and ``rates`` their correct rows per second."""
    above = sum(value > percentile(job_seconds, 0.95)
                for value in job_seconds)
    print(f"samples: {len(setups)} set-ups, {len(passes)} passes, "
          f"{len(job_seconds)} job times ({above} above p95)")
    return {"setup_s": statistics.median(setups),
            "battery_s": statistics.median(passes),
            "jobs_per_s": statistics.median(rates),
            "job_p50_s": percentile(job_seconds, 0.50),
            "job_p95_s": percentile(job_seconds, 0.95),
            "peak_rss_mb": rss_mb,
            "success_frac": (attempted - failed) / attempted}


def layer_metrics(snapshot, per: int, stage_s: Dict[str, float],
                  cache: Dict[str, float], store: Dict[str, float],
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric; totals are per pass (batch) or per round
    (service-mix), so they do not depend on how many fit in a run."""
    values: Dict[str, float] = {}
    spans = snapshot["spans"]
    for span in _SPANS + ("verify.verify_implementation",
                          "verify.weakly_bisimilar"):
        data = spans.get(span, {})
        values[f"{span}.calls"] = data.get("calls", 0) / per
        values[f"{span}.self_s"] = data.get("self_s", 0.0) / per
        values[f"{span}.failed"] = data.get("failed", 0) / per
    values["mapping.verify_insertion.rejected"] = \
        values["mapping.verify_insertion.failed"]
    for name, value in snapshot["counts"].items():
        values[name] = value if name == "sg.peak_states" else value / per
    resynth = values["synthesis.resynthesize_signal.calls"]
    values["synthesis.reuse_ratio"] = (
        values.get("synthesis.resynthesize_signal.reused", 0) / resynth
        if resynth else 0.0)
    inserted = values["mapping.insert_signal.calls"]
    values["mapping.accept_ratio"] = (
        values.get("mapping.steps_accepted", 0) / inserted
        if inserted else 0.0)
    for stage, seconds in stage_s.items():
        values[f"pipeline.stage.{stage}_s"] = seconds / per
    values["pipeline.cache.hits"] = cache.get("hits", 0) / per
    values["pipeline.cache.misses"] = cache.get("misses", 0) / per
    values["pipeline.cache.store_fills"] = cache.get("store_fills", 0) / per
    values["pipeline.store.get.bytes"] = store.get("bytes_read", 0) / per
    values["pipeline.store.put.bytes"] = store.get("bytes_written", 0) / per
    lookups = sum(store.get(key, 0)
                  for key in ("hits", "misses", "stale", "errors"))
    values["pipeline.store.hit_ratio"] = (store.get("hits", 0) / lookups
                                          if lookups else 0.0)
    values["pipeline.store.errors"] = (store.get("stale", 0)
                                       + store.get("errors", 0)) / per
    values.update(extra)
    return {name: values.get(name, 0.0) for name, _ in PER_LAYER}


def self_test(workload: str, values: Dict[str, float]) -> List[str]:
    expect = EXPECT[workload]
    problems = [f"{name} is 0 on {workload}; expected nonzero"
                for name in expect["nonzero"] if not values[name]]
    problems += [f"{name} is {values[name]} on {workload}; expected 0"
                 for name in expect["zero"] if values[name]]
    return problems


def _batch_cache_store(cache: Dict[str, float]):
    """Cache and store counters from summed ``RunRecord.stats``."""
    return ({"hits": cache.get("cache_hits", 0),
             "misses": cache.get("cache_misses", 0),
             "store_fills": cache.get("disk_hits", 0)},
            {key: cache.get(f"disk_{key}", 0)
             for key in ("hits", "misses", "stale", "errors",
                         "bytes_read", "bytes_written")})


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def batch_workload(runner: Runner, workload: str, seed: int,
                   seconds: float, trace: bool):
    if workload == "map-heavy":
        circuits, cache_dir = workloads.MAP_HEAVY, None
    else:
        circuits, cache_dir = workloads.WARM_STORE, warm_store(runner)
    spec = {"task": "battery", "circuits": list(circuits),
            "cache_dir": cache_dir, "seed": seed, "seconds": seconds,
            "trace": 0}
    if not trace:
        setups = runner.setups(circuits)
        main = runner.worker(spec)
        setups.append(main["setup_s"])
        attempted = main["attempted"]
        # a job is one circuit's battery on warm-store (over a thousand
        # per run); on map-heavy it is the whole report, because its 7
        # circuit times per run are too few for a steady percentile
        jobs = main["passes"] if workload == "map-heavy" else main["item_s"]
        return (end_to_end(setups, main["passes"], main["rates"], jobs,
                           main["rss_mb"], attempted,
                           len(main["failures"])),
                attempted, main["failures"])

    # the untraced reference and the traced run alternate in fresh
    # processes; map-heavy has room for one whole pass on each side
    pairs = 1 if workload == "map-heavy" else 2
    share = seconds if pairs == 1 else seconds / (2 * pairs)
    plain, traced = [], []
    for _ in range(pairs):
        plain.append(runner.worker(dict(spec, seconds=share)))
        traced.append(runner.worker(dict(
            spec, seconds=share, trace=1,
            verify=workload == "map-heavy")))
    problems = [reason for result in plain + traced
                for reason in result["failures"]]
    attempted = sum(result["attempted"] for result in plain + traced)
    for result in traced:
        if result["verified"]:
            problems += result["verified"]["failures"]
            attempted += result["verified"]["mappings"]

    def passes(results):
        return [seconds for result in results
                for seconds in result["passes"]]

    extra = {"obs.trace_overhead_frac":
             statistics.median(passes(traced))
             / statistics.median(passes(plain)) - 1.0}
    stage_s: Dict[str, float] = {}
    summed: Dict[str, float] = {}
    for result in traced:
        for totals, part in ((stage_s, result["stage_s"]),
                             (summed, result["cache"])):
            for key, value in part.items():
                totals[key] = totals.get(key, 0) + value
    cache, store = _batch_cache_store(summed)
    snapshot = layers.merge([result["layers"] for result in traced])
    values = layer_metrics(snapshot, len(passes(traced)), stage_s,
                           cache, store, extra)
    return values, attempted, problems


def service_workload(runner: Runner, seed: int, seconds: float,
                     trace: bool):
    load = runner.worker({"task": "load", "seed": seed,
                          "seconds": seconds, "trace": int(trace),
                          "setup_probes": 0 if trace else SETUP_PROBES})
    rounds = load["rounds"]
    attempted = sum(len(round_["jobs"]) for round_ in rounds)
    problems = [job["error"] for round_ in rounds
                for job in round_["jobs"] if "error" in job]
    plain = [round_ for round_ in rounds if not round_["traced"]]
    if not trace:
        jobs = [job for round_ in plain for job in round_["jobs"]]
        rates = [sum("error" not in job for job in round_["jobs"])
                 / round_["wall_s"] for round_ in plain]
        values = end_to_end(
            load["setups"] + [round_["setup_s"] for round_ in plain],
            [round_["wall_s"] for round_ in plain], rates,
            [job["seconds"] for job in jobs if "error" not in job],
            statistics.median(round_["rss_mb"] for round_ in plain),
            attempted, len(problems))
        return values, attempted, problems

    traced = [round_ for round_ in rounds if round_["traced"]]
    jobs = [job for round_ in traced for job in round_["jobs"]]

    def p50_of(chosen):
        return percentile([job["seconds"] for round_ in chosen
                           for job in round_["jobs"]
                           if "error" not in job], 0.5)

    status = [doc for round_ in traced for doc in round_["status"]]
    waits = [doc.get("wait_seconds", 0.0) for doc in status]
    runs = [doc.get("run_seconds", 0.0) for doc in status]
    stage_s: Dict[str, float] = {}
    for doc in status:
        for stage, value in doc.get("timings", {}).items():
            stage_s[stage] = stage_s.get(stage, 0.0) + value
    per = len(traced)
    stats = [round_["stats"] for round_ in traced]
    submitted = sum(s["jobs"]["submitted"] for s in stats)
    deduplicated = sum(s["jobs"]["deduplicated"] for s in stats)
    kinds = [request["kind"] for request in load["sequence"]]
    extra = {
        "dist.client.jobs": len(jobs) / per,
        "dist.client.poll_interval_s": load["poll_s"],
        "dist.client.submit_s_p50": percentile(
            [job["submit_s"] for job in jobs if "submit_s" in job], 0.5),
        "dist.client.poll_s_p50": percentile(
            [poll for job in jobs for poll in job["polls"]], 0.5),
        "dist.client.polls_per_job": statistics.mean(
            len(job["polls"]) for job in jobs),
        "dist.jobs.wait_s_p50": percentile(waits, 0.5),
        "dist.jobs.wait_s_p95": percentile(waits, 0.95),
        "dist.jobs.run_s_p50": percentile(runs, 0.5),
        "dist.jobs.run_s_p95": percentile(runs, 0.95),
        "dist.jobs.dedupe_ratio": deduplicated / (submitted
                                                  + deduplicated),
        "dist.jobs.failed": sum(s["jobs"]["failed"] for s in stats) / per,
        "dist.daemon.cpu_s": statistics.median(
            round_["cpu_s"] for round_ in traced),
        "obs.trace_overhead_frac": p50_of(traced) / p50_of(plain) - 1.0,
    }
    for kind in ("first_sight", "new_params", "repeat"):
        extra[f"dist.mix.{kind}_share"] = kinds.count(kind) / len(kinds)
    ops = [round_["cache_ops"] for round_ in traced]
    cache = {"hits": sum(op.get("hit", 0) for op in ops),
             "misses": sum(op.get("miss", 0) for op in ops),
             "store_fills": sum(op.get("store_fill", 0) for op in ops)}
    store: Dict[str, float] = {}
    for s in stats:
        for key, value in s["telemetry"].items():
            store[key[len("disk_"):]] = store.get(key[len("disk_"):], 0) \
                + value
    snapshot = layers.merge([round_["layers"] for round_ in traced])
    values = layer_metrics(snapshot, per, stage_s, cache, store, extra)
    return values, attempted, problems


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def pin_to_one_cpu() -> None:
    """Run the benchmark and every process it starts on one CPU.

    Nothing in a run works in parallel: the orchestrator waits for each
    worker, and a daemon's job workers share one interpreter lock.  On
    two CPUs a service-mix request is a ping-pong that wakes an idle
    virtual CPU at each hop, and on a busy host each wake cost
    milliseconds (README.md, "Noise and bounds")."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(workload: str, seed: int, seconds: float, trace: bool):
    pin_to_one_cpu()
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        runner = Runner(work)
        if workload == "service-mix":
            return service_workload(runner, seed, seconds, trace)
        return batch_workload(runner, workload, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("map-heavy", "warm-store", "service-mix"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"error: no program source under {SOURCE}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    try:
        values, attempted, problems = run(args.workload, args.seed,
                                          args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.trace:
        wiring = self_test(args.workload, values)
        if wiring:
            print("error: layer self-test failed:\n  "
                  + "\n  ".join(wiring), file=sys.stderr)
            return 3
        units = dict(PER_LAYER)
    else:
        units = dict(END_TO_END)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, value in values.items():
        print(f"{name:42} {value:14.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(problems), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
