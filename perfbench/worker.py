"""One benchmark process: runs in a fresh interpreter per call, so the
program's module-level memo caches never carry over between runs.

    python3 perfbench/worker.py SPEC.json OUT.json

``SPEC.json`` names the ``task`` (``setup``, ``battery``, ``fill`` or
``load``) and its inputs; the result lands in ``OUT.json``.  run.py
plans the tasks, reads the results and prints the metrics.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from typing import Any, Dict, List, Optional

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

#: the interval the service-mix clients poll a job's status at
POLL_SECONDS = 0.02
#: a job not done after this long counts as failed (timed out)
JOB_DEADLINE_SECONDS = 60.0


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a process so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def load_reference(path: str) -> Dict[str, str]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["rows"]


def build_inputs(circuits: List[str]) -> Dict[str, Any]:
    """Import the program and build the workload's STGs (set-up)."""
    from repro.bench_suite import benchmark
    from repro.report import run_battery  # noqa: F401 - set-up cost
    return {name: benchmark(name) for name in circuits}


# ----------------------------------------------------------------------
# Batch workloads: run_battery passes
# ----------------------------------------------------------------------

def _check_item(item, reference: Dict[str, str], warm: bool,
                ) -> Optional[str]:
    """Why one battery entry failed, or ``None``."""
    from repro.dist.jobs import canonical_row_bytes
    if not item.ok:
        return f"{item.name}: {item.error}"
    key = workloads.reference_key(item.name, *workloads.DEFAULT_PARAMS)
    row = canonical_row_bytes(item.record.row).decode("utf-8")
    if reference.get(key) != row:
        return f"{item.name}: row differs from the reference"
    if warm:
        stats = item.record.stats
        for counter in ("cache_misses", "disk_misses", "disk_stale",
                        "disk_errors"):
            if stats.get(counter, 0):
                return (f"{item.name}: warm pass saw "
                        f"{counter}={stats[counter]}")
    return None


def run_battery_task(spec: Dict[str, Any], tracer) -> Dict[str, Any]:
    reference = load_reference(spec["reference"])
    circuits = list(spec["circuits"])
    build_inputs(circuits)
    ready = time.monotonic()
    from repro.report import run_battery

    rng = random.Random(spec["seed"])
    budget = float(spec["seconds"])
    cache_dir = spec.get("cache_dir")
    passes: List[float] = []
    rates: List[float] = []
    item_s: List[float] = []
    failures: List[str] = []
    attempted = 0
    stage_s: Dict[str, float] = {}
    cache: Dict[str, int] = {}
    begin = time.perf_counter()
    while True:
        order = workloads.permuted(tuple(circuits), rng)
        start = time.perf_counter()
        items = run_battery(order, jobs=1, cache_dir=cache_dir)
        passes.append(time.perf_counter() - start)
        correct = 0
        for item in items:
            attempted += 1
            item_s.append(item.seconds)
            reason = _check_item(item, reference, cache_dir is not None)
            if reason is None:
                correct += 1
            else:
                failures.append(reason)
            if item.record is None:
                continue
            for timing in item.record.timings:
                stage_s[timing.stage] = (stage_s.get(timing.stage, 0.0)
                                         + timing.seconds)
            for counter, value in item.record.stats.items():
                cache[counter] = cache.get(counter, 0) + value
        rates.append(correct / passes[-1])
        elapsed = time.perf_counter() - begin
        # start another pass only if a typical one still fits
        if elapsed + statistics.median(passes) > budget:
            break

    verified = verify_mappings(tracer) if spec.get("verify") else None
    return {"ready": ready, "passes": passes, "rates": rates,
            "item_s": item_s,
            "attempted": attempted,
            "failures": failures, "stage_s": stage_s, "cache": cache,
            "rss_mb": vm_hwm_mb(), "verified": verified}


def verify_mappings(tracer) -> Dict[str, Any]:
    """Check every successful mapping the battery reported, with the
    verifiers that share no code with synthesis: the gate-level SI
    check and weak bisimulation against the specification graph."""
    from repro.errors import VerificationError
    from repro.verify import verify_implementation, weakly_bisimilar
    check = tracer.wrap("verify.verify_implementation",
                        verify_implementation)
    conform = tracer.wrap("verify.weakly_bisimilar", weakly_bisimilar)
    failures: List[str] = []
    mappings = [(spec, result) for spec, result in tracer.mappings
                if result.success]
    for spec, result in mappings:
        label = f"{result.name}@{result.library}"
        try:
            check(result.sg, result.implementations)
        except VerificationError as error:
            failures.append(f"{label}: {error}")
        hidden = set(result.sg.signals) - set(spec.signals)
        if not conform(spec, result.sg, hidden):
            tracer.add("verify.weakly_bisimilar.failed")
            failures.append(f"{label}: not weakly bisimilar to its "
                            "specification")
    return {"mappings": len(mappings), "failures": failures}


def run_fill_task(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Compute the warm-store artifacts cold, with the code under test."""
    from repro.report import run_battery
    reference = load_reference(spec["reference"])
    items = run_battery(list(spec["circuits"]), jobs=1,
                        cache_dir=spec["cache_dir"])
    failures = [reason for reason in
                (_check_item(item, reference, False) for item in items)
                if reason is not None]
    return {"attempted": len(items), "failures": failures}


# ----------------------------------------------------------------------
# service-mix: a closed loop of clients against a fresh daemon
# ----------------------------------------------------------------------

class Daemon:
    """One ``si-mapper serve`` process on an empty store."""

    def __init__(self, store: str, traced: bool, layers_out: str):
        self.layers_out = layers_out if traced else None
        serve = ["serve", "--cache-dir", store, "--port", "0",
                 "--workers", "2"]
        if traced:
            command = [sys.executable, os.path.join(HERE, "serve.py"),
                       layers_out] + serve
        else:
            command = [sys.executable, "-m", "repro.cli"] + serve
        # an empty store: spilled job rows would turn work into repeats
        shutil.rmtree(store, ignore_errors=True)
        self.log = open(store + ".log", "wb")
        spawned = time.monotonic()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        stderr=self.log)
        try:
            banner = self.process.stdout.readline().decode("utf-8")
            match = re.search(r"at (http://\S+)", banner)
            if match is None:
                self.process.wait(timeout=20)
                with open(store + ".log", encoding="utf-8",
                          errors="replace") as handle:
                    log = handle.read()[-3000:]
                raise RuntimeError(f"daemon did not start; its log:\n{log}")
            self.url = match.group(1).rstrip(",")
            self.get("/healthz")
        except BaseException:
            self._terminate()
            raise
        self.setup_s = time.monotonic() - spawned

    def get(self, path: str) -> bytes:
        with urllib.request.urlopen(self.url + path, timeout=30) as reply:
            return reply.read()

    def stop(self) -> Optional[Dict[str, Any]]:
        """Stop the daemon and wait; the traced launcher's layer
        snapshot, if any."""
        self._terminate()
        if self.layers_out is None:
            return None
        with open(self.layers_out, encoding="utf-8") as handle:
            return json.load(handle)

    def _terminate(self) -> None:
        """SIGTERM, not SIGINT: a process started in the background of
        a non-interactive shell inherits SIGINT ignored."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


def _client_loop(client, requests, lock, g_texts, reference, jobs,
                 rng) -> None:
    """One closed-loop client: take the next request, wait for its row,
    repeat until the sequence is drained.

    The first status poll of a job waits a random share of the poll
    interval, the later ones the whole interval: completions are then
    not phase-locked to the polls, which would bunch the latencies
    into clusters one interval apart and make the p95 jump between
    them from run to run."""
    from repro.dist.jobs import JobParams
    while True:
        with lock:
            if not requests:
                return
            request = requests.pop()
        params = JobParams(libraries=tuple(request["libraries"]),
                           with_siegel=request["with_siegel"])
        key = workloads.reference_key(request["circuit"],
                                      tuple(request["libraries"]),
                                      request["with_siegel"])
        record: Dict[str, Any] = {"kind": request["kind"], "polls": []}
        start = time.perf_counter()
        try:
            accepted = client.submit(g_texts[request["circuit"]], params)
            record["submit_s"] = time.perf_counter() - start
            record["id"] = job_id = accepted["id"]
            state = accepted["state"]
            delay = rng.uniform(0.0, POLL_SECONDS)
            while state != "done":
                if state in ("failed", "cancelled"):
                    raise RuntimeError(f"job {state}")
                if time.perf_counter() - start > JOB_DEADLINE_SECONDS:
                    raise RuntimeError("job timed out")
                time.sleep(delay)
                delay = POLL_SECONDS
                poll_start = time.perf_counter()
                state = client.status(job_id)["state"]
                record["polls"].append(time.perf_counter() - poll_start)
            row = client.result(job_id)
            record["seconds"] = time.perf_counter() - start
            if row is None:
                raise RuntimeError("done job has no result")
            if row.decode("utf-8") != reference.get(key):
                raise RuntimeError("row differs from the reference")
        except Exception as error:  # any failed job is counted, not fatal
            record["error"] = f"{request['circuit']}: {error}"
        with lock:
            jobs.append(record)


def _round(spec, sequence, g_texts, reference, index, traced):
    from repro.dist.client import ServiceClient
    store = os.path.join(spec["work"], f"round-{index}")
    daemon = Daemon(store, traced, store + ".layers.json")
    try:
        client = ServiceClient(daemon.url)
        requests = list(reversed(sequence))
        lock = threading.Lock()
        jobs: List[Dict[str, Any]] = []
        threads = [threading.Thread(
            target=_client_loop,
            args=(client, requests, lock, g_texts, reference, jobs,
                  random.Random(f"{spec['seed']}/{index}/{n}")))
            for n in range(2)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        # server-side timings, read once per distinct job after the
        # timed loop
        status = {}
        for job_id in sorted({job["id"] for job in jobs if "id" in job}):
            status[job_id] = json.loads(daemon.get(f"/jobs/{job_id}"))
        stats = json.loads(daemon.get("/stats"))
        metrics = daemon.get("/metrics").decode("utf-8")
        rss_mb = vm_hwm_mb(str(daemon.process.pid))
        cpu_s = cpu_seconds(daemon.process.pid)
    finally:
        snapshot = daemon.stop()
    cache_ops = {op: float(value) for op, value in re.findall(
        r'^si_cache_ops_total\{op="(\w+)"\} (\S+)$', metrics, re.M)}
    return {"traced": traced, "setup_s": daemon.setup_s, "wall_s": wall,
            "jobs": jobs, "status": list(status.values()),
            "stats": stats, "cache_ops": cache_ops, "rss_mb": rss_mb,
            "cpu_s": cpu_s,
            "layers": snapshot}


def run_load_task(spec: Dict[str, Any]) -> Dict[str, Any]:
    from repro.stg.writer import write_g
    stgs = build_inputs(list(workloads.SERVICE_CIRCUITS))
    g_texts = {name: write_g(stg) for name, stg in stgs.items()}
    reference = load_reference(spec["reference"])
    budget = float(spec["seconds"])
    # extra daemon starts on empty stores, for the setup_s median
    setups = []
    for index in range(spec["setup_probes"]):
        daemon = Daemon(os.path.join(spec["work"], f"probe-{index}"),
                        False, "")
        daemon.stop()
        setups.append(daemon.setup_s)
    rounds: List[Dict[str, Any]] = []
    sent: List[Dict[str, Any]] = []
    begin = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced rounds, so the
        # tracing overhead compares rounds of one process and seed
        traced = bool(spec["trace"]) and len(rounds) % 2 == 1
        # every round sends its own order of the same requests, so a
        # run's latencies do not hang on one order's overlaps
        sequence = workloads.service_sequence(
            f"{spec['seed']}/{len(rounds)}")
        sent += sequence
        started = time.perf_counter()
        rounds.append(_round(spec, sequence, g_texts, reference,
                             len(rounds), traced))
        took = time.perf_counter() - started
        elapsed = time.perf_counter() - begin
        need = 2 if spec["trace"] else 1
        if len(rounds) >= need and elapsed + took > budget:
            break
    return {"setups": setups, "rounds": rounds, "sequence": sent,
            "poll_s": POLL_SECONDS}


def main(argv: List[str]) -> int:
    spec_path, out_path = argv
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    task = spec["task"]
    tracer = None
    if spec.get("trace") and task == "battery":
        tracer = layers.LayerTracer()
        tracer.keep_mappings = bool(spec.get("verify"))
        tracer.install()
    if task == "setup":
        build_inputs(list(spec["circuits"]))
        result: Dict[str, Any] = {"ready": time.monotonic()}
    elif task == "battery":
        result = run_battery_task(spec, tracer)
        result["layers"] = tracer.snapshot() if tracer else None
    elif task == "fill":
        result = run_fill_task(spec)
    elif task == "load":
        result = run_load_task(spec)
    else:
        raise SystemExit(f"unknown task {task!r}")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
