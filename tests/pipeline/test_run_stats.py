"""``RunRecord.stats``: the counter contract and per-run attribution.

Each run counts its own cache and store traffic in a counter scope,
so a run on a cache shared with concurrent runs reports exactly what
it would report alone.  The key set is pinned here because
``perfbench`` reads it with ``stats.get(key, 0)``: a renamed key would
otherwise read as a silent zero."""

import threading

from repro.dist.server import ArtifactServer
from repro.obs.metrics import use_registry
from repro.pipeline import Pipeline, PipelineConfig
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.context import SynthesisContext

STORE_FIELDS = ("hits", "misses", "stale", "errors", "writes",
                "write_skips", "bytes_read", "bytes_written")

#: the cache/store keys every record carries, zero-filled, in order
COUNTER_KEYS = (["cache_hits", "cache_misses"]
                + [f"disk_{name}" for name in STORE_FIELDS]
                + [f"remote_{name}" for name in STORE_FIELDS])

#: the per-context artifact and resynthesis counters
CONTEXT_KEYS = ["stg", "sg", "check", "csc", "implementations",
                "netlist", "map", "signals_resynthesized",
                "signals_reused", "signals_skipped"]

QUICK = dict(libraries=(2,), with_siegel=False, keep_artifacts=False)


def run(name, **config):
    return Pipeline(PipelineConfig(**{**QUICK, **config})).run(name)


class TestCounterContract:
    def test_memory_only_run_keys(self):
        with use_registry():
            record = run("half")
        assert list(record.stats) == CONTEXT_KEYS + COUNTER_KEYS
        assert record.stats["cache_misses"] > 0
        assert not any(record.stats[key] for key in COUNTER_KEYS
                       if key.startswith(("disk_", "remote_")))

    def test_cache_dir_run_keys(self, tmp_path):
        with use_registry():
            cold = run("half", cache_dir=str(tmp_path))
            warm = run("half", cache_dir=str(tmp_path))
        for record in (cold, warm):
            assert list(record.stats) == CONTEXT_KEYS + COUNTER_KEYS
        assert cold.stats["disk_writes"] == cold.stats["cache_misses"]
        assert warm.stats["cache_misses"] == 0
        assert warm.stats["disk_hits"] == cold.stats["disk_writes"]
        assert warm.stats["disk_bytes_read"] \
            == cold.stats["disk_bytes_written"]

    def test_tiered_run_keys(self, tmp_path):
        with use_registry():
            server = ArtifactServer(str(tmp_path / "srv")) \
                .start_background()
            try:
                cold = run("half", cache_dir=str(tmp_path / "a"),
                           cache_url=server.url)
                warm = run("half", cache_dir=str(tmp_path / "b"),
                           cache_url=server.url)
                telemetry = server.stats_payload()["telemetry"]
            finally:
                server.stop()
        for record in (cold, warm):
            assert list(record.stats) == CONTEXT_KEYS + COUNTER_KEYS
        assert cold.stats["remote_writes"] == cold.stats["disk_writes"]
        assert warm.stats["remote_hits"] == cold.stats["remote_writes"]
        # the daemon's own store reports under disk_* on /stats
        assert list(telemetry) == [f"disk_{name}"
                                   for name in STORE_FIELDS]
        assert telemetry["disk_writes"] == cold.stats["remote_writes"]


    def test_s3_tier_reports_as_remote(self, tmp_path):
        from tests.dist.s3fake import FakeS3Server
        with use_registry():
            s3 = FakeS3Server().start_background()
            try:
                record = run("half", cache_dir=str(tmp_path),
                             cache_s3=s3.url + "/bucket/prefix")
            finally:
                s3.stop()
        assert list(record.stats) == CONTEXT_KEYS + COUNTER_KEYS
        assert record.stats["remote_writes"] == record.stats["disk_writes"]
        assert record.stats["remote_bytes_written"] \
            == record.stats["disk_bytes_written"]


def test_preexisting_counters_still_diff():
    """A warm second run on the same cache reports its own traffic:
    hits, no misses — not the cache's lifetime totals."""
    with use_registry():
        cache = ArtifactCache()
        config = PipelineConfig(**QUICK)
        pipeline = Pipeline(config, cache=cache)
        first = pipeline.run("half")
        second = pipeline.run("half")
    assert first.stats["cache_misses"] > 0
    assert second.stats["cache_hits"] > 0
    assert second.stats["cache_misses"] == 0


def test_pipeline_emits_stage_events():
    events = []
    record = Pipeline(PipelineConfig(**QUICK)).run(
        "half", on_stage=lambda stage, seconds: events.append(
            (stage, seconds)))
    assert record.row is not None
    stages = [stage for stage, seconds in events if seconds is None]
    assert stages == ["load", "reach", "synthesize", "map", "report"]
    done = [stage for stage, seconds in events if seconds is not None]
    assert done == stages
    assert all(seconds >= 0 for _, seconds in events
               if seconds is not None)
    # each stage ends before the next one starts
    assert [stage for stage, _ in events] == [
        stage for stage in stages for _ in range(2)]


def arm_rendezvous(monkeypatch):
    """Make the next two pipeline runs meet inside their first
    ``state_graph`` call, so they genuinely overlap on the cache."""
    barrier = threading.Barrier(2, timeout=30.0)
    local = threading.local()
    original = SynthesisContext.state_graph

    def synchronized(self):
        if not getattr(local, "met", False):
            local.met = True
            barrier.wait()
        return original(self)

    monkeypatch.setattr(SynthesisContext, "state_graph", synchronized)


def test_raced_runs_on_one_cache_report_their_solo_stats(monkeypatch):
    names = ("seq_mix", "hazard")
    config = PipelineConfig(keep_artifacts=False)
    with use_registry():
        # solo reference: each circuit alone on a cache of its own
        solo = {name: Pipeline(config, cache=ArtifactCache()).run(name)
                for name in names}
        arm_rendezvous(monkeypatch)
        shared = ArtifactCache()
        raced, errors = {}, []

        def race(name):
            try:
                raced[name] = Pipeline(config, cache=shared).run(name)
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        threads = [threading.Thread(target=race, args=(name,))
                   for name in names]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    assert not errors
    for name in names:
        assert raced[name].stats == solo[name].stats, name
