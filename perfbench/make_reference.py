"""Regenerate reference.json: the canonical Table-1 row of every
(circuit, params) pair any workload produces.

    PYTHONPATH=src python3 perfbench/make_reference.py

Rows come from the library pipeline: by benchmark name for the batch
workloads, from the canonical ``.g`` text for service jobs.  Only
regenerate after a deliberate behaviour change; the traced map-heavy
run cross-checks the mappings with ``repro.verify``.
"""

from __future__ import annotations

import json
import os
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    from repro.bench_suite import benchmark
    from repro.dist.jobs import canonical_row_bytes
    from repro.pipeline import Pipeline, PipelineConfig
    from repro.stg.writer import write_g

    # batch workloads run benchmarks by name; service jobs submit the
    # canonical .g text.  A pair both produce must get one row.
    sources = [(name, workloads.DEFAULT_PARAMS, name)
               for name in sorted(set(workloads.MAP_HEAVY
                                      + workloads.WARM_STORE))]
    sources += [(name, params, (name, write_g(benchmark(name))))
                for name in workloads.SERVICE_CIRCUITS
                for params in workloads.PARAM_SETS]
    rows = {}
    for name, (libraries, with_siegel), source in sources:
        pipeline = Pipeline(PipelineConfig(
            libraries=libraries, with_siegel=with_siegel,
            keep_artifacts=False))
        row = canonical_row_bytes(pipeline.run(source).row)
        key = workloads.reference_key(name, libraries, with_siegel)
        if rows.setdefault(key, row.decode("utf-8")) != row.decode():
            raise SystemExit(f"{key}: the by-name and .g-text runs "
                             "disagree")
        print(key, flush=True)
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"rows": rows}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
