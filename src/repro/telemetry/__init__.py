"""Sketch-based telemetry in scratch SRAM.

Layout descriptors (:mod:`repro.telemetry.layout`), deterministic hash
families (:mod:`repro.telemetry.hashing`) and generated, certified TPP
update/probe programs (:mod:`repro.telemetry.programs`).  The matching
end-host decoders live in :mod:`repro.analysis.sketch`.
"""

from repro.telemetry.hashing import (
    DEFAULT_HASH_SEED,
    bucket_and_rank,
    hash_index,
    mix32,
    row_params,
)
from repro.telemetry.layout import (
    CountMinLayout,
    DistinctCountLayout,
    HeavyHitterLayout,
    disjoint_keys,
)
from repro.telemetry.programs import (
    PROBE_CHUNK,
    SketchUpdate,
    build_count_min_update,
    build_distinct_update,
    build_heavy_hitter_update,
    build_probe,
    read_sketch,
)

__all__ = [
    "DEFAULT_HASH_SEED",
    "bucket_and_rank",
    "hash_index",
    "mix32",
    "row_params",
    "CountMinLayout",
    "DistinctCountLayout",
    "HeavyHitterLayout",
    "disjoint_keys",
    "PROBE_CHUNK",
    "SketchUpdate",
    "build_count_min_update",
    "build_distinct_update",
    "build_heavy_hitter_update",
    "build_probe",
    "read_sketch",
]
