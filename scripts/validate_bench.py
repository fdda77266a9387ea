#!/usr/bin/env python3
"""Validate BENCH_planner.json, BENCH_sim.json and BENCH_ctrl.json files.

Usage: validate_bench.py FILE [FILE...]

Hand-rolled structural validator (the CI image has no jsonschema
package). Each file is recognised by its headline speedup column, then
checked against its schema in docs/benchmarks.md: the exact top-level
and per-cell key sets, provenance, and the acceptance bars that a
committed full recording must carry. Quick re-runs are gated with
slack by the bins' own --check. Exit status 0 iff every file validates.
"""
import json
import sys

ENVELOPE = set("schema_version created_unix rustc commit cores quick "
               "repeats grid".split())
# Planner columns every cell measures, then the QMC and ResilientRod
# legs a sparse cell skips (recorded as null).
PLANNER_MEASURED = set("name inputs ops nodes samples nnz plan_seconds "
                       "candidates_scored hier_plan_seconds".split())
SPARSE_SKIPPED = set("scalar_estimate_seconds kernel_estimate_seconds "
                     "kernel_speedup simd simd_estimate_seconds simd_speedup "
                     "feasible_ratio threads resilient_serial_seconds "
                     "resilient_pooled_seconds resilient_speedup".split())
PLANNER_CELL = PLANNER_MEASURED | SPARSE_SKIPPED
SIM_CELL = set("name rate horizon_seconds tuples reference_seconds "
               "batched_seconds reference_tuples_per_sec "
               "batched_tuples_per_sec batch_speedup max_batch "
               "bucket_seconds".split())
CTRL_CELL = set("name lines stream_bytes line_seconds batched_seconds "
                "line_samples_per_sec batched_samples_per_sec "
                "ingest_speedup max_batch".split())

# The gates, each stated once.
SPARSE_PROBE_FRACTION = 0.5  # probes < this x ops x nodes
SIMD_MIN_SPEEDUP = 2.0       # best AVX2 cell of a full planner recording
SIM_CELL_NAME, SIM_MIN_RATE, SIM_MIN_SPEEDUP = "chain_1m", 1e6, 10.0
CTRL_CELL_NAME, CTRL_MIN_SPEEDUP = "ingest_1m", 5.0
CTRL_QUICK_LOOP = "loop_m5k_n64"  # the loop at surge scale, in every run
CTRL_LOOP_NAME, CTRL_LOOP_MIN_SPS = "loop_m50k_n1000", 5000.0


def check_planner(doc, err):
    saw_large_sparse = False
    for cell in doc["grid"]:
        name = cell["name"]
        if cell["nnz"] < cell["ops"]:
            err(f"{name}: nnz {cell['nnz']} < ops {cell['ops']}")
        if cell["candidates_scored"] < 1:
            err(f"{name}: no candidates scored")
        if not cell["hier_plan_seconds"] > 0:
            err(f"{name}: hier_plan_seconds not positive")
        if name.startswith("sparse_"):
            for key in sorted(SPARSE_SKIPPED):
                if cell[key] is not None:
                    err(f"{name}: skipped leg {key} is {cell[key]!r}, not null")
            limit = SPARSE_PROBE_FRACTION * cell["ops"] * cell["nodes"]
            if not cell["candidates_scored"] < limit:
                err(f"{name}: {cell['candidates_scored']} probes, "
                    f"not under {limit:.0f}")
        else:
            for key in ("kernel_speedup", "resilient_speedup", "threads"):
                if not (cell[key] or 0) > 0:
                    err(f"{name}: {key} {cell[key]!r} not positive")
            if not isinstance(cell["simd"], bool):
                err(f"{name}: simd {cell['simd']!r} is not a bool")
            # The SIMD leg runs exactly when the host took the AVX2 path.
            for key in ("simd_estimate_seconds", "simd_speedup"):
                if cell["simd"] and not (cell[key] or 0) > 0:
                    err(f"{name}: {key} {cell[key]!r} not positive")
                if not cell["simd"] and cell[key] is not None:
                    err(f"{name}: {key} {cell[key]!r} without a SIMD leg")
        if cell["nodes"] >= 1000 and cell["ops"] >= 50000:
            saw_large_sparse = True
    if not saw_large_sparse:
        err("n=1000/m=50k cell missing")
    simd = [c["simd_speedup"] for c in doc["grid"] if c["simd"]]
    if not doc["quick"] and simd and max(simd) < SIMD_MIN_SPEEDUP:
        err(f"best simd_speedup {max(simd):.2f} < {SIMD_MIN_SPEEDUP}")


def check_sim(doc, err):
    by_name = {c["name"]: c for c in doc["grid"]}
    for name, cell in by_name.items():
        if cell["tuples"] <= 0:
            err(f"{name}: no tuples")
        if cell["batch_speedup"] <= 1:
            err(f"{name}: batch_speedup {cell['batch_speedup']:.2f} <= 1")
    cell = by_name.get(SIM_CELL_NAME)
    if cell is None:
        err(f"acceptance cell {SIM_CELL_NAME!r} missing")
    elif cell["rate"] < SIM_MIN_RATE or cell["batch_speedup"] < SIM_MIN_SPEEDUP:
        err(f"{SIM_CELL_NAME}: rate {cell['rate']:.0f}, batch_speedup "
            f"{cell['batch_speedup']:.2f} under the {SIM_MIN_SPEEDUP:.0f}x floor")


def check_ctrl(doc, err):
    by_name = {c["name"]: c for c in doc["grid"]}
    for name, cell in by_name.items():
        if cell["lines"] <= 0 or cell["stream_bytes"] <= 0:
            err(f"{name}: empty stream")
        if cell["line_seconds"] <= 0 or cell["batched_seconds"] <= 0:
            err(f"{name}: non-positive wall time")
        if cell["max_batch"] < 1:
            err(f"{name}: max_batch {cell['max_batch']} < 1")
        if cell["ingest_speedup"] <= 1:
            err(f"{name}: ingest_speedup {cell['ingest_speedup']:.2f} <= 1")
    cell = by_name.get(CTRL_CELL_NAME)
    if cell is None:
        err(f"acceptance cell {CTRL_CELL_NAME!r} missing")
    elif not doc["quick"] and cell["ingest_speedup"] < CTRL_MIN_SPEEDUP:
        err(f"{CTRL_CELL_NAME}: ingest_speedup {cell['ingest_speedup']:.2f} "
            f"under the {CTRL_MIN_SPEEDUP:.0f}x floor")
    if CTRL_QUICK_LOOP not in by_name:
        err(f"loop cell {CTRL_QUICK_LOOP!r} missing")
    if doc["quick"]:
        return
    cell = by_name.get(CTRL_LOOP_NAME)
    if cell is None:
        err(f"loop cell {CTRL_LOOP_NAME!r} missing")
    elif cell["batched_samples_per_sec"] < CTRL_LOOP_MIN_SPS:
        err(f"{CTRL_LOOP_NAME}: batched_samples_per_sec "
            f"{cell['batched_samples_per_sec']:.0f} under the "
            f"{CTRL_LOOP_MIN_SPS:.0f} floor")


# headline column -> (schema version, seed keys, cell keys, checker)
KINDS = {
    "kernel_speedup": (6, {"workload_seed", "qmc_seed"}, PLANNER_CELL,
                       check_planner),
    "batch_speedup": (1, {"seed"}, SIM_CELL, check_sim),
    "ingest_speedup": (1, {"seed"}, CTRL_CELL, check_ctrl),
}


def validate(path):
    errors = []

    def err(message):
        errors.append(f"{path}: {message}")

    doc = json.load(open(path))
    grid = doc.get("grid") or []
    kinds = [k for k in KINDS if any(k in cell for cell in grid)]
    if len(kinds) != 1:
        err("not a recognisable BENCH file (empty grid or mixed cells)")
        return errors
    version, seeds, cell_keys, check = KINDS[kinds[0]]
    if set(doc) != ENVELOPE | seeds:
        err(f"top-level keys {set(doc) ^ (ENVELOPE | seeds)} mismatch")
        return errors
    if doc["schema_version"] != version:
        err(f"schema_version {doc['schema_version']} != {version}")
    if doc["cores"] < 1 or doc["repeats"] < 1:
        err(f"cores {doc['cores']} / repeats {doc['repeats']} < 1")
    for cell in grid:
        if set(cell) != cell_keys:
            err(f"cell keys {set(cell) ^ cell_keys} mismatch "
                f"in {cell.get('name', '?')}")
    if not errors:
        check(doc, err)
    return errors


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for path in sys.argv[1:]:
        errors = validate(path)
        print("\n".join(errors) or f"{path}: OK",
              file=sys.stderr if errors else sys.stdout)
        failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
