#!/usr/bin/env python3
"""Validate a bench JSON file against its embedded `criteria` block.

Usage: check_bench.py BENCH_JSON [BENCH_JSON ...]

Each bench binary that emits machine-readable output (today:
`micro_mechanism --hotpath-json` and `--obs-overhead-json`) embeds the
pass/fail thresholds it was built with in a top-level `criteria` object.
This script re-applies those thresholds to the measured points, so a
perf regression in a freshly produced file fails loudly even if the
producing binary's own exit code was ignored (e.g. inside a `for` loop
in run_benches.sh).

Criteria keys are interpreted as follows:

  *_max_pct   -> every point's matching `<stem>_pct` field must be <=
                 the threshold (e.g. tracing_overhead_max_pct checks
                 point["tracing_overhead_pct"]).
  low_load_speedup_min    -> active_speedup of the point with the
                 smallest offered_flits_node_cycle must be >= threshold.
  saturation_speedup_min  -> active_speedup of the point with the
                 largest offered_flits_node_cycle must be >= threshold.
  *_max       -> every point's `<stem>` field must be <= the threshold
                 (e.g. recovery_cycles_max checks
                 point["recovery_cycles"]).
  *_min       -> every point's `<stem>` field must be >= the threshold
                 (e.g. post_rebuild_cps_ratio_min checks
                 point["post_rebuild_cps_ratio"]).

Every file must also carry `"schema": "wormsim.bench/1"` next to the
criteria block, so consumers can detect format drift.

Unknown criteria keys are an error: a renamed gate must not silently
stop being enforced. Exits non-zero on any violation.

`check_bench.py --self-test` validates the checker itself against
synthetic pass/fail fixtures (run from run_benches.sh before any real
file is checked).
"""

import json
import os
import sys
import tempfile

SCHEMA = "wormsim.bench/1"


def fail(msg):
    print(f"check_bench: FAIL: {msg}")
    return 1


def check_speedup_point(data, point, key, threshold, regime):
    speedup = point.get("active_speedup")
    if speedup is None:
        return fail(f"{regime} point has no active_speedup field")
    if speedup < threshold:
        return fail(
            f"{key}: active_speedup {speedup:.3f} < {threshold} at "
            f"offered load {point.get('offered_flits_node_cycle')}"
        )
    print(
        f"check_bench: ok: {key}: active_speedup {speedup:.3f} >= "
        f"{threshold} ({regime})"
    )
    return 0


def check_file(path):
    with open(path) as f:
        data = json.load(f)

    schema = data.get("schema")
    if schema != SCHEMA:
        return fail(f"{path}: schema is {schema!r}, expected {SCHEMA!r}")
    criteria = data.get("criteria")
    if not isinstance(criteria, dict) or not criteria:
        return fail(f"{path}: no embedded criteria block")
    points = data.get("points")
    if not isinstance(points, list) or not points:
        return fail(f"{path}: no points to validate")

    bench = data.get("bench", "?")
    print(f"check_bench: {path}: bench={bench}, {len(points)} points, "
          f"criteria={json.dumps(criteria)}")

    rc = 0
    by_load = sorted(
        points, key=lambda p: p.get("offered_flits_node_cycle", 0.0)
    )
    for key, threshold in criteria.items():
        if key == "low_load_speedup_min":
            rc |= check_speedup_point(data, by_load[0], key, threshold,
                                      "low load")
        elif key == "saturation_speedup_min":
            rc |= check_speedup_point(data, by_load[-1], key, threshold,
                                      "saturation")
        elif key.endswith("_max_pct"):
            field = key[: -len("_max_pct")] + "_pct"
            for point in points:
                value = point.get(field)
                load = point.get("offered_flits_node_cycle")
                if value is None:
                    rc |= fail(f"{key}: point at load {load} has no "
                               f"{field} field")
                elif value > threshold:
                    rc |= fail(f"{key}: {field} {value:.2f} > {threshold} "
                               f"at offered load {load}")
                else:
                    print(f"check_bench: ok: {key}: {field} {value:.2f} "
                          f"<= {threshold} at load {load}")
        elif key.endswith("_max") or key.endswith("_min"):
            # Generic per-point bound: <stem>_max / <stem>_min against
            # point["<stem>"]. Order matters: the named speedup keys and
            # *_max_pct were already matched above.
            is_max = key.endswith("_max")
            field = key[: -len("_max")]
            for point in points:
                value = point.get(field)
                load = point.get("offered_flits_node_cycle")
                if value is None:
                    rc |= fail(f"{key}: point at load {load} has no "
                               f"{field} field")
                elif (value > threshold) if is_max else (value < threshold):
                    op = ">" if is_max else "<"
                    rc |= fail(f"{key}: {field} {value} {op} {threshold} "
                               f"at offered load {load}")
                else:
                    op = "<=" if is_max else ">="
                    print(f"check_bench: ok: {key}: {field} {value} "
                          f"{op} {threshold} at load {load}")
        else:
            rc |= fail(f"{path}: unknown criteria key '{key}'")
    return rc


def _expect(fixture, want_rc, label):
    """Run check_file on an in-memory fixture; 0 if its verdict matches."""
    with tempfile.NamedTemporaryFile(
        "w", suffix=".json", delete=False
    ) as f:
        json.dump(fixture, f)
        path = f.name
    try:
        got = check_file(path)
    finally:
        os.unlink(path)
    ok = (got == 0) == (want_rc == 0)
    verdict = "pass" if got == 0 else "fail"
    wanted = "pass" if want_rc == 0 else "fail"
    print(f"check_bench: self-test {'ok' if ok else 'FAIL'}: {label} "
          f"(got {verdict}, wanted {wanted})")
    return 0 if ok else 1


def self_test():
    """Exercise every checker code path on synthetic fixtures."""
    good = {
        "schema": SCHEMA,
        "bench": "synthetic",
        "points": [
            {
                "offered_flits_node_cycle": 0.1,
                "active_speedup": 2.5,
                "x_overhead_pct": 1.0,
                "recovery_cycles": 100,
                "ratio": 0.9,
            },
            {
                "offered_flits_node_cycle": 1.2,
                "active_speedup": 1.8,
                "x_overhead_pct": 1.5,
                "recovery_cycles": 120,
                "ratio": 0.8,
            },
        ],
        "criteria": {
            "low_load_speedup_min": 2.0,
            "saturation_speedup_min": 1.5,
            "x_overhead_max_pct": 2.0,
            "recovery_cycles_max": 200,
            "ratio_min": 0.5,
        },
    }
    rc = 0
    rc |= _expect(good, 0, "all gates pass")

    def variant(**kw):
        v = json.loads(json.dumps(good))
        v.update(kw)
        return v

    bad_pct = variant()
    bad_pct["points"][1]["x_overhead_pct"] = 9.0
    rc |= _expect(bad_pct, 1, "pct gate over threshold")

    bad_speedup = variant()
    bad_speedup["points"][0]["active_speedup"] = 1.0
    rc |= _expect(bad_speedup, 1, "low-load speedup under threshold")

    bad_min = variant()
    bad_min["points"][0]["ratio"] = 0.1
    rc |= _expect(bad_min, 1, "generic *_min gate under threshold")

    missing_field = variant()
    del missing_field["points"][0]["recovery_cycles"]
    rc |= _expect(missing_field, 1, "criteria field missing from point")

    # Conditional gates (a producer may emit a criterion only where it
    # can be measured, e.g. only on multi-core hosts): when both the
    # criteria key and the per-point field are absent, the gate is
    # simply off and the file passes; re-adding just the key re-arms
    # it, so a producer that emits the criterion without the
    # measurements fails loudly.
    conditional = variant()
    for p in conditional["points"]:
        del p["ratio"]
    del conditional["criteria"]["ratio_min"]
    rc |= _expect(conditional, 0, "conditional gate absent: not enforced")

    armed = json.loads(json.dumps(conditional))
    armed["criteria"]["ratio_min"] = 0.5
    rc |= _expect(armed, 1, "conditional gate armed without its field")

    rc |= _expect(variant(schema="wormsim.bench/999"), 1, "wrong schema")
    no_schema = variant()
    del no_schema["schema"]
    rc |= _expect(no_schema, 1, "missing schema")

    unknown = variant()
    unknown["criteria"]["renamed_gate"] = 1
    rc |= _expect(unknown, 1, "unknown criteria key")

    rc |= _expect(variant(criteria={}), 1, "empty criteria block")
    rc |= _expect(variant(points=[]), 1, "no points")

    if rc == 0:
        print("check_bench: self-test passed")
    else:
        print("check_bench: SELF-TEST FAILED")
    return rc


def main(argv):
    if len(argv) >= 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) < 2:
        print(__doc__.strip())
        return 2
    rc = 0
    for path in argv[1:]:
        rc |= check_file(path)
    if rc == 0:
        print("check_bench: all criteria satisfied")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
