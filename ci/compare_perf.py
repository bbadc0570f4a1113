#!/usr/bin/env python3
"""Perf regression gate: compare this commit's bench JSON artifacts against
the previous commit's.

Inputs are two directories (--old, --new), each holding the artifacts the CI
"Collect perf baselines" step produces:

  * bench_runtime_throughput.json — rows with steps_per_sec keyed by
    (section, mode, walkers, threads, batch); a regression is a drop in
    steps_per_sec beyond --min-steps-ratio.
  * bench_perf_micro.json — google-benchmark format; a regression is a rise
    in real_time beyond --max-time-ratio.

Missing files are skipped with a note, and so are rows that exist on only
one side (bench sets evolve); each baseline row the new artifact no longer
has is listed as a "note: removed series" line, so a deleted row never
vanishes without trace.
In --mode=warn (default, used by CI) regressions print GitHub ::warning::
annotations and exit 0; --mode=fail prints ::error:: and exits 1. Perf on
shared CI runners is noisy — the default thresholds are deliberately loose,
and the gate exists to flag order-of-magnitude mistakes, not 5% drift.

--self-test runs the embedded fixtures and exits.
"""

import argparse
import json
import os
import sys

DEFAULT_MIN_STEPS_RATIO = 0.70  # new/old steps_per_sec below this = slower
DEFAULT_MAX_TIME_RATIO = 1.40   # new/old real_time above this = slower
DEFAULT_MAX_OBS_OVERHEAD = 0.03  # metrics-on throughput loss vs obs-off


def throughput_key(row):
    return (row.get("section"), row.get("mode"), row.get("walkers"),
            row.get("threads"), row.get("batch"))


def compare_throughput(old_rows, new_rows, min_ratio):
    """Returns (regressions, compared) for steps_per_sec drops."""
    old_by_key = {throughput_key(r): r for r in old_rows}
    regressions, compared = [], 0
    for row in new_rows:
        old = old_by_key.get(throughput_key(row))
        if old is None or not old.get("steps_per_sec"):
            continue
        compared += 1
        ratio = row["steps_per_sec"] / old["steps_per_sec"]
        if ratio < min_ratio:
            regressions.append(
                "throughput %s: %.0f -> %.0f steps/sec (x%.2f < x%.2f)"
                % (throughput_key(row), old["steps_per_sec"],
                   row["steps_per_sec"], ratio, min_ratio))
    return regressions, compared


def removed_series(old_keys, new_keys):
    """Baseline series keys absent from the new artifact, in baseline order."""
    new = set(new_keys)
    return [key for key in old_keys if key not in new]


def compare_micro(old_doc, new_doc, max_ratio):
    """Returns (regressions, compared) for google-benchmark real_time rises."""
    old_by_name = {b["name"]: b for b in old_doc.get("benchmarks", [])}
    regressions, compared = [], 0
    for bench in new_doc.get("benchmarks", []):
        old = old_by_name.get(bench["name"])
        if old is None or not old.get("real_time"):
            continue
        if old.get("time_unit") != bench.get("time_unit"):
            continue
        compared += 1
        ratio = bench["real_time"] / old["real_time"]
        if ratio > max_ratio:
            regressions.append(
                "micro %s: %.1f -> %.1f %s (x%.2f > x%.2f)"
                % (bench["name"], old["real_time"], bench["real_time"],
                   bench.get("time_unit", "?"), ratio, max_ratio))
    return regressions, compared


def check_metrics_overhead(rows, max_overhead):
    """Returns (warnings, compared) for the metrics-ablation section.

    Intra-artifact check (this commit only, no baseline needed): for each
    (walkers, threads, batch) config, every observed row (obs-metrics,
    obs-trace, obs-exporter) must stay within `max_overhead` of the
    obs-off row's steps_per_sec.
    The observability layer's contract is "near-zero overhead"; this keeps
    the claim measured on every commit.
    """
    ablation = [r for r in rows if r.get("section") == "metrics-ablation"]
    base_by_cfg = {}
    for row in ablation:
        if row.get("mode") == "obs-off" and row.get("steps_per_sec"):
            cfg = (row.get("walkers"), row.get("threads"), row.get("batch"))
            base_by_cfg[cfg] = row
    warnings, compared = [], 0
    for row in ablation:
        if row.get("mode") == "obs-off" or not row.get("steps_per_sec"):
            continue
        cfg = (row.get("walkers"), row.get("threads"), row.get("batch"))
        base = base_by_cfg.get(cfg)
        if base is None:
            continue
        compared += 1
        ratio = row["steps_per_sec"] / base["steps_per_sec"]
        if ratio < 1.0 - max_overhead:
            warnings.append(
                "observability overhead %s %s: %.0f -> %.0f steps/sec "
                "(x%.3f < x%.3f)"
                % (row.get("mode"), cfg, base["steps_per_sec"],
                   row["steps_per_sec"], ratio, 1.0 - max_overhead))
    return warnings, compared


def load_json(directory, name):
    path = os.path.join(directory, name)
    if not os.path.isfile(path):
        print("note: %s not found, skipping" % path)
        return None
    with open(path) as f:
        return json.load(f)


def run_gate(args):
    regressions, removed, compared = [], [], 0

    old_tp = load_json(args.old, "bench_runtime_throughput.json")
    new_tp = load_json(args.new, "bench_runtime_throughput.json")
    if old_tp is not None and new_tp is not None:
        r, c = compare_throughput(old_tp, new_tp, args.min_steps_ratio)
        regressions += r
        compared += c
        removed += ["throughput %s" % (key,) for key in removed_series(
            map(throughput_key, old_tp), map(throughput_key, new_tp))]

    old_micro = load_json(args.old, "bench_perf_micro.json")
    new_micro = load_json(args.new, "bench_perf_micro.json")
    if old_micro is not None and new_micro is not None:
        r, c = compare_micro(old_micro, new_micro, args.max_time_ratio)
        regressions += r
        compared += c
        removed += ["micro %s" % name for name in removed_series(
            (b["name"] for b in old_micro.get("benchmarks", [])),
            (b["name"] for b in new_micro.get("benchmarks", [])))]

    # Observability overhead is checked within the new artifact alone and
    # stays warn-only in every mode: shared-runner noise on a 3% threshold
    # would make a hard gate flaky, and the regression gate above already
    # catches order-of-magnitude mistakes.
    obs_warnings = []
    if new_tp is not None:
        obs_warnings, obs_compared = check_metrics_overhead(
            new_tp, args.max_obs_overhead)
        compared += obs_compared

    for series in removed:
        print("note: removed series " + series)
    print("perf gate: compared %d series, %d regression(s), %d overhead "
          "warning(s)" % (compared, len(regressions), len(obs_warnings)))
    marker = "::error::" if args.mode == "fail" else "::warning::"
    for regression in regressions:
        print(marker + "perf regression: " + regression)
    for warning in obs_warnings:
        print("::warning::" + warning)
    if regressions and args.mode == "fail":
        return 1
    return 0


def self_test():
    old_rows = [
        {"section": "cpu-bound", "mode": "free-run", "walkers": 64,
         "threads": 8, "batch": 1, "steps_per_sec": 1000000.0},
        {"section": "cpu-bound", "mode": "free-run", "walkers": 64,
         "threads": 1, "batch": 1, "steps_per_sec": 200000.0},
    ]
    fast = [dict(r, steps_per_sec=r["steps_per_sec"] * 1.1) for r in old_rows]
    slow = [dict(r, steps_per_sec=r["steps_per_sec"] * 0.5) for r in old_rows]
    unmatched = [dict(r, mode="coalesced") for r in old_rows]

    r, c = compare_throughput(old_rows, fast, 0.7)
    assert c == 2 and not r, (r, c)
    r, c = compare_throughput(old_rows, slow, 0.7)
    assert c == 2 and len(r) == 2, (r, c)
    r, c = compare_throughput(old_rows, unmatched, 0.7)
    assert c == 0 and not r, (r, c)
    keys = [throughput_key(r) for r in old_rows]
    assert removed_series(keys, keys[:1]) == keys[1:], keys
    assert removed_series(keys, keys + [("new",)]) == []

    old_micro = {"benchmarks": [
        {"name": "BM_Query", "real_time": 100.0, "time_unit": "ns"},
        {"name": "BM_Step", "real_time": 50.0, "time_unit": "ns"},
    ]}
    slower = {"benchmarks": [
        {"name": "BM_Query", "real_time": 250.0, "time_unit": "ns"},
        {"name": "BM_Step", "real_time": 51.0, "time_unit": "ns"},
        {"name": "BM_New", "real_time": 1.0, "time_unit": "ns"},
    ]}
    r, c = compare_micro(old_micro, slower, 1.4)
    assert c == 2 and len(r) == 1 and "BM_Query" in r[0], (r, c)
    unit_change = {"benchmarks": [
        {"name": "BM_Query", "real_time": 250.0, "time_unit": "us"}]}
    r, c = compare_micro(old_micro, unit_change, 1.4)
    assert c == 0 and not r, (r, c)

    ablation = [
        {"section": "metrics-ablation", "mode": "obs-off", "walkers": 64,
         "threads": 8, "batch": 1, "steps_per_sec": 1000000.0},
        {"section": "metrics-ablation", "mode": "obs-metrics", "walkers": 64,
         "threads": 8, "batch": 1, "steps_per_sec": 985000.0},
        {"section": "metrics-ablation", "mode": "obs-trace", "walkers": 64,
         "threads": 8, "batch": 1, "steps_per_sec": 940000.0},
        # A non-ablation row must never enter the overhead comparison.
        {"section": "cpu-bound", "mode": "obs-metrics", "walkers": 64,
         "threads": 8, "batch": 1, "steps_per_sec": 1.0},
    ]
    w, c = check_metrics_overhead(ablation, 0.03)
    assert c == 2 and len(w) == 1 and "obs-trace" in w[0], (w, c)
    w, c = check_metrics_overhead(ablation, 0.10)
    assert c == 2 and not w, (w, c)
    w, c = check_metrics_overhead(ablation[1:], 0.03)  # no obs-off baseline
    assert c == 0 and not w, (w, c)

    print("perf gate self-test: OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--old", help="directory with the previous artifacts")
    parser.add_argument("--new", help="directory with this commit's artifacts")
    parser.add_argument("--mode", choices=["warn", "fail"], default="warn")
    parser.add_argument("--min-steps-ratio", type=float,
                        default=DEFAULT_MIN_STEPS_RATIO)
    parser.add_argument("--max-time-ratio", type=float,
                        default=DEFAULT_MAX_TIME_RATIO)
    parser.add_argument("--max-obs-overhead", type=float,
                        default=DEFAULT_MAX_OBS_OVERHEAD)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.old or not args.new:
        parser.error("--old and --new are required (or use --self-test)")
    return run_gate(args)


if __name__ == "__main__":
    sys.exit(main())
