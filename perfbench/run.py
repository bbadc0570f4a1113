#!/usr/bin/env python3
"""Crawl benchmark: end-to-end and per-layer numbers for the MTO crawl stack.

Run from the repository root:

    python3 perfbench/run.py --workload srw_cpu --seed 1 --seconds 12 --trace 0

The first run builds perfbench/crawlbench (and the src/ library it links)
into .bench_build/. Each run starts one crawlbench process, which repeats the
workload's crawl, cold, from scenario text to Finish(), until the window
closes. This script checks every crawl's output, then prints a run
descriptor, one line per metric with its unit, and, as the last line, a JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
(BENCHMARK.json lists both). The exit code is non-zero when a check fails.

An operation is one crawl. A crawl fails when it throws, when the process
times out, or when it fails a check:
  * its result digest (samples, estimate bits, unique queries, per-backend
    unique counts) differs from the other crawls of the run;
  * per backend, requests != unique + failed or
    failed != timeouts + transient + quota;
  * the per-backend unique counts do not sum to the unique-query cost;
  * |estimate - truth| / truth exceeds the workload's tolerance.
"""

import argparse
import collections
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(BUILD_DIR, "work")
BINARY = os.path.join(BUILD_DIR, "crawlbench")

# The process must end within this many seconds of starting.
DEADLINE_S = 170.0

# (name, unit): the order in which metrics are printed.
END_TO_END = [
    ("setup_s", "s"),
    ("crawl_s", "s"),
    ("steps_per_s", "steps/s"),
    ("us_per_unique_query", "us"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_p90", "ms"),
    ("unique_queries", "count"),
    ("backend_requests", "count"),
    ("peak_rss_mb", "MB"),
]
# Printed with the end-to-end metrics but not part of the JSON result: its
# run-to-run spread across seeds is that of |N(0, s)|, far beyond any bound.
# The traced run reports it as estimate.rel_error.
ESTIMATE_ERROR = ("estimate_rel_error", "ratio")

PER_LAYER = [
    ("graph.build_s", "s"),
    ("service.burn_in_s", "s"),
    ("service.burn_in_rounds", "count"),
    ("service.collect_s", "s"),
    ("service.finish_ms", "ms"),
    ("service.checkpoint.save_ms_p50", "ms"),
    ("service.checkpoint.save_ms_max", "ms"),
    ("service.checkpoint.saves", "count"),
    ("service.checkpoint.bytes_last", "bytes"),
    ("service.checkpoint.mb_per_s", "MB/s"),
    ("service.checkpoint.load_ms", "ms"),
    ("service.pool.requests", "count"),
    ("service.pool.unique", "count"),
    ("service.pool.failed", "count"),
    ("service.pool.useful_ratio", "ratio"),
    ("service.pool.sim_s", "sim_s"),
    ("runtime.cache.requests", "count"),
    ("runtime.cache.miss_ratio", "ratio"),
    ("runtime.cache.hit_ns_1t", "ns"),
    ("runtime.cache.hit_ns_mt", "ns"),
    ("net.query_hit_ns", "ns"),
    ("runtime.cache.miss_us", "us"),
    ("runtime.cache.prefetch_use_ratio", "ratio"),
    ("runtime.cache.dedupe_waits", "count"),
    ("runtime.scheduler.steps_per_s_1t", "steps/s"),
    ("runtime.scheduler.scaling_eff", "ratio"),
    ("runtime.pipeline.converge_wait_ms", "ms"),
    ("util.lanes.overlap_x", "ratio"),
    ("util.lanes.wait_share", "ratio"),
    ("walk.step_ns", "ns"),
    ("walk.round_robin_steps_per_s", "steps/s"),
    ("core.speculation_hit_ratio", "ratio"),
    ("core.overlay_nodes", "count"),
    ("core.edges_removed", "count"),
    ("core.edges_added", "count"),
    ("estimate.rel_error", "ratio"),
    ("obs.trace_overhead", "ratio"),
]


# Per-layer metrics timed by warm microbenches (every node cached first).
WARM_MICROBENCHES = {
    "runtime.cache.hit_ns_1t", "runtime.cache.hit_ns_mt", "net.query_hit_ns",
    "runtime.scheduler.steps_per_s_1t", "runtime.scheduler.scaling_eff",
    "walk.step_ns", "walk.round_robin_steps_per_s",
}


def derive_seed(seed, label):
    """A 48-bit seed for one purpose, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:6], "little")


def nproc():
    return len(os.sched_getaffinity(0))


def workloads(seed, threads):
    """Workload name -> (spec for crawlbench, estimate tolerance).

    Each tolerance on |estimate - truth| / truth is about 2.5 times the
    largest error measured over seeds 1..12 (srw_cpu 0.0081, mto_cpu 0.0142,
    mto_fleet 0.0325). wide_ckpt's 10-round burn-in leaves a bias of
    0.054-0.058 on every seed, so its tolerance sits above that bias.

    Scenarios pick the walk with "program" and never use the sampler,
    strategy, fetch_mode, fetch_threads, schedule or block keys; the fleet
    stack sets only num_walkers, num_threads, coalesce_frontier and
    pipeline_depth of CrawlConfig.
    """
    crawl_seed = derive_seed(seed, "crawl")
    fault_seed = derive_seed(seed, "fault")
    ckpt = os.path.join(WORK_DIR, f"wide_ckpt-{seed}.ckpt")

    def service(scenario):
        base = {"seed": crawl_seed, "fault_seed": fault_seed,
                "attribute": "degree", "threads": threads}
        base.update(scenario)
        return {"kind": "service", "scenario": json.dumps(base)}

    specs = {
        "srw_cpu": (
            service({
                "dataset": "gplus", "program": {"name": "srw"},
                "walkers": 256,
                "geweke": {"threshold": 0.1, "min_length": 200,
                           "check_every": 50},
                "max_burn_in_rounds": 2000,
                "num_samples": 256 * 40, "thinning": 500,
            }),
            0.02),
        "mto_cpu": (
            service({
                "dataset": "gplus", "program": {"name": "mto"},
                "walkers": 64,
                # min_length = walkers x max_burn_in_rounds: Geweke cannot
                # pass before the last epoch, so burn-in has a fixed length.
                "geweke": {"threshold": 0.1, "min_length": 64 * 6000,
                           "check_every": 100},
                "max_burn_in_rounds": 6000,
                "num_samples": 64 * 60, "thinning": 200,
            }),
            0.04),
        "mto_fleet": (
            {"kind": "fleet", "scenario": json.dumps({
                "dataset": "epinions", "seed": crawl_seed,
                "program": "mto", "walkers": 64, "threads": threads,
                "coalesce_frontier": True, "pipeline_depth": 2,
                "backends": 4, "rtt_us": 200, "error_rate": 0.05,
                "fault_seed": fault_seed,
                "geweke": {"threshold": 0.1, "min_length": 64 * 400,
                           "check_every": 25},
                "max_burn_in_rounds": 400,
                "num_samples": 64 * 100, "thinning": 4,
            })},
            0.08),
        "wide_ckpt": (
            service({
                "dataset": "gplus", "program": {"name": "srw"},
                "walkers": 100000,
                "geweke": {"threshold": 0.1, "min_length": 100000 * 10,
                           "check_every": 1},
                "max_burn_in_rounds": 10,
                "num_samples": 100000 * 20, "thinning": 1,
                "checkpoint": {"path": ckpt, "every_units": 5},
            }),
            0.08),
    }
    # Crawls per run at least, so that >= 100 units feed unit_ms_p90.
    min_crawls = {"srw_cpu": 4, "mto_cpu": 3, "mto_fleet": 3, "wide_ckpt": 4}
    return {name: (dict(spec, name=name, min_crawls=min_crawls[name]),
                   tolerance)
            for name, (spec, tolerance) in specs.items()}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

class InsufficientSamples(ValueError):
    pass


def tail_percentile(values, q, min_beyond=10):
    """The q-quantile of `values` and the sample count it rests on.

    Refuses (InsufficientSamples) unless at least `min_beyond` samples lie
    strictly above the reported value's rank, i.e. n * (1 - q) >= min_beyond.
    Uses the nearest-rank definition, so the value is one of the samples.
    """
    n = len(values)
    beyond = int(n * (1.0 - q) + 1e-9)
    if beyond < min_beyond:
        raise InsufficientSamples(
            f"p{round(q * 100)} needs {min_beyond} samples beyond it; "
            f"{n} samples leave {beyond}")
    ordered = sorted(values)
    return ordered[n - beyond - 1], n


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def crawl_failures(crawls, tolerance):
    """Per-crawl failure reasons (empty list = the crawl passed)."""
    # The most common digest is the reference (ties: the earliest crawl's).
    digests = collections.Counter(c["digest"] for c in crawls)
    reference = digests.most_common(1)[0][0] if crawls else None
    failures = []
    for crawl in crawls:
        reasons = []
        if crawl["digest"] != reference:
            reasons.append(f"digest {crawl['digest']} != {reference}")
        unique_sum = 0
        for b in crawl["backends"]:
            unique_sum += b["unique"]
            if b["requests"] != b["unique"] + b["failed"]:
                reasons.append(f"{b['name']}: requests != unique + failed")
            if b["failed"] != b["timeouts"] + b["transient"] + b["quota"]:
                reasons.append(
                    f"{b['name']}: failed != timeouts + transient + quota")
        if unique_sum != crawl["unique_queries"]:
            reasons.append("per-backend unique counts do not sum to "
                           "unique_queries")
        error = rel_error(crawl)
        if not error <= tolerance:
            reasons.append(f"estimate_rel_error {error:.4f} > {tolerance}")
        failures.append(reasons)
    return failures


def rel_error(crawl):
    return abs(crawl["estimate"] - crawl["truth"]) / crawl["truth"]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end_metrics(doc):
    crawls = [c for c in doc["crawls"] if not c["traced"]]
    units = [u for c in crawls for u in c["unit_ms"]]
    p90, n_units = tail_percentile(units, 0.9)
    values = {
        "setup_s": median([c["setup_s"] for c in crawls]),
        "crawl_s": median([c["crawl_s"] for c in crawls]),
        "steps_per_s": median([c["steps"] / c["crawl_s"] for c in crawls]),
        "us_per_unique_query": median(
            [c["crawl_s"] * 1e6 / c["unique_queries"] for c in crawls]),
        "unit_ms_p50": median(units),
        "unit_ms_p90": p90,
        "unique_queries": median([c["unique_queries"] for c in crawls]),
        "backend_requests": median([c["backend_requests"] for c in crawls]),
        "peak_rss_mb": doc["peak_rss_mb"],
        "estimate_rel_error": median([rel_error(c) for c in crawls]),
    }
    notes = {"crawls": len(crawls), "unit_samples": n_units}
    return values, notes


def per_layer_metrics(doc):
    untraced = [c for c in doc["crawls"] if not c["traced"]]
    traced = [c for c in doc["crawls"] if c["traced"]]

    def med(fn):
        return median([fn(c) for c in traced])

    def ratio(num, den):
        return num / den if den else 0.0

    def pool(c, key):
        return sum(b[key] for b in c["backends"])

    layers = doc["layers"]
    values = {
        "graph.build_s": layers["graph.build_s"],
        "service.burn_in_s": med(lambda c: c["burn_in_s"]),
        "service.burn_in_rounds": med(lambda c: c["burn_in_rounds"]),
        "service.collect_s": med(lambda c: c["collect_s"]),
        "service.finish_ms": med(lambda c: c["finish_ms"]),
        "service.checkpoint.save_ms_p50": med(lambda c: median(c["save_ms"])),
        "service.checkpoint.save_ms_max": med(
            lambda c: max(c["save_ms"], default=0.0)),
        "service.checkpoint.saves": med(lambda c: len(c["save_ms"])),
        "service.checkpoint.bytes_last": med(
            lambda c: c["save_bytes"][-1] if c["save_bytes"] else 0.0),
        "service.checkpoint.mb_per_s": med(
            lambda c: ratio(sum(c["save_bytes"]) / 1e6,
                            sum(c["save_ms"]) / 1e3)),
        "service.checkpoint.load_ms": layers["service.checkpoint.load_ms"],
        "service.pool.requests": med(lambda c: pool(c, "requests")),
        "service.pool.unique": med(lambda c: pool(c, "unique")),
        "service.pool.failed": med(lambda c: pool(c, "failed")),
        "service.pool.useful_ratio": med(
            lambda c: ratio(pool(c, "unique"), pool(c, "requests"))),
        "service.pool.sim_s": med(lambda c: c["sim_s"]),
        "runtime.cache.requests": med(lambda c: c["cache_requests"]),
        "runtime.cache.miss_ratio": med(
            lambda c: ratio(c["unique_queries"], c["cache_requests"])),
        "runtime.cache.hit_ns_1t": layers["runtime.cache.hit_ns_1t"],
        "runtime.cache.hit_ns_mt": layers["runtime.cache.hit_ns_mt"],
        "net.query_hit_ns": layers["net.query_hit_ns"],
        "runtime.cache.miss_us": layers["runtime.cache.miss_us"],
        "runtime.cache.prefetch_use_ratio": med(
            lambda c: ratio(c["telemetry"]["prefetch.consumed"],
                            c["telemetry"]["prefetch.issued"])),
        "runtime.cache.dedupe_waits": med(
            lambda c: c["telemetry"]["cache.dedupe_waits"]),
        "runtime.scheduler.steps_per_s_1t":
            layers["runtime.scheduler.steps_per_s_1t"],
        "runtime.scheduler.scaling_eff": layers["runtime.scheduler.scaling_eff"],
        "runtime.pipeline.converge_wait_ms": med(
            lambda c: c["telemetry"]["pipeline.converge_wait_ms"]),
        "util.lanes.overlap_x": med(
            lambda c: c["backend_requests"] * c["rtt_us"] / 1e6 / c["crawl_s"]),
        "util.lanes.wait_share": med(
            lambda c: c["telemetry"]["lane.wait_until_ms"] / 1e3
            / c["crawl_s"]),
        "walk.step_ns": layers["walk.step_ns"],
        "walk.round_robin_steps_per_s": layers["walk.round_robin_steps_per_s"],
        "core.speculation_hit_ratio": med(
            lambda c: ratio(c["speculation_hits"], c["speculative_commits"])),
        "core.overlay_nodes": med(lambda c: c["overlay_nodes"]),
        "core.edges_removed": med(lambda c: c["edges_removed"]),
        "core.edges_added": med(lambda c: c["edges_added"]),
        "estimate.rel_error": med(rel_error),
        "obs.trace_overhead": ratio(med(lambda c: c["crawl_s"]),
                                    median([c["crawl_s"] for c in untraced]))
                              - 1.0,
    }
    notes = {"traced_crawls": len(traced), "untraced_crawls": len(untraced),
             "scheduler_steps_per_s_mt":
                 layers["runtime.scheduler.steps_per_s_mt"]}
    return values, notes


def evaluate(doc, tolerance, trace):
    """(attempted, failed, reasons, metrics, notes) for one crawlbench doc."""
    failures = crawl_failures(doc["crawls"], tolerance)
    reasons = [f"crawl {i}: {r}" for i, rs in enumerate(failures) for r in rs]
    reasons += [f"run {e['run']}: {e['error']}" for e in doc["errors"]]
    attempted = len(doc["crawls"]) + len(doc["errors"])
    failed = sum(1 for rs in failures if rs) + len(doc["errors"])
    metrics, notes = {}, {}
    try:
        if trace:
            metrics, notes = per_layer_metrics(doc)
        else:
            metrics, notes = end_to_end_metrics(doc)
    except (InsufficientSamples, ZeroDivisionError, KeyError,
            statistics.StatisticsError) as e:
        reasons.append(f"metrics: {e}")
        failed = max(failed, 1)
    return max(attempted, 1), failed, reasons, metrics, notes


# ---------------------------------------------------------------------------
# Build and run
# ---------------------------------------------------------------------------

class BenchError(RuntimeError):
    pass


def build():
    """Configures and builds crawlbench; returns the binary path."""
    if not os.path.isfile(os.path.join(HERE, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("run from a checkout holding src/ and perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(nproc())])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return BINARY


def run_crawlbench(spec, seconds, trace, timeout):
    os.makedirs(WORK_DIR, exist_ok=True)
    spec_path = os.path.join(WORK_DIR, f"{spec['name']}.spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    cmd = [BINARY, "--spec", spec_path, "--work", WORK_DIR,
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--min-crawls", str(spec["min_crawls"])]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"crawlbench timed out after {timeout:.0f} s")
    finally:
        os.remove(spec_path)
    if proc.returncode != 0:
        raise BenchError(f"crawlbench exited with {proc.returncode}")
    return json.loads(proc.stdout)


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def descriptor(args, threads, compiler):
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": threads, "cpu_model": cpu_model(), "compiler": compiler,
        "build_type": "Release", "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "labels": {"end_to_end": "cold: fresh stack and cache per crawl",
                   "per_layer": "cold, from the traced crawls, except "
                                "the warm microbenches below",
                   "warm": sorted(WARM_MICROBENCHES)},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    threads = nproc()
    table = workloads(args.seed, threads)
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload}; "
                     f"choose from {', '.join(table)}")
    spec, tolerance = table[args.workload]
    trace = args.trace == 1
    try:
        build()
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 2
    try:
        timeout = DEADLINE_S - (time.monotonic() - started)
        doc = run_crawlbench(spec, args.seconds, trace, timeout)
    except BenchError as e:
        # The whole run is one failed operation: it crashed or timed out.
        print(f"FAILED {e}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    attempted, failed, reasons, metrics, notes = evaluate(doc, tolerance,
                                                          trace)
    desc = descriptor(args, threads, doc["compiler"])
    if trace:
        desc["spans_path"] = os.path.relpath(doc["spans_path"], ROOT)
        with open(doc["spans_path"]) as f:
            spans = json.load(f)
        with open(doc["spans_path"], "w") as f:
            json.dump({"descriptor": desc, "spans": spans}, f)
    print("descriptor " + json.dumps(desc, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    listed = PER_LAYER if trace else END_TO_END + [ESTIMATE_ERROR]
    for name, unit in listed:
        if name in metrics:
            print(f"{name:36s} {metrics[name]:.6g} {unit}")
    for reason in reasons:
        print(f"FAILED {reason}")
    result_names = PER_LAYER if trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in result_names if name in metrics},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
