#!/usr/bin/env python3
"""Campaign benchmark: fixed-size AVD campaigns on three workloads.

    python3 perfbench/run.py --workload mac-serial --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 7 --seconds 20

Builds perfbench/ (and with it the repository's src/) into .bench_build on
first use, then repeats the workload's campaign until --seconds have passed
(at least twice), checks every repetition's outputs, and prints medians.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones from a traced
run (spans kept in memory, written when the campaign ends).
--all prints every end-to-end metric of all three workloads, including
find_s and fail_ratio, which the contract line leaves out. See
perfbench/README.md for workloads, metrics and what moves what.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "campaign_bench")
RUNS_DIR = os.path.join(BUILD_DIR, "runs")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")

# The search path is part of each workload, like its hyperspace: a
# campaign's cost depends on which client populations its search visits, so
# the campaign seed (controller and deployments, as in avd_cli) stays at the
# paper's 2011; README.md gives the spread measured when it varies. The
# other campaign options keep avd_cli's defaults (checkpoint every 16
# scenarios, dedup floor 0.5), so every seed runs the same inputs and --seed
# only resamples run-to-run noise.
CAMPAIGN_SEED = 2011
SPAN_COVERAGE_MIN = 0.95  # avd.execute spans' share of mac-serial wall
STRONG_IMPACT = 0.9  # the paper's strong-attack threshold (Fig. 2)
SETUP_PROBES = 20
RUN_BUDGET_S = 170  # a whole run, build excluded, must end within 180 s

WORKLOADS = {
    # name: (scenarios per campaign, must reach impact >= 0.9)
    "mac-serial": (60, True),
    "flood-serial": (60, False),
    "mac-fleet": (60, True),
}

END_TO_END = {
    "scenarios_per_s": "1/s",
    "setup_s": "s",
    "vsec_per_s": "s/s",
    "peak_rss_mb": "MB",
}

# Printed with the end-to-end table and by --all, but not in the contract
# line: fail_ratio is zero in a healthy run (the line carries it as
# failed / attempted), and find_s times a single scenario on flood-serial
# (test 1), too noisy for a bound there (README.md).
UNGATED = {"find_s": "s", "fail_ratio": "ratio"}

DELIVERED_KINDS = [
    "request", "prePrepare", "prepare", "commit", "reply", "checkpoint",
    "viewChange", "newView", "stateRequest", "stateResponse", "status",
    "syncSeq",
]

PER_LAYER = {
    "avd.execute_s": "s",
    "avd.execute_ms_p50": "ms",
    "avd.execute_ms_p90": "ms",
    "avd.baseline_runs": "count",
    "avd.baseline_s": "s",
    "avd.baseline_useful_ratio": "ratio",
    "avd.tests_to_find": "count",
    "avd.find_s": "s",
    "avd.span_coverage": "ratio",
    "campaign.self_s": "s",
    "campaign.gap_ms": "ms",
    "campaign.journal_bytes": "bytes",
    "campaign.dedup_ms": "ms",
    "campaign.resume_ms": "ms",
    "fleet.spawn_ms": "ms",
    "fleet.worker_busy_ratio": "ratio",
    "fleet.worker_wait_s": "s",
    "fleet.respawns": "count",
    "fleet.reassigned": "count",
    "fleet.worker_crashes": "count",
    "fleet.worker_peak_rss_mb": "MB",
    "pbft.deployments": "count",
    "pbft.build_ms": "ms",
    "pbft.run_s": "s",
    "pbft.requests_committed": "count",
    "pbft.view_changes": "count",
    **{"pbft.delivered." + kind: "count" for kind in DELIVERED_KINDS},
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.vsec": "s",
    "sim.msgs_sent": "count",
    "sim.bytes_sent": "bytes",
    "sim.dropped_queue_overflow": "count",
    "sim.peak_ingress_depth": "count",
    "fi.queue_drops": "count",
    "fi.quota_drops": "count",
    "trace.overhead_pct": "%",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- build ---------------------------------------------------------------------

def build():
    """Configures (once) and builds the benchmark; raises on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "campaign_bench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def host_metadata(raw):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
        git = describe.stdout.strip() if describe.returncode == 0 else ""
    except (OSError, subprocess.TimeoutExpired):
        git = ""
    meta = {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": raw.get("compiler", "unknown"),
        "build_type": raw.get("build_type", "unknown"),
        "optimized": raw.get("optimized", False),
        "sanitized": raw.get("sanitized", False),
        "git_describe": git or "unknown (not a git checkout)",
        "python": platform.python_version(),
    }
    meta["flagged"] = meta["sanitized"] or not meta["optimized"]
    return meta


# --- one repetition ----------------------------------------------------------

def load_recorders(directory, tag):
    records = []
    for path in sorted(glob.glob(
            os.path.join(directory, "bench-rec-%s-*.json" % tag))):
        with open(path) as f:
            records.append(json.load(f))
    return records


def first_exec(records):
    starts = [r["first_exec_ns"] for r in records if r["first_exec_ns"] > 0]
    return min(starts) if starts else None


def read_journal(directory):
    path = os.path.join(directory, "journal.jsonl")
    with open(path, "rb") as f:
        data = f.read()
    points, done = {}, []
    for line in data.decode().splitlines():
        event = json.loads(line)
        if event["event"] == "gen":
            points[event["test"]] = event["point"]
        else:
            done.append(event)
    return data, points, done


def run_rep(workload, tests, trace, directory, timeout):
    """Runs one campaign repetition; returns (summary, failure or None)."""
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    # Flush what earlier repetitions left dirty, so the campaign's own
    # fsyncs (manifest, journal, checkpoints) do not pay for it.
    os.sync()
    cmd = [BINARY, "run", "--workload", workload,
           "--seed", str(CAMPAIGN_SEED), "--tests", str(tests),
           "--dir", directory,
           "--trace", "1" if trace else "0",
           "--setup-probes", "0" if trace else str(SETUP_PROBES)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "campaign_bench did not finish within %.0f s" % timeout
    if proc.returncode != 0:
        return None, "campaign_bench exited %d: %s" % (
            proc.returncode, proc.stderr.strip()[-400:])
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    return summarize_rep(raw, directory)


def summarize_rep(raw, directory):
    start, end = raw["campaign_start_ns"], raw["campaign_end_ns"]
    records = load_recorders(directory, "main")
    workers = [r for r in records if r["role"] == "worker"]
    main = [r for r in records if r["role"] == "main"][0]
    journal, points, done = read_journal(directory)

    failures = []
    if raw["executed"] != raw["tests"] or raw["aborted"]:
        failures.append("executed %d of %d" % (raw["executed"], raw["tests"]))
    if not raw["dedup_ok"]:
        failures.append("dedupVulnerabilities disagrees with the campaign")
    resumed = sum(r["executes"] for r in load_recorders(directory, "resume"))
    if not raw["resume_ok"] or resumed:
        failures.append("resume() changed the result or executed %d" % resumed)
    if len(done) != raw["tests"]:
        failures.append("journal holds %d outcomes" % len(done))
    misses = sum(r["baseline_misses"] for r in records)
    if misses:
        failures.append("%d executes missed the baseline cache" % misses)

    began = first_exec(records)
    if began is None:
        return None, "no scenario executed"
    executed_s = (end - began) / 1e9
    execute_ns = sum(r["execute_ns"] for r in records)
    finds = [r["find_end_ns"] for r in records if r["find_end_ns"] > 0]
    setups = [(began - start) / 1e9]
    for index, probe_start in enumerate(raw["probe_starts_ns"]):
        probe = first_exec(load_recorders(
            os.path.join(directory, "probe%d" % index), "probe"))
        if probe is None:
            failures.append("set-up probe %d never executed" % index)
        else:
            setups.append((probe - probe_start) / 1e9)

    strong = [e for e in done
              if e["impact"] >= STRONG_IMPACT or e["safetyViolated"]]
    pairs = {client_pair(point, raw["workload"]) for point in points.values()}
    rep = {
        "raw": raw,
        "failures": failures,
        "digest": hashlib.sha256(journal).hexdigest(),
        "journal_bytes": len(journal),
        "executed": raw["executed"],
        "failed": raw["failed"] + raw["timed_out"],
        "max_impact": raw["max_impact"],
        "tests_to_find": strong[0]["test"] if strong else 0,
        "distinct_pairs": len(pairs),
        "scenarios_per_s": raw["executed"] / executed_s,
        "setup_samples": setups,
        "setup_s": stats.median(setups),
        "vsec_per_s": sum(r["vsec"] for r in records) / (execute_ns / 1e9),
        "peak_rss_mb": main["maxrss_kb"] / 1024.0,
        "worker_peak_rss_mb": max([w["maxrss_kb"] / 1024.0 for w in workers],
                                  default=0.0),
        # A campaign without a strong attack is censored at its end (only
        # possible below full size; full-size mac campaigns must find one).
        "find_s": (min(finds if finds else [end]) - start) / 1e9,
        "records": records,
        "start": start,
        "end": end,
        "began": began,
    }
    return rep, None


def client_pair(point, workload):
    """(correct_clients index, malicious_clients index) of a journaled point:
    the key the executor caches baselines under. The MAC hyperspace is
    (mac_mask, correct_clients, malicious_clients); the flood hyperspace
    ends in correct_clients and has one malicious-client default."""
    if workload.startswith("mac"):
        return (point[1], point[2])
    return (point[-1],)


# --- per-layer metrics ---------------------------------------------------------

def per_layer(rep):
    """Per-layer numbers of one traced repetition: {name: (value, n)}."""
    raw, records = rep["raw"], rep["records"]
    spans = [s for r in records for s in r["spans"]]
    selfs = stats.self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    executes = by_name.get("avd.execute", [])
    baselines = by_name.get("avd.baseline", [])
    builds = by_name.get("pbft.build", [])
    root = by_name["campaign.run"][0]
    exec_self_ms = [selfs[s["id"]] / 1e6 for s in executes]
    tests = raw["executed"]
    workers = [r for r in records if r["role"] == "worker"]
    executing = [r for r in records if r["executes"] > 0]
    window = rep["end"] - rep["began"]
    busy = sum(r["execute_ns"] for r in executing)
    covered = stats.union_length(
        [(s["start"], s["end"]) for s in executes], rep["start"], rep["end"])
    gap = window - stats.union_length(
        [(s["start"], s["end"]) for s in executes], rep["began"], rep["end"])
    reexec = raw["reexec"]
    run_s = reexec["run_ns"] / 1e9
    n_deploy = reexec["points"]
    n_exec = len(executes)
    metrics = {
        "avd.execute_s": (sum(exec_self_ms) / 1e3, n_exec),
        "avd.execute_ms_p50": (stats.percentile(exec_self_ms, 50), n_exec),
        "avd.execute_ms_p90": (stats.percentile(exec_self_ms, 90), n_exec),
        "avd.baseline_runs": (len(baselines), len(baselines)),
        "avd.baseline_s": (sum(s["end"] - s["start"] for s in baselines) / 1e9,
                           len(baselines)),
        "avd.baseline_useful_ratio": (
            rep["distinct_pairs"] / len(baselines) if baselines else 0.0,
            len(baselines)),
        "avd.tests_to_find": (rep["tests_to_find"], 1),
        "avd.find_s": (rep["find_s"], 1),
        "avd.span_coverage": (covered / (rep["end"] - rep["start"]), n_exec),
        "campaign.self_s": (selfs[root["id"]] / 1e9, 1),
        "campaign.gap_ms": (gap / 1e6 / tests, tests),
        "campaign.journal_bytes": (rep["journal_bytes"], 1),
        "campaign.dedup_ms": (raw["dedup_ns"] / 1e6, 1),
        "campaign.resume_ms": (raw["resume_ns"] / 1e6, 1),
        "fleet.spawn_ms": (
            stats.median([(w["ready_ns"] - w["launch_ns"]) / 1e6
                          for w in workers]) if workers else 0.0,
            len(workers)),
        "fleet.worker_busy_ratio": (busy / (len(executing) * window),
                                    len(executing)),
        "fleet.worker_wait_s": ((len(executing) * window - busy) / 1e9,
                                len(executing)),
        "fleet.respawns": (raw["respawns"], 1),
        "fleet.reassigned": (raw["reassigned"], 1),
        "fleet.worker_crashes": (raw["worker_crashes"], 1),
        "fleet.worker_peak_rss_mb": (rep["worker_peak_rss_mb"], len(workers)),
        "pbft.deployments": (n_deploy, n_deploy),
        "pbft.build_ms": (
            stats.median([(s["end"] - s["start"]) / 1e6 for s in builds])
            if builds else 0.0, len(builds)),
        "pbft.run_s": (run_s, n_deploy),
        "pbft.requests_committed": (reexec["requests_committed"], n_deploy),
        "pbft.view_changes": (reexec["view_changes"], n_deploy),
        "sim.events": (reexec["events"], n_deploy),
        "sim.events_per_s": (reexec["events"] / run_s if run_s else 0.0,
                             n_deploy),
        "sim.vsec": (reexec["vsec"], n_deploy),
        "sim.msgs_sent": (reexec["msgs_sent"], n_deploy),
        "sim.bytes_sent": (reexec["bytes_sent"], n_deploy),
        "sim.dropped_queue_overflow": (reexec["dropped_queue_overflow"],
                                       n_deploy),
        "sim.peak_ingress_depth": (reexec["peak_ingress_depth"], n_deploy),
        "fi.queue_drops": (reexec["queue_drops"], n_deploy),
        "fi.quota_drops": (reexec["quota_drops"], n_deploy),
    }
    for kind in DELIVERED_KINDS:
        metrics["pbft.delivered." + kind] = (
            reexec["delivered_by_kind"]["msg." + kind], n_deploy)
    return metrics


def self_time_by_span(rep):
    """{span name: (total self time in s, spans)} of one traced repetition."""
    spans = [s for r in rep["records"] for s in r["spans"]]
    selfs = stats.self_times(spans)
    out = {}
    for span in spans:
        total, count = out.get(span["name"], (0.0, 0))
        out[span["name"]] = (total + selfs[span["id"]] / 1e9, count + 1)
    return out


def trace_failures(rep, workload):
    raw, reexec = rep["raw"], rep["raw"]["reexec"]
    failures = []
    if reexec["mismatches"]:
        failures.append("%d re-executed deployments disagree with the "
                        "journal" % reexec["mismatches"])
    if reexec["points"] != raw["executed"] - rep["failed"]:
        failures.append("re-executed %d of %d points" % (
            reexec["points"], raw["executed"]))
    coverage = per_layer(rep)["avd.span_coverage"][0]
    if workload == "mac-serial" and coverage < SPAN_COVERAGE_MIN:
        failures.append("avd.execute spans cover %.3f of campaign wall, "
                        "under %.2f" % (coverage, SPAN_COVERAGE_MIN))
    return failures


# --- a benchmark run -------------------------------------------------------------

def run_workload(workload, seed, seconds, trace, tests=None):
    """Repeats the workload's campaign; returns the result dictionary."""
    size, needs_strong = WORKLOADS[workload]
    tests = tests or size
    runs_dir = os.path.join(RUNS_DIR, "%s-%d" % (workload, seed))
    shutil.rmtree(runs_dir, ignore_errors=True)
    began = time.monotonic()
    plain, traced, failures = [], [], []
    attempted = failed = 0
    index = 0
    # Untraced repetitions give the end-to-end numbers; a traced run
    # alternates them with traced ones so the overhead is measured too.
    while True:
        with_trace = trace and index % 2 == 1
        directory = os.path.join(runs_dir, "rep%d" % index)
        remaining = RUN_BUDGET_S - (time.monotonic() - began)
        rep, error = run_rep(workload, tests, with_trace, directory,
                             max(remaining, 1.0))
        index += 1
        attempted += tests
        if rep is not None:
            # Big MAC's shape is a property of the full-size campaign.
            if (needs_strong and tests >= size
                    and rep["max_impact"] < STRONG_IMPACT):
                rep["failures"].append(
                    "max impact %.3f never reached %.1f" % (
                        rep["max_impact"], STRONG_IMPACT))
            if with_trace:
                rep["failures"] += trace_failures(rep, workload)
        problems = [error] if rep is None else rep["failures"]
        if problems:
            failures += ["rep %d: %s" % (index - 1, p) for p in problems]
            failed += tests  # a failed check is reported, not timed
        else:
            failed += rep["failed"]
            (traced if with_trace else plain).append(rep)
        elapsed = time.monotonic() - began
        enough = len(plain) >= (1 if trace else 2) and (not trace or traced)
        if (elapsed >= seconds and enough) or elapsed >= RUN_BUDGET_S:
            break
    shutil.rmtree(runs_dir, ignore_errors=True)

    reps = plain + traced
    digests = {r["digest"] for r in reps}
    if len(digests) > 1:
        failures.append("journal digests differ across repetitions: %s" %
                        sorted(d[:12] for d in digests))
    if len({r["executed"] for r in reps}) > 1:
        failures.append("executed counts differ across repetitions")

    result = {"workload": workload, "seed": seed, "tests": tests,
              "repetitions": len(reps), "attempted": attempted,
              "failed": failed, "failures": failures,
              "per_repetition": [
                  {key: r[key] for key in (
                      "scenarios_per_s", "find_s", "setup_s", "vsec_per_s",
                      "peak_rss_mb", "tests_to_find", "digest")}
                  for r in reps]}
    if plain:
        result["host"] = host_metadata(plain[0]["raw"])
        result["end_to_end"] = end_to_end(plain, attempted, failed)
    if traced:
        result["per_layer"] = layer_summary(traced, plain)
        result["self_time_s"] = self_time_by_span(traced[0])
    result["correct"] = not failures and bool(plain) and (
        not trace or bool(traced))
    return result


def end_to_end(reps, attempted, failed):
    """{name: (median, n)} over untraced repetitions."""
    out = {}
    for name in ("scenarios_per_s", "vsec_per_s", "peak_rss_mb"):
        out[name] = (stats.median([r[name] for r in reps]), len(reps))
    setups = [s for r in reps for s in r["setup_samples"]]
    out["setup_s"] = (stats.median(setups), len(setups))
    out["find_s"] = (stats.median([r["find_s"] for r in reps]), len(reps))
    out["fail_ratio"] = (failed / attempted, attempted)
    out["worker_peak_rss_mb"] = (
        stats.median([r["worker_peak_rss_mb"] for r in reps]), len(reps))
    out["tests_to_find"] = (reps[0]["tests_to_find"], len(reps))
    return out


def layer_summary(traced, plain):
    layers = [per_layer(r) for r in traced]
    out = {}
    for name in layers[0]:
        values = [layer[name][0] for layer in layers]
        out[name] = (stats.median(values), layers[0][name][1])
    if plain:
        untraced = stats.median([r["scenarios_per_s"] for r in plain])
        with_trace = stats.median([r["scenarios_per_s"] for r in traced])
        out["trace.overhead_pct"] = (
            (untraced / with_trace - 1.0) * 100.0, len(plain) + len(traced))
    return out


# --- output --------------------------------------------------------------------

def print_table(title, rows, units, spreads=None):
    print("== %s" % title)
    for name, (value, n) in rows.items():
        shown = "-" if value is None else "%.6g" % value
        spread = (spreads or {}).get(name)
        print("  %-30s %16s %-6s n=%d%s" % (
            name, shown, units.get(name, ""), n,
            "" if spread is None else "  iqr/median=%.3f" % spread))


def emit(result, trace):
    if "host" in result:
        host = result["host"]
        print("# host: nproc=%s cpu=%s" % (host["nproc"], host["cpu"]))
        print("# build: %s %s, %s, git %s" % (
            host["compiler"], host["build_type"],
            "optimised" if host["optimized"] else "UNOPTIMISED",
            host["git_describe"]))
        if host["flagged"]:
            print("# WARNING: sanitizer or unoptimised build; numbers are "
                  "not comparable")
    for failure in result["failures"]:
        print("# CHECK FAILED: %s" % failure)
    units = {**END_TO_END, **UNGATED, "worker_peak_rss_mb": "MB",
             "tests_to_find": "count", **PER_LAYER}
    if "end_to_end" in result:
        reps = result["per_repetition"]
        spreads = {name: stats.iqr_share([r[name] for r in reps])
                   for name in [*END_TO_END, "find_s"] if len(reps) >= 2}
        print_table("%s end-to-end (seed %d, %d repetitions)" % (
            result["workload"], result["seed"], result["repetitions"]),
            result["end_to_end"], units, spreads)
    if "per_layer" in result:
        print_table("%s per-layer (traced)" % result["workload"],
                    result["per_layer"], units)
        print_table("%s self time by span (first traced repetition)" %
                    result["workload"], result["self_time_s"],
                    {name: "s" for name in result["self_time_s"]})
    wanted = PER_LAYER if trace else END_TO_END
    source = result.get("per_layer" if trace else "end_to_end", {})
    metrics = {name: {"value": source[name][0], "unit": unit}
               for name, unit in wanted.items() if name in source}
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json" % (
        result["workload"], result["seed"], int(trace)))
    with open(path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": result["correct"] and len(metrics) ==
                      len(wanted),
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print all metrics")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tests", type=int, default=None,
                        help="override the campaign size (smoke tests)")
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("--workload or --all is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log("perfbench: build failed: %s" % error)
        return 1

    if not args.all:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.tests)
        emit(result, bool(args.trace))
        return 0

    summary = {}
    for workload in WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, False,
                              args.tests)
        summary[workload] = result
        for failure in result["failures"]:
            print("# %s CHECK FAILED: %s" % (workload, failure))
    names = list(END_TO_END) + list(UNGATED)
    print("%-14s" % "workload" + "".join("%18s" % n for n in names))
    for workload, result in summary.items():
        e2e = result.get("end_to_end", {})
        print("%-14s" % workload + "".join(
            "%18s" % ("-" if e2e.get(n, (None,))[0] is None
                      else "%.6g" % e2e[n][0]) for n in names))
    print("units: " + ", ".join("%s=%s" % (n, {**END_TO_END, **UNGATED}[n])
                                for n in names))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "all-seed%d.json" % args.seed),
              "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    return 0 if all(r["correct"] for r in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
