#!/usr/bin/env python3
"""End-to-end campaign benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of the repository.  It builds perfbench_driver and its
own copy of ipfs_core into .bench_build/ (Release only), then runs the
workload one measured run per process, repeating for --seconds (and at
least MIN_RUNS times).  Every run is checked: the export hash must be the
same in every run of one seed (and equal the pinned hash at the default
seed), the analysis tables must be identical, and the workload's regime
guards must hold.

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported as
medians over the runs; with --trace 1 the per-layer metrics, from traced
runs interleaved with untraced ones (their difference is the tracing
overhead).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A failed check makes the
exit code 1; a missing source tree or a non-Release build makes it 2,
before anything is printed on stdout.

--all runs every workload in turn with tracing, prints every metric, and
exits 1 when any run failed.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
DRIVER = BUILD_DIR / "perfbench_driver"

DEFAULT_SEED = 20211203
MIN_RUNS = 3
RUN_TIMEOUT_S = 150

# Each campaign workload's arguments are exactly those of
# `ipfs_sim run <scenario> ... --seed N` (test_exports.py checks the bytes).
# `pin` is the export hash at DEFAULT_SEED (for calibrate_trace: the hash
# of the emitted scenario and fit report).
WORKLOADS = {
    "p1_day": {
        "run": ["p1", "--scale", "0.3"],
        "pin": "50ac499d5eabc3b9",
    },
    "churn_hour": {
        "run": ["churn-baseline", "--scale", "5", "--duration", "3600"],
        "pin": "60d59839b0ba34e6",
    },
    "load_ramp": {
        "run": ["load-ramp", "--scale", "0.3"],
        "pin": "a3ed2d53dd753f18",
    },
    "calibrate_trace": {
        "trace_scale": "0.3",
        "pin": "ac7d0f5c3a8a921c",
    },
}


def guards(workload, run):
    """Names of the regime guards `run` trips (empty when in regime)."""
    tripped = []

    def need(name, ok):
        if not ok:
            tripped.append(f"{workload}.{name}")

    if workload == "p1_day":
        need("trim_closes", run["p2p.trim_closes"] > 0)
        need("open_peak_above_low_water", run["p2p.open_peak"] > 2000)
    elif workload == "churn_hour":
        need("population", run["campaign.population"] >= 200000)
        need("trim_closes", run["p2p.trim_closes"] > 0)
    elif workload == "load_ramp":
        need("fetches", run["fetches"] > 0)
        need("provides", run["provides"] > 0)
        need("population_samples", run["population_samples"] >= 24)
        need("no_trim", run["p2p.trim_closes"] == 0)
    else:
        need("fitted_groups", run["calibration.fitted_groups"] == 3)
        need("closed_loop", run["closed_loop_pass"] == 1)
    return tripped


def die(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(2)


# ---- build and fingerprint ---------------------------------------------------


def build():
    if not (ROOT / "src" / "scenario" / "campaign.hpp").is_file():
        die(f"no ipfs_core sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = [["cmake", "--build", str(BUILD_DIR), "-j", jobs]]
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    tmp = BUILD_DIR / "tmp"  # keeps the compiler's temporary files in the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            die("build failed: " + " ".join(step))
    info = json.loads(subprocess.run([str(DRIVER), "info"], check=True,
                                     capture_output=True, text=True).stdout)
    if info["build_type"] != "Release" or not info["ndebug"]:
        die(f"refusing a {info['build_type']} build of ipfs_core; "
            f"delete {BUILD_DIR} to rebuild it as Release")
    return info


def fingerprint(info):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True).stdout.split()
    in_git = len(git) == 2 and Path(git[0]).resolve() == ROOT
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*"), ROOT / "tools" / "ipfs_sim.cpp",
                        *BENCH_DIR.glob("*.cpp")]):
        if path.is_file():
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "git_commit": git[1] if in_git else "none (not a git checkout)",
        "source_sha256": digest.hexdigest()[:16],
    }


# ---- runs --------------------------------------------------------------------


def driver(args):
    """One driver process; its JSON line, or an error string."""
    try:
        done = subprocess.run([str(DRIVER), *args], capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {RUN_TIMEOUT_S} s"
    if done.returncode != 0:
        return done.stderr.strip() or f"exit code {done.returncode}"
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def make_input(workload, seed, work_dir):
    """Driver arguments for one run; calibrate_trace first writes its trace
    (in a process of its own, so its memory is not the measured run's)."""
    spec = WORKLOADS[workload]
    if "run" in spec:
        scenario, *rest = spec["run"]
        return ["campaign", "--scenario", scenario, *rest, "--seed", str(seed)]
    trace = Path(work_dir) / "trace.json"
    made = driver(["gen-trace", "--seed", str(seed), "--scale", spec["trace_scale"],
                   "--out", str(trace)])
    if isinstance(made, str):
        die(f"gen-trace failed: {made}")
    return ["calibrate", "--input", str(trace)]


def run_workload(workload, seed, seconds, trace):
    """Measured runs (and traced runs with `trace`) with every check applied.
    Returns (untraced runs, traced runs, failures, attempted, failed)."""
    untraced, traced, failures = [], [], []
    attempted = failed = 0
    BUILD_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BUILD_DIR) as work_dir:
        args = make_input(workload, seed, work_dir)
        deadline = time.monotonic() + seconds
        crashed = False
        while not crashed and (len(untraced) < MIN_RUNS or time.monotonic() < deadline):
            for traced_run in ([False, True] if trace else [False]):
                attempted += 1
                result = driver(args + (["--trace"] if traced_run else []))
                crashed = isinstance(result, str)  # an error repeats; stop here
                if crashed:
                    problems = [f"run failed: {result}"]
                else:
                    (traced if traced_run else untraced).append(result)
                    problems = [f"regime guard {g}" for g in guards(workload, result)]
                failures += problems
                failed += bool(problems)
                if crashed:
                    break
    mismatch = consistency(workload, seed, untraced, traced)
    if mismatch:  # a disagreement between runs puts every run in doubt
        failures += mismatch
        failed = attempted
    return untraced, traced, failures, attempted, failed


def consistency(workload, seed, untraced, traced):
    """Checks across the runs of one seed."""
    problems = []
    hashes = {run["export_hash"] for run in untraced}
    if workload != "calibrate_trace":  # traced calibration skips the loop in run()
        hashes |= {run["export_hash"] for run in traced}
    if len(hashes) > 1:
        problems.append(f"export hash differs between runs: {sorted(hashes)}")
    if seed == DEFAULT_SEED and hashes and hashes != {WORKLOADS[workload]["pin"]}:
        problems.append(f"export hash {sorted(hashes)} != pinned "
                        f"{WORKLOADS[workload]['pin']} at seed {DEFAULT_SEED}")
    digests = {run["analysis_digest"] for run in untraced + traced}
    if len(digests) > 1:
        problems.append(f"analysis tables differ between runs: {sorted(digests)}")
    if workload == "calibrate_trace":
        ks = {run["calibration.ks"] for run in untraced + traced}
        if len(ks) > 1:
            problems.append(f"closed-loop KS differs between runs: {sorted(ks)}")
    return problems


# ---- metrics -----------------------------------------------------------------


def median(runs, key):
    return statistics.median(run.get(key, 0) for run in runs)


def end_to_end(untraced):
    return {
        "wall_s": median(untraced, "wall_s"),
        "setup_s": median(untraced, "setup_s"),
        "analysis_s": median(untraced, "analysis_s"),
        "peak_rss_mb": median(untraced, "peak_rss_bytes") / 2**20,
    }


def per_layer(untraced, traced, declared):
    """Medians over the traced runs; 0 for a layer the workload never
    enters (calibration on the campaign workloads, export bytes on
    calibrate_trace)."""
    metrics = {name: median(traced, name) for name in declared}
    population = metrics["campaign.population"]
    events = metrics["sim.events"]
    export_s = metrics["measure.export_s"]
    metrics["sim.ns_per_event"] = metrics["campaign.loop_s"] * 1e9 / events if events else 0
    metrics["measure.export_mb_per_s"] = (
        metrics["measure.export_bytes"] / 1e6 / export_s if export_s > 0 else 0)
    metrics["process.rss_bytes_per_peer"] = (
        median(untraced, "peak_rss_bytes") / population if population else 0)
    metrics["trace.overhead_s"] = median(traced, "wall_s") - median(untraced, "wall_s")
    # Top-level spans of a traced run; the closed loop's campaign spans
    # nest inside calibration.verify_s.
    top = (("setup_s", "calibration.parse_s", "calibration.fit_s", "calibration.verify_s")
           if "calibration.parse_s" in traced[0] else
           ("scenario_spec.load_s", "campaign.create_s", "campaign.loop_s", "measure.export_s",
            "measure.merge_s", "campaign.teardown_s"))
    spans = [sum(run[key] for key in top) + run["analysis_s"] for run in traced]
    totals = [run["wall_s"] + run["analysis_s"] for run in traced]
    metrics["trace.unattributed_share"] = statistics.median(
        (total - span) / total for total, span in zip(totals, spans))
    return metrics


def report(workload, seed, seconds, trace, fp, runs, units, shown):
    """Prints every value the runs gave, records them under .bench_build/,
    and returns the result object with the metrics named in `shown`."""
    untraced, traced, failures, attempted, failed = runs
    print(f"== {workload}  seed {seed}  {seconds} s  trace {int(trace)}")
    print("   host: " + ", ".join(f"{k} {v}" for k, v in fp.items()))
    print(f"   runs: {len(untraced)} untraced, {len(traced)} traced; "
          f"error_rate {failed}/{attempted} = {failed / attempted:.3f}")
    for problem in failures:
        print(f"   FAIL {problem}")
    values = end_to_end(untraced) if untraced else {}
    if traced and untraced:
        values |= per_layer(untraced, traced, [n for n in shown if n not in values])
    for name, value in values.items():
        print(f"   {name:34s} {value:16.6f} {units[name]}")
    missing = [name for name in shown if name not in values]
    if missing:
        print(f"   no values for {missing}")
    Path(BUILD_DIR / "results").mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "host": fp, "failures": failures, "untraced": untraced, "traced": traced}
    (BUILD_DIR / "results" / f"{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return {
        "correct": not failures and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in shown if name in values},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, traced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("pass exactly one of --workload or --all")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    fp = fingerprint(build())
    if args.all:
        ok = True
        for workload in WORKLOADS:
            runs = run_workload(workload, args.seed, seconds, trace=True)
            result = report(workload, args.seed, seconds, True, fp, runs, units, e2e + layers)
            ok = ok and result["correct"]
        print(json.dumps({"correct": ok}))
        return 0 if ok else 1
    trace = args.trace == 1
    runs = run_workload(args.workload, args.seed, seconds, trace)
    result = report(args.workload, args.seed, seconds, trace, fp, runs, units,
                    layers if trace else e2e)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
