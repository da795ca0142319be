#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_exports.py

Run from the root of the repository.  At the default seed, for each
workload:

- the driver's export is byte-identical to what users get from
  `ipfs_sim run <scenario> --scale ... [--duration ...] --seed N` (for
  calibrate_trace: `ipfs_sim calibrate TRACE --out ... --report ...`),
  and both equal the hash pinned in run.py;
- in one traced run, the timed spans account for the traced
  wall_s + analysis_s to within 5%.

Last, run.py must refuse (exit non-zero, nothing on stdout) in a directory
holding only BENCHMARK.json and perfbench/.

Exits 1 when any check fails.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.dont_write_bytecode = True
import run  # noqa: E402

IPFS_SIM = run.BUILD_DIR / "ipfs_sim"
MAX_UNATTRIBUTED = 0.05


def sim(*args):
    subprocess.run([str(IPFS_SIM), *args, "--quiet"], check=True, stdout=subprocess.DEVNULL)


def export_matches(workload, seed, work):
    """Driver export hash vs ipfs_sim's output file, and vs the pin."""
    args = run.make_input(workload, seed, work)
    measured = run.driver(args)
    if "run" in run.WORKLOADS[workload]:
        out = Path(work) / "export.json"
        sim("run", *run.WORKLOADS[workload]["run"], "--seed", str(seed), "--out", str(out))
        files = [out]
    else:
        files = [Path(work) / "scenario.json", Path(work) / "report.json"]
        sim("calibrate", args[-1], "--out", str(files[0]), "--report", str(files[1]))
    users = run.driver(["hash-file", *map(str, files)])
    pin = run.WORKLOADS[workload]["pin"]
    print(f"   driver {measured['export_hash']}, ipfs_sim {users['hash']} "
          f"({users['bytes']} bytes), pinned {pin}")
    return measured["export_hash"] == users["hash"] == pin, args, measured


def spans_account(workload, args, untraced, bench):
    traced = run.driver(args + ["--trace"])
    layers = [m["name"] for m in bench["per_layer"]]
    share = run.per_layer([untraced], [traced], layers)["trace.unattributed_share"]
    print(f"   unattributed share of traced wall_s + analysis_s: {share:.4f}")
    return abs(share) <= MAX_UNATTRIBUTED


def refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=run.BUILD_DIR) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, Path(bare) / "perfbench")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "p1_day", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    print(f"   exit {done.returncode}, stdout {done.stdout!r}")
    return done.returncode != 0 and not done.stdout


def main():
    run.build()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in run.WORKLOADS:
        print(f"== {workload}")
        with tempfile.TemporaryDirectory(dir=run.BUILD_DIR) as work:
            same, args, untraced = export_matches(workload, run.DEFAULT_SEED, work)
            if not same:
                failures.append(f"{workload}: export differs from ipfs_sim or the pin")
            if not spans_account(workload, args, untraced, bench):
                failures.append(f"{workload}: spans leave more than 5% unattributed")
    print("== bare directory")
    if not refuses_without_sources():
        failures.append("run.py did not refuse a directory without sources")
    for failure in failures:
        print(f"FAIL {failure}")
    print("PASS" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
