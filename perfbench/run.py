#!/usr/bin/env python3
"""End-to-end benchmark of the SiMany simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --list              # every metric, unit, prediction
    python3 perfbench/run.py --write-reference   # regenerate reference.json

Builds the benchmark program (perfbench/simbench.cpp, linked against the
library sources in src/) into .bench_build/ under the checkout root, runs
one workload in one process, checks every simulated result against the
stored reference digests, and prints one JSON object as the last line of
stdout. Build output and diagnostics go to stderr.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
MANIFEST = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
RUN_TIMEOUT_S = 170

# What each per-layer metric should move, on which workload, and where
# the prediction is no change. Keys are metric-name prefixes; the longest
# matching prefix applies (call counts have their own entry, prediction()).
_MOVES = "slowdown_x (and run_s)"
PREDICTIONS = {
    "run_s": "the whole-run host seconds every layer below adds to; not "
             "gated because host-speed drift spreads it past the largest "
             "bound (slowdown_x is its drift-free, gated form)",
    "core.compute": f"{_MOVES} on seq-1024 and par4-1024 (drift-limit "
                    "recomputes land in compute/mem/probe); little change "
                    "on dist-64",
    "core.mem": f"{_MOVES} on seq-1024 and par4-1024; little change on dist-64",
    "core.probe": f"{_MOVES} on seq-1024 and par4-1024; little change on "
                  "dist-64",
    "core.cell": f"{_MOVES} on dist-64 (DATA_REQUEST traffic, cell hand-offs)",
    "core.spawn": f"{_MOVES} on every workload, most on dist-64",
    "core.join": f"{_MOVES} on every workload (small everywhere)",
    "core.lock": "no change: the six dwarfs take no locks",
    "core.other": f"{_MOVES} on par4-1024 (round-barrier waits land on open "
                  "intervals, mostly task returns); small elsewhere",
    "dwarfs.native_s": "no change from simulator work: dwarf code itself",
    "core.sync": f"{_MOVES} on seq-1024 and par4-1024; little change on "
                 "dist-64",
    "core.tasks": f"{_MOVES} on dist-64",
    "core.fiber": f"{_MOVES} on dist-64",
    "net.": f"{_MOVES} on dist-64",
    "host.": f"{_MOVES} on par4-1024 only; the sequential host has no rounds "
             "(only host.serial_s and host.rounds read non-zero there)",
    "obs.": f"{_MOVES} and peak_rss_mb on observed-1024 only; 0 on the other "
            "workloads, which bypass src/obs",
    "runtime.": "slowdown_x on every workload (its denominator)",
    "trace.overhead_x": "no end-to-end metric: the cost of the traced run "
                        "itself",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_manifest():
    try:
        return json.loads(MANIFEST.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {MANIFEST.name}: {e}")


def build():
    """Configures and builds simbench (a no-op when up to date)."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "simbench",
              "-j", jobs]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return BUILD / "simbench"


def run_simbench(exe, args):
    try:
        r = subprocess.run([str(exe)] + args, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"simbench did not finish within {RUN_TIMEOUT_S} s")
    if r.returncode != 0:
        fail(f"simbench exited with {r.returncode}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("simbench printed no result")
    return json.loads(lines[-1])


def check_sims(result, reference):
    """Counts simulations that threw or whose digest differs from the
    stored reference (traced runs included: they must reproduce it)."""
    digests = reference["digests"].get(result["reference"], {})
    failed = 0
    for s in result["sims"]:
        want = digests.get(s["dwarf"], {}).get(str(s["dataset"]))
        if s["error"] or want != s["digest"]:
            failed += 1
            why = s["error"] or f"digest {s['digest']} != reference {want}"
            print(f"perfbench: FAIL {s['phase']} {s['dwarf']} "
                  f"dataset {s['dataset']}: {why}", file=sys.stderr)
    return len(result["sims"]), failed


def run_workload(args):
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}")
    seconds = args.seconds or manifest["run_seconds"]
    if seconds <= 0 or args.trace not in (0, 1):
        fail("--seconds must be > 0 and --trace 0 or 1")
    try:
        reference = json.loads(REFERENCE.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {REFERENCE.name}: {e}")

    exe = build()
    result = run_simbench(exe, ["--workload", args.workload,
                              "--seed", str(args.seed),
                              "--seconds", str(seconds),
                              "--trace", str(args.trace)])
    attempted, failed = check_sims(result, reference)
    raw = dict(result["metrics"])
    kind = "per_layer" if args.trace else "end_to_end"
    if not args.trace:
        raw["ok_frac"] = 1.0 - failed / attempted
    metrics = {}
    for m in manifest[kind]:
        value = raw.pop(m["name"], None)
        if value is None or not math.isfinite(value):
            fail(f"metric {m['name']} missing or not finite: {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if raw:
        fail(f"simbench reported metrics not in {MANIFEST.name}: {sorted(raw)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def prediction(name):
    if name.endswith("_calls"):
        return ("no change: a count fixed by the dwarf code and the "
                "digest-checked simulated result")
    keys = [k for k in PREDICTIONS if name.startswith(k)]
    return PREDICTIONS[max(keys, key=len)] if keys else ""


def list_metrics():
    manifest = load_manifest()
    print("workloads:")
    for w in manifest["workloads"]:
        print(f"  {w['name']:14s} {w['why']}")
    for kind in ("end_to_end", "per_layer"):
        print(f"{kind} metrics (--trace {0 if kind == 'end_to_end' else 1}):")
        for m in manifest[kind]:
            extra = (f"bound {m['bound']}" if kind == "end_to_end"
                     else prediction(m["name"]))
            print(f"  {m['name']:28s} {m['unit']:6s} {m['better']:6s} {extra}")


def write_reference():
    exe = build()
    manifest = load_manifest()
    digests = {}
    pool_size = None
    for w in manifest["workloads"]:
        result = run_simbench(exe, ["--workload", w["name"], "--pool"])
        table = {}
        for s in result["sims"]:
            if s["error"]:
                fail(f"{w['name']} {s['dwarf']} dataset {s['dataset']}: "
                     f"{s['error']}")
            table.setdefault(s["dwarf"], {})[str(s["dataset"])] = s["digest"]
        # A workload that shares another's architecture (observed-1024
        # attaches telemetry to seq-1024) must reproduce its results.
        ref = result["reference"]
        if digests.setdefault(ref, table) != table:
            fail(f"{w['name']} does not reproduce the {ref} results")
        pool_size = result["pool_size"]
    REFERENCE.write_text(json.dumps(
        {"pool_size": pool_size, "digests": digests}, indent=1,
        sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="measurement window (default: run_seconds)")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--list", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args()
    if args.list:
        list_metrics()
    elif args.write_reference:
        write_reference()
    elif args.workload:
        run_workload(args)
    else:
        p.error("--workload, --list or --write-reference is required")


if __name__ == "__main__":
    main()
