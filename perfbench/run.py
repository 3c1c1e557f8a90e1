#!/usr/bin/env python3
"""The repository's benchmark: builds perfbench against the library sources,
runs one workload, checks its outputs and prints the metrics.

    python3 perfbench/run.py --workload scan-10x|lru10-epochs|wire-eventq \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are setup_s, lookups_per_s and peak_rss_mb; with --trace 1 they are the
per-layer figures of one traced run. NOTES.md says what each one means.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "dhtidx_perfbench"

# World builds per untraced run, in separate processes; setup_s is their
# median. The first build is the one that gets fed.
BUILDS = {"scan-10x": 3, "lru10-epochs": 5, "wire-eventq": 5}


def per_layer_units():
    """Per-layer metric -> unit, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def run_process(command, timeout, stdout):
    """Runs `command` in its own process group and waits for it. On timeout
    the whole group (a build's compilers too) is killed and reaped. Returns
    (exit code, captured stdout), or (None, "") after a timeout."""
    process = subprocess.Popen(command, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                               text=True, start_new_session=True)
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        log("timed out: " + " ".join(command))
        return None, ""
    return process.returncode, out or ""


def run_quiet(command, timeout):
    """Runs a build step with its output on stderr; True when it succeeded."""
    return run_process(command, timeout, sys.stderr)[0] == 0


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the library sources (src/) are missing from " + ROOT)
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n" not in f.read():
                shutil.rmtree(build_dir)  # configured for another checkout
    if not os.path.isfile(cache):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"], 300):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", build_dir, "--target", BINARY, "-j", jobs], 840):
        return None
    return build_dir


def measure(build_dir, args, extra, timeout):
    """Runs the binary once and returns its JSON line, or None."""
    command = [os.path.join(build_dir, BINARY), "--workload", args.workload,
               "--seed", str(args.seed)] + extra
    code, out = run_process(command, timeout, subprocess.PIPE)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        if code is not None:
            log("failed (exit %d): %s" % (code, " ".join(command)))
        return None
    return json.loads(lines[-1])


def check(args, result):
    """Every problem with a run's outputs, as a list of messages."""
    problems = []
    counts = result["counts"]
    if result["failed"] != 0:
        problems.append("%d failed sessions" % result["failed"])
    if not result["consistent"]:
        problems.append("a rerun of the first pass did not repeat its counts")
    if result["attempted"] != result["queries"] * result["passes"]:
        problems.append("ran %d of %d sessions" % (result["attempted"],
                                                   result["queries"] * result["passes"]))
    if counts["storage_keys"] != result["articles"]:
        problems.append("%d stored keys for %d articles" % (counts["storage_keys"],
                                                            result["articles"]))
    if counts["interactions"] < counts["lookups"]:
        problems.append("fewer interactions than sessions")
    if args.workload == "wire-eventq":
        retransmits = result["run_counts"]["retransmits"]
        if retransmits != 0:
            problems.append("%d retransmissions on a fault-free bus" % retransmits)
        if counts["wire_frames"] == 0 or counts["posts"] == 0:
            problems.append("the bus carried no frames")
    with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as f:
        golden = json.load(f).get(args.workload, {}).get(str(args.seed))
    if golden is not None and (golden["queries"], golden["passes"]) == (
            result["queries"], result["passes"]):
        for part in ("counts", "run_counts"):
            for key, want in golden[part].items():
                got = result[part].get(key)
                if got is not None and got != want:
                    problems.append("%s %s: %s, committed %s" % (part, key, got, want))
    return problems


def record(args, result):
    path = os.path.join(HERE, "goldens.json")
    with open(path, encoding="utf-8") as f:
        goldens = json.load(f)
    goldens.setdefault(args.workload, {})[str(args.seed)] = {
        "queries": result["queries"], "passes": result["passes"],
        "counts": result["counts"], "run_counts": result["run_counts"]}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(goldens, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="commit this run's counts as the seed's expected counts "
                             "(use --trace 1, which also counts routing calls)")
    args = parser.parse_args()

    build_dir = build()
    if build_dir is None:
        return 2
    feed = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        feed += ["--spans-out", os.path.join(traces, args.workload + ".spans")]
    # A run must end within 180 s of its start once the binary is built.
    deadline = time.monotonic() + 170
    result = measure(build_dir, args, feed, 170)
    if result is None:
        return 1
    setups = [result["setup_s"]]
    if not args.trace:
        for _ in range(BUILDS[args.workload] - 1):
            # On a machine too slow to fit every build, report fewer.
            if time.monotonic() + 3 * max(setups) > deadline:
                log("deadline: %d of %d builds" % (len(setups), BUILDS[args.workload]))
                break
            extra = measure(build_dir, args, ["--mode", "setup"],
                            deadline - time.monotonic())
            if extra is None:
                return 1
            setups.append(extra["setup_s"])

    if args.record:
        record(args, result)
    problems = check(args, result)
    for problem in problems:
        log("%s seed %d: %s" % (args.workload, args.seed, problem))
    log("build seconds %s; pass seconds %s; pass wall seconds %s" % (
        " ".join("%.3f" % s for s in setups), " ".join("%.3f" % s for s in result["pass_s"]),
        " ".join("%.3f" % s for s in result["pass_wall_s"])))
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in per_layer_units().items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "lookups_per_s": {"value": result["lookups_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_bytes"] / 1e6, "unit": "MB"},
        }
    print("%s seed %d: %d passes of %d sessions, %d builds%s" % (
        args.workload, args.seed, result["passes"], result["queries"], len(setups),
        " (traced)" if args.trace else ""))
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
