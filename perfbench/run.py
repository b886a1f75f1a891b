#!/usr/bin/env python3
"""flowcam benchmark: four traffic workloads through the real entry points.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the repository root. The script builds perfbench/flowcam_bench (the
flowcam library from src/ plus the driver in this directory) in Release under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then measures.

--trace 0 prints the end-to-end metrics: host throughput of untraced
ScenarioRunner::run / ShardedEngine::run calls, repeated in fresh processes
for --seconds seconds (at the repeats' fastest quartile), the median set-up
time and peak RSS, and the simulated outcome. Host times are scaled by a
calibration probe timed between repeats (README.md). --trace 1 prints the
per-layer metrics of a traced run driven from this directory's code. The
last stdout line is always one JSON object {"correct", "attempted", "failed",
"metrics"}; the line before it is a record with the provenance, the
workload's character and every repeat.

A run fails its checks, and its packets count as failed operations, when it
errors, does not drain, retires fewer completions than packets, disagrees with
another repeat or with the traced driver in any simulated outcome, or (on
flood_sharded) differs from insert_flood in packets, completions or distinct
flows. Dropped packets are a modelled outcome, reported as served_frac and
lut.drop_frac.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 2014
# Seed kept out of every tuning run; a later performance claim must also hold
# on it (see README.md).
HELD_OUT_SEED = 7919
SELF_TEST_PACKETS = 4_000
MIN_REPEATS = 3
CALL_TIMEOUT_S = 60
# The calibration probe's time on the reference host (4-vCPU Xeon VM, GCC
# 12.2, Release) when no other tenant slowed it. Host times are scaled to
# this speed; see README.md.
CAL_REFERENCE_S = 0.40

SHARDED = {"flood_sharded": "insert_flood"}

# Simulated fields every path must reproduce exactly.
OUTCOME_KEYS = ("packets", "completions", "cam_hits", "lu1_hits", "lu2_hits", "new_flows",
                "drops", "flows_expired", "buffer_retries", "distinct_flows", "cycles",
                "drained", "mdesc_per_s")

class BuildError(Exception):
    pass


class CallError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure (once) and build the driver; returns the binary path."""
    if not (ROOT / "src" / "workload" / "runner.hpp").is_file():
        raise BuildError(f"flowcam sources not found under {ROOT / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise BuildError("build step failed: " + " ".join(step))
    binary = out / "flowcam_bench"
    if not binary.is_file():
        raise BuildError(f"{binary} was not built")
    return binary


class Driver:
    """Calls the binary for one workload and seed. `packets` overrides the
    workload's fixed size (self-test); None keeps it."""

    def __init__(self, binary, seed, packets=None):
        self.binary = binary
        self.seed = seed
        self.packets = packets

    def call(self, command, workload=None, **options):
        argv = [str(self.binary), command]
        if workload is not None:
            argv += ["--workload", workload, "--seed", str(self.seed)]
            if self.packets is not None:
                argv += ["--packets", str(self.packets)]
        for key, value in options.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        try:
            done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise CallError(f"{command} {workload}: timed out") from exc
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise CallError(f"{command} {workload}: exit {done.returncode}: {done.stderr.strip()}")
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError as exc:
            raise CallError(f"{command} {workload}: bad output {lines[-1]!r}") from exc


def outcome(record):
    return {key: record.get(key) for key in OUTCOME_KEYS}


class Checker:
    """Correctness bookkeeping: every checked run adds its packets to
    `attempted`; a run that fails a check adds them to `failed` too."""

    def __init__(self, packets):
        self.packets = packets
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None

    def run(self, label, record):
        """Check one run record; returns it, or None when it errored."""
        self.attempted += self.packets
        problem = None
        if record is None or isinstance(record, CallError):
            problem = str(record)
        elif record.get("kind") == "run" and not record.get("ok"):
            problem = record.get("error", "run failed")
        elif not record["drained"]:
            problem = "did not drain"
        elif record["completions"] != record["packets"] or record["packets"] != self.packets:
            problem = (f"packets {record['packets']} / completions {record['completions']}"
                       f" / budget {self.packets}")
        elif self.reference is None:
            self.reference = (label, outcome(record))
        elif outcome(record) != self.reference[1]:
            problem = f"simulated outcome differs from {self.reference[0]}: {outcome(record)}"
        if problem is not None:
            self.failed += self.packets
            self.problems.append(f"{label}: {problem}")
            return None
        return record

    def absorb(self, other):
        """Fold in the tally of runs checked against another reference."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems

    def same(self, label, record, other_label, other, keys):
        """A cross-workload check (flood_sharded against insert_flood)."""
        if record is None or other is None:
            return
        differing = [k for k in keys if record[k] != other[k]]
        if differing:
            self.failed += self.packets
            self.problems.append(f"{label} differs from {other_label} on {differing}")


def safe(driver, command, workload=None, **options):
    try:
        return driver.call(command, workload, **options)
    except CallError as exc:
        return exc


def median(values):
    return statistics.median(values) if values else 0.0


def fast_quartile(values):
    """Lower quartile of host times. Interference from other tenants of the
    shared host only ever slows a repeat, so the fastest quartile is the
    steadier estimate of the code's own speed."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=4)[0]


def character(record, trace=None):
    """The shares that set a workload's character, from a checked run and,
    for the draw count, a checked traced-driver run."""
    packets = record["packets"]
    completions = max(record["completions"], 1)
    shares = {
        "new_flow_frac": record["new_flows"] / completions,
        "drop_frac": record["drops"] / packets,
        "expired_per_pkt": record["flows_expired"] / packets,
        "retries_per_pkt": record["buffer_retries"] / packets,
        "cam_frac": record["cam_hits"] / completions,
        "lu1_frac": record["lu1_hits"] / completions,
        "lu2_frac": record["lu2_hits"] / completions,
    }
    if trace:
        shares["draws_per_pkt"] = trace["spans"]["workload.next"]["calls"] / packets
    return shares


def checked(check, label, records):
    """Check records in order; returns the ones that passed."""
    passed = [check.run(f"{label} {i}", record) for i, record in enumerate(records)]
    return [r for r in passed if r is not None]


def check_mono(check, label, records):
    """The monolithic workload's runs for the sharded cross-check. They get
    their own reference: insert_flood's outcome is not flood_sharded's."""
    mono_check = Checker(check.packets)
    passed = checked(mono_check, label, records)
    check.absorb(mono_check)
    return passed


def measure_end_to_end(driver, workload, seconds, min_repeats, check):
    setups = []
    runs = []
    probes = []
    trace = safe(driver, "trace", workload, replay=0)
    mono = [safe(driver, "run", SHARDED[workload])] if workload in SHARDED else []
    deadline = time.monotonic() + seconds
    while len(runs) < min_repeats or time.monotonic() < deadline:
        setup = safe(driver, "setup", workload)
        if isinstance(setup, CallError):
            check.run("setup", setup)
        else:
            setups.append(setup["setup_s"])
        runs.append(safe(driver, "run", workload))
        probe = safe(driver, "calibrate")
        if isinstance(probe, CallError):
            check.run("calibrate", probe)
        else:
            probes.append(probe["cal_s"])
    # The runner's repeats are the reference the traced driver must match.
    good = checked(check, "run", runs)
    trace = check.run("traced driver", trace)
    mono = (check_mono(check, SHARDED.get(workload), mono) or [None])[0]
    if mono is not None:
        check.same(workload, good[0] if good else None, SHARDED[workload], mono,
                   ("packets", "completions", "distinct_flows"))
    first = good[0] if good else trace
    metrics = {}
    # How much slower than the reference the host ran during this run: host
    # times are divided by it, rates multiplied.
    slowdown = fast_quartile(probes) / CAL_REFERENCE_S if probes else None
    if good and slowdown:
        packets = good[0]["packets"]
        metrics["pkts_per_s"] = packets / fast_quartile([r["wall_s"] for r in good]) * slowdown
        metrics["cpu_pkts_per_s"] = packets / fast_quartile([r["cpu_s"] for r in good]) * slowdown
    if good:
        metrics["peak_rss_mb"] = median([r["peak_rss_kb"] / 1024.0 for r in good])
        metrics["sim_mdesc_per_s"] = first["mdesc_per_s"]
        metrics["served_frac"] = 1.0 - first["drops"] / first["packets"]
    if setups and slowdown:
        metrics["setup_s"] = median(setups) / slowdown
    repeats = {
        "wall_s": [r["wall_s"] for r in good],
        "cpu_s": [r["cpu_s"] for r in good],
        "peak_rss_kb": [r["peak_rss_kb"] for r in good],
        "setup_s": setups,
        "calibrate_s": probes,
        "slowdown": slowdown,
    }
    return metrics, repeats, character(first, trace) if first else {}


LAYER_TIMES = ("hash.ns_per_key", "analyzer.feed_ns_per_pkt", "analyzer.step_ns_per_pkt",
               "analyzer.step_ns_per_cycle", "sim.ff_ns_per_pkt")


def measure_layers(driver, workload, seconds, min_repeats, check, span_file, threads):
    sharded = workload in SHARDED
    replay = safe(driver, "trace", workload, replay=1, span_file=span_file)
    traced, untraced, decorated, parallel, mono = [], [], [], [], []
    deadline = time.monotonic() + seconds
    rounds = 0
    while rounds < min_repeats or time.monotonic() < deadline:
        rounds += 1
        # The traced driver runs the slices serially, so on flood_sharded its
        # overhead is taken against the serial (1-thread) ShardedEngine run.
        untraced.append(safe(driver, "run", workload, **({"jobs": 1} if sharded else {})))
        traced.append(safe(driver, "trace", workload, replay=0))
        decorated.append(safe(driver, "run", workload, decorate=1))
        if sharded:
            parallel.append(safe(driver, "run", workload))
            mono.append(safe(driver, "run", SHARDED[workload]))
    # The runner's runs come first: they are the reference every other path
    # (thread count, decorator, traced driver) must match exactly.
    untraced = checked(check, "run", untraced)
    parallel = checked(check, "4-thread run", parallel)
    decorated = checked(check, "decorated run", decorated)
    # The replay run also captures every accepted key and DDR command, so it
    # gives the counts, the replays and the character, and no host time.
    first = check.run("traced driver with replays", replay)
    traced = checked(check, "traced driver", traced)
    mono = check_mono(check, SHARDED.get(workload), mono)
    if sharded and parallel and mono:
        check.same(workload, parallel[0], SHARDED[workload], mono[0],
                   ("packets", "completions", "distinct_flows"))
    if not (first and traced and untraced and decorated and (parallel and mono or not sharded)):
        return {}, {}
    metrics = dict(first["layers"])
    metrics["lut.lat_p50_ns"] = first["sim_lat_p50_ns"]
    metrics["lut.lat_p99_ns"] = first["sim_lat_p99_ns"]
    for name in LAYER_TIMES:
        metrics[name] = median([r["layers"][name] for r in traced])
    metrics["workload.next_ns_per_pkt"] = median(
        [r["next_ns"] / r["packets"] for r in decorated])
    metrics["workload.draws_per_pkt"] = decorated[0]["next_calls"] / decorated[0]["packets"]
    own = parallel if sharded else untraced
    if sharded:
        metrics["shard.speedup_vs_mono"] = (median([r["wall_s"] for r in mono])
                                            / median([r["wall_s"] for r in parallel]))
    else:
        metrics["shard.speedup_vs_mono"] = 1.0  # the run is the monolith.
    metrics["shard.cpu_util"] = median([r["cpu_s"] / (r["wall_s"] * threads) for r in own])
    metrics["trace.overhead_frac"] = (median([r["wall_s"] for r in traced])
                                      / median([r["wall_s"] for r in untraced]) - 1.0)
    metrics["trace.covered_frac"] = median([r["covered_s"] / r["wall_s"] for r in traced])
    return metrics, character(first, first)


def provenance(info, workload, seed, packets, seconds, trace):
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "packets": packets, "seconds": seconds,
        "trace": trace, "held_out_seed": HELD_OUT_SEED, "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "compiler": info["compiler"], "build_type": info["build_type"],
        "flowcam_simd": info["flowcam_simd"], "git_sha": git_sha(), "src_sha256": src_digest(),
    }


def git_sha():
    """HEAD's sha read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    """sha256 over src/ paths and contents: names the measured code where no
    git metadata exists (the benchmark may run from a plain export)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def refuse_unfit_build(info):
    if info["build_type"] in ("Debug", "") or not info["ndebug"] or info["sanitizer"]:
        raise BuildError(f"refusing to measure a {info['build_type'] or 'untyped'} build "
                         f"(ndebug={info['ndebug']}, sanitizer={info['sanitizer']})")


def bench_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as spec:
        return json.load(spec)


def workloads():
    """Workload name -> why it was chosen, as BENCHMARK.json records them."""
    return {w["name"]: w["why"] for w in bench_spec()["workloads"]}


def measure(binary, info, workload, seed, seconds, trace, min_repeats, packets=None):
    """Measure one workload; `packets` overrides its fixed size (self-test)."""
    driver = Driver(binary, seed, packets)
    if packets is None:
        packets = info["packets"][workload]
    check = Checker(packets)
    if trace:
        span_file = build_dir() / "traces" / f"{workload}-seed{seed}.json"
        span_file.parent.mkdir(parents=True, exist_ok=True)
        metrics, shares = measure_layers(driver, workload, seconds, min_repeats, check,
                                         span_file, info["threads"][workload])
        repeats = {}
    else:
        metrics, repeats, shares = measure_end_to_end(driver, workload, seconds, min_repeats,
                                                      check)
    units = {m["name"]: m["unit"]
             for m in bench_spec()["per_layer" if trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        check.failed = max(check.failed, packets)
        check.problems.append(f"metrics not measured: {missing}")
    record = {
        "provenance": provenance(info, workload, seed, packets, seconds, trace),
        "why": workloads()[workload],
        "character": shares,
        "repeats": repeats,
        "problems": check.problems,
    }
    result = {
        "correct": check.failed == 0 and not check.problems,
        "attempted": max(check.attempted, 1),
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    return record, result


def self_test(binary, info):
    """Tiny runs of every workload in both modes: every metric BENCHMARK.json
    names must come out with its unit, and every correctness check must pass."""
    spec = bench_spec()
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = set(workloads())
    if set(info["packets"]) != names:
        log(f"self-test: workload lists disagree: {sorted(names)} / {sorted(info['packets'])}")
        return 1
    failures = 0
    for workload in sorted(names):
        for trace in (0, 1):
            _, result = measure(binary, info, workload, DEFAULT_SEED, 0, trace, 1,
                                SELF_TEST_PACKETS)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = result["correct"] and emitted == expected[trace]
            failures += not ok
            log(f"self-test {workload} trace={trace}: {'ok' if ok else 'FAIL'}")
            if not ok:
                log(json.dumps(result))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload not in workloads():
        parser.error(f"--workload must be one of {sorted(workloads())}")
    try:
        binary = build()
        info = Driver(binary, args.seed).call("info")
        refuse_unfit_build(info)
    except (BuildError, CallError) as exc:
        log(f"flowcam benchmark: {exc}")
        return 1
    if args.self_test:
        return self_test(binary, info)
    seconds = args.seconds if args.seconds is not None else bench_spec()["run_seconds"]
    record, result = measure(binary, info, args.workload, args.seed, seconds, args.trace,
                             MIN_REPEATS)
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
