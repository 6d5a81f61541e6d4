#!/usr/bin/env python3
"""The repository benchmark: one command per workload, from the repo root.

    python3 perfbench/run.py --workload cli-flow-500 [--seed 42]
        [--seconds 20] [--trace 0|1] [--trace-out FILE]

Builds the library and the workload runner from source with CMake (into
$CARGO_TARGET_DIR, default .bench_build), runs one workload from the seed,
checks its outputs, and prints every metric by name with its unit. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the human-readable report goes to standard
error. --trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
prints its per-layer metrics, derived from a traced run and the
tools/mbta_trace self-time summary. Exits nonzero when any output check
fails or the benchmark cannot build. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Span names the runner and the library emit, by layer. The runner's own
# spans carry the layer as their first path segment; the library's
# SolveStats phases are bare labels (ScopedPhase emits the label only).
LAYER_OF_SPAN = {
    "io/read": "io", "io/write": "io", "io/read_assignment": "io",
    "core/solve": "core", "solve": "core",
    "flow": "flow", "build_graph": "flow", "augment": "flow",
    "extract": "flow", "mcf/init_potentials": "flow",
    "mcf/shortest_path": "flow",
    "validate/assignment": "validate", "validate": "validate",
    "service/start": "service", "service/submit": "service",
    "service/run_epoch": "service", "service": "service", "epoch": "service",
    "apply": "service", "rebuild": "service", "repair": "service",
    "full_resolve": "service", "wal": "service", "snapshot": "service",
    # The benchmark's own output checks run between ops, outside every
    # measured interval; their time is shown but left out of the shares.
    "bench/check": "checks",
}
LAYERS = ["io", "core", "flow", "validate", "service", "other"]
# Roots of the timed operations: a CLI op, a service epoch.
OP_ROOTS = ["bench/op", "service/run_epoch"]
# The workload each stress check is for, and the check itself.
STRESS_CHECKS = {
    "cli-flow-500": ("flow.augment_ms >= 90% of solve_s",
                     lambda m: m["flow.augment_ms"] >= 0.9e3 * m["solve_s"]),
    "service-500": ("service.bulk.repair_ms >= 90% of bulk_load_s and "
                    "service.epoch.rebuild_ms >= 50% of the mean epoch",
                    lambda m: m["service.bulk.repair_ms"]
                    >= 0.9e3 * m["bulk_load_s"]
                    and m["service.epoch.rebuild_ms"]
                    >= 0.5 * sum(v for k, v in m.items()
                                 if k.startswith("service.epoch.")
                                 and k.endswith("_ms"))),
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the runner and mbta_trace."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: no library sources next to perfbench/ (src/ missing)")
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", build_dir, "-j", jobs, "--target",
                "perfbench_workloads", "mbta_trace"]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def trace_summary(mbta_trace, trace_file):
    """Runs mbta_trace and returns {span: (calls, total_ms, self_ms)}."""
    out = subprocess.run([mbta_trace, trace_file], capture_output=True,
                         text=True, check=True).stdout
    spans = {}
    for line in out.splitlines()[2:]:  # after the header and its rule
        cells = line.split()
        if len(cells) != 4:
            break  # the span table ends at the first blank line
        spans[cells[0]] = (int(cells[1]), float(cells[2]), float(cells[3]))
    return spans


def layer_report(spans, metrics):
    """Per-layer self time, `other` rows and coverage from the summary."""
    self_ms = {layer: 0.0 for layer in LAYERS + ["checks"]}
    for name, (_, _, self_) in spans.items():
        self_ms[LAYER_OF_SPAN.get(name, "other")] += self_
    traced_ms = sum(self_ms[layer] for layer in LAYERS)
    log("\nper-layer self time over the traced part (mbta_trace):")
    log(f"  {'layer':<10} {'self ms':>12} {'share':>8}")
    for layer in LAYERS:
        share = 100.0 * self_ms[layer] / traced_ms if traced_ms else 0.0
        metrics[f"layer.{layer}.self_pct"] = share
        log(f"  {layer:<10} {self_ms[layer]:>12.3f} {share:>7.2f}%")
    log(f"  {'(checks)':<10} {self_ms['checks']:>12.3f}   output checks, "
        "between ops")
    log("spans whose children cover less than 90% of them:")
    for name, (calls, total, self_) in sorted(spans.items()):
        if self_ < total and self_ > 0.1 * total:
            log(f"  {name}/other  {self_:.3f} ms of {total:.3f} ms "
                f"over {calls} calls")
    roots = [spans[r] for r in OP_ROOTS if r in spans]
    root_ms = sum(total for _, total, _ in roots)
    unnamed_ms = spans["bench/op"][2] if "bench/op" in spans else 0.0
    metrics["obs.layer_coverage_pct"] = (
        100.0 * (root_ms - unnamed_ms) / root_ms if root_ms else 0.0)
    log(f"op and epoch time attributed to named layers: "
        f"{metrics['obs.layer_coverage_pct']:.2f}%")


def check_recorded(result, workload, seed):
    """Checks mb and the work-count fingerprint against the values
    recorded for the seed, if any; each mismatch is a failed op."""
    with open(os.path.join(HERE, "expected.json")) as f:
        recorded = json.load(f).get(str(seed), {}).get(workload)

    def check(ok, why):
        result["attempted"] += 1
        if not ok:
            result["failed"] += 1
            result["failures"].append(why)

    log("\nwork-count fingerprint (repeats exactly for a seed):")
    for key, value in sorted(result["fingerprint"].items()):
        note = ""
        if recorded is not None:
            want = recorded["fingerprint"].get(key)
            note = "  (recorded)" if want == value else f"  (recorded {want})"
            check(want == value, f"{key} {value} != recorded {want}")
        log(f"  {key:<32} {value}{note}")
    if recorded is None:
        log(f"no recorded values for seed {seed}; checked against the "
            "in-run reference only")
        return
    mb, want = result["metrics"]["mb"], recorded["mb"]
    ok = abs(mb - want) <= 1e-9 * max(1.0, abs(want))
    log(f"mb {mb!r} vs recorded {want!r}: {'ok' if ok else 'MISMATCH'}")
    check(ok, f"mb {mb!r} != recorded {want!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-out", metavar="FILE",
                        help="with --trace 1, keep the Chrome trace here")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir, "perfbench")
    if not build(build_dir):
        log("error: build failed")
        return 1

    work = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result_file = os.path.join(work, "result.json")
    trace_file = os.path.join(work, "trace.json")
    command = [os.path.join(build_dir, "perfbench_workloads"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work, "--out", result_file,
               "--trace-file", trace_file]
    try:
        runner = subprocess.run(command, stdout=sys.stderr, timeout=170)
        if runner.returncode != 0:
            log(f"error: the runner exited with {runner.returncode}")
            return 1
        with open(result_file) as f:
            result = json.load(f)
        metrics = result["metrics"]
        if args.trace:
            layer_report(trace_summary(
                os.path.join(build_dir, "mbta_trace"), trace_file), metrics)
            if args.trace_out:
                shutil.copyfile(trace_file, args.trace_out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    check_recorded(result, args.workload, args.seed)
    kind = "per_layer" if args.trace else "end_to_end"
    out = {}
    log(f"\n{args.workload} seed {args.seed}: {kind} metrics")
    for m in spec[kind]:
        name = m["name"]
        if name not in metrics and kind == "end_to_end":
            log(f"error: the runner did not measure {name}")
            return 1
        # A layer the workload does not exercise reads 0.
        value = metrics.get(name, 0.0)
        out[name] = {"value": value, "unit": m["unit"]}
        log(f"  {name:<34} {value:>16.6f} {m['unit']}")
    for name, count in sorted(result["samples"].items()):
        log(f"  samples {name:<26} {count:>16d}")
    if result["samples"].get("epoch_ms_p90_above", 0) < 10:
        log("  note: epoch_ms_p90 has fewer than 10 samples above it; it is "
            "a short-tail value, not a percentile (README.md)")
    if args.trace and args.workload in STRESS_CHECKS:
        what, holds = STRESS_CHECKS[args.workload]
        log(f"stress check: {what}: {'yes' if holds(metrics) else 'no'}")
    attempted, failed = result["attempted"], result["failed"]
    log(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} "
        "ops failed)")
    for why in result["failures"]:
        log(f"  failure: {why}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
