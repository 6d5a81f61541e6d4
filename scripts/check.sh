#!/usr/bin/env bash
# Full correctness matrix: the tier-1 suite under the plain build (with
# -DMBTA_WERROR=ON, as in CI), then under ASan and UBSan instrumentation
# (-DMBTA_SANITIZE presets), then
# the obs tests AND the robustness + service suites (deadline /
# fault-injection / fallback / cancellation plus WAL / snapshot / crash
# recovery, `ctest -L 'robustness|service'`) under TSan
# (-DMBTA_SANITIZE=thread). The TSan leg proves the cancel flag (set
# from a watchdog thread, the library's one cross-thread surface) and
# the obs registries merged after join() race-free. A CLI smoke step
# checks the mbta_cli exit-code taxonomy (0 ok / 1 usage / 2 bad input / 3
# degraded) end-to-end against the plain build, a bench gate diffs a
# fresh smoke-suite run's counters against the committed BENCH_ci.json,
# and a trace gate asserts traces are sequence-identical across runs
# (mbta_trace --diff).
#
# Usage: scripts/check.sh [--fast] [--skip-unsupported] [jobs]
#   --fast               plain build runs only `ctest -L
#                        'unit|robustness|service'` (skips the
#                        differential harness); sanitizer
#                        builds always run everything.
#   --skip-unsupported   downgrade "this compiler cannot build sanitizer
#                        X" from an error to a warning and skip that leg.
#   jobs                 parallelism for build and ctest (default: nproc).
#
# Build trees land in build/, build-asan/, build-ubsan/, build-tsan/
# (all gitignored) and are reused across runs, so incremental
# invocations are cheap.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
SKIP_UNSUPPORTED=0
while [ $# -gt 0 ]; do
  case "$1" in
    --fast) FAST=1; shift ;;
    --skip-unsupported) SKIP_UNSUPPORTED=1; shift ;;
    *) break ;;
  esac
done
JOBS="${1:-$(nproc)}"

CXX_BIN="${CXX:-c++}"

# Probe the compiler once per sanitizer instead of letting an
# unsupported combo surface as an opaque CMake/link error mid-matrix.
sanitizer_supported() {
  local flag="$1"
  echo 'int main(){return 0;}' | \
    "${CXX_BIN}" -x c++ "-fsanitize=${flag}" -o /dev/null - \
      >/dev/null 2>&1
}

require_sanitizer() {
  local flag="$1"
  if sanitizer_supported "${flag}"; then
    return 0
  fi
  if [ "${SKIP_UNSUPPORTED}" = "1" ]; then
    echo "check.sh: WARNING: ${CXX_BIN} cannot build -fsanitize=${flag};" \
         "skipping that leg (--skip-unsupported)" >&2
    return 1
  fi
  echo "check.sh: ERROR: ${CXX_BIN} cannot compile with" \
       "-fsanitize=${flag}." >&2
  echo "  Install a toolchain with ${flag} sanitizer runtime support," \
       "or re-run with --skip-unsupported to omit this leg." >&2
  exit 2
}

# Extra arguments after the first three go to the configure step.
run_suite() {
  local dir="$1" sanitize="$2" label_args="$3"
  shift 3
  echo "=== ${dir} (MBTA_SANITIZE='${sanitize}' $*) ==="
  cmake -B "${dir}" -S . -DMBTA_SANITIZE="${sanitize}" "$@" >/dev/null
  cmake --build "${dir}" -j "${JOBS}"
  # shellcheck disable=SC2086  # label_args is intentionally word-split
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" ${label_args})
}

# Runs a command, swallowing its output, and asserts its exit status.
# The mbta_cli exit codes are a documented contract (see CONTRIBUTING.md
# "Robustness"); this catches a refactor that silently collapses them.
expect_exit() {
  local want="$1"; shift
  local got=0
  "$@" >/dev/null 2>&1 || got=$?
  if [ "${got}" -ne "${want}" ]; then
    echo "check.sh: ERROR: '$*' exited ${got}, want ${want}" >&2
    exit 1
  fi
}

cli_smoke() {
  echo "=== mbta_cli exit-code smoke (build/) ==="
  cmake --build build -j "${JOBS}" --target mbta_cli
  local cli=build/tools/mbta_cli
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN

  # 0: a normal generate + solve round trip succeeds.
  expect_exit 0 "${cli}" generate --dataset uniform --workers 30 \
      --tasks 30 --seed 7 --out "${tmp}/m.market"
  expect_exit 0 "${cli}" solve --market "${tmp}/m.market" \
      --solver greedy --out "${tmp}/a.assignment"
  expect_exit 0 "${cli}" solve --market "${tmp}/m.market" \
      --solver budgeted-greedy --out "${tmp}/b.assignment"
  # 1: usage errors — unknown command, unknown solver, a flag the
  # command does not take, a number that does not parse, a modular-only
  # solver (alone or as a fallback stage) on the submodular objective.
  expect_exit 1 "${cli}" frobnicate
  expect_exit 1 "${cli}" solve --market "${tmp}/m.market" \
      --solver no-such-solver --out "${tmp}/x.assignment"
  expect_exit 1 "${cli}" solve --market "${tmp}/m.market" \
      --solver greedy --threads 8 --out "${tmp}/x.assignment"
  expect_exit 1 "${cli}" solve --market "${tmp}/m.market" \
      --solver greedy --frobnicate --out "${tmp}/x.assignment"
  expect_exit 1 "${cli}" generate --dataset uniform --workers banana \
      --out "${tmp}/x.market"
  expect_exit 1 "${cli}" solve --market "${tmp}/m.market" \
      --solver exact-flow --out "${tmp}/x.assignment"
  expect_exit 1 "${cli}" solve --market "${tmp}/m.market" \
      --fallback --out "${tmp}/x.assignment"
  # 2: bad input — a corrupt market file parses to a clean error.
  printf 'mbta-market v1\nname x\nworkers nan\n' > "${tmp}/bad.market"
  expect_exit 2 "${cli}" stats --market "${tmp}/bad.market"
  # 3: degraded — a zero work budget still writes a best-effort answer.
  expect_exit 3 "${cli}" solve --market "${tmp}/m.market" \
      --solver greedy --work-budget 0 --out "${tmp}/d.assignment"
  # The degraded run must still have produced a loadable assignment.
  expect_exit 0 "${cli}" evaluate --market "${tmp}/m.market" \
      --assignment "${tmp}/d.assignment"

  # The serve/replay pair follows the same taxonomy. A scripted serve
  # writes a WAL; replaying that WAL must recover (0) and do so
  # deterministically (two --dump-state replays are byte-identical); a
  # WAL with a foreign magic is bad input (2); a zero work budget runs
  # the epochs best-effort and reports degraded (3).
  {
    printf 'add-worker 1 2 0.1 1.0 0.9\n'
    printf 'add-worker 2 1 0.2 1.0 0.8\n'
    printf 'add-task 100 1 1.5 2.0 0.2 0\n'
    printf 'add-task 101 2 1.0 1.0 0.1 0\n'
    printf 'epoch\n'
    printf 'task-payment 100 2.5\n'
    printf 'rm-worker 2\n'
    printf 'epoch\n'
  } > "${tmp}/serve.script"
  expect_exit 0 "${cli}" serve --script "${tmp}/serve.script" \
      --wal "${tmp}/serve.wal" --snapshot-every 1
  expect_exit 0 "${cli}" replay --wal "${tmp}/serve.wal"
  "${cli}" replay --wal "${tmp}/serve.wal" --dump-state > "${tmp}/r1.txt"
  "${cli}" replay --wal "${tmp}/serve.wal" --dump-state > "${tmp}/r2.txt"
  diff "${tmp}/r1.txt" "${tmp}/r2.txt"
  printf 'NOTAWAL!' > "${tmp}/foreign.wal"
  expect_exit 2 "${cli}" replay --wal "${tmp}/foreign.wal"
  expect_exit 3 "${cli}" serve --script "${tmp}/serve.script" \
      --work-budget 0
  echo "check.sh: mbta_cli exit codes 0/1/2/3 verified (solve + serve)"
}

# Diffs a fresh smoke-suite run against the committed BENCH_ci.json
# baseline. Counters are machine-independent and compared exactly — any
# drift means the build does different work than the committed record
# (e.g. a solver's batch/commit sequence changed without regenerating
# the baseline via scripts/bench_smoke.sh BENCH_ci.json). Wall times in
# the committed file were measured on whoever committed it, so the
# --min-ms floor is set above every row to keep this leg counters-only;
# same-machine wall-time regressions are caught by the two-run CI gate.
bench_gate() {
  echo "=== bench gate: counters vs committed BENCH_ci.json (build/) ==="
  cmake --build build -j "${JOBS}" --target smoke_suite bench_compare
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  build/bench/smoke_suite --json "${tmp}/smoke.json" >/dev/null
  build/tools/bench_compare BENCH_ci.json "${tmp}/smoke.json" \
      --threshold 0.5 --min-ms 1000000
  echo "check.sh: smoke counters match committed BENCH_ci.json"
}

# The full mbta_lint pass stack gated against the committed waiver
# ledger: any violation or any waiver added/removed without regenerating
# LINT_LEDGER.json fails the matrix (same gate CI's lint job runs;
# clang-tidy is lint.sh's business, not repeated here).
lint_gate() {
  echo "=== lint gate: mbta_lint + LINT_LEDGER.json (build/) ==="
  cmake --build build -j "${JOBS}" --target mbta_lint
  build/tools/mbta_lint --ledger LINT_LEDGER.json src tools bench tests
  echo "check.sh: lint clean, waiver ledger in sync"
}

# Traces are diffed as normalized event sequences (timestamps and
# durations stripped), so two runs of the same build must produce
# byte-identical sequences (see CONTRIBUTING.md "Tracing"): the smoke
# suite's and a traced CLI solve's.
trace_gate() {
  echo "=== trace gate: sequence-identical traces (build/) ==="
  cmake --build build -j "${JOBS}" --target smoke_suite mbta_trace mbta_cli
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  build/bench/smoke_suite --json "${tmp}/a.json" \
      --trace "${tmp}/a-trace.json" >/dev/null
  build/bench/smoke_suite --json "${tmp}/b.json" \
      --trace "${tmp}/b-trace.json" >/dev/null
  build/tools/mbta_trace --diff "${tmp}/a-trace.json" "${tmp}/b-trace.json"
  local cli=build/tools/mbta_cli
  "${cli}" generate --dataset mturk --workers 250 --seed 7 \
      --out "${tmp}/gate.market" >/dev/null
  "${cli}" solve --market "${tmp}/gate.market" --solver greedy-plain \
      --trace "${tmp}/t1.json" --out "${tmp}/t1.assignment" >/dev/null
  "${cli}" solve --market "${tmp}/gate.market" --solver greedy-plain \
      --trace "${tmp}/t2.json" --out "${tmp}/t2.assignment" >/dev/null
  build/tools/mbta_trace --diff "${tmp}/t1.json" "${tmp}/t2.json"
  echo "check.sh: traces deterministic across runs"
}

# The plain leg builds with warnings as errors, as CI's build job does.
if [ "${FAST}" = "1" ]; then
  run_suite build "" "-L unit|robustness|service" -DMBTA_WERROR=ON
else
  run_suite build "" "" -DMBTA_WERROR=ON
fi
cli_smoke
lint_gate
bench_gate
trace_gate
# The sanitizer legs run the whole registered suite, which includes the
# `robustness` and `service` labels — so the deadline/fault-injection/
# fallback tests and the WAL/snapshot/crash-recovery suite get an ASan
# and UBSan pass here, not just the plain build above.
if require_sanitizer address; then
  run_suite build-asan address ""
fi
if require_sanitizer undefined; then
  run_suite build-ubsan undefined ""
fi

# TSan leg: the obs and trace tests plus the robustness and service
# suites. The cancellation tests stop a running solve from a watchdog
# thread — the library's one cross-thread surface — and obs_test merges
# per-thread registries after join(), so TSan proves both race-free.
# Building targets directly keeps this leg minutes-cheap; `ctest -L
# robustness` only matches tests whose binaries were built (unbuilt
# targets surface as unlabeled NOT_BUILT placeholders and are skipped by
# the label filter).
if require_sanitizer thread; then
  echo "=== build-tsan (MBTA_SANITIZE='thread') ==="
  cmake -B build-tsan -S . -DMBTA_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" \
        --target obs_test json_writer_test \
                 histogram_test trace_test \
                 deadline_test fault_injection_test fallback_solver_test \
                 cancellation_test \
                 wal_test snapshot_test market_service_test \
                 service_recovery_test wal_fuzz_test \
                 service_differential_test state_serializer_test \
                 market_assembly_test
  build-tsan/tests/obs_test
  build-tsan/tests/json_writer_test
  build-tsan/tests/histogram_test
  build-tsan/tests/trace_test
  (cd build-tsan && ctest --output-on-failure -j "${JOBS}" \
      -L 'robustness|service')
fi

echo "check.sh: all requested suites green"
