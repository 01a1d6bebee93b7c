#!/usr/bin/env bash
# CI gate: formatting, lints and rustdoc (warnings denied), build, the full test
# suite, bench smokes (bit-identity, and every conservation law in their
# metrics JSON), the unified perf-budget gate (scripts/perf_gate.py) over
# every committed bench baseline, the benchmark selftest, every
# `experiments --small` CSV at both recorded fleet seeds against its
# recorded digest, and the ingest, crash-recovery and fault-injection
# smokes. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo build --release =="
cargo build --release

echo "== cargo test (workspace) =="
cargo test --workspace -q

echo "== ingest bench (smoke) =="
cargo bench -p wtts-bench --bench ingest -- --smoke

echo "== durable bench (smoke) =="
cargo bench -p wtts-bench --bench durable -- --smoke

work="$(mktemp -d /tmp/wtts_ci.XXXXXX)"
trap 'rm -rf "$work"' EXIT

# check_laws FILE "LAW..." [EXPECTATION...]: FILE must parse as strict JSON
# (no NaN or Infinity) and carry a non-empty "laws" object in which every law
# holds and every named LAW is present. Each EXPECTATION is a Python
# expression over the parsed report `m` that must be true.
check_laws() {
    python3 - "$@" <<'PY'
import json, sys

def reject_nonfinite(tok):
    raise ValueError(f"non-finite constant {tok} leaked into JSON")

path, expected, *expectations = sys.argv[1:]
with open(path) as fh:
    m = json.load(fh, parse_constant=reject_nonfinite)
laws = m.get("laws")
errors = []
if not isinstance(laws, dict) or not laws:
    errors.append("no laws")
    laws = {}
errors += [f"law {name} missing" for name in expected.split() if name not in laws]
errors += [f"law {name} broken: {law}" for name, law in laws.items()
           if law.get("holds") is not True]
errors += [f"expectation failed: {e}" for e in expectations
           if eval(e, {"m": m}) is not True]
if errors:
    sys.exit(f"{path}: " + "; ".join(errors))
print(f"{path}: {len(laws)} laws hold, {len(expectations)} expectations met")
PY
}

# same_line PREFIX A B: the line starting with PREFIX is in both outputs and
# identical.
same_line() {
    local a b
    a="$(grep "^$1" "$2")" && b="$(grep "^$1" "$3")" && [ "$a" = "$b" ] && return 0
    echo "'$1' lines differ between $2 and $3" >&2
    return 1
}

# The prune-rate floors (0.90 pairs, 0.30 lag cells) and the sweep stages
# having run are asserted by the smokes themselves, on the books they write.
echo "== granularity_sweep bench (smoke) =="
cargo bench -p wtts-bench --bench granularity_sweep -- --smoke --metrics-json "$work/sweep.json"
check_laws "$work/sweep.json" "rebin level_folds pyramid_build.drained rebin.drained window_score.drained"
python3 scripts/perf_gate.py --only granularity_sweep

echo "== pruned_pairwise bench (smoke) =="
cargo bench -p wtts-bench --bench pruned_pairwise -- --smoke --metrics-json "$work/prune.json"
check_laws "$work/prune.json" "prune_tiers row_fill.drained"
python3 scripts/perf_gate.py --only pruned_pairwise

echo "== lag_search bench (smoke) =="
cargo bench -p wtts-bench --bench lag_search -- --smoke --metrics-json "$work/lag.json"
check_laws "$work/lag.json" "lag_tiers lag_prepare.drained lag_pair_scan.drained"
python3 scripts/perf_gate.py --only lag_search

echo "== kernels bench (smoke) =="
cargo bench -p wtts-bench --bench kernels -- --smoke
python3 scripts/perf_gate.py --only kernels

echo "== dominance bench (smoke) =="
cargo bench -p wtts-bench --bench dominance -- --smoke
python3 scripts/perf_gate.py --only dominance

echo "== perf budget (all recorded baselines) =="
python3 scripts/perf_gate.py

echo "== benchmark selftest (recorded CSV digests, injected faults counted) =="
CARGO_TARGET_DIR=target python3 perfbench/run.py --selftest

echo "== experiments --small: every CSV against the recorded digests, both fleet seeds =="
cargo build --release -p wtts-bench --bin experiments
python3 - <<'PY'
import hashlib, json, pathlib, subprocess, sys, tempfile

golden = json.loads(pathlib.Path("perfbench/golden/paper-small.json").read_text())
runner = pathlib.Path("target/release/experiments").resolve()
failures = []
for key, seed in golden["seeds"].items():
    expected = {
        csv: digest
        for owned in golden["csvs"][key].values()
        for csv, digest in owned.items()
    }
    with tempfile.TemporaryDirectory(prefix="wtts_ci_small_") as tmp:
        run = subprocess.run(
            [str(runner), "--small", "--seed", str(seed), "all"],
            cwd=tmp,
            stdout=subprocess.DEVNULL,
        )
        if run.returncode != 0:
            failures.append(f"{key} seed {seed}: runner exited with {run.returncode}")
        results = pathlib.Path(tmp) / "results"
        found = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (results.iterdir() if results.is_dir() else [])
        }
    for csv, digest in sorted(expected.items()):
        if csv not in found:
            failures.append(f"{key} seed {seed}: {csv} missing")
        elif found[csv] != digest:
            failures.append(f"{key} seed {seed}: {csv} changed")
    for stray in sorted(set(found) - set(expected)):
        failures.append(f"{key} seed {seed}: unexpected file {stray}")
    print(f"{key} seed {seed}: {len(expected)} recorded CSVs compared")
for f in failures:
    print(f, file=sys.stderr)
sys.exit(1 if failures else 0)
PY

echo "== examples (smoke) =="
cargo run --release --example quickstart >/dev/null
cargo run --release --example fleet_ingest -- --metrics-json "$work/ingest.json" >/dev/null
check_laws "$work/ingest.json" "fully_accounted shard0.batches.drained" \
    '"durably_accounted" not in m["laws"]'
cargo run --release --example fleet_report -- 4 --metrics-json "$work/report.json" >/dev/null
check_laws "$work/report.json" "motif prune_tiers lag_tiers motif_discovery.drained" \
    'm["stages"]["motif_discovery"]["entered"] == 1' \
    'm["counters"]["pairs_evaluated"] == m["counters"]["prune_pairs_evaluated"]'

echo "== crash-recovery smoke =="
# Kill the ingest dead (process abort, no unwinding) mid-stream...
if cargo run --release --example fleet_ingest -- \
    --wal-dir "$work/wal" --snapshot-every 8000 --fsync --kill-after 30000 \
    >/dev/null 2>&1; then
    echo "--kill-after should have aborted the process" >&2
    exit 1
fi

# ...check the stale single-writer lock fences a plain reopen, then
# recover with --takeover and finish, and run once uninterrupted.
if cargo run --release --example fleet_ingest -- \
    --wal-dir "$work/wal" --snapshot-every 8000 --recover \
    >/dev/null 2>&1; then
    echo "recovery without --takeover should refuse the stale lock" >&2
    exit 1
fi
cargo run --release --example fleet_ingest -- \
    --wal-dir "$work/wal" --snapshot-every 8000 --recover --takeover \
    --metrics-json "$work/recovered.json" >"$work/recovered.out"
cargo run --release --example fleet_ingest -- \
    --wal-dir "$work/wal_clean" --metrics-json "$work/clean.json" >"$work/clean.out"

# The recovered run ends in the uninterrupted run's state and books: the
# books digest hashes every replay-invariant counter, so only durability
# bookkeeping (replays, recoveries, snapshots, timings) may differ.
same_line 'state digest:' "$work/recovered.out" "$work/clean.out"
same_line 'books digest:' "$work/recovered.out" "$work/clean.out"
check_laws "$work/recovered.json" "fully_accounted durably_accounted" \
    'm["wal_records"] == m["offered"]' 'm["recoveries"] == 1' 'm["wal_replayed"] > 0'
check_laws "$work/clean.json" "fully_accounted durably_accounted" \
    'm["recoveries"] == 0' 'm["wal_replayed"] == 0'

echo "== fault-injection smoke =="
# Kill the ingest mid-stream while a seeded I/O fault schedule (EIO, short
# writes, ENOSPC, lying fsync, torn renames) hammers the WAL layer...
if cargo run --release --example fleet_ingest -- \
    --wal-dir "$work/wal_fault" --snapshot-every 8000 \
    --fault-seed 42 --fault-ops 12 --kill-after 60000 \
    >/dev/null 2>&1; then
    echo "--kill-after should have aborted the faulted process" >&2
    exit 1
fi

# ...then recover under the same fault schedule. The outcome must be either
# a bit-identical finish or a typed, counted durability gap — never a
# silent divergence.
cargo run --release --example fleet_ingest -- \
    --wal-dir "$work/wal_fault" --snapshot-every 8000 \
    --fault-seed 42 --fault-ops 12 --recover --takeover \
    --metrics-json "$work/fault.json" >"$work/fault.out"

if grep -q '^durability: durable' "$work/fault.out"; then
    same_line 'state digest:' "$work/fault.out" "$work/clean.out"
elif ! grep -q '^durability: DEGRADED' "$work/fault.out"; then
    echo "faulted run reported neither durable nor a typed gap" >&2
    exit 1
fi
check_laws "$work/fault.json" \
    "fully_accounted durably_accounted durability_gap give_up_is_a_gap" \
    'm["wal_io_retries"] >= 1' 'm["lock_takeovers"] == 1'

echo "CI checks passed."
