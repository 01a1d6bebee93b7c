#!/usr/bin/env bash
# CI gate: formatting, lints and rustdoc (warnings denied), build, the full test
# suite, bench smokes (bit-identity + observability conservation), the
# unified perf-budget gate (scripts/perf_gate.py) over every committed
# bench baseline, and the benchmark selftest (experiment CSVs against the
# recorded digests). Run from anywhere inside the repository.
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

metrics_json="$(mktemp /tmp/wtts_ci_metrics.XXXXXX.json)"
sweep_metrics_json="$(mktemp /tmp/wtts_ci_sweep_metrics.XXXXXX.json)"
prune_metrics_json="$(mktemp /tmp/wtts_ci_prune_metrics.XXXXXX.json)"
lag_metrics_json="$(mktemp /tmp/wtts_ci_lag_metrics.XXXXXX.json)"
report_metrics_json="$(mktemp /tmp/wtts_ci_report_metrics.XXXXXX.json)"
trap 'rm -f "$metrics_json" "$sweep_metrics_json" "$prune_metrics_json" "$lag_metrics_json" \
    "$report_metrics_json"' EXIT

echo "== granularity_sweep bench (smoke) =="
cargo bench -p wtts-bench --bench granularity_sweep -- --smoke --metrics-json "$sweep_metrics_json"
python3 - "$sweep_metrics_json" <<'PY'
import json, sys

def reject_nonfinite(tok):
    raise ValueError(f"non-finite constant {tok} leaked into JSON")

with open(sys.argv[1]) as fh:
    m = json.load(fh, parse_constant=reject_nonfinite)

assert m["conserved"] is True, "stage books must balance"
assert m["quiescent"] is True, "no span may be left open"
stages = m["stages"]
for name in ("pyramid_build", "rebin", "window_score"):
    s = stages[name]
    assert s["entered"] == s["exited"] + s["in_flight"], (name, s)
    assert s["entered"] > 0, f"stage {name} never ran"
c = m["counters"]
assert c["rebins_pyramid"] + c["rebins_direct"] == stages["rebin"]["entered"], c
assert c["level_folds"] <= c["rebins_pyramid"], c
print("sweep obs ok:", c["rebins_pyramid"], "pyramid rebins,", c["level_folds"], "level folds")
PY
python3 scripts/perf_gate.py --only granularity_sweep

echo "== pruned_pairwise bench (smoke) =="
cargo bench -p wtts-bench --bench pruned_pairwise -- --smoke --metrics-json "$prune_metrics_json"
python3 - "$prune_metrics_json" <<'PY'
import json, sys

def reject_nonfinite(tok):
    raise ValueError(f"non-finite constant {tok} leaked into JSON")

with open(sys.argv[1]) as fh:
    m = json.load(fh, parse_constant=reject_nonfinite)

assert m["conserved"] is True, "stage books must balance"
assert m["quiescent"] is True, "no span may be left open"
c = m["counters"]
pruned = (
    c["pairs_pruned_degenerate"]
    + c["pairs_pruned_sax"]
    + c["pairs_pruned_moment"]
)
assert pruned + c["prune_pairs_evaluated"] == c["prune_pairs_total"], c
rate = pruned / c["prune_pairs_total"]
assert rate >= 0.90, f"prune rate {rate:.3f} below 0.90 at phi = 0.6"
print(f"prune obs ok: {pruned} of {c['prune_pairs_total']} pairs pruned ({rate:.3f})")
PY
python3 scripts/perf_gate.py --only pruned_pairwise

echo "== lag_search bench (smoke) =="
cargo bench -p wtts-bench --bench lag_search -- --smoke --metrics-json "$lag_metrics_json"
python3 - "$lag_metrics_json" <<'PY'
import json, sys

def reject_nonfinite(tok):
    raise ValueError(f"non-finite constant {tok} leaked into JSON")

with open(sys.argv[1]) as fh:
    m = json.load(fh, parse_constant=reject_nonfinite)

assert m["conserved"] is True, "stage books must balance"
assert m["quiescent"] is True, "no span may be left open"
c = m["counters"]
pruned = (
    c["lag_cells_pruned_degenerate"]
    + c["lag_cells_pruned_sketch"]
    + c["lag_cells_pruned_energy"]
)
assert pruned + c["lag_cells_evaluated"] == c["lag_cells_total"], c
rate = pruned / c["lag_cells_total"]
assert rate >= 0.30, f"prune rate {rate:.3f} below 0.30 at phi = 0.85"
print(f"lag obs ok: {pruned} of {c['lag_cells_total']} cells pruned ({rate:.3f})")
PY
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

echo "== examples (smoke) =="
cargo run --release --example quickstart >/dev/null
cargo run --release --example fleet_ingest -- --metrics-json "$metrics_json" >/dev/null
python3 - "$metrics_json" <<'PY'
import json, sys

def reject_nonfinite(tok):
    raise ValueError(f"non-finite constant {tok} leaked into JSON")

with open(sys.argv[1]) as fh:
    m = json.load(fh, parse_constant=reject_nonfinite)

accounted = (
    m["ingested"]
    + m["dropped_late"]
    + m["dropped_duplicate"]
    + m["dropped_future_jump"]
    + m["dropped_queue_closed"]
)
assert accounted == m["offered"], (accounted, m["offered"])
assert m["fully_accounted"] is True
for shard in m["per_shard"]:
    entered = shard["batches_entered"]
    exited = shard["batches_exited"]
    in_flight = shard["batches_in_flight"]
    assert entered == exited + in_flight, shard
    assert in_flight == 0, shard
print("metrics JSON ok: conservation holds across", len(m["per_shard"]), "shards")
PY
cargo run --release --example fleet_report -- 4 --metrics-json "$report_metrics_json" >/dev/null
python3 - "$report_metrics_json" <<'PY'
import json, sys

def reject_nonfinite(tok):
    raise ValueError(f"non-finite constant {tok} leaked into JSON")

with open(sys.argv[1]) as fh:
    m = json.load(fh, parse_constant=reject_nonfinite)

assert m["conserved"] is True, "stage books must balance"
assert m["quiescent"] is True, "no span may be left open"
assert m["stages"]["motif_discovery"]["entered"] == 1, m["stages"]
c = m["counters"]
assert c["pairs_evaluated"] == c["prune_pairs_evaluated"], c
assert c["candidate_pairs"] + c["pairs_pruned"] == c["pairs_evaluated"], c
print("report obs ok:", c["pairs_evaluated"], "motif pairs scanned of",
      c["prune_pairs_total"])
PY

echo "== crash-recovery smoke =="
wal_dir="$(mktemp -d /tmp/wtts_ci_wal.XXXXXX)"
clean_wal_dir="$(mktemp -d /tmp/wtts_ci_wal_clean.XXXXXX)"
recovered_json="$(mktemp /tmp/wtts_ci_recovered.XXXXXX.json)"
clean_json="$(mktemp /tmp/wtts_ci_clean.XXXXXX.json)"
recovered_out="$(mktemp /tmp/wtts_ci_recovered_out.XXXXXX.txt)"
clean_out="$(mktemp /tmp/wtts_ci_clean_out.XXXXXX.txt)"
trap 'rm -f "$metrics_json" "$sweep_metrics_json" "$prune_metrics_json" \
    "$lag_metrics_json" "$report_metrics_json" "$recovered_json" "$clean_json" "$recovered_out" \
    "$clean_out"; rm -rf "$wal_dir" "$clean_wal_dir"' EXIT

# Kill the ingest dead (process abort, no unwinding) mid-stream...
set +e
cargo run --release --example fleet_ingest -- \
    --wal-dir "$wal_dir" --snapshot-every 8000 --fsync --kill-after 30000 \
    >/dev/null 2>&1
kill_status=$?
set -e
if [ "$kill_status" -eq 0 ]; then
    echo "--kill-after should have aborted the process" >&2
    exit 1
fi

# ...check the stale single-writer lock fences a plain reopen, then
# recover with --takeover and finish, and run once uninterrupted.
set +e
cargo run --release --example fleet_ingest -- \
    --wal-dir "$wal_dir" --snapshot-every 8000 --recover \
    >/dev/null 2>&1
stale_status=$?
set -e
if [ "$stale_status" -eq 0 ]; then
    echo "recovery without --takeover should refuse the stale lock" >&2
    exit 1
fi
cargo run --release --example fleet_ingest -- \
    --wal-dir "$wal_dir" --snapshot-every 8000 --recover --takeover \
    --metrics-json "$recovered_json" >"$recovered_out"
cargo run --release --example fleet_ingest -- \
    --wal-dir "$clean_wal_dir" --metrics-json "$clean_json" >"$clean_out"

recovered_digest="$(grep '^state digest:' "$recovered_out")"
clean_digest="$(grep '^state digest:' "$clean_out")"
if [ "$recovered_digest" != "$clean_digest" ]; then
    echo "state digests diverged: '$recovered_digest' vs '$clean_digest'" >&2
    exit 1
fi

python3 - "$recovered_json" "$clean_json" <<'PY'
import json, sys

def reject_nonfinite(tok):
    raise ValueError(f"non-finite constant {tok} leaked into JSON")

def load(path):
    with open(path) as fh:
        return json.load(fh, parse_constant=reject_nonfinite)

recovered, clean = load(sys.argv[1]), load(sys.argv[2])

# Every replay-invariant book must match the uninterrupted run exactly;
# only the durability bookkeeping (replays, recoveries, snapshots, stage
# timings) may differ.
invariant = [
    "offered", "ingested", "baselines", "reset_spanning_gaps",
    "counter_resets", "dropped_late", "dropped_duplicate",
    "dropped_future_jump", "dropped_queue_closed", "windows_sealed",
    "windows_matched", "windows_novel", "windows_insufficient",
    "partial_windows", "wal_records", "fully_accounted",
]
for key in invariant:
    assert recovered[key] == clean[key], (key, recovered[key], clean[key])
assert recovered["wal_records"] == recovered["offered"], "WAL must cover the stream"
assert recovered["recoveries"] == 1, recovered["recoveries"]
assert recovered["wal_replayed"] > 0, "recovery replayed nothing"
assert clean["recoveries"] == 0 and clean["wal_replayed"] == 0
print("crash recovery ok:", recovered["wal_replayed"], "reports replayed,",
      recovered["offered"], "offered, books identical to the uninterrupted run")
PY

echo "== fault-injection smoke =="
fault_wal_dir="$(mktemp -d /tmp/wtts_ci_wal_fault.XXXXXX)"
fault_json="$(mktemp /tmp/wtts_ci_fault.XXXXXX.json)"
fault_out="$(mktemp /tmp/wtts_ci_fault_out.XXXXXX.txt)"
trap 'rm -f "$metrics_json" "$sweep_metrics_json" "$prune_metrics_json" \
    "$lag_metrics_json" "$report_metrics_json" "$recovered_json" "$clean_json" "$recovered_out" \
    "$clean_out" "$fault_json" "$fault_out"; \
    rm -rf "$wal_dir" "$clean_wal_dir" "$fault_wal_dir"' EXIT

# Kill the ingest mid-stream while a seeded I/O fault schedule (EIO, short
# writes, ENOSPC, lying fsync, torn renames) hammers the WAL layer...
set +e
cargo run --release --example fleet_ingest -- \
    --wal-dir "$fault_wal_dir" --snapshot-every 8000 \
    --fault-seed 42 --fault-ops 12 --kill-after 60000 \
    >/dev/null 2>&1
fault_kill_status=$?
set -e
if [ "$fault_kill_status" -eq 0 ]; then
    echo "--kill-after should have aborted the faulted process" >&2
    exit 1
fi

# ...then recover under the same fault schedule. The outcome must be either
# a bit-identical finish or a typed, counted durability gap — never a
# silent divergence.
cargo run --release --example fleet_ingest -- \
    --wal-dir "$fault_wal_dir" --snapshot-every 8000 \
    --fault-seed 42 --fault-ops 12 --recover --takeover \
    --metrics-json "$fault_json" >"$fault_out"

if grep -q '^durability: durable' "$fault_out"; then
    fault_digest="$(grep '^state digest:' "$fault_out")"
    if [ "$fault_digest" != "$clean_digest" ]; then
        echo "durable faulted run diverged: '$fault_digest' vs '$clean_digest'" >&2
        exit 1
    fi
elif ! grep -q '^durability: DEGRADED' "$fault_out"; then
    echo "faulted run reported neither durable nor a typed gap" >&2
    exit 1
fi

python3 - "$fault_json" <<'PY'
import json, sys

def reject_nonfinite(tok):
    raise ValueError(f"non-finite constant {tok} leaked into JSON")

with open(sys.argv[1]) as fh:
    m = json.load(fh, parse_constant=reject_nonfinite)

# Zero-false-loss: every offered report is in the WAL or in a typed gap.
gap = m["wal_gap_records"] + m["wal_lost_records"]
assert m["durability_gap"] == gap, (m["durability_gap"], gap)
assert m["wal_records"] + gap == m["offered"], \
    (m["wal_records"], gap, m["offered"])
assert m["durably_accounted"] is True
assert m["fully_accounted"] is True
assert m["wal_io_retries"] >= 1, "the seeded schedule must exercise retries"
assert m["wal_io_gave_up"] == 0 or gap > 0, \
    "a give-up must surface as a counted gap"
assert m["lock_takeovers"] == 1, m["lock_takeovers"]
print("fault injection ok:", m["wal_io_retries"], "I/O retries,",
      gap, "reports in the durability gap,", m["offered"], "offered")
PY

echo "CI checks passed."
