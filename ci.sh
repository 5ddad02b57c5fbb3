#!/usr/bin/env bash
# Tier-1 gate: everything must pass before a PR lands.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --release

# The workspace run includes the root package's own suites (tier-1's
# `cargo test -q`: tests/faults.rs — the fault model's seed-pure no-op
# gate — metamorphic, hostile_regressions, ...), so they are not re-run
# one by one in debug.
echo "== cargo test -q --workspace =="
cargo test -q --workspace

# Examples are built by neither command above; check them so an API
# change cannot rot them silently.
echo "== cargo check --workspace --all-targets =="
cargo check -q --workspace --all-targets --offline

# The repo benchmark is a package of its own (own [workspace], never built
# by the commands above) that calls the layer crates' public API: build it
# and run its unit tests here, so an API change that breaks it fails
# tier-1 rather than the benchmark pipeline.
echo "== benchmark package (cargo test, benchmark/Cargo.toml) =="
cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Metamorphic gate: semantics-preserving transforms (cache, workers, VP
# permutation, recovered faults) leave stitched paths bit-identical;
# semantics-weakening ones (smaller atlas) only reduce coverage, never
# audited accuracy. Seeds {1, 7, 42} are baked into the suite. It carries
# the telemetry gates too: tracing off byte-neutral, tracing on
# deterministic across reruns and worker counts (fingerprint equality).
echo "== metamorphic suite (release, tests/metamorphic.rs) =="
cargo test -q --release --test metamorphic

# Stitch-trace audit gate: every accepted hop of a standard-scale campaign
# replays soundly against the oracle — zero Unsound, zero PolicyViolation
# (the subcommand exits nonzero otherwise). Each seed runs both stop-set
# arms — the campaigns the economy gate below compares — and the on arm
# additionally proves reused stop-set evidence replays sound.
echo "== stitch-trace audit gate (release, standard scale, seeds 1/7/42, stop sets off/on) =="
cargo build -q --release -p revtr-eval
for seed in 1 7 42; do
  ./target/release/revtr-cli audit --scale standard --seed "$seed" \
    | tail -n 1
  ./target/release/revtr-cli audit --scale standard --seed "$seed" --stop-sets on \
    | tail -n 1
done

# Probe-economy gate: campaign-wide stop sets must cut measurement probes
# per revtr by >= 25% on the standard campaign while coverage and accuracy
# stay within 0.02 of the stop-sets-off control. A "probe" there is a whole
# traceroute, so the same run also prints packets per revtr and TTL probes
# per last-link measurement for both arms, and holds the stop-sets-on arm
# to <= 6.0 packets per measurement — half a full forward trace (the
# subcommand exits nonzero on either gate).
echo "== probe-economy gate (release, standard scale, seeds 1/7/42) =="
for seed in 1 7 42; do
  ./target/release/revtr-cli economy --scale standard --seed "$seed" \
    | tail -n 6
done

# Last-link gate: every symmetry-step decision of the standard campaign
# (hop adopted, interdomain abort, stuck) is the one a full forward
# traceroute gives, at widths 1 and 4, and with the measurement cache off
# the traceroute packets sent are equal across widths. Seeds {1, 7, 42}
# are baked into the test.
echo "== last-link campaign gate (release, standard scale, seeds 1/7/42, workers 1/4) =="
cargo test -q --release -p revtr-eval --test last_link_campaign -- --ignored

# Survey-tree gate: the full era-2020 ingress survey as `IngressDb::build`
# runs it — a sink tree lent to every RR ping, per destination and per VP —
# is the survey the standalone `probe_prefix` makes walking every hop:
# every `PrefixInfo`, the counters, and the clock, simulator-time and
# route-compute readings to the bit, with default churn moving salts under
# the trees, under link maintenance, and in `dbr_region` ASes. (The tiny
# arms run in the workspace tests above.)
echo "== survey-tree gate (release, era-2020, seeds 1/7/42 + maintenance + dbr-region) =="
cargo test -q --release -p revtr-vpselect -- --ignored

# Route-cache bound: 2 400 virtual hours of default churn on the era-2020
# Internet, a window of prefixes RR-pinged after every flush — the cache
# keeps live keys only (at most one table per prefix plus one per
# infrastructure AS), where keeping every key walked would exceed it. (The
# tiny arm runs in the workspace tests above.)
echo "== route-cache bound soak (release, era-2020) =="
cargo test -q --release -p revtr-netsim --lib -- --ignored the_route_cache_keeps_only_live_keys

# Allocation gates, optimized as deployed: a request allocates what it
# returns — one block (request plane: `measure()` ≤ 1.2 a request and a
# campaign ≤ 1.10) — a served request nothing on top of that but the block
# of a trace the journal keeps (≤ 1.3 a request in both telemetry arms,
# ≤ 1.9 an open-loop arrival: the archive shares the block, a telemetry
# scope records into its driver's buffers), the journal one block for a
# record it keeps and none for one it drops, and the survey what it keeps.
# (The debug builds run in the workspace tests above.)
echo "== allocation gates (release: core, vpselect, service, telemetry) =="
cargo test -q --release -p revtr --test alloc_gate
cargo test -q --release -p revtr-vpselect --test alloc_gate
cargo test -q --release -p revtr-service --test alloc_gate
cargo test -q --release -p revtr-telemetry --test alloc_gate

# Telemetry profile gate: the metrics subcommand must produce a populated
# per-stage report (it exits nonzero on flag or scale errors).
echo "== telemetry profile gate (release, smoke scale) =="
./target/release/revtr-cli metrics --scale smoke | tail -n 3

# SLO monitor gate: the clean standard configuration reports zero
# violations at every pinned seed (`revtr-cli monitor` exits nonzero on
# any firing alert). Since PR 10 the policy also carries the memory budget:
# mem.total.hiwater under the 64 MiB ceiling and control-block capacity
# headroom >= 0.90, so this loop doubles as the memory-budget gate...
echo "== SLO monitor + memory-budget gate (release, standard scale, seeds 1/7/42) =="
for seed in 1 7 42; do
  ./target/release/revtr-cli monitor --scale standard --seed "$seed" \
    | tail -n 1
done

# ...while a faulted campaign (30% transient loss, no retry budget) must
# provably fire the coverage and stuck-request alerts.
echo "== SLO monitor fault-detection gate (release, smoke, loss 0.3) =="
if faulted_out=$(./target/release/revtr-cli monitor --scale smoke --seed 1 --loss 0.3 --budget 1); then
  echo "faulted run passed the SLO gate — monitor is blind"; exit 1
fi
echo "$faulted_out" | grep -q 'coverage-floor' || { echo "coverage alert missing"; exit 1; }
echo "$faulted_out" | grep -q 'stuck-requests' || { echo "stuck-request alert missing"; exit 1; }
echo "$faulted_out" | tail -n 1

# Resource-forensics gate: the profile must account at least 8 subsystems
# in its byte ledger. (That judging a run leaves its identity alone is held
# by crates/eval/tests/metrics_golden.rs: one CampaignRun judged by
# metrics, profile and monitor reproduces the goldens each wrote alone.)
echo "== resource-forensics gate (release, smoke seed 1) =="
ledgers=$(./target/release/revtr-cli profile --scale smoke --seed 1 \
  | grep -cE '^(netsim|probing|atlas|engine|service|telemetry)\.')
if [ "$ledgers" -lt 8 ]; then
  echo "profile ledger table too thin: $ledgers subsystems"; exit 1
fi
echo "profile: $ledgers ledgers"

# Hostile-Internet scenario conformance gate: every adversarial profile
# must (a) bite — the stock campaign's fingerprint departs from clean —
# and (b) be repaired or held by the hardened engine with zero unsound
# adoptions (`revtr-cli scenario` exits nonzero on any profile verdict
# failing). Three pinned master seeds, same as the SLO gate.
echo "== scenario conformance gate (release, standard scale, seeds 1/7/42) =="
for seed in 1 7 42; do
  ./target/release/revtr-cli scenario --scale standard --seed "$seed" \
    | tail -n 1
done

# Scenario SLO must-fire gate: under each adversarial profile the stock
# monitor must raise an alert (exit nonzero) and the firing rule set must
# include the profile's signature rule — a monitor that stays green under
# a hostile Internet is blind. An all-zero-severity profile must still
# pass the full scenario policy (the verification-mode probe allowance is
# calibrated for exactly this).
echo "== scenario SLO must-fire gate (release, standard seed 1) =="
scenario_must_fire() {
  profile=$1; rule=$2
  if out=$(./target/release/revtr-cli monitor --scale standard --seed 1 --scenario "$profile"); then
    echo "$profile passed the SLO gate — monitor is blind"; exit 1
  fi
  echo "$out" | grep -Eq "$rule +[a-z]+ +FAIL" || { echo "$profile: expected $rule alert missing"; exit 1; }
  echo "$profile: fires $rule"
}
scenario_must_fire spoof-filter-rollout coverage-floor
scenario_must_fire dbr-violation-region dbr-verify-mismatch
scenario_must_fire lying-rr-responders accuracy-floor
scenario_must_fire asymmetric-rate-limiters transient-exhaustion
scenario_must_fire poisoned-atlas accuracy-floor
./target/release/revtr-cli monitor --scale standard --seed 1 \
  --scenario dbr-violation-region --severity 0 | tail -n 1

# Loadtest gate: the production traffic model at standard scale. Each
# pinned seed runs the steady pattern (clean service: full SLO policy,
# zero sheds, quiescent ladder) and the flash-crowd pattern (overload:
# only the lowest class sheds, gold goodput holds >= 98%, the ladder
# engages and recovers). Every run also proves the per-arrival results
# fingerprint, per-class accounting, and ladder-transition log are
# bit-identical across dispatch workers {1, 4, 16} (`revtr-cli loadtest`
# exits nonzero on any determinism or judgment failure).
echo "== loadtest gate (release, standard scale, seeds 1/7/42, steady + flash-crowd) =="
for seed in 1 7 42; do
  ./target/release/revtr-cli loadtest --scale standard --seed "$seed" --pattern steady \
    | tail -n 1
  ./target/release/revtr-cli loadtest --scale standard --seed "$seed" --pattern flash-crowd \
    | tail -n 1
done

# Standard-scale golden (seed 42): TSV bytes, campaign fingerprints and
# the profile's per-ledger byte table pinned under
# crates/eval/tests/goldens/standard42 — one campaign, two judges.
echo "== metrics golden gate (release, standard seed 42) =="
cargo test -q --release -p revtr-eval --test metrics_golden -- --ignored

echo "== cargo clippy --all-targets -- -D warnings =="
# -D clippy::disallowed-methods enforces clippy.toml: no wall-clock
# sleeps, no free thread spawns (campaign workers are scoped threads).
cargo clippy --all-targets -- -D warnings -D clippy::disallowed-methods

# The audit crate is the arbiter of everyone else's soundness, and the
# telemetry crate sits inside every hot path: both are additionally held
# to no-unwrap (a panicking auditor proves nothing; a panicking tracer
# would violate behaviour-neutrality).
echo "== clippy unwrap gate (crates/audit, crates/telemetry; lib targets of crates/core, crates/probing, crates/vpselect) =="
cargo clippy -p revtr-audit --all-targets -- -D warnings -D clippy::unwrap_used
cargo clippy -p revtr-telemetry --all-targets -- -D warnings -D clippy::unwrap_used
# The request plane — engine and prober — runs inside every measurement,
# and the survey plane feeds it every plan: their library code states why a
# value must be there (`expect`) or handles its absence. Tests may still
# unwrap.
cargo clippy -p revtr -p revtr-probing -p revtr-vpselect -- -D warnings -D clippy::unwrap_used
# ...and keeps no ambient per-thread state: a request's clock and probe
# tally are its control block's `Meter`, lent down the probe path (the
# workspace's three thread-locals — the telemetry stripe ordinal, the BGP
# fill scratch, the walk's route-table memo — live in other crates and
# hold nothing a result depends on).
echo "== no per-thread state in the request plane (crates/probing/src, crates/core/src) =="
if grep -rnE 'thread_local!|thread_ms|thread_snapshot|swap_thread_' crates/probing/src crates/core/src; then
  echo "per-thread state in the request plane: charge the task's Meter instead"; exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --check

echo "CI OK"
