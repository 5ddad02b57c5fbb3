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

# Stitch-trace audit + probe-economy gate: `revtr-cli audit` runs the clean
# standard campaign with stop sets off and then on. Every accepted hop of
# both runs replays soundly against the oracle — zero Unsound, zero
# PolicyViolation — so the on arm also proves reused stop-set evidence
# replays sound. The same two runs are the probe-economy A/B: stop sets
# must cut measurement probes per revtr by >= 25% while coverage and
# accuracy stay within 0.02 of the off control. A "probe" there is a whole
# traceroute, so the A/B also prints packets per revtr and TTL probes per
# last-link measurement for both arms, and holds the stop-sets-on arm to
# <= 6.0 packets per measurement — half a full forward trace. The
# subcommand exits nonzero if any of these gates fails.
echo "== stitch-trace audit + probe-economy gate (release, standard scale, seeds 1/7/42, stop sets off/on) =="
cargo build -q --release -p revtr-eval
for seed in 1 7 42; do
  status=0
  audit_out=$(./target/release/revtr-cli audit --scale standard --seed "$seed") || status=$?
  echo "$audit_out" | grep '^audit gate:' || true
  echo "$audit_out" | tail -n 6
  [ "$status" -eq 0 ] || exit "$status"
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
# route-compute readings to the bit, with churn moving salts under the
# trees, under link maintenance, and in `dbr_region` ASes. A prefix's scan
# and RR pings go out as one round that charges the clock once, by its
# latest ping (some seventy virtual minutes a survey), so the churn arms
# re-roll one prefix in seven a virtual hour to keep a few hundred salts
# moving mid-survey. Both sides share the simulator's Record Route exchange, so
# the seed-1 survey is also pinned to constants: a digest of every
# `PrefixInfo`, the clock and simulator-time bits, the counters and the
# route computes. (The tiny arms, a lossy rate-limited one with three
# attempts a probe among them, run in the workspace tests above.)
echo "== survey-tree gate (release, era-2020, seeds 1/7/42 + maintenance + dbr-region + pinned seed 1) =="
cargo test -q --release -p revtr-vpselect -- --ignored

# Route-cache bound: 2 400 virtual hours of default churn on the era-2020
# Internet, a window of prefixes RR-pinged after every flush — the cache
# keeps live keys only (at most one table per prefix plus one per
# infrastructure AS), where keeping every key walked would exceed it. (The
# tiny arm runs in the workspace tests above.) Beside it, the O(1)
# `prefix_of` is held to the binary search over every address of every
# era-2020 AS block, router addresses and unallocated space, and the
# word-hashed address index (`router_at`) to its ordered reference over
# every address from the private aliases through the /16 past the last
# block, and the route plane to the whole-graph `routes_to` at every AS
# toward every era-2020 destination AS, under the epoch-0 salt of each of
# its prefixes and under its infrastructure salt.
echo "== route-cache bound soak + prefix_of, router_at and routes on every era-2020 address and AS (release) =="
cargo test -q --release -p revtr-netsim --lib -- --ignored \
  the_route_cache_keeps_only_live_keys prefix_of_matches_the_search \
  router_at_matches_the_reference every_era_2020_destination

# Allocation gates, optimized as deployed: a request allocates what it
# returns — one block (request plane: `measure()` ≤ 1.2 a request and a
# campaign ≤ 1.10) — a served request nothing on top of that but the block
# of a trace the journal keeps (≤ 1.3 a request in both telemetry arms,
# ≤ 1.9 an open-loop arrival: the archive shares the block, a telemetry
# scope records into its driver's buffers), the journal one block for a
# record it keeps and none for one it drops, the survey what it keeps, and
# a round's measurement cache ≤ 140 B live an entry, nothing to overwrite.
# (The debug builds run in the workspace tests above.)
echo "== allocation gates (release: core, vpselect, service, telemetry, probing) =="
cargo test -q --release -p revtr --test alloc_gate
cargo test -q --release -p revtr-vpselect --test alloc_gate
cargo test -q --release -p revtr-service --test alloc_gate
cargo test -q --release -p revtr-telemetry --test alloc_gate
cargo test -q --release -p revtr-probing --test alloc_gate

# SLO + memory-budget gate: the clean standard campaign's report fires
# no rule at any pinned seed (`revtr-cli report` exits nonzero on any
# firing alert). The policy carries the memory budget — mem.total.hiwater
# under the 64 MiB ceiling and control-block capacity headroom >= 0.90 —
# and each report must account at least 8 subsystems in its byte ledgers
# (one `mem.<ledger>.hiwater` derived row each). That judging a run leaves
# its identity alone is held by crates/eval/tests/metrics_golden.rs: one
# CampaignRun judged by the report and the auditor reproduces the goldens
# `report` wrote alone...
echo "== SLO + memory-budget gate (release, standard scale, seeds 1/7/42) =="
for seed in 1 7 42; do
  report_out=$(./target/release/revtr-cli report --scale standard --seed "$seed")
  ledgers=$(echo "$report_out" \
    | grep -cE '^mem\.(netsim|probing|atlas|engine|service|telemetry)\.')
  if [ "$ledgers" -lt 8 ]; then
    echo "seed $seed: byte ledgers too thin: $ledgers subsystems"; exit 1
  fi
  echo "$report_out" | tail -n 1
  echo "seed $seed: $ledgers ledgers"
done

# ...while a faulted campaign (30% transient loss, no retry budget) must
# provably fire the coverage and stuck-request alerts.
echo "== SLO fault-detection gate (release, smoke, loss 0.3) =="
if faulted_out=$(./target/release/revtr-cli report --scale smoke --seed 1 --loss 0.3 --budget 1); then
  echo "faulted run passed the SLO gate — the report is blind"; exit 1
fi
echo "$faulted_out" | grep -q 'coverage-floor' || { echo "coverage alert missing"; exit 1; }
echo "$faulted_out" | grep -q 'stuck-requests' || { echo "stuck-request alert missing"; exit 1; }
echo "$faulted_out" | tail -n 1

# Hostile-Internet scenario gate: it checks bite only — every adversarial
# profile's campaign fingerprint must depart from the clean campaign's
# (`revtr-cli scenario` exits nonzero when a profile does not bite). The
# table it prints reports the stock engine's coverage, accuracy, probes
# and unsound hops per profile; none of those is gated. Three pinned
# master seeds, same as the SLO gate.
echo "== scenario bite gate (release, standard scale, seeds 1/7/42) =="
for seed in 1 7 42; do
  ./target/release/revtr-cli scenario --scale standard --seed "$seed" \
    | tail -n 1
done

# Scenario SLO must-fire gate: under each adversarial profile the stock
# engine's report must raise an alert (exit nonzero) and the firing rule
# set must include the profile's signature rule — a report that stays
# green under a hostile Internet is blind. An all-zero-severity profile
# must still pass the full scenario policy (the verification-mode probe
# allowance is calibrated for exactly this).
echo "== scenario SLO must-fire gate (release, standard seed 1) =="
scenario_must_fire() {
  profile=$1; rule=$2
  if out=$(./target/release/revtr-cli report --scale standard --seed 1 --scenario "$profile"); then
    echo "$profile passed the SLO gate — the report is blind"; exit 1
  fi
  echo "$out" | grep -Eq "$rule +[a-z]+ +FAIL" || { echo "$profile: expected $rule alert missing"; exit 1; }
  echo "$profile: fires $rule"
}
scenario_must_fire spoof-filter-rollout coverage-floor
scenario_must_fire dbr-violation-region dbr-verify-mismatch
scenario_must_fire lying-rr-responders accuracy-floor
scenario_must_fire asymmetric-rate-limiters transient-exhaustion
scenario_must_fire poisoned-atlas accuracy-floor
./target/release/revtr-cli report --scale standard --seed 1 \
  --scenario dbr-violation-region --severity 0 | tail -n 1

# Loadtest gate: the production traffic model at standard scale. Each
# pinned seed runs the steady pattern (clean service: full SLO policy,
# zero sheds, quiescent ladder) and the flash-crowd pattern (overload:
# only the lowest class sheds, gold goodput holds >= 98%, the ladder
# engages and recovers). The steady policy carries the memory budget too.
# Every run also proves the per-arrival results fingerprint, per-class
# accounting, and ladder-transition log are bit-identical across dispatch
# workers {1, 4, 16} (`revtr-cli loadtest` exits nonzero on any
# determinism or judgment failure).
echo "== loadtest gate (release, standard scale, seeds 1/7/42, steady + flash-crowd) =="
for seed in 1 7 42; do
  ./target/release/revtr-cli loadtest --scale standard --seed "$seed" --pattern steady \
    | tail -n 1
  ./target/release/revtr-cli loadtest --scale standard --seed "$seed" --pattern flash-crowd \
    | tail -n 1
done

# Paper-reproduction gate: every experiment builds its own world from
# (scale, seed), so the standard reproduction is a pure function of its
# seed. Two processes must print byte-identical tables and save
# byte-identical TSVs; the seed-1 text is the committed golden
# crates/eval/tests/goldens/reproduce_standard1.txt, and the paper's shapes
# (Table 4's ingress cut, Fig. 5b's coverage band, Table 2's gap, Fig. 14's
# U, Fig. 5c's medians and knee, retries under loss) hold at seeds 1–16
# and 42 (the `--ignored` run below). The operations harness's own
# outputs are held to the same two-process identity: `report` and `audit`
# at standard seed 1, stdout and every export.
echo "== reproduction gate (release, standard: two-process identity of reproduce/report/audit, golden seed 1, shapes seeds 1-16 and 42) =="
repro_dir=$(mktemp -d)
for run in a b; do
  ./target/release/revtr-cli reproduce --scale standard --out "$repro_dir/$run" \
    > "$repro_dir/$run.txt" 2> /dev/null
done
cmp "$repro_dir/a.txt" "$repro_dir/b.txt"
diff -r "$repro_dir/a" "$repro_dir/b"
for sub in report audit; do
  for run in a b; do
    # One export path for both runs: stdout names it.
    ./target/release/revtr-cli "$sub" --scale standard --seed 1 --out "$repro_dir/$sub" \
      > "$repro_dir/$sub-$run.txt"
    mv "$repro_dir/$sub" "$repro_dir/$sub-$run"
  done
  cmp "$repro_dir/$sub-a.txt" "$repro_dir/$sub-b.txt"
  diff -r "$repro_dir/$sub-a" "$repro_dir/$sub-b"
done
rm -rf "$repro_dir"
cargo test -q --release -p revtr-eval --test reproduction -- --ignored

# Standard-scale golden (seed 42): TSV bytes, campaign fingerprints and
# the rendered report (every ledger, stack, derived value and verdict)
# pinned under crates/eval/tests/goldens/standard42.
echo "== metrics golden gate (release, standard seed 42) =="
cargo test -q --release -p revtr-eval --test metrics_golden -- --ignored

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
# -D clippy::disallowed-methods enforces clippy.toml: no wall-clock
# sleeps, no free thread spawns (campaign workers are scoped threads).
# --workspace lints every crate, so each library's
# `#![warn(unreachable_pub)]` fails the gate: a `pub` item that nothing
# outside its crate can reach must say `pub(crate)`.
cargo clippy --workspace --all-targets -- -D warnings -D clippy::disallowed-methods

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
# ...and sees no ground truth: the engine, the prober, VP selection and
# the service adopt only evidence a deployment could measure, so none of
# them calls the simulator's oracle, tests included. (The atlas and
# aliasing crates call it only inside their `#[cfg(test)]` modules.)
# Nor does the request plane read the simulator at all: `probing` is the
# deployment boundary, and the library code of the engine, the survey, the
# atlas and the service (each file up to its first `#[cfg(test)]`, comment
# lines aside — doc examples build a world as a caller does) names no
# `Sim` or `SinkTree` and calls no `.sim()`, `.topo()` or `.oracle()`: it
# reads the world through `Prober`'s deployment reads and the `aliasing`
# datasets. One exemption: `atlas/src/probes.rs`, whose
# `select_atlas_probes(&Sim, …)` builds the Atlas host list a caller hands
# the system.
echo "== no ground truth in the request plane (crates/{core,probing,vpselect,service,atlas}/src) =="
if grep -rnE '\.oracle\(\)' crates/core/src crates/probing/src crates/vpselect/src crates/service/src; then
  echo "oracle call in the request plane: adopt only measured evidence"; exit 1
fi
reads=$(for f in crates/core/src/*.rs crates/vpselect/src/*.rs crates/service/src/*.rs crates/atlas/src/*.rs; do
  [ "$f" = crates/atlas/src/probes.rs ] && continue
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f ":" FNR ": " $0 }' "$f"
done | grep -vE '^[^:]+:[0-9]+: *//' \
  | grep -E '\bSim\b|\bSinkTree\b|\.(sim|topo|oracle)\(\)' || true)
if [ -n "$reads" ]; then
  echo "$reads"
  echo "simulator read in the request plane: read the world through a Prober deployment read"; exit 1
fi

# ...and keys every hash container with a fixed-key hasher: a std
# `HashMap`/`HashSet` draws per-process random keys, and once its
# iteration order reaches a tie-break or a first-wins choice, two identical
# runs disagree. The library code of the request plane and the datasets it
# reads (each file up to its first `#[cfg(test)]`) names no hash container
# without `WordHasher` and calls none of the std containers' RandomState-only
# constructors (`new`, `with_capacity`; build one with `default()`).
echo "== fixed-key hashers in the request plane (crates/{core,probing,vpselect,atlas,service,aliasing}/src, non-test code) =="
hashed=$(for f in $(find crates/{core,probing,vpselect,atlas,service,aliasing}/src -name '*.rs' | sort); do
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f ":" FNR ": " $0 }' "$f"
done | awk '(/Hash(Map|Set)</ && !/WordHasher/) || /Hash(Map|Set)::(new|with_capacity)\(/' || true)
if [ -n "$hashed" ]; then
  echo "$hashed"
  echo "std hasher in the request plane: key it with BuildHasherDefault<WordHasher>"; exit 1
fi

# ...and sends every probe through one attempt step, driven by one of two
# loops — the chain (single probes) and the collection loop (spoofed
# batches) — so the retry budget is read in those two places alone.
echo "== one attempt loop (crates/probing/src/prober.rs) =="
reads=$(grep -c 'retry.attempts' crates/probing/src/prober.rs)
if [ "$reads" -ne 2 ]; then
  echo "retry.attempts read in $reads places: send through Prober::chain or Prober::collect"; exit 1
fi
# ...and an atlas build and a prefix's ingress survey are one collection
# round each: the atlas and vpselect crates' library code (each file up to
# its first `#[cfg(test)]`) sends every probe as a member of a
# `Prober::round`, never through a serial entry point that charges the
# shared clock probe by probe.
echo "== atlas builds and surveys send through one round (crates/{atlas,vpselect}/src, non-test code) =="
serial=$(for f in crates/atlas/src/*.rs crates/vpselect/src/*.rs; do
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f ":" FNR ": " $0 }' "$f"
done | grep -E 'traceroute_fresh|\.(ping|ping_metered|rr_ping|rr_ping_observed|spoofed_rr_batch|spoofed_rr_batch_at|ts_ping_outcome|spoofed_ts_ping|last_link)\(' \
  | grep -vE 'round\.(ping|rr_ping)\(' || true)
if [ -n "$serial" ]; then
  echo "$serial"
  echo "serial probe in an atlas build or survey: send it as a member of the Prober::round"; exit 1
fi

# Rustdoc is warning-free: a doc link to a private, renamed or deleted
# item fails here, so narrowing the public surface cannot leave a dangling
# or private link behind in the rendered docs.
echo "== cargo doc (RUSTDOCFLAGS=-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --offline

echo "== cargo fmt --check =="
cargo fmt --check

echo "CI OK"
