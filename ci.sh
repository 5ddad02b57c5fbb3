#!/usr/bin/env bash
# Tier-1 gate: everything must pass before a PR lands.
set -euo pipefail
cd "$(dirname "$0")"

# Every step below runs, in this order, in a bash of its own under
# `set -euo pipefail`. A failing step is recorded and the next one runs;
# the table of failures and the nonzero exit come at the end. A build step
# is fatal: the steps after it run what it builds, and running them on a
# stale binary would pass gates the new code never faced.
failures=()
summary() {
  if [ "${#failures[@]}" -eq 0 ]; then
    echo "CI OK"
    exit 0
  fi
  echo "== CI FAILED: ${#failures[@]} step(s) =="
  printf 'exit\tstep\n'
  printf '%s\n' "${failures[@]}"
  exit 1
}
# step [--fatal] NAME: run the script on stdin as one step.
step() {
  local fatal=0 name body status=0
  if [ "$1" = --fatal ]; then
    fatal=1
    shift
  fi
  name=$1
  body=$(cat)
  echo "== $name =="
  bash -euo pipefail -c "$body" || status=$?
  if [ "$status" -ne 0 ]; then
    failures+=("$status	$name")
    echo "-- step failed (exit $status): $name"
    if [ "$fatal" -eq 1 ]; then
      summary
    fi
  fi
}

step --fatal "cargo build --release" <<'STEP'
cargo build --release
STEP

# The workspace run includes the root package's own suites (tier-1's
# `cargo test -q`: tests/faults.rs — the fault model's seed-pure no-op
# gate — metamorphic, hostile_regressions, ...), so they are not re-run
# one by one in debug.
step "cargo test -q --workspace" <<'STEP'
cargo test -q --workspace
STEP

# Examples are built by neither command above; check them so an API
# change cannot rot them silently.
step "cargo check --workspace --all-targets" <<'STEP'
cargo check -q --workspace --all-targets --offline
STEP

# The repo benchmark is a package of its own (own [workspace], never built
# by the commands above) that calls the layer crates' public API: build it
# and run its unit tests here, so an API change that breaks it fails
# tier-1 rather than the benchmark pipeline.
step "benchmark package (cargo test, benchmark/Cargo.toml)" <<'STEP'
cargo test -q --offline --manifest-path benchmark/Cargo.toml
STEP

# Metamorphic gate: semantics-preserving transforms (cache, workers, VP
# permutation, recovered faults) leave stitched paths bit-identical;
# semantics-weakening ones (smaller atlas) only reduce coverage, never
# audited accuracy. Seeds {1, 7, 42} are baked into the suite. It carries
# the telemetry gates too: tracing off byte-neutral, tracing on
# deterministic across reruns and worker counts (fingerprint equality).
# One arm turns per-packet load balancing on at every router with the
# measurement cache off: a campaign at widths {1, 2, 4, 16} gives every
# request the result, probe count and duration bits a serial measure()
# gives it, since a probe's nonce is a function of the packet.
# The other arms keep churn and load balancing off: churn couples requests
# through the shared clock's flush points, and load balancing through the
# cache, whose hits replay whichever request measured a key first.
step "metamorphic suite (release, tests/metamorphic.rs)" <<'STEP'
cargo test -q --release --test metamorphic
STEP

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
step "stitch-trace audit + probe-economy gate (release, standard scale, seeds 1/7/42, stop sets off/on)" <<'STEP'
cargo build -q --release -p revtr-eval
for seed in 1 7 42; do
  status=0
  audit_out=$(./target/release/revtr-cli audit --scale standard --seed "$seed") || status=$?
  echo "$audit_out" | grep '^audit gate:' || true
  echo "$audit_out" | tail -n 6
  [ "$status" -eq 0 ] || exit "$status"
done
STEP

# Last-link gate: every symmetry-step decision of the standard campaign
# (hop adopted, interdomain abort, stuck) is the one a full forward
# traceroute gives, at widths 1 and 4, and with the measurement cache off
# the traceroute packets sent are equal across widths. Seeds {1, 7, 42}
# are baked into the test.
step "last-link campaign gate (release, standard scale, seeds 1/7/42, workers 1/4)" <<'STEP'
cargo test -q --release -p revtr-eval --test last_link_campaign -- --ignored
STEP

# Survey-tree gate: the full era-2020 ingress survey as `IngressDb::build`
# runs it — whole prefixes on the pool, each in a part of one build round
# opened at its slot, a sink tree per route lent to every ping (a worker's
# toward the prefix, one back to each VP prefix), consecutive pings
# replaying each other's legs, each VP resolved once a build beside its
# reply tree — is a tree-less survey of each prefix at its slot
# (`probe_prefix_in`), walking every hop and resolving each ping's VP as
# it sends it: every `PrefixInfo`, the
# counters, and the clock, simulator-time and route-compute readings to
# the bit, at seeds 1, 7 and 42, under link maintenance, and in
# `dbr_region` ASes. The build charges its 2 036 slots once (2.26 virtual
# hours at seed 1) and no probe of it flushes churn, so its churn arm
# asserts the frozen world: re-rolling one prefix in seven a virtual hour
# moves a few hundred once the build is over, and nothing under it — the
# build equals the one with churn off. Both sides share the simulator's
# Record Route exchange, so the seed-1 survey is also pinned to constants:
# a digest of every `PrefixInfo`, the clock and simulator-time bits, the
# counters and the route computes. (The tiny arms, a lossy rate-limited
# one with three attempts a probe among them, run in the workspace tests
# above.)
step "survey-tree gate: a sink tree per route (release, era-2020, seeds 1/7/42 + maintenance + dbr-region + churn + pinned seed 1)" <<'STEP'
cargo test -q --release -p revtr-vpselect -- --ignored
STEP

# Route-cache bound: 2 400 virtual hours of default churn on the era-2020
# Internet, a window of prefixes RR-pinged after every flush — the cache
# keeps live keys only (at most one table per prefix plus one per
# infrastructure AS), where keeping every key walked would exceed it. (The
# tiny arm runs in the workspace tests above.) Beside it, the O(1)
# `prefix_of` is held to the binary search over every address of every
# era-2020 AS block, router addresses and unallocated space, and
# `router_at`, which reads a router's id off its address by the address
# plan's arithmetic (alias = 10.0.0.0 + id, loopback = /24 #0 of its AS's
# block, link /30 = its slot in its owner's link space), to its ordered
# reference over every address from the private aliases through the /16
# past the last block, `resolve_dest`'s `via` (the link the plan names with
# the router) to a scan of the router's links at every era-2020 router
# address, and the route plane to the whole-graph
# `routes_to` at every AS toward every era-2020 destination AS, under the
# epoch-0 salt of each of its prefixes and under its infrastructure salt.
step "route-cache bound soak + prefix_of, router_at and routes on every era-2020 address and AS (release)" <<'STEP'
cargo test -q --release -p revtr-netsim --lib -- --ignored \
  the_route_cache_keeps_only_live_keys prefix_of_matches_the_search \
  router_at_matches_the_reference resolve_dest_via_matches_the_scan \
  every_era_2020_destination
STEP

# Allocation gates, optimized as deployed: a request allocates what it
# returns — one block (request plane: `measure()` ≤ 1.2 a request and a
# campaign ≤ 1.10) — a served request nothing on top of that but the block
# of a trace the journal keeps (≤ 1.3 a request in both telemetry arms,
# ≤ 1.9 an open-loop arrival: the archive shares the block, a telemetry
# scope records into its driver's buffers), the journal one block for a
# record it keeps and none for one it drops, the survey what it keeps (at
# most two blocks a surveyed prefix: `IngressDb::build` ≤ its output
# blocks + 12 + its trees + 12 a pool helper, `probe_prefix` ≤ its output
# blocks + 6), and
# a round's measurement cache ≤ 140 B live an entry, nothing to overwrite,
# a round's backward stop set ≤ 140 B live a key, nothing to re-publish;
# a warm walk and probe nothing (a plain ping, an RR ping and a spoofed
# one, a TS ping, a TTL view; there is no spoofed plain ping to send), a
# cold route compute its table alone
# (`a_cold_route_compute_allocates_its_table`), and building the simulator
# and a system per table, not per router, AS or adjacency (`Sim::build`
# ≤ 185 allocations and ≤ 2 340 430 bytes, `RevtrSystem::new` ≤ 60).
# (The debug builds run in the workspace tests above.)
step "allocation gates (release: core, vpselect, service, telemetry, probing, netsim)" <<'STEP'
cargo test -q --release -p revtr --test alloc_gate
cargo test -q --release -p revtr-vpselect --test alloc_gate
cargo test -q --release -p revtr-service --test alloc_gate
cargo test -q --release -p revtr-telemetry --test alloc_gate
cargo test -q --release -p revtr-probing --test alloc_gate
cargo test -q --release -p revtr-netsim --test alloc_gate
STEP

# SLO + memory-budget gate: the clean standard campaign's report fires
# no rule at any pinned seed (`revtr-cli report` exits nonzero on any
# firing alert). The policy carries the memory budget — mem.total.hiwater
# under the 64 MiB ceiling and control-block capacity headroom >= 0.90 —
# and each report must account at least 8 subsystems in its byte ledgers
# (one `mem.<ledger>.hiwater` derived row each). That judging a run leaves
# its identity alone is held by crates/eval/tests/metrics_golden.rs: one
# CampaignRun judged by the report and the auditor reproduces the goldens
# `report` wrote alone...
step "SLO + memory-budget gate (release, standard scale, seeds 1/7/42)" <<'STEP'
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
STEP

# ...while a faulted campaign (30% transient loss, no retry budget) must
# provably fire the coverage and stuck-request alerts: coverage on the
# smoke campaign, the stall where a campaign is built to have one.
step "SLO fault-detection gate (release, smoke + standard seeds 1/7/42, loss 0.3)" <<'STEP'
if faulted_out=$(./target/release/revtr-cli report --scale smoke --seed 1 --loss 0.3 --budget 1); then
  echo "faulted run passed the SLO gate — the report is blind"; exit 1
fi
echo "$faulted_out" | grep -Eq '^coverage-floor +critical +FAIL' || { echo "coverage alert missing"; exit 1; }
# How far under its floor the coverage alert fires (a change that re-keys
# a fault draw or reorders a request's probes moves it), and the slowest
# request beside the envelope, which no smoke campaign's 25 requests are
# built to overrun.
echo "$faulted_out" | awk '
  /^coverage-floor / && !c++ { cov = $4; floor = $5 }
  /^latency\.max_ms / { slow = $2 / 1000 }
  /^watchdog: / && match($0, /deadline [0-9.]+/) { dl = substr($0, RSTART + 9, RLENGTH - 9) / 1000 }
  END { printf "margins: coverage %s under the floor %s; slowest request %.1f s against the %.0f s deadline\n", cov, floor, slow, dl }'
echo "$faulted_out" | tail -n 1
# The stall: at standard scale the watchdog arms the 95 s clean-p99
# envelope, which sits below every pinned seed's faulted maximum, and
# 2 000 faulted requests put a tail of them past it — the faulted
# campaigns at seeds 1, 7 and 42 must each fire stuck-requests.
cargo test -q --release -p revtr-eval --lib faulted_standard_report_fires_stuck_requests -- --ignored
STEP

# Hostile-Internet scenario gate: it checks bite only — every adversarial
# profile's campaign fingerprint must depart from the clean campaign's
# (`revtr-cli scenario` exits nonzero when a profile does not bite). The
# table it prints reports the stock engine's coverage, accuracy, probes
# and unsound hops per profile; none of those is gated. Three pinned
# master seeds, same as the SLO gate.
step "scenario bite gate (release, standard scale, seeds 1/7/42)" <<'STEP'
for seed in 1 7 42; do
  ./target/release/revtr-cli scenario --scale standard --seed "$seed" \
    | tail -n 1
done
STEP

# Scenario SLO must-fire gate: under each adversarial profile the stock
# engine's report must raise an alert (exit nonzero) and the firing rule
# set must include the profile's signature rule — a report that stays
# green under a hostile Internet is blind. An all-zero-severity profile
# must still pass the full scenario policy (the verification-mode probe
# allowance is calibrated for exactly this).
step "scenario SLO must-fire gate (release, standard seed 1)" <<'STEP'
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
STEP

# Loadtest gate: the production traffic model at standard scale. Each
# pinned seed runs the steady pattern (clean service: full SLO policy,
# zero sheds, quiescent ladder) and the flash-crowd pattern (overload:
# only the lowest class sheds, gold goodput holds >= 98%, the ladder
# engages and recovers). The steady policy carries the memory budget too.
# Every run also proves the per-arrival results fingerprint, per-class
# accounting, and ladder-transition log are bit-identical across dispatch
# workers {1, 4, 16} (`revtr-cli loadtest` exits nonzero on any
# determinism or judgment failure).
step "loadtest gate (release, standard scale, seeds 1/7/42, steady + flash-crowd)" <<'STEP'
for seed in 1 7 42; do
  ./target/release/revtr-cli loadtest --scale standard --seed "$seed" --pattern steady \
    | tail -n 1
  ./target/release/revtr-cli loadtest --scale standard --seed "$seed" --pattern flash-crowd \
    | tail -n 1
done
STEP

# Fig. 5b's band, seed by seed: revtr 2.0's coverage leaves [0.65, 0.85]
# at twelve of the seventeen seeds the reproduction gate below runs (ROADMAP
# item 16), so that gate fails whatever a change does to the other five.
# This step holds those five (2, 3, 6, 8 and 12) inside the band, read off
# the `coverage` row of `revtr-cli report` (the run behind Fig. 5b's
# revtr 2.0 row): a change that pushes one of them out fails here. Delete
# it once item 16 brings every seed back into the band.
step "Fig. 5b band at the seeds inside it (release, standard seeds 2/3/6/8/12)" <<'STEP'
out=()
for seed in 2 3 6 8 12; do
  # An SLO alert's exit status is not this step's business: the row is.
  report_out=$(./target/release/revtr-cli report --scale standard --seed "$seed") || true
  cov=$(echo "$report_out" | awk '$1 == "coverage" { print $2; exit }')
  if [ -z "$cov" ]; then
    echo "seed $seed: no coverage row"; exit 1
  fi
  echo "seed $seed: coverage $cov"
  awk -v c="$cov" 'BEGIN { exit !(c >= 0.65 && c <= 0.85) }' || out+=("$seed")
done
if [ "${#out[@]}" -gt 0 ]; then
  echo "Fig. 5b's revtr 2.0 coverage left [0.65, 0.85] at seed(s) ${out[*]}"; exit 1
fi
STEP

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
step "reproduction gate (release, standard: two-process identity of reproduce/report/audit, golden seed 1, shapes seeds 1-16 and 42)" <<'STEP'
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
STEP

# Standard-scale golden (seed 42): the campaign fingerprints (the journal's
# only pin) and the rendered report (every table, ledger, stack, derived
# value and verdict) pinned as crates/eval/tests/goldens/standard42/report.txt;
# a drift prints the rows that moved.
step "metrics golden gate (release, standard seed 42)" <<'STEP'
cargo test -q --release -p revtr-eval --test metrics_golden -- --ignored
STEP

step "cargo clippy --workspace --all-targets -- -D warnings (disallowed methods and types)" <<'STEP'
# -D clippy::disallowed-methods enforces clippy.toml: no wall-clock
# sleeps, no free thread spawns (campaign workers are scoped threads).
# -D clippy::disallowed-types keeps std's randomly keyed HashMap/HashSet
# out of every crate and target: a hash container is a
# revtr_telemetry::{WordMap, WordSet} (crates/telemetry/src/registry.rs,
# re-exported by revtr_probing), whose two definitions carry the
# workspace's only #[allow(clippy::disallowed_types)].
# --workspace lints every crate, so each library's
# `#![warn(unreachable_pub)]` fails the gate: a `pub` item that nothing
# outside its crate can reach must say `pub(crate)`.
cargo clippy --workspace --all-targets -- -D warnings -D clippy::disallowed-methods \
  -D clippy::disallowed-types
STEP

# The audit crate is the arbiter of everyone else's soundness, and the
# telemetry crate sits inside every hot path: both are additionally held
# to no-unwrap (a panicking auditor proves nothing; a panicking tracer
# would violate behaviour-neutrality).
step "clippy unwrap gate (crates/audit, crates/telemetry; lib targets of crates/core, crates/probing, crates/vpselect)" <<'STEP'
cargo clippy -p revtr-audit --all-targets -- -D warnings -D clippy::unwrap_used
cargo clippy -p revtr-telemetry --all-targets -- -D warnings -D clippy::unwrap_used
# The request plane — engine and prober — runs inside every measurement,
# and the survey plane feeds it every plan: their library code states why a
# value must be there (`expect`) or handles its absence. Tests may still
# unwrap.
cargo clippy -p revtr -p revtr-probing -p revtr-vpselect -- -D warnings -D clippy::unwrap_used
STEP
# ...and keeps no ambient per-thread state: a request's clock and probe
# tally are its control block's `Meter`, lent down the probe path (the
# workspace's three thread-locals — the telemetry stripe ordinal, the BGP
# fill scratch, the walk's route-table memo — live in other crates and
# hold nothing a result depends on).
step "no per-thread state in the request plane (crates/probing/src, crates/core/src)" <<'STEP'
if grep -rnE 'thread_local!|thread_ms|thread_snapshot|swap_thread_' crates/probing/src crates/core/src; then
  echo "per-thread state in the request plane: charge the task's Meter instead"; exit 1
fi
STEP
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
step "no ground truth in the request plane (crates/{core,probing,vpselect,service,atlas}/src)" <<'STEP'
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
STEP

# ...and sends every probe through one attempt step, driven by one of two
# loops — the chain (single probes) and the collection loop (spoofed
# batches) — so the retry budget is read in those two places alone.
step "one attempt loop (crates/probing/src/prober.rs)" <<'STEP'
reads=$(grep -c 'retry.attempts' crates/probing/src/prober.rs)
if [ "$reads" -ne 2 ]; then
  echo "retry.attempts read in $reads places: send through Prober::chain or Prober::collect"; exit 1
fi
STEP
# ...and an atlas build and a prefix's ingress survey are one collection
# round each: the atlas and vpselect crates' library code (each file up to
# its first `#[cfg(test)]`) sends every probe as a member of a
# `Prober::round`, never through a serial entry point that charges the
# shared clock probe by probe.
step "atlas builds and surveys send through one round (crates/{atlas,vpselect}/src, non-test code)" <<'STEP'
serial=$(for f in crates/atlas/src/*.rs crates/vpselect/src/*.rs; do
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f ":" FNR ": " $0 }' "$f"
done | grep -E 'traceroute_fresh|\.(ping|ping_metered|rr_ping|rr_ping_observed|spoofed_rr_batch|spoofed_rr_batch_at|ts_ping_outcome|spoofed_ts_ping|last_link)\(' \
  | grep -vE 'round\.(ping|rr_ping)\(' || true)
if [ -n "$serial" ]; then
  echo "$serial"
  echo "serial probe in an atlas build or survey: send it as a member of the Prober::round"; exit 1
fi
STEP

# ...and parks a waiting worker in one place: campaign waves and the
# ingress survey's rounds share one pool (crates/netsim/src/pool.rs), so its
# spin-then-park machinery — `std::thread::park` and the `SPINS` budget —
# appears in exactly one library file under crates/*/src.
step "one pool (std::thread::park and SPINS each in one library file, crates/*/src)" <<'STEP'
for pat in 'std::thread::park\b' '\bSPINS\b'; do
  files=$(grep -rlE --include='*.rs' "$pat" crates/*/src || true)
  count=$(printf '%s' "$files" | grep -c . || true)
  if [ "$count" -ne 1 ]; then
    echo "$pat in $count library files, want 1:"
    echo "$files"
    exit 1
  fi
done
STEP

# Rustdoc is warning-free: a doc link to a private, renamed or deleted
# item fails here, so narrowing the public surface cannot leave a dangling
# or private link behind in the rendered docs.
step "cargo doc (RUSTDOCFLAGS=-D warnings)" <<'STEP'
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --offline
STEP

step "cargo fmt --check" <<'STEP'
cargo fmt --check
STEP

# No tracked file over 1 MiB: an output is pinned by the cheapest check
# that names what moved (a fingerprint, a rendered report), never by a
# bulk copy of itself. A tracked file missing from the working tree has no
# size to judge, so only the files that exist are measured. The two docs
# have caps of their own, half their size when they were restructured:
# DESIGN.md is one section per crate and EXPERIMENTS.md one table per
# standing claim, so a change updates a section in place instead of
# appending a log of itself (history belongs in CHANGES.md).
step "no tracked file over 1 MiB; DESIGN.md <= 81961 B, EXPERIMENTS.md <= 239242 B" <<'STEP'
big=$(git ls-files -z | while IFS= read -r -d '' f; do
  if [ -e "$f" ]; then printf '%s\0' "$f"; fi
done | xargs -0 -r stat -c '%s %n' -- | awk '$1 > 1048576')
if [ -n "$big" ]; then
  echo "tracked files over 1 MiB (bytes, path):"
  echo "$big"
  exit 1
fi
over=$(stat -c '%s %n' -- DESIGN.md EXPERIMENTS.md \
  | awk '($2 == "DESIGN.md" && $1 > 81961) || ($2 == "EXPERIMENTS.md" && $1 > 239242)')
if [ -n "$over" ]; then
  echo "docs over their caps (bytes, path): update a section in place"
  echo "$over"
  exit 1
fi
STEP

summary
