//! `revtr-cli` — drive the reverse traceroute reproduction from the shell.
//!
//! ```text
//! revtr-cli topology  [--era tiny|2016|2020] [--seed N]
//! revtr-cli measure   [--era ...] [--seed N] [--engine 1|2] [--dst A.B.C.D|auto] [--src A.B.C.D|auto]
//! revtr-cli reproduce [--scale smoke|standard] [--out DIR]
//! revtr-cli audit     [--scale smoke|standard] [--seed N] [--out DIR]
//! revtr-cli report    [--scale smoke|standard] [--seed N] [--out DIR] [--loss P] [--budget N]
//!                     [--scenario PROFILE] [--severity F]
//! revtr-cli scenario  [--scale smoke|standard] [--seed N] [--profile NAME|all] [--severity F] [--out DIR]
//! revtr-cli loadtest  [--scale smoke|standard] [--seed N] [--pattern steady|diurnal|flash-crowd|scan]
//!                     [--out DIR]
//! ```
//!
//! Every subcommand validates its flags against an allow-list
//! ([`revtr_eval::cliargs`]); unknown flags are a usage error (exit 2)
//! rather than being silently ignored. The judging subcommands (`audit`,
//! `report`, `scenario`, `loadtest`) exit non-zero when their gate fails,
//! so they are usable directly as CI gates.
//!
//! `audit` runs the clean campaign with stop sets off and then on, and
//! judges each run twice: the stitch-trace audit and one arm of the
//! probe-economy A/B. `reproduce` includes the loss × retry-budget
//! robustness cells.

use revtr::{EngineConfig, HopMethod, RevtrSystem};
use revtr_atlas::select_atlas_probes;
use revtr_eval::cliargs::{self, Flags};
use revtr_eval::context::DEFAULT_SEED;
use revtr_eval::report::{self, Report};
use revtr_eval::{audit, loadtest, reproduce, scenarios, Campaign, Scale};
use revtr_netsim::{Addr, AsTier, ScenarioConfig, ScenarioProfile, Sim};
use revtr_probing::Prober;
use revtr_vpselect::{Heuristics, IngressDb};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  revtr-cli topology  [--era tiny|2016|2020] [--seed N]\n  \
         revtr-cli measure   [--era ...] [--seed N] [--engine 1|2] [--dst ADDR|auto] [--src ADDR|auto]\n  \
         revtr-cli reproduce [--scale smoke|standard] [--out DIR]\n  \
         revtr-cli audit     [--scale smoke|standard] [--seed N] [--out DIR]\n  \
         revtr-cli report    [--scale smoke|standard] [--seed N] [--out DIR] [--loss P] [--budget N]\n  \
                     [--scenario PROFILE] [--severity F]\n  \
         revtr-cli scenario  [--scale smoke|standard] [--seed N] [--profile NAME|all] [--severity F] [--out DIR]\n  \
         revtr-cli loadtest  [--scale smoke|standard] [--seed N] [--pattern steady|diurnal|flash-crowd|scan] [--out DIR]"
    );
    ExitCode::from(2)
}

/// Report a flag-validation error the usage way: message plus exit 2.
fn flag_err(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    usage()
}

fn build_sim(flags: &Flags) -> Result<Sim, String> {
    let cfg = flags.era()?;
    let seed = flags.seed()?.unwrap_or(DEFAULT_SEED);
    Ok(Sim::build(cfg, seed))
}

/// `--seed` and `--scale`, validated once for every campaign subcommand.
/// The seed stays optional: subcommands echo it only when it was given.
fn seed_and_scale(flags: &Flags) -> Result<(Option<u64>, Scale), ExitCode> {
    flags
        .seed()
        .and_then(|seed| Ok((seed, flags.scale()?)))
        .map_err(|e| flag_err(&e))
}

fn parse_addr(s: &str) -> Option<Addr> {
    let parts: Vec<u8> = s
        .split('.')
        .map(|p| p.parse().ok())
        .collect::<Option<Vec<u8>>>()?;
    if parts.len() != 4 {
        return None;
    }
    Some(Addr::new(parts[0], parts[1], parts[2], parts[3]))
}

fn cmd_topology(flags: &Flags) -> ExitCode {
    let sim = match build_sim(flags) {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let topo = sim.topo();
    println!("{sim:?}");
    let mut by_tier: HashMap<&str, usize> = HashMap::new();
    for a in &topo.ases {
        *by_tier
            .entry(match a.tier {
                AsTier::Tier1 => "tier1",
                AsTier::Transit => "transit",
                AsTier::Stub => "stub",
                AsTier::Nren => "nren",
            })
            .or_insert(0) += 1;
    }
    println!("ASes by tier: {by_tier:?}");
    println!(
        "colo ASes: {}  edu stubs: {}  MPLS backbones: {}",
        topo.ases.iter().filter(|a| a.colo).count(),
        topo.ases.iter().filter(|a| a.edu).count(),
        topo.ases.iter().filter(|a| a.mpls).count(),
    );
    println!(
        "VP sites: {} ({} legacy-2016)",
        topo.vp_sites.len(),
        topo.vp_sites.iter().filter(|v| v.legacy_2016).count()
    );
    ExitCode::SUCCESS
}

fn cmd_measure(flags: &Flags) -> ExitCode {
    let sim = match build_sim(flags) {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let src = match flags.get("src").unwrap_or("auto") {
        "auto" => vps[0],
        s => match parse_addr(s) {
            Some(a) => a,
            None => return flag_err("bad --src address"),
        },
    };
    let dst = match flags.get("dst").unwrap_or("auto") {
        "auto" => {
            let Some(d) = sim.topo().prefixes.iter().find_map(|pe| {
                sim.host_addrs(pe.id)
                    .find(|&a| sim.behavior().host_rr_responsive(a) && a != src)
            }) else {
                eprintln!("no responsive destination found");
                return ExitCode::FAILURE;
            };
            d
        }
        s => match parse_addr(s) {
            Some(a) => a,
            None => return flag_err("bad --dst address"),
        },
    };

    eprintln!("building background services (ingress DB, atlas pool)...");
    let prober = Prober::new(&sim);
    let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
    let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
    let pool = select_atlas_probes(&sim, 200, 7);
    let mut cfg = match flags.get("engine").unwrap_or("2") {
        "1" => EngineConfig::revtr1(),
        "2" => EngineConfig::revtr2(),
        other => return flag_err(&format!("unknown engine {other:?} (use 1 or 2)")),
    };
    cfg.atlas_size = 100;
    let system = RevtrSystem::new(prober, cfg, vps, ingress, pool);

    println!("reverse traceroute from {dst} back to {src}:");
    let r = system.measure(dst, src);
    for (i, hop) in r.hops.iter().enumerate() {
        let addr = hop
            .addr
            .map(|a| a.to_string())
            .unwrap_or_else(|| "*".to_string());
        let how = match hop.method {
            HopMethod::Destination => "destination",
            HopMethod::AtlasIntersection => "atlas",
            HopMethod::RecordRoute => "rr",
            HopMethod::SpoofedRecordRoute => "spoofed-rr",
            HopMethod::Timestamp => "ts",
            HopMethod::AssumedSymmetric => "assumed-symmetric",
        };
        let star = if hop.suspicious_gap_before {
            " [*]"
        } else {
            ""
        };
        println!("  {i:2}  {addr:<16} {how}{star}");
    }
    println!(
        "status: {:?}  probes: {} option pkts  batches: {}  {:.1}s virtual",
        r.status,
        r.stats.probes.option_probes(),
        r.stats.batches,
        r.stats.duration_s
    );
    ExitCode::SUCCESS
}

fn cmd_reproduce(flags: &Flags) -> ExitCode {
    let scale = match flags.scale() {
        Ok(s) => s,
        Err(e) => return flag_err(&e),
    };
    let rep = reproduce::run(scale, DEFAULT_SEED);
    println!("{}", rep.render());
    if let Some(dir) = flags.out_dir() {
        match rep.save_tsvs(dir) {
            Ok(()) => eprintln!("TSVs written to {}", dir.display()),
            Err(e) => {
                eprintln!("could not write TSVs: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_audit(flags: &Flags) -> ExitCode {
    let (seed, scale) = match seed_and_scale(flags) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let audited = audit::run(scale, seed.unwrap_or(DEFAULT_SEED));
    if let Some(s) = seed {
        println!("(master seed {s})");
    }
    let arms = [
        (false, &audited.off, "audit"),
        (true, &audited.on, "audit_stop_sets"),
    ];
    for (stop_sets, report, tsv) in arms {
        if stop_sets {
            println!("(stop sets on: reused-evidence soundness arm)");
        }
        println!("{}", report.table().render());
        println!(
            "audited {} measurements, {} with failing verdicts",
            report.summary.results, report.summary.dirty_results
        );
        if report.is_clean() {
            println!("audit gate: PASS (0 unsound, 0 policy violations)");
        } else {
            eprintln!(
                "audit gate: FAIL ({} unsound, {} policy violations)",
                report.summary.total_unsound(),
                report.summary.total_policy_violations()
            );
            for f in &report.failures {
                eprintln!("  {f}");
            }
        }
        if let Some(dir) = flags.out_dir() {
            match report.table().save_tsv(dir, tsv) {
                Ok(()) => eprintln!("TSV written to {}", dir.display()),
                Err(e) => {
                    eprintln!("could not write TSV: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!("{}", audited.economy.render());
    if audited.pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_report(flags: &Flags) -> ExitCode {
    let (seed, scale) = match seed_and_scale(flags) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let loss = match flags.get("loss").unwrap_or("0").parse::<f64>() {
        Ok(p) if (0.0..=1.0).contains(&p) => p,
        _ => return flag_err("--loss must be a probability in [0, 1]"),
    };
    let budget = match flags.get("budget").unwrap_or("1").parse::<u32>() {
        Ok(b) if b >= 1 => b,
        _ => return flag_err("--budget must be a positive integer"),
    };
    let mut campaign = Campaign::faulted(scale, seed.unwrap_or(DEFAULT_SEED), loss, budget);
    let mut policy = report::default_policy(scale);
    if let Some(name) = flags.get("scenario") {
        let Some(profile) = ScenarioProfile::from_name(name) else {
            return flag_err(&format!(
                "unknown scenario profile {name:?} (one of: {})",
                ScenarioProfile::ALL.map(|p| p.name()).join(", ")
            ));
        };
        let severity = match parse_severity(flags) {
            Ok(s) => s.unwrap_or_else(|| profile.default_severity()),
            Err(code) => return code,
        };
        campaign = campaign.with_scenario(ScenarioConfig::profile_at(profile, severity));
        policy = report::scenario_policy(scale);
    } else if flags.get("severity").is_some() {
        return flag_err("--severity requires --scenario");
    }
    let run = campaign.run();
    let report = Report::new(&run, &policy);
    if let Some(s) = seed {
        println!("(master seed {s})");
    }
    println!("{}", report.render());
    if let Some(dir) = flags.out_dir() {
        match report.save(dir) {
            Ok(()) => eprintln!("exports written to {}", dir.display()),
            Err(e) => {
                eprintln!("could not write exports: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parse the shared `--severity` flag (a fraction in [0, 1]); `Ok(None)`
/// when absent so callers can fall back to the profile default.
fn parse_severity(flags: &Flags) -> Result<Option<f64>, ExitCode> {
    match flags.get("severity") {
        None => Ok(None),
        Some(s) => match s.parse::<f64>() {
            Ok(v) if (0.0..=1.0).contains(&v) => Ok(Some(v)),
            _ => Err(flag_err("--severity must be a fraction in [0, 1]")),
        },
    }
}

fn cmd_scenario(flags: &Flags) -> ExitCode {
    let (seed, scale) = match seed_and_scale(flags) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let profiles: Vec<ScenarioProfile> = match flags.get("profile").unwrap_or("all") {
        "all" => ScenarioProfile::ALL.to_vec(),
        name => match ScenarioProfile::from_name(name) {
            Some(p) => vec![p],
            None => {
                return flag_err(&format!(
                    "unknown scenario profile {name:?} (one of: all, {})",
                    ScenarioProfile::ALL.map(|p| p.name()).join(", ")
                ))
            }
        },
    };
    let severity = match parse_severity(flags) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let report = scenarios::run(scale, seed.unwrap_or(DEFAULT_SEED), &profiles, severity);
    if let Some(s) = seed {
        println!("(master seed {s})");
    }
    println!("{}", report.render());
    if let Some(dir) = flags.out_dir() {
        match report.table().save_tsv(dir, "scenarios") {
            Ok(()) => eprintln!("TSV written to {}", dir.display()),
            Err(e) => {
                eprintln!("could not write TSV: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if report.pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_loadtest(flags: &Flags) -> ExitCode {
    let (seed, scale) = match seed_and_scale(flags) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let name = flags.get("pattern").unwrap_or("steady");
    let Some(pattern) = loadtest::Pattern::from_name(name) else {
        return flag_err(&format!(
            "unknown traffic pattern {name:?} (one of: {})",
            loadtest::Pattern::ALL.map(|p| p.name()).join(", ")
        ));
    };
    let report = loadtest::run(scale, seed.unwrap_or(DEFAULT_SEED), pattern);
    if let Some(s) = seed {
        println!("(master seed {s})");
    }
    println!("{}", report.render());
    if let Some(dir) = flags.out_dir() {
        match report.save_exports(dir) {
            Ok(()) => eprintln!("exports written to {}", dir.display()),
            Err(e) => {
                eprintln!("could not write exports: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if report.pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The flags each subcommand accepts; anything else is a usage error.
fn allowed_flags(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "topology" => &["era", "seed"],
        "measure" => &["era", "seed", "engine", "dst", "src"],
        "reproduce" => &["scale", "out"],
        "audit" => &["scale", "seed", "out"],
        "report" => &[
            "scale", "seed", "out", "loss", "budget", "scenario", "severity",
        ],
        "scenario" => &["scale", "seed", "profile", "severity", "out"],
        "loadtest" => &["scale", "seed", "pattern", "out"],
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let Some(allowed) = allowed_flags(cmd) else {
        return usage();
    };
    let flags = match cliargs::parse(rest, allowed) {
        Ok(f) => f,
        Err(e) => return flag_err(&e),
    };
    match cmd.as_str() {
        "topology" => cmd_topology(&flags),
        "measure" => cmd_measure(&flags),
        "reproduce" => cmd_reproduce(&flags),
        "audit" => cmd_audit(&flags),
        "report" => cmd_report(&flags),
        "scenario" => cmd_scenario(&flags),
        "loadtest" => cmd_loadtest(&flags),
        _ => usage(),
    }
}
