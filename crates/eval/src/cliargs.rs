//! Strict command-line flag parsing shared by every `revtr-cli`
//! subcommand.
//!
//! Each subcommand declares the flags it accepts; anything else —
//! unknown flags, missing values, repeated flags, stray positional
//! arguments — is a hard error instead of being silently swallowed, so a
//! typo like `--sclae` fails fast rather than running the default scale.

use crate::campaign::Scale;
use revtr_netsim::SimConfig;
use std::collections::BTreeMap;

/// Parsed `--flag value` pairs, validated against an allow-list.
#[derive(Clone, Debug, Default)]
pub struct Flags {
    map: BTreeMap<String, String>,
}

/// Parse `args` as `--flag value` pairs, accepting only `allowed` names.
pub fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(tok) = it.next() {
        let Some(key) = tok.strip_prefix("--") else {
            return Err(format!(
                "unexpected argument {tok:?} (flags are --name value)"
            ));
        };
        if !allowed.contains(&key) {
            return Err(format!(
                "unknown flag --{key} (accepted: {})",
                allowed
                    .iter()
                    .map(|a| format!("--{a}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        let Some(value) = it.next() else {
            return Err(format!("flag --{key} is missing its value"));
        };
        if map.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("flag --{key} given more than once"));
        }
    }
    Ok(Flags { map })
}

impl Flags {
    /// Raw value of a flag, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(|s| s.as_str())
    }

    /// `--seed N` as an unsigned integer (None when absent).
    pub fn seed(&self) -> Result<Option<u64>, String> {
        match self.get("seed") {
            None => Ok(None),
            Some(s) => s
                .parse::<u64>()
                .map(Some)
                .map_err(|_| format!("--seed must be an unsigned integer, got {s:?}")),
        }
    }

    /// `--scale smoke|standard` as a [`Scale`] (default smoke).
    pub fn scale(&self) -> Result<Scale, String> {
        self.get("scale").map_or(Ok(Scale::Smoke), Scale::parse)
    }

    /// `--era tiny|2016|2020` as a topology config (default tiny).
    pub fn era(&self) -> Result<SimConfig, String> {
        match self.get("era").unwrap_or("tiny") {
            "tiny" => Ok(SimConfig::tiny()),
            "2016" => Ok(SimConfig::era_2016()),
            "2020" => Ok(SimConfig::era_2020()),
            other => Err(format!("unknown era {other:?} (use tiny, 2016, or 2020)")),
        }
    }

    /// `--out DIR` as a path, if given.
    pub fn out_dir(&self) -> Option<&std::path::Path> {
        self.get("out").map(std::path::Path::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn accepts_allowed_flags_and_defaults() {
        let f = parse(
            &argv(&["--scale", "standard", "--seed", "7"]),
            &["scale", "seed"],
        )
        .expect("parse");
        assert_eq!(f.get("scale"), Some("standard"));
        assert_eq!(f.seed().expect("seed"), Some(7));
        assert_eq!(f.scale(), Ok(Scale::Standard));

        let empty = parse(&[], &["scale"]).expect("empty parse");
        assert_eq!(empty.scale(), Ok(Scale::Smoke));
        assert_eq!(empty.seed().expect("no seed"), None);
        assert!(empty.out_dir().is_none());
    }

    #[test]
    fn rejects_unknown_missing_and_repeated() {
        assert!(parse(&argv(&["--bogus", "1"]), &["scale"])
            .unwrap_err()
            .contains("unknown flag --bogus"));
        assert!(parse(&argv(&["--scale"]), &["scale"])
            .unwrap_err()
            .contains("missing its value"));
        assert!(parse(&argv(&["positional"]), &["scale"])
            .unwrap_err()
            .contains("unexpected argument"));
        assert!(parse(&argv(&["--seed", "1", "--seed", "2"]), &["seed"])
            .unwrap_err()
            .contains("more than once"));
    }

    #[test]
    fn value_validation_errors_are_reported() {
        let f = parse(
            &argv(&["--seed", "abc", "--scale", "huge", "--era", "9"]),
            &["seed", "scale", "era"],
        )
        .expect("parse");
        assert!(f.seed().is_err());
        assert!(f.scale().is_err());
        assert!(f.era().is_err());
    }
}
