//! The docs point at the system as it stands: every section pointer into
//! DESIGN.md or EXPERIMENTS.md names a heading that exists, every
//! repository path a doc names in backticks is in the tree, and every
//! gate a DESIGN crate section names is a function.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The files that may point into the docs: the docs themselves, README,
/// ROADMAP, the verify skill, ci.sh and every Rust source of the
/// workspace (crates and the root package).
fn pointer_sources() -> Vec<PathBuf> {
    let root = root();
    let mut files: Vec<PathBuf> = [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "ROADMAP.md",
        ".claude/skills/verify/SKILL.md",
        "ci.sh",
    ]
    .iter()
    .map(|f| root.join(f))
    .collect();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    // This file's own examples of the pointer forms point nowhere.
    files.retain(|f| !f.ends_with("crates/eval/tests/docs.rs"));
    files
}

/// The file's text with comment markers stripped and lines joined by a
/// space, so a pointer wrapped across two comment lines reads as one.
fn joined(path: &Path) -> String {
    let code = path.extension().is_some_and(|x| x == "rs" || x == "sh");
    read(path)
        .lines()
        .map(|line| {
            let line = line.trim_start();
            if !code {
                return line;
            }
            ["//!", "///", "//", "#"]
                .iter()
                .find_map(|m| line.strip_prefix(m))
                .unwrap_or(line)
                .trim_start()
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// A doc's headings: (level, text), `#` marks and surrounding space
/// stripped.
fn headings(text: &str) -> Vec<(usize, String)> {
    let mut fenced = false;
    let mut out = Vec::new();
    for line in text.lines() {
        if line.starts_with("```") {
            fenced = !fenced;
        }
        if fenced {
            continue;
        }
        let level = line.chars().take_while(|&c| c == '#').count();
        if level > 0 && line[level..].starts_with(' ') {
            out.push((level, line[level..].trim().to_string()));
        }
    }
    out
}

/// A DESIGN heading's section number and title: `## 4. netsim` is
/// `(Some(4), "netsim")`; a heading without a number has `None`.
fn numbered(title: &str) -> (Option<u32>, &str) {
    match title.split_once(". ") {
        Some((n, rest)) if n.chars().all(|c| c.is_ascii_digit()) => (n.parse().ok(), rest),
        _ => (None, title),
    }
}

/// One pointer found in a source: the doc it names, a `§N` section (with
/// the end of a `§N–§M` range) and an emphasised or quoted title.
#[derive(Debug)]
struct Pointer {
    doc: &'static str,
    sections: Vec<u32>,
    title: Option<String>,
    context: String,
}

/// The pointers in `text`: `DESIGN.md §N`, `DESIGN §N *Title*`,
/// `EXPERIMENTS.md *Title*`, `EXPERIMENTS § "Title"` and their
/// variants with a comma after the doc name. Any other mention of a doc
/// ("see DESIGN.md for …", a markdown link) is not a pointer.
fn pointers(text: &str) -> Vec<Pointer> {
    let mut found = Vec::new();
    for doc in ["DESIGN", "EXPERIMENTS"] {
        for (at, _) in text.match_indices(doc) {
            let before = text[..at].chars().next_back();
            if before.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '/') {
                continue;
            }
            let mut rest = &text[at + doc.len()..];
            rest = rest.strip_prefix(".md").unwrap_or(rest);
            rest = rest.strip_prefix("'s").unwrap_or(rest);
            rest = rest.strip_prefix(',').unwrap_or(rest);
            rest = rest.trim_start();
            let mut sections = Vec::new();
            while let Some(after) = rest.strip_prefix('§') {
                let digits: String = after.chars().take_while(char::is_ascii_digit).collect();
                if digits.is_empty() {
                    break;
                }
                sections.push(digits.parse().expect("section number"));
                rest = &after[digits.len()..];
                rest = rest.strip_prefix('–').unwrap_or(rest);
            }
            rest = rest.strip_prefix("'s").unwrap_or(rest).trim_start();
            let title = if let Some(quoted) = rest.strip_prefix("§ \"") {
                quoted.split_once('"').map(|(t, _)| t.to_string())
            } else if let Some(emph) = rest.strip_prefix('*') {
                emph.split_once('*')
                    .filter(|(t, _)| !t.is_empty() && !t.starts_with(' '))
                    .map(|(t, _)| t.to_string())
            } else {
                None
            };
            if sections.is_empty() && title.is_none() {
                continue;
            }
            let end = (at + 120).min(text.len());
            let end = (end..=text.len())
                .find(|&i| text.is_char_boundary(i))
                .unwrap_or(text.len());
            found.push(Pointer {
                doc: if doc == "DESIGN" {
                    "DESIGN.md"
                } else {
                    "EXPERIMENTS.md"
                },
                sections,
                title,
                context: text[at..end].to_string(),
            });
        }
    }
    found
}

/// Why `p` does not resolve against its doc's headings, or `None`.
fn unresolved(p: &Pointer, docs: &[(&str, Vec<(usize, String)>)]) -> Option<String> {
    let heads = &docs.iter().find(|(d, _)| *d == p.doc).expect("doc").1;
    // Headings inside the pointed-at section (all of the doc when the
    // pointer names no section).
    let mut scope: Vec<&str> = Vec::new();
    for &n in &p.sections {
        let Some(start) = heads
            .iter()
            .position(|(lvl, h)| *lvl == 2 && numbered(h).0 == Some(n))
        else {
            return Some(format!("{} has no section {n}", p.doc));
        };
        let end = heads[start + 1..]
            .iter()
            .position(|(lvl, _)| *lvl == 2)
            .map_or(heads.len(), |i| start + 1 + i);
        scope.extend(heads[start..end].iter().map(|(_, h)| numbered(h).1));
    }
    if p.sections.is_empty() {
        scope.extend(heads.iter().map(|(_, h)| numbered(h).1));
    }
    let title = p.title.as_deref()?;
    if scope.contains(&title) {
        None
    } else {
        Some(format!(
            "{} has no heading {title:?} where it points",
            p.doc
        ))
    }
}

#[test]
fn every_pointer_into_design_and_experiments_names_a_heading() {
    let root = root();
    let docs: Vec<(&str, Vec<(usize, String)>)> = ["DESIGN.md", "EXPERIMENTS.md"]
        .into_iter()
        .map(|d| (d, headings(&read(&root.join(d)))))
        .collect();
    let mut stale = Vec::new();
    let mut seen = 0;
    for file in pointer_sources() {
        for p in pointers(&joined(&file)) {
            seen += 1;
            if let Some(why) = unresolved(&p, &docs) {
                let name = file
                    .strip_prefix(&root)
                    .unwrap_or(&file)
                    .display()
                    .to_string();
                stale.push(format!("{name}: {why}\n    at: {}", p.context));
            }
        }
    }
    assert!(
        seen > 10,
        "only {seen} pointers found: the parser went blind"
    );
    assert!(stale.is_empty(), "stale pointers:\n{}", stale.join("\n"));
}

#[test]
fn the_pointer_parser_reads_every_form() {
    let text = "see DESIGN.md §8–§10, DESIGN §9 *Pool plane* and \
                EXPERIMENTS.md, *Pool plane*; EXPERIMENTS.md § \"SLO baselines\"; \
                [DESIGN.md](DESIGN.md) for the table; EXPERIMENTS *a b*.";
    let found: Vec<(Vec<u32>, Option<String>)> = pointers(text)
        .into_iter()
        .map(|p| (p.sections, p.title))
        .collect();
    let title = |t: &str| Some(t.to_string());
    assert_eq!(
        found,
        [
            (vec![8, 10], None),
            (vec![9], title("Pool plane")),
            (vec![], title("Pool plane")),
            (vec![], title("SLO baselines")),
            (vec![], title("a b")),
        ]
    );
}

/// `a/{b,c}/d` → `a/b/d`, `a/c/d` (every brace group, left to right).
fn expand(path: &str) -> Vec<String> {
    let Some(open) = path.find('{') else {
        return vec![path.to_string()];
    };
    let close = open + path[open..].find('}').expect("closing brace");
    path[open + 1..close]
        .split(',')
        .flat_map(|alt| expand(&format!("{}{alt}{}", &path[..open], &path[close + 1..])))
        .collect()
}

/// The repository paths `text` names in inline code spans: a span with
/// no space that starts with `crates/`, `vendor/` or `examples/`, less a
/// `:line` or `::item` suffix, brace groups expanded. Fenced blocks are
/// commands, not names, and are skipped.
fn named_paths(text: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|span| !span.contains(|c: char| c.is_whitespace() || c == '*' || c == '…'))
        .filter(|span| {
            ["crates/", "vendor/", "examples/"]
                .iter()
                .any(|p| span.starts_with(p))
        })
        .map(|span| span.split(':').next().unwrap_or(span))
        .flat_map(expand)
        .collect()
}

#[test]
fn every_path_the_docs_name_exists() {
    let root = root();
    let mut missing = Vec::new();
    let mut seen = 0;
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "ROADMAP.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        for path in named_paths(&read(&root.join(doc))) {
            seen += 1;
            if !root.join(&path).exists() {
                missing.push(format!("{doc}: `{path}`"));
            }
        }
    }
    assert!(seen > 20, "only {seen} paths found: the scan went blind");
    assert!(
        missing.is_empty(),
        "docs name missing paths:\n{}",
        missing.join("\n")
    );
}

#[test]
fn named_paths_strip_suffixes_and_expand_braces() {
    let text = "`crates/eval/src/campaign.rs:55` and `crates/{core,netsim}/tests/alloc_gate.rs`, \
                not `tests/alloc_gate.rs`, `vendor/*` nor `cargo run crates/x`\n\
                ```\n`examples/gone.rs`\n```\n";
    assert_eq!(
        named_paths(text),
        [
            "crates/eval/src/campaign.rs",
            "crates/core/tests/alloc_gate.rs",
            "crates/netsim/tests/alloc_gate.rs",
        ]
    );
}

/// Every function defined in the workspace, the benchmark and the shims.
fn defined_fns() -> Vec<String> {
    let root = root();
    let mut files = Vec::new();
    for dir in [
        "crates",
        "src",
        "tests",
        "examples",
        "vendor",
        "benchmark/src",
    ] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut names: Vec<String> = files
        .iter()
        .flat_map(|f| {
            read(f)
                .split("fn ")
                .skip(1)
                .map(|rest| {
                    rest.chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                        .collect::<String>()
                })
                .collect::<Vec<_>>()
        })
        .collect();
    names.sort();
    names.dedup();
    names
}

#[test]
fn every_crate_section_of_design_names_gates_that_exist() {
    let design = read(&root().join("DESIGN.md"));
    let fns = defined_fns();
    let mut sections = 0;
    let mut problems = Vec::new();
    for section in design.split("\n## ").skip(1) {
        let title = section.lines().next().unwrap_or_default();
        // §5 onward: one section per crate or package.
        if numbered(title).0.is_none_or(|n| n < 5) {
            continue;
        }
        sections += 1;
        let Some((_, gates)) = section.split_once("**Gates.**") else {
            problems.push(format!("{title}: no **Gates.** paragraph"));
            continue;
        };
        let gates = gates.split("\n\n").next().unwrap_or_default();
        let named: Vec<&str> = gates
            .split('`')
            .skip(1)
            .step_by(2)
            .filter(|s| {
                s.contains('_')
                    && s.chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            })
            .collect();
        if named.is_empty() {
            problems.push(format!("{title}: its gates name no test function"));
        }
        for name in named {
            if fns.binary_search(&name.to_string()).is_err() {
                problems.push(format!("{title}: gate `{name}` is no function"));
            }
        }
    }
    assert!(
        sections >= 15,
        "only {sections} crate sections in DESIGN.md"
    );
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
