//! The one drift reporter of the golden tests: a golden that no longer
//! matches names the rows that moved, not just that its bytes differ.
//!
//! A golden is read as sections, each opened by a `== title ==` line; the
//! lines before the first title form a section of their own. A row is a
//! line, keyed by its label: its first cell (cells are separated by two
//! or more spaces), cut at the first `": "`. Rows that share a label
//! within a section are told apart by their order (`#2`, `#3`, …). Cells
//! are compared without their padding, so a widened column moves only
//! the rows whose cells changed; rule lines (`---`) and blank lines are
//! layout, not rows. A section that did not move prints nothing.

use std::path::Path;

/// One row that moved. `before` is `None` for a row found only in the
/// actual text, `after` for one found only in the golden.
#[derive(Debug, PartialEq)]
pub struct Moved {
    pub section: String,
    pub row: String,
    pub before: Option<String>,
    pub after: Option<String>,
}

/// Panic, listing the rows that moved, unless `actual` is byte for byte
/// the golden at `tests/goldens/<name>`.
pub fn assert_matches(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    if actual != expected {
        panic!(
            "tests/goldens/{name} drifted from its committed golden; the rows \
             that moved:\n{}Regenerate it deliberately if the change is \
             intended (the test file's header names the command).",
            table(name, &drift(&expected, actual))
        );
    }
}

/// The rows that moved from `expected` to `actual`: the golden's
/// sections and rows in their order, then those found only in `actual`.
/// Texts that differ in layout alone yield one `(layout)` row, at the
/// first line that differs.
pub fn drift(expected: &str, actual: &str) -> Vec<Moved> {
    let (before, after) = (sections(expected), sections(actual));
    let mut titles: Vec<&str> = before.iter().map(|s| s.title.as_str()).collect();
    for s in &after {
        if !titles.contains(&s.title.as_str()) {
            titles.push(&s.title);
        }
    }
    let mut moved = Vec::new();
    for title in titles {
        let (old, new) = (rows_of(&before, title), rows_of(&after, title));
        let mut push = |key: &str, before: Option<&Row>, after: Option<&Row>| {
            moved.push(Moved {
                section: title.to_string(),
                row: key.to_string(),
                before: before.map(|r| r.cells.clone()),
                after: after.map(|r| r.cells.clone()),
            })
        };
        for row in old {
            match new.iter().find(|r| r.key == row.key) {
                Some(now) if now.cells == row.cells => {}
                now => push(&row.key, Some(row), now),
            }
        }
        for row in new.iter().filter(|r| !old.iter().any(|o| o.key == r.key)) {
            push(&row.key, None, Some(row));
        }
    }
    if moved.is_empty() && expected != actual {
        let (mut old, mut new) = (expected.split('\n'), actual.split('\n'));
        // The texts differ, so some line does before either side ends.
        for line in 1.. {
            let (b, a) = (old.next(), new.next());
            if b != a {
                moved.push(Moved {
                    section: String::new(),
                    row: format!("(layout) line {line}"),
                    before: b.map(str::to_string),
                    after: a.map(str::to_string),
                });
                break;
            }
        }
    }
    moved
}

/// `| golden | section | row | before | after |`, one line a moved row.
pub fn table(golden: &str, moved: &[Moved]) -> String {
    let mut out = String::from("| golden | section | row | before | after |\n");
    out += "|---|---|---|---|---|\n";
    for m in moved {
        let (before, after) = (m.before.as_deref(), m.after.as_deref());
        out += &format!(
            "| {golden} | {} | {} | {} | {} |\n",
            m.section,
            m.row,
            before.unwrap_or("(none)"),
            after.unwrap_or("(none)")
        );
    }
    out
}

struct Section {
    title: String,
    rows: Vec<Row>,
}

/// A row: its label, its key (the label, and past the first its order
/// among equal labels) and its cells, padding dropped.
struct Row {
    label: String,
    key: String,
    cells: String,
}

fn rows_of<'a>(sections: &'a [Section], title: &str) -> &'a [Row] {
    (sections.iter().find(|s| s.title == title)).map_or(&[], |s| &s.rows)
}

fn sections(text: &str) -> Vec<Section> {
    let mut out = vec![Section {
        title: String::new(),
        rows: Vec::new(),
    }];
    for line in text.lines() {
        if let Some(title) = line.strip_prefix("== ").and_then(|l| l.strip_suffix(" ==")) {
            out.push(Section {
                title: title.to_string(),
                rows: Vec::new(),
            });
            continue;
        }
        let cells: Vec<&str> = (line.split("  ").map(str::trim))
            .filter(|c| !c.is_empty())
            .collect();
        match cells[..] {
            [] => continue,
            [rule] if rule.chars().all(|c| c == '-') => continue,
            _ => {}
        }
        let label = cells[0]
            .split_once(": ")
            .map_or(cells[0], |(label, _)| label);
        let rows = &mut out.last_mut().expect("a section is open").rows;
        let key = match rows.iter().filter(|r| r.label == label).count() {
            0 => label.to_string(),
            n => format!("{label} #{}", n + 1),
        };
        rows.push(Row {
            label: label.to_string(),
            key,
            cells: cells.join("  "),
        });
    }
    out
}

mod tests {
    use super::*;
    use revtr_eval::render::Table;

    /// A golden as the report renders one: a preamble line, then two
    /// tables laid out by the crate's own renderer.
    fn text(stages: &[[&str; 3]], derived: &[[&str; 2]]) -> String {
        let mut s = Table::new("Stages", &["stage", "spans", "p50 ms"]);
        for row in stages {
            s.row(row);
        }
        let mut d = Table::new("Derived values", &["key", "value"]);
        for row in derived {
            d.row(row);
        }
        format!("requests: 25 measured\n\n{}\n{}", s.render(), d.render())
    }

    const STAGES: [[&str; 3]; 2] = [["rr", "43", "0.000"], ["ts", "4", "73.728"]];
    const DERIVED: [[&str; 2]; 1] = [["coverage", "1.0000"]];

    fn moved(section: &str, row: &str, before: Option<&str>, after: Option<&str>) -> Moved {
        Moved {
            section: section.to_string(),
            row: row.to_string(),
            before: before.map(str::to_string),
            after: after.map(str::to_string),
        }
    }

    #[test]
    fn identical_texts_print_nothing() {
        let golden = text(&STAGES, &DERIVED);
        assert_eq!(drift(&golden, &golden), vec![]);
    }

    #[test]
    fn one_changed_cell_prints_exactly_its_row() {
        let golden = text(&STAGES, &DERIVED);
        let actual = text(&[STAGES[0], ["ts", "4", "74.000"]], &DERIVED);
        let rows = drift(&golden, &actual);
        assert_eq!(
            rows,
            vec![moved(
                "Stages",
                "ts",
                Some("ts  4  73.728"),
                Some("ts  4  74.000")
            )]
        );
        assert_eq!(
            table("demo.txt", &rows),
            "| golden | section | row | before | after |\n|---|---|---|---|---|\n\
             | demo.txt | Stages | ts | ts  4  73.728 | ts  4  74.000 |\n"
        );
    }

    #[test]
    fn a_widened_column_moves_only_the_row_that_widened() {
        let golden = text(&STAGES, &DERIVED);
        let actual = text(&[STAGES[0], ["ts", "4", "10073.728"]], &DERIVED);
        assert_ne!(golden.lines().nth(5), actual.lines().nth(5), "rr re-padded");
        assert_eq!(
            drift(&golden, &actual),
            vec![moved(
                "Stages",
                "ts",
                Some("ts  4  73.728"),
                Some("ts  4  10073.728")
            )]
        );
    }

    #[test]
    fn an_added_and_a_removed_row_each_print_once() {
        let golden = text(&STAGES, &DERIVED);
        let actual = text(&STAGES[1..], &[DERIVED[0], ["accuracy", "0.9500"]]);
        assert_eq!(
            drift(&golden, &actual),
            vec![
                moved("Stages", "rr", Some("rr  43  0.000"), None),
                moved("Derived values", "accuracy", None, Some("accuracy  0.9500")),
            ]
        );
    }

    #[test]
    fn labelled_lines_and_repeated_labels_are_rows_of_their_own() {
        let golden = "requests: 25 measured\n  rr  +  0.000\n  rr  +  1.000\n";
        let actual = "requests: 26 measured\n  rr  +  0.000\n  rr  +  2.000\n";
        assert_eq!(
            drift(golden, actual),
            vec![
                moved(
                    "",
                    "requests",
                    Some("requests: 25 measured"),
                    Some("requests: 26 measured")
                ),
                moved("", "rr #2", Some("rr  +  1.000"), Some("rr  +  2.000")),
            ]
        );
    }

    #[test]
    fn a_layout_only_drift_still_names_its_line() {
        let golden = "key  value\ncoverage  1.0000\n";
        let actual = "key  value\ncoverage    1.0000\n";
        assert_eq!(
            drift(golden, actual),
            vec![moved(
                "",
                "(layout) line 2",
                Some("coverage  1.0000"),
                Some("coverage    1.0000")
            )]
        );
    }
}
