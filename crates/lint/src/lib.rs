//! # soc-lint — project-specific static analysis for the soc workspace
//!
//! An offline, dependency-free analyzer: a line/token-level scanner (no
//! `syn`, matching the vendored-shim constraint) that strips comments and
//! string-literal contents while preserving line/column positions, tracks
//! `#[cfg(test)]` spans by brace matching, and runs the project rules
//! over the remaining code text:
//!
//! | rule | enforces |
//! |------|----------|
//! | `L1-panic-free` | no `unwrap()/expect("…")/panic!` on library paths in `soc-core`/`soc-store`/`soc-mal` |
//! | `L2-strategy-contract` | every `ColumnStrategy` impl carries the thread-safety contract marker |
//! | `L3-segment-bytes-route` | `segment_bytes` bodies route through sanctioned byte accessors |
//! | `L4-lock-across-send` | no named lock guard live across `send()`/`spawn()` in `epoch.rs`/`shard.rs` |
//! | `L5-scan-accounting` | kernel scans in tracker-taking functions charge (or forward) the tracker |
//! | `L6-bounded-queues` | no unbounded `mpsc::channel()` on serving paths (`epoch.rs`/`shard.rs`) |
//!
//! Findings can be waived with a written justification:
//!
//! ```text
//! // soc-lint: allow(L1-panic-free, guarded by the is_empty check above)
//! ```
//!
//! on the offending line or the line directly above it. A pragma without
//! a reason is itself a violation — the justification is the point.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

pub mod rules;

/// The rule identifiers, in report order.
pub const RULES: [&str; 6] = [
    "L1-panic-free",
    "L2-strategy-contract",
    "L3-segment-bytes-route",
    "L4-lock-across-send",
    "L5-scan-accounting",
    "L6-bounded-queues",
];

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (`L1-panic-free`, …, or `pragma` for a bad pragma).
    pub rule: String,
    /// Path relative to the scan root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human explanation.
    pub message: String,
}

/// One waived finding: a pragma with its justification.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// The waived rule.
    pub rule: String,
    /// Path relative to the scan root.
    pub file: String,
    /// 1-based line of the waived finding.
    pub line: usize,
    /// The written justification.
    pub reason: String,
}

/// The outcome of a workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Surviving violations (pragma-waived ones excluded).
    pub findings: Vec<Finding>,
    /// Findings waived by a justified pragma.
    pub waived: Vec<Waiver>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// A source file prepared for rule checks.
pub struct SourceFile {
    /// Path relative to the scan root (slash-separated).
    pub rel: String,
    /// Original lines, verbatim.
    pub raw_lines: Vec<String>,
    /// Lines with comments removed and string-literal contents blanked
    /// (delimiting quotes kept), positions preserved.
    pub code_lines: Vec<String>,
    /// Per-line: inside a `#[cfg(test)]` item span.
    pub in_test: Vec<bool>,
    /// 0-based line → pragmas declared there.
    pub pragmas: HashMap<usize, Vec<Pragma>>,
}

/// A parsed `// soc-lint: allow(rule, reason)` pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// The rule the pragma waives.
    pub rule: String,
    /// The written justification (may be empty — then it is a finding).
    pub reason: String,
}

const PRAGMA_MARK: &str = "// soc-lint: allow(";

impl SourceFile {
    /// Prepares one file: strip, locate test spans, parse pragmas.
    pub fn prepare(rel: String, text: &str) -> SourceFile {
        let raw_lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let code_lines = strip_comments_and_strings(&raw_lines);
        let in_test = mark_test_spans(&code_lines);
        let mut pragmas: HashMap<usize, Vec<Pragma>> = HashMap::new();
        for (i, line) in raw_lines.iter().enumerate() {
            // Test code is outside every rule's scope, so its pragma-shaped
            // text (fixture strings, doc examples) is not collected either.
            if in_test[i] {
                continue;
            }
            if let Some(p) = parse_pragma(line) {
                pragmas.entry(i).or_default().push(p);
            }
        }
        SourceFile {
            rel,
            raw_lines,
            code_lines,
            in_test,
            pragmas,
        }
    }

    /// The pragma covering `line` (0-based) for `rule`: same line or the
    /// line directly above.
    pub fn pragma_for(&self, line: usize, rule: &str) -> Option<&Pragma> {
        let at = |l: usize| {
            self.pragmas
                .get(&l)
                .and_then(|ps| ps.iter().find(|p| p.rule == rule))
        };
        at(line).or_else(|| line.checked_sub(1).and_then(at))
    }
}

fn parse_pragma(line: &str) -> Option<Pragma> {
    let start = line.find(PRAGMA_MARK)?;
    // `/// `// soc-lint: …`` doc mentions and inline-code backticks are
    // documentation, not pragmas.
    if start > 0 && matches!(&line[..start].chars().next_back(), Some('/') | Some('`')) {
        return None;
    }
    let args = &line[start + PRAGMA_MARK.len()..];
    let end = args.rfind(')')?;
    let args = &args[..end];
    let (rule, reason) = match args.split_once(',') {
        Some((r, why)) => (r.trim(), why.trim()),
        None => (args.trim(), ""),
    };
    Some(Pragma {
        rule: rule.to_owned(),
        reason: reason.to_owned(),
    })
}

/// Blanks comments entirely and string/char literal *contents* (the
/// delimiting quotes stay, so `.expect("` remains matchable), keeping
/// every line the same length.
fn strip_comments_and_strings(lines: &[String]) -> Vec<String> {
    #[derive(PartialEq)]
    enum St {
        Code,
        Block(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut st = St::Code;
    let mut out = Vec::with_capacity(lines.len());
    for line in lines {
        let b: Vec<char> = line.chars().collect();
        let mut o: Vec<char> = Vec::with_capacity(b.len());
        let mut i = 0usize;
        // A line comment never crosses lines.
        let mut line_comment = false;
        while i < b.len() {
            let c = b[i];
            let next = b.get(i + 1).copied();
            match st {
                St::Code => {
                    if line_comment {
                        o.push(' ');
                        i += 1;
                        continue;
                    }
                    match c {
                        '/' if next == Some('/') => {
                            line_comment = true;
                            o.push(' ');
                            i += 1;
                        }
                        '/' if next == Some('*') => {
                            st = St::Block(1);
                            o.extend([' ', ' ']);
                            i += 2;
                        }
                        '"' => {
                            // r"…" / r#"…"# / br#"…"# raw strings.
                            let mut hashes = 0u32;
                            let mut j = i;
                            while j > 0 && b[j - 1] == '#' {
                                hashes += 1;
                                j -= 1;
                            }
                            let is_raw = j > 0 && (b[j - 1] == 'r');
                            st = if is_raw { St::RawStr(hashes) } else { St::Str };
                            o.push('"');
                            i += 1;
                        }
                        '\'' => {
                            // Char literal vs lifetime: a literal is
                            // `'x'` or `'\…'`; a lifetime has no closing
                            // quote right after one (possibly escaped)
                            // char.
                            if next == Some('\\') || b.get(i + 2).copied() == Some('\'') {
                                st = St::Char;
                                o.push('\'');
                                i += 1;
                            } else {
                                o.push('\'');
                                i += 1;
                            }
                        }
                        other => {
                            o.push(other);
                            i += 1;
                        }
                    }
                }
                St::Block(depth) => {
                    if c == '*' && next == Some('/') {
                        st = if depth == 1 {
                            St::Code
                        } else {
                            St::Block(depth - 1)
                        };
                        o.extend([' ', ' ']);
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        st = St::Block(depth + 1);
                        o.extend([' ', ' ']);
                        i += 2;
                    } else {
                        o.push(' ');
                        i += 1;
                    }
                }
                St::Str => {
                    if c == '\\' {
                        o.extend([' ', ' ']);
                        i += 2;
                    } else if c == '"' {
                        st = St::Code;
                        o.push('"');
                        i += 1;
                    } else {
                        o.push(' ');
                        i += 1;
                    }
                }
                St::RawStr(hashes) => {
                    if c == '"' {
                        let h = hashes as usize;
                        if b[i + 1..].iter().take(h).filter(|&&x| x == '#').count() == h {
                            st = St::Code;
                            o.push('"');
                            o.extend(std::iter::repeat_n(' ', h));
                            i += 1 + h;
                        } else {
                            o.push(' ');
                            i += 1;
                        }
                    } else {
                        o.push(' ');
                        i += 1;
                    }
                }
                St::Char => {
                    if c == '\\' {
                        o.extend([' ', ' ']);
                        i += 2;
                    } else if c == '\'' {
                        st = St::Code;
                        o.push('\'');
                        i += 1;
                    } else {
                        o.push(' ');
                        i += 1;
                    }
                }
            }
        }
        // A string or char literal never spans a newline unescaped in this
        // codebase; recover to code at EOL except inside raw strings and
        // block comments.
        if matches!(st, St::Str | St::Char) {
            st = St::Code;
        }
        out.push(o.into_iter().collect());
    }
    out
}

/// Marks every line covered by a `#[cfg(test)]` item (module, function,
/// or single statement) by brace-matching from the attribute.
fn mark_test_spans(code_lines: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code_lines.len()];
    for start in 0..code_lines.len() {
        if !code_lines[start].contains("#[cfg(test)]") {
            continue;
        }
        let mut depth = 0i32;
        let mut opened = false;
        'outer: for (l, line) in code_lines.iter().enumerate().skip(start) {
            let from = if l == start {
                line.find("#[cfg(test)]").map_or(0, |p| p + 12)
            } else {
                0
            };
            for c in line[from.min(line.len())..].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            for t in in_test.iter_mut().take(l + 1).skip(start) {
                                *t = true;
                            }
                            break 'outer;
                        }
                    }
                    ';' if !opened => {
                        // `#[cfg(test)] use …;` — a braceless item.
                        for t in in_test.iter_mut().take(l + 1).skip(start) {
                            *t = true;
                        }
                        break 'outer;
                    }
                    _ => {}
                }
            }
        }
    }
    in_test
}

/// Returns the 0-based line of the `}` matching the first `{` at or after
/// `(line, col)` in `code_lines`, with the line after the `{`.
pub fn match_braces(code_lines: &[String], line: usize, col: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut open_line = None;
    for (l, text) in code_lines.iter().enumerate().skip(line) {
        let from = if l == line { col } else { 0 };
        for c in text[from.min(text.len())..].chars() {
            match c {
                '{' => {
                    depth += 1;
                    if open_line.is_none() {
                        open_line = Some(l);
                    }
                }
                '}' if open_line.is_some() => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((open_line.unwrap_or(l), l));
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Collects the `.rs` files under `root` that the rules cover: every
/// workspace crate's `src/` plus the facade's root `src/`, skipping the
/// vendored compat shims and this crate's violation fixtures.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let dir = entry?.path();
            let name = dir.file_name().map(|n| n.to_string_lossy().into_owned());
            if name.as_deref() == Some("compat") {
                continue;
            }
            collect_rs(&dir.join("src"), &mut out)?;
        }
    }
    collect_rs(&root.join("src"), &mut out)?;
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs every rule over one prepared file, splitting pragma-waived
/// findings out into `Waiver`s and flagging reasonless pragmas.
pub fn check_file(file: &SourceFile, report: &mut Report) {
    let mut found = Vec::new();
    rules::l1_panic_free(file, &mut found);
    rules::l2_strategy_contract(file, &mut found);
    rules::l3_segment_bytes_route(file, &mut found);
    rules::l4_lock_across_send(file, &mut found);
    rules::l5_scan_accounting(file, &mut found);
    rules::l6_bounded_queues(file, &mut found);
    for f in found {
        match file.pragma_for(f.line - 1, &f.rule) {
            Some(p) if !p.reason.is_empty() => report.waived.push(Waiver {
                rule: f.rule,
                file: f.file,
                line: f.line,
                reason: p.reason.clone(),
            }),
            Some(_) => report.findings.push(Finding {
                rule: "pragma".into(),
                file: f.file,
                line: f.line,
                message: format!(
                    "pragma waiving {} has no written justification — \
                     `soc-lint: allow({}, <reason>)`",
                    f.rule, f.rule
                ),
            }),
            None => report.findings.push(f),
        }
    }
    // Pragmas naming unknown rules are typos that silently waive nothing.
    for (line, ps) in &file.pragmas {
        for p in ps {
            if !RULES.contains(&p.rule.as_str()) {
                report.findings.push(Finding {
                    rule: "pragma".into(),
                    file: file.rel.clone(),
                    line: line + 1,
                    message: format!("pragma names unknown rule {:?}", p.rule),
                });
            }
        }
    }
}

/// Scans every workspace source under `root` and returns the report.
pub fn run(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    for path in workspace_sources(root)? {
        let text = fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let file = SourceFile::prepare(rel, &text);
        check_file(&file, &mut report);
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
        .waived
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Report {
    /// The machine-readable findings document (hand-rolled JSON — the
    /// crate is dependency-free by design).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"violations\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                json_escape(&f.rule),
                json_escape(&f.file),
                f.line,
                json_escape(&f.message)
            ));
        }
        s.push_str("\n  ],\n  \"waived\": [");
        for (i, w) in self.waived.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}",
                json_escape(&w.rule),
                json_escape(&w.file),
                w.line,
                json_escape(&w.reason)
            ));
        }
        s.push_str(&format!(
            "\n  ],\n  \"files_scanned\": {},\n  \"violation_count\": {}\n}}\n",
            self.files_scanned,
            self.findings.len()
        ));
        s
    }

    /// The human report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            s.push_str(&format!(
                "violation[{}] {}:{} — {}\n",
                f.rule, f.file, f.line, f.message
            ));
        }
        s.push_str(&format!(
            "soc-lint: {} file(s) scanned, {} violation(s), {} waived\n",
            self.files_scanned,
            self.findings.len(),
            self.waived.len()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripping_blanks_comments_and_string_contents() {
        let lines = vec![
            "let x = v.unwrap(); // v.unwrap() here too".to_owned(),
            "let s = \"call .unwrap() inside\";".to_owned(),
            "/* block .unwrap()".to_owned(),
            "still comment */ let y = 1;".to_owned(),
        ];
        let code = strip_comments_and_strings(&lines);
        assert!(code[0].contains(".unwrap()"));
        assert!(!code[0].contains("here too"));
        assert!(!code[1].contains("inside"));
        assert!(code[1].starts_with("let s = \""));
        assert!(!code[2].contains(".unwrap()"));
        assert!(code[3].contains("let y = 1;"));
    }

    #[test]
    fn raw_strings_and_chars_are_blanked() {
        let lines = vec![
            "let r = r#\"panic!( inside \"#; let c = '\\n';".to_owned(),
            "let lt: &'static str = \"\";".to_owned(),
        ];
        let code = strip_comments_and_strings(&lines);
        assert!(!code[0].contains("panic!("));
        assert!(code[0].contains("let c ="));
        assert!(code[1].contains("&'static str"));
    }

    #[test]
    fn test_spans_are_marked() {
        let lines: Vec<String> = [
            "fn lib() {}",
            "#[cfg(test)]",
            "mod tests {",
            "    fn helper() { x.unwrap(); }",
            "}",
            "fn lib2() {}",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let code = strip_comments_and_strings(&lines);
        let spans = mark_test_spans(&code);
        assert_eq!(spans, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn pragma_parses_rule_and_reason() {
        let p = parse_pragma("    // soc-lint: allow(L1-panic-free, guarded above)").unwrap();
        assert_eq!(p.rule, "L1-panic-free");
        assert_eq!(p.reason, "guarded above");
        let p = parse_pragma("// soc-lint: allow(L3-segment-bytes-route)").unwrap();
        assert_eq!(p.reason, "");
        assert!(parse_pragma("// nothing to see").is_none());
    }
}
