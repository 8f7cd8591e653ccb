//! The analysis report: sorted diagnostics plus a deterministic,
//! hand-emitted JSON form so CI can diff violation trends across PRs
//! without pulling in a serializer.

use std::fmt::Write as _;

use crate::rules::{Suppressed, Violation};

/// The whole-run result.
#[derive(Debug, Default)]
pub struct Report {
    /// Files analyzed, sorted repo-relative paths.
    pub files: Vec<String>,
    /// Violations, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Suppressed findings, sorted the same way — every pragma that
    /// actually silenced something, with its justification.
    pub suppressed: Vec<Suppressed>,
}

impl Report {
    /// Merges one file's results in; call [`Report::finish`] once done.
    pub(crate) fn absorb(&mut self, file: String, result: crate::rules::FileResult) {
        self.files.push(file);
        self.violations.extend(result.violations);
        self.suppressed.extend(result.suppressed);
    }

    /// Sorts everything into deterministic order.
    pub(crate) fn finish(&mut self) {
        self.files.sort();
        self.violations.sort();
        self.suppressed.sort();
    }

    /// `true` when the workspace is clean.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable diagnostics, one `file:line: rule: message` per
    /// violation, followed by a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            let _ = writeln!(out, "{}:{}: {}: {}", v.file, v.line, v.rule, v.message);
        }
        let _ = writeln!(
            out,
            "dynlint: {} file(s), {} violation(s), {} suppression(s)",
            self.files.len(),
            self.violations.len(),
            self.suppressed.len()
        );
        out
    }

    /// Machine-readable JSON report.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"files_scanned\": ");
        let _ = write!(out, "{}", self.files.len());
        let _ = write!(out, ",\n  \"violation_count\": {}", self.violations.len());
        let _ = write!(out, ",\n  \"suppression_count\": {}", self.suppressed.len());
        out.push_str(",\n  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"file\": ");
            json_str(&mut out, &v.file);
            let _ = write!(out, ", \"line\": {}, \"rule\": ", v.line);
            json_str(&mut out, &v.rule);
            out.push_str(", \"message\": ");
            json_str(&mut out, &v.message);
            out.push('}');
        }
        if !self.violations.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"suppressed\": [");
        for (i, s) in self.suppressed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"file\": ");
            json_str(&mut out, &s.file);
            let _ = write!(out, ", \"line\": {}, \"rule\": ", s.line);
            json_str(&mut out, &s.rule);
            out.push_str(", \"justification\": ");
            json_str(&mut out, &s.justification);
            out.push('}');
        }
        if !self.suppressed.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        let mut s = String::new();
        json_str(&mut s, "a\"b\\c\nd");
        assert_eq!(s, r#""a\"b\\c\nd""#);
    }

    #[test]
    fn report_renders_sorted() {
        let mut r = Report::default();
        r.absorb(
            "b.rs".into(),
            crate::rules::FileResult {
                violations: vec![Violation {
                    file: "b.rs".into(),
                    line: 3,
                    rule: "no-ambient-rng".into(),
                    message: "m".into(),
                }],
                suppressed: vec![],
            },
        );
        r.absorb(
            "a.rs".into(),
            crate::rules::FileResult {
                violations: vec![Violation {
                    file: "a.rs".into(),
                    line: 9,
                    rule: "no-ambient-rng".into(),
                    message: "m".into(),
                }],
                suppressed: vec![],
            },
        );
        r.finish();
        let text = r.render_text();
        let a = text.find("a.rs:9").unwrap();
        let b = text.find("b.rs:3").unwrap();
        assert!(a < b);
        assert!(!r.clean());
        let json = r.render_json();
        assert!(json.contains("\"violation_count\": 2"));
    }
}
