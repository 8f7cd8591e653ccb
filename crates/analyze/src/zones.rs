//! Zone manifest: classifies workspace files into contract zones and
//! carries per-file rule allowances. Parsed from `dynlint.toml` at the
//! repo root — a hand-rolled parser for the tiny TOML subset we use
//! (two tables of `"pattern" = value` entries), keeping the analyzer
//! dependency-free.
//!
//! ```toml
//! [zones]
//! "crates/protest/src/service/journal.rs" = "durable"
//! "crates/logic/src/*.rs" = "kernel"
//! "tests/**" = "test"
//! "**" = "infra"
//!
//! [allow]
//! "crates/protest/src/service/engine.rs" = ["no-wallclock-in-kernels"]
//! ```
//!
//! Zone patterns are matched **first-match-wins**, top to bottom, on
//! repo-relative paths with `/` separators. Globs are segment-wise:
//! `*` matches within one path segment, `**` matches any number of
//! whole segments (including zero).

use std::fmt;

/// The contract zone a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Zone {
    /// Numeric kernels: bit-identical to serial, no wallclock, no
    /// unordered iteration, no ambient RNG.
    Kernel,
    /// Merge/reduction paths: everything kernels require, plus f64
    /// folds must attest their ordering.
    Merge,
    /// Durable paths (journal, JSON, cache, engine): additionally no
    /// panics — a panic mid-append fabricates a torn line.
    Durable,
    /// Infrastructure: CLI, benches, vendor shims. Ambient-RNG rule
    /// still applies; the rest do not.
    Infra,
    /// Test code: no rules apply.
    Test,
}

impl Zone {
    fn parse(s: &str) -> Option<Zone> {
        match s {
            "kernel" => Some(Zone::Kernel),
            "merge" => Some(Zone::Merge),
            "durable" => Some(Zone::Durable),
            "infra" => Some(Zone::Infra),
            "test" => Some(Zone::Test),
            _ => None,
        }
    }

    pub(crate) fn name(&self) -> &'static str {
        match self {
            Zone::Kernel => "kernel",
            Zone::Merge => "merge",
            Zone::Durable => "durable",
            Zone::Infra => "infra",
            Zone::Test => "test",
        }
    }
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A manifest parse failure, with the offending line.
#[derive(Debug)]
pub struct ManifestError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dynlint.toml:{}: {}", self.line, self.message)
    }
}

/// The parsed manifest.
#[derive(Debug, Default)]
pub struct Manifest {
    zones: Vec<(String, Zone)>,
    allows: Vec<(String, Vec<String>)>,
}

impl Manifest {
    /// Parses the manifest text. Unknown zones, malformed lines, and
    /// unknown section headers are hard errors — a typo in the
    /// manifest must not silently reclassify files.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        enum Section {
            None,
            Zones,
            Allow,
        }
        let mut section = Section::None;
        let mut out = Manifest::default();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = match header.trim() {
                    "zones" => Section::Zones,
                    "allow" => Section::Allow,
                    other => {
                        return Err(ManifestError {
                            line: lineno,
                            message: format!("unknown section [{other}]"),
                        })
                    }
                };
                continue;
            }
            let (key, value) = split_assignment(line).ok_or_else(|| ManifestError {
                line: lineno,
                message: format!("expected `\"pattern\" = value`, got `{line}`"),
            })?;
            match section {
                Section::None => {
                    return Err(ManifestError {
                        line: lineno,
                        message: "entry before any [zones]/[allow] section".to_owned(),
                    })
                }
                Section::Zones => {
                    let zone_str = parse_quoted(value).ok_or_else(|| ManifestError {
                        line: lineno,
                        message: format!("zone must be a quoted string, got `{value}`"),
                    })?;
                    let zone = Zone::parse(&zone_str).ok_or_else(|| ManifestError {
                        line: lineno,
                        message: format!(
                            "unknown zone `{zone_str}` (want kernel/merge/durable/infra/test)"
                        ),
                    })?;
                    out.zones.push((key, zone));
                }
                Section::Allow => {
                    let rules = parse_string_array(value).ok_or_else(|| ManifestError {
                        line: lineno,
                        message: format!("allow value must be [\"rule\", …], got `{value}`"),
                    })?;
                    out.allows.push((key, rules));
                }
            }
        }
        Ok(out)
    }

    /// Classifies a repo-relative path (first matching pattern wins).
    /// Paths with no match default to `Infra` — the manifest in-tree
    /// ends with a `"**"` catch-all so this is belt-and-suspenders.
    pub(crate) fn zone_of(&self, path: &str) -> Zone {
        for (pattern, zone) in &self.zones {
            if glob_match(pattern, path) {
                return *zone;
            }
        }
        Zone::Infra
    }

    /// `true` when the manifest grants `path` a blanket allowance for
    /// `rule` (used for whole-file exemptions that would otherwise
    /// need a pragma on every line, e.g. the engine's budget clocks).
    pub(crate) fn allows(&self, path: &str, rule: &str) -> bool {
        self.allows
            .iter()
            .any(|(pattern, rules)| glob_match(pattern, path) && rules.iter().any(|r| r == rule))
    }
}

/// Strips a `#`-comment that sits outside any quoted string.
fn strip_comment(raw: &str) -> &str {
    let mut in_string = false;
    for (i, c) in raw.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &raw[..i],
            _ => {}
        }
    }
    raw
}

/// Splits `"key" = value`, returning the unquoted key and raw value.
fn split_assignment(line: &str) -> Option<(String, &str)> {
    let rest = line.strip_prefix('"')?;
    let close = rest.find('"')?;
    let key = rest[..close].to_owned();
    let after = rest[close + 1..].trim_start();
    let value = after.strip_prefix('=')?.trim();
    if value.is_empty() {
        return None;
    }
    Some((key, value))
}

fn parse_quoted(value: &str) -> Option<String> {
    let inner = value.strip_prefix('"')?.strip_suffix('"')?;
    Some(inner.to_owned())
}

fn parse_string_array(value: &str) -> Option<Vec<String>> {
    let inner = value.strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_quoted(part)?);
    }
    Some(out)
}

/// Segment-wise glob match: `*` within a segment, `**` spans segments.
pub(crate) fn glob_match(pattern: &str, path: &str) -> bool {
    let pat: Vec<&str> = pattern.split('/').collect();
    let segs: Vec<&str> = path.split('/').collect();
    match_segments(&pat, &segs)
}

fn match_segments(pat: &[&str], segs: &[&str]) -> bool {
    match pat.first() {
        None => segs.is_empty(),
        Some(&"**") => {
            // `**` matches zero or more whole segments.
            (0..=segs.len()).any(|k| match_segments(&pat[1..], &segs[k..]))
        }
        Some(first) => match segs.first() {
            None => false,
            Some(seg) => match_one(first, seg) && match_segments(&pat[1..], &segs[1..]),
        },
    }
}

/// Matches one segment against a pattern where `*` spans any run of
/// characters within the segment.
fn match_one(pattern: &str, seg: &str) -> bool {
    let parts: Vec<&str> = pattern.split('*').collect();
    if parts.len() == 1 {
        return pattern == seg;
    }
    let mut rest = seg;
    for (i, part) in parts.iter().enumerate() {
        if i == 0 {
            rest = match rest.strip_prefix(part) {
                Some(r) => r,
                None => return false,
            };
        } else if i == parts.len() - 1 {
            return rest.ends_with(part);
        } else if !part.is_empty() {
            match rest.find(part) {
                Some(at) => rest = &rest[at + part.len()..],
                None => return false,
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_segments() {
        assert!(glob_match("tests/**", "tests/serve.rs"));
        assert!(glob_match("tests/**", "tests/deep/nested.rs"));
        assert!(!glob_match("tests/**", "crates/tests.rs"));
        assert!(glob_match("crates/*/src/*.rs", "crates/logic/src/bdd.rs"));
        assert!(!glob_match(
            "crates/*/src/*.rs",
            "crates/logic/src/sub/bdd.rs"
        ));
        assert!(glob_match("**", "anything/at/all.rs"));
        assert!(glob_match(
            "crates/**/tests/**",
            "crates/analyze/tests/dynlint.rs"
        ));
        assert!(glob_match("src/fsim*.rs", "src/fsim.rs"));
    }

    #[test]
    fn first_match_wins() {
        let m = Manifest::parse(
            "[zones]\n\"crates/protest/src/service/journal.rs\" = \"durable\"\n\"crates/protest/src/**\" = \"kernel\"\n\"**\" = \"infra\"\n",
        )
        .unwrap();
        assert_eq!(
            m.zone_of("crates/protest/src/service/journal.rs"),
            Zone::Durable
        );
        assert_eq!(m.zone_of("crates/protest/src/fsim.rs"), Zone::Kernel);
        assert_eq!(m.zone_of("src/bin/faultlib.rs"), Zone::Infra);
    }

    #[test]
    fn allows_table() {
        let m = Manifest::parse(
            "[zones]\n\"**\" = \"infra\"\n[allow]\n\"a/b.rs\" = [\"no-wallclock-in-kernels\", \"no-ambient-rng\"]\n",
        )
        .unwrap();
        assert!(m.allows("a/b.rs", "no-wallclock-in-kernels"));
        assert!(m.allows("a/b.rs", "no-ambient-rng"));
        assert!(!m.allows("a/b.rs", "no-unordered-iteration"));
        assert!(!m.allows("a/c.rs", "no-wallclock-in-kernels"));
    }

    #[test]
    fn rejects_unknown_zone_and_sections() {
        assert!(Manifest::parse("[zones]\n\"a\" = \"kernle\"\n").is_err());
        assert!(Manifest::parse("[zoness]\n").is_err());
        assert!(Manifest::parse("\"a\" = \"kernel\"\n").is_err());
    }

    #[test]
    fn comments_and_blanks() {
        let m = Manifest::parse("# header\n[zones]\n\n\"a.rs\" = \"kernel\" # trailing\n").unwrap();
        assert_eq!(m.zone_of("a.rs"), Zone::Kernel);
    }
}
