//! The rule engine: runs every rule over one lexed + scanned file,
//! applying zone scoping, `#[cfg(test)]` carve-outs, suppression
//! pragmas, and manifest allowances.
//!
//! Pragma grammar (inside a line or block comment):
//!
//! ```text
//! dynlint: allow(<rule>[, <rule>…]) -- <justification>
//! dynlint: ordered -- <which argument fixes the fold order>
//! ```
//!
//! A trailing pragma applies to its own line; a standalone pragma (no
//! code before it on the line) applies to the next line that carries a
//! token. A pragma with no `--` justification, an empty justification,
//! or an unknown rule name is itself a violation (`invalid-pragma`).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Lexed, Token, TokenKind};
use crate::scanner::{scan, Scanned};
use crate::zones::{Manifest, Zone};

/// Every rule dynlint knows, in diagnostic order.
pub(crate) const KNOWN_RULES: &[&str] = &[
    "no-unordered-iteration",
    "no-wallclock-in-kernels",
    "no-ambient-rng",
    "no-panic-in-durable-paths",
    "ordered-float-fold",
    "env-through-contract",
    "invalid-pragma",
];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name.
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

/// A finding that a pragma or manifest allowance silenced — recorded
/// so the JSON report makes every suppression auditable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Suppressed {
    pub file: String,
    pub line: u32,
    pub rule: String,
    /// The pragma's justification text (or "manifest allow").
    pub justification: String,
}

/// Rule results for one file.
#[derive(Debug, Default)]
pub struct FileResult {
    pub violations: Vec<Violation>,
    pub suppressed: Vec<Suppressed>,
}

/// Analyzes one file's source under the manifest's zone map.
pub(crate) fn check_file(path: &str, source: &str, manifest: &Manifest) -> FileResult {
    let lexed = lex(source);
    let scanned = scan(&lexed);
    let zone = manifest.zone_of(path);
    let pragmas = collect_pragmas(path, &lexed);

    let mut ctx = Ctx {
        path,
        zone,
        manifest,
        scanned: &scanned,
        pragmas: &pragmas,
        out: FileResult::default(),
        seen: BTreeSet::new(),
    };
    // Malformed pragmas are violations in every zone, test included: a
    // suppression that cannot be parsed is a silent lie either way.
    ctx.out.violations.extend(pragmas.invalid.iter().cloned());

    if zone != Zone::Test {
        rule_unordered_iteration(&mut ctx, &lexed);
        rule_wallclock(&mut ctx, &lexed);
        rule_ambient_rng(&mut ctx, &lexed);
        rule_panic_in_durable(&mut ctx, &lexed);
        rule_ordered_float_fold(&mut ctx, &lexed);
        rule_env_through_contract(&mut ctx, &lexed);
    }
    ctx.out
}

struct Ctx<'a> {
    path: &'a str,
    zone: Zone,
    manifest: &'a Manifest,
    scanned: &'a Scanned,
    pragmas: &'a Pragmas,
    out: FileResult,
    seen: BTreeSet<(u32, &'static str)>,
}

impl Ctx<'_> {
    /// Routes one candidate finding through the carve-outs: cfg(test)
    /// code is exempt, a covering pragma or manifest allowance records
    /// a suppression, anything else is a violation. Dedupes per
    /// (line, rule) so overlapping detectors report once.
    fn report(&mut self, line: u32, rule: &'static str, message: String) {
        if self.scanned.in_test_code(line) {
            return;
        }
        if !self.seen.insert((line, rule)) {
            return;
        }
        if let Some(justification) = self.pragmas.allow_for(rule, line) {
            self.out.suppressed.push(Suppressed {
                file: self.path.to_owned(),
                line,
                rule: rule.to_owned(),
                justification: justification.to_owned(),
            });
            return;
        }
        if self.manifest.allows(self.path, rule) {
            self.out.suppressed.push(Suppressed {
                file: self.path.to_owned(),
                line,
                rule: rule.to_owned(),
                justification: "manifest allow (dynlint.toml)".to_owned(),
            });
            return;
        }
        self.out.violations.push(Violation {
            file: self.path.to_owned(),
            line,
            rule: rule.to_owned(),
            message,
        });
    }
}

// ---------------------------------------------------------------- pragmas

#[derive(Debug, Default)]
struct Pragmas {
    /// rule → line → justification.
    allows: BTreeMap<String, BTreeMap<u32, String>>,
    /// Lines carrying an `ordered` attestation, with justification.
    ordered: BTreeMap<u32, String>,
    /// Malformed pragmas, already shaped as violations.
    invalid: Vec<Violation>,
}

impl Pragmas {
    fn allow_for(&self, rule: &str, line: u32) -> Option<&str> {
        self.allows
            .get(rule)
            .and_then(|m| m.get(&line))
            .map(String::as_str)
    }

    fn ordered_at(&self, line: u32) -> Option<&str> {
        self.ordered.get(&line).map(String::as_str)
    }
}

fn collect_pragmas(path: &str, lexed: &Lexed) -> Pragmas {
    let mut out = Pragmas::default();
    for comment in &lexed.comments {
        // Doc comments may quote pragma syntax; only ordinary comments
        // carry live pragmas.
        if comment.doc {
            continue;
        }
        let Some(body) = comment.text.strip_prefix("dynlint:") else {
            continue;
        };
        // A standalone pragma governs the next line that has code on
        // it; a trailing pragma governs its own line.
        let target_line = if comment.standalone {
            lexed
                .tokens
                .iter()
                .map(|t| t.line)
                .find(|&l| l > comment.line)
        } else {
            Some(comment.line)
        };
        let mut invalid = |message: String| {
            out.invalid.push(Violation {
                file: path.to_owned(),
                line: comment.line,
                rule: "invalid-pragma".to_owned(),
                message,
            });
        };
        let Some(target_line) = target_line else {
            invalid("pragma at end of file governs no code line".to_owned());
            continue;
        };
        match parse_pragma(body.trim()) {
            Ok(Pragma::Allow {
                rules,
                justification,
            }) => {
                for rule in rules {
                    out.allows
                        .entry(rule)
                        .or_default()
                        .insert(target_line, justification.clone());
                }
            }
            Ok(Pragma::Ordered { justification }) => {
                out.ordered.insert(target_line, justification);
            }
            Err(message) => invalid(message),
        }
    }
    out
}

enum Pragma {
    Allow {
        rules: Vec<String>,
        justification: String,
    },
    Ordered {
        justification: String,
    },
}

fn parse_pragma(body: &str) -> Result<Pragma, String> {
    if let Some(rest) = body.strip_prefix("allow(") {
        let close = rest
            .find(')')
            .ok_or_else(|| "allow(...) is missing its closing parenthesis".to_owned())?;
        let mut rules = Vec::new();
        for raw in rest[..close].split(',') {
            let rule = raw.trim();
            if rule.is_empty() {
                return Err("allow(...) lists an empty rule name".to_owned());
            }
            if !KNOWN_RULES.contains(&rule) || rule == "invalid-pragma" {
                return Err(format!("allow(...) names unknown rule `{rule}`"));
            }
            rules.push(rule.to_owned());
        }
        if rules.is_empty() {
            return Err("allow(...) lists no rules".to_owned());
        }
        let justification = parse_justification(&rest[close + 1..])?;
        Ok(Pragma::Allow {
            rules,
            justification,
        })
    } else if let Some(rest) = body.strip_prefix("ordered") {
        let justification = parse_justification(rest)?;
        Ok(Pragma::Ordered { justification })
    } else {
        Err(format!(
            "unknown pragma `{body}` (want allow(<rule>) -- <why>, or ordered -- <why>)"
        ))
    }
}

fn parse_justification(rest: &str) -> Result<String, String> {
    let rest = rest.trim_start();
    let Some(j) = rest.strip_prefix("--") else {
        return Err("suppression without a `-- <justification>` is itself a violation".to_owned());
    };
    let j = j.trim();
    if j.is_empty() {
        return Err("justification after `--` is empty".to_owned());
    }
    Ok(j.to_owned())
}

// ----------------------------------------------------------- token helpers

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    toks.get(i).and_then(|t| t.ident())
}

fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(c))
}

/// `::` at position i (two consecutive `:`).
fn path_sep_at(toks: &[Token], i: usize) -> bool {
    punct_at(toks, i, ':') && punct_at(toks, i + 1, ':')
}

// ------------------------------------------------------------------ rules

/// Idents bound to a `HashMap`/`HashSet` in this file, found by walking
/// backwards from each `HashMap`/`HashSet` token through the binding
/// forms `name: [&][mut] HashMap<…>` and `name = HashMap::new()`.
fn hash_container_idents(toks: &[Token]) -> BTreeSet<String> {
    let mut tracked = BTreeSet::new();
    for (i, tok) in toks.iter().enumerate() {
        if !(tok.is_ident("HashMap") || tok.is_ident("HashSet")) {
            continue;
        }
        // Walk back over `&`/`mut`/`'a` to the `:` or `=` that binds.
        let mut j = i;
        while let Some(prev) = j.checked_sub(1) {
            match &toks[prev].kind {
                TokenKind::Punct('&') | TokenKind::Lifetime => j = prev,
                TokenKind::Ident(s) if s == "mut" => j = prev,
                TokenKind::Punct(':') if !punct_at(toks, prev.wrapping_sub(1), ':') => {
                    if let Some(name) = prev.checked_sub(1).and_then(|k| ident_at(toks, k)) {
                        tracked.insert(name.to_owned());
                    }
                    break;
                }
                TokenKind::Punct('=') => {
                    if let Some(name) = prev.checked_sub(1).and_then(|k| ident_at(toks, k)) {
                        tracked.insert(name.to_owned());
                    }
                    break;
                }
                _ => break,
            }
        }
    }
    tracked
}

/// Methods whose iteration order leaks the hasher's whim.
const UNORDERED_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

fn rule_unordered_iteration(ctx: &mut Ctx, lexed: &Lexed) {
    if !matches!(ctx.zone, Zone::Kernel | Zone::Merge) {
        return;
    }
    let toks = &lexed.tokens;
    let tracked = hash_container_idents(toks);
    if tracked.is_empty() {
        return;
    }
    for (i, tok) in toks.iter().enumerate() {
        // `map.iter()` and friends on a tracked container.
        if let Some(name) = tok.ident() {
            if tracked.contains(name)
                && punct_at(toks, i + 1, '.')
                && ident_at(toks, i + 2).is_some_and(|m| UNORDERED_METHODS.contains(&m))
            {
                let method = ident_at(toks, i + 2).unwrap_or_default();
                ctx.report(
                    tok.line,
                    "no-unordered-iteration",
                    format!(
                        "`{name}.{method}()` iterates a hash container in a {} zone; \
                         hash order is not deterministic across runs",
                        ctx.zone
                    ),
                );
            }
        }
        // `for … in … map …` — a for-loop header that mentions a
        // tracked container (covers `for k in &map` with no method).
        // `for<'a>` higher-ranked bounds are not loops; skip them.
        if tok.is_ident("for") && !punct_at(toks, i + 1, '<') {
            let mut j = i + 1;
            while j < toks.len() && !toks[j].is_ident("in") && !toks[j].is_punct('{') {
                j += 1;
            }
            if !toks.get(j).is_some_and(|t| t.is_ident("in")) {
                continue;
            }
            let mut k = j + 1;
            while k < toks.len() && !toks[k].is_punct('{') {
                if let Some(name) = toks[k].ident() {
                    if tracked.contains(name) {
                        ctx.report(
                            toks[k].line,
                            "no-unordered-iteration",
                            format!(
                                "for-loop over hash container `{name}` in a {} zone; \
                                 hash order is not deterministic across runs",
                                ctx.zone
                            ),
                        );
                    }
                }
                k += 1;
            }
        }
    }
}

fn rule_wallclock(ctx: &mut Ctx, lexed: &Lexed) {
    if !matches!(ctx.zone, Zone::Kernel | Zone::Merge | Zone::Durable) {
        return;
    }
    let toks = &lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        let Some(name) = tok.ident() else { continue };
        if (name == "Instant" || name == "SystemTime")
            && path_sep_at(toks, i + 1)
            && ident_at(toks, i + 3) == Some("now")
        {
            ctx.report(
                tok.line,
                "no-wallclock-in-kernels",
                format!(
                    "`{name}::now()` in a {} zone makes results depend on the scheduler; \
                     thread budgets/timeouts belong to the budget and engine layers",
                    ctx.zone
                ),
            );
        }
    }
}

/// RNG constructions that are not seed-addressable: ambient OS/thread
/// entropy, or seeding from the clock.
fn rule_ambient_rng(ctx: &mut Ctx, lexed: &Lexed) {
    let toks = &lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        let Some(name) = tok.ident() else { continue };
        let flagged = match name {
            "thread_rng" | "from_entropy" | "OsRng" => true,
            // `rand::random()` — ambient thread-local generator.
            "random" => {
                i >= 2
                    && path_sep_at(toks, i - 2)
                    && ident_at(toks, i.wrapping_sub(3)) == Some("rand")
            }
            // Seeding from the clock: `seed_from_u64(…UNIX_EPOCH…)`.
            "UNIX_EPOCH" => toks[..i]
                .iter()
                .rev()
                .take(12)
                .any(|t| t.is_ident("seed_from_u64") || t.is_ident("from_seed")),
            _ => false,
        };
        if flagged {
            ctx.report(
                tok.line,
                "no-ambient-rng",
                format!(
                    "`{name}` is not seed-addressable; every random stream must derive \
                     from an explicit seed (see PatternSource) so runs replay bit-identically"
                ),
            );
        }
    }
}

fn rule_panic_in_durable(ctx: &mut Ctx, lexed: &Lexed) {
    if ctx.zone != Zone::Durable {
        return;
    }
    let toks = &lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        let Some(name) = tok.ident() else { continue };
        let flagged = match name {
            // `.unwrap()` / `.expect(` — method position only, so a
            // local `fn expect_byte` or an `unwrap` in a path is fine.
            "unwrap" | "expect" => {
                i >= 1 && punct_at(toks, i - 1, '.') && punct_at(toks, i + 1, '(')
            }
            "panic" | "unreachable" | "todo" | "unimplemented" => punct_at(toks, i + 1, '!'),
            _ => false,
        };
        if flagged {
            ctx.report(
                tok.line,
                "no-panic-in-durable-paths",
                format!(
                    "`{name}` can abort mid-append and fabricate a torn record the \
                     recovery path then trusts; propagate a structured io::Error instead"
                ),
            );
        }
    }
}

/// Idents known to hold f64 values or f64 collections, by declaration
/// pattern, with for-pattern propagation (`for (t, p) in totals.…` makes
/// `t` and `p` f64 when `totals` is).
fn f64_idents(toks: &[Token]) -> BTreeSet<String> {
    let mut f64s: BTreeSet<String> = BTreeSet::new();
    let is_float_literal =
        |t: &Token| matches!(&t.kind, TokenKind::Num(n) if n.contains('.') || n.contains("f64"));
    for (i, tok) in toks.iter().enumerate() {
        // `name: … f64 …` (type ascription mentioning f64 before the
        // next binder boundary).
        if tok.is_punct(':')
            && !punct_at(toks, i + 1, ':')
            && !punct_at(toks, i.wrapping_sub(1), ':')
        {
            if let Some(name) = i.checked_sub(1).and_then(|k| ident_at(toks, k)) {
                for t in toks.iter().skip(i + 1).take(8) {
                    if t.is_punct(',') || t.is_punct(';') || t.is_punct('{') || t.is_punct('=') {
                        break;
                    }
                    if t.is_ident("f64") {
                        f64s.insert(name.to_owned());
                        break;
                    }
                }
            }
        }
        // `let [mut] name = <float literal>` or `= vec![<float>; …]`.
        if tok.is_punct('=')
            && !punct_at(toks, i + 1, '=')
            && !punct_at(toks, i.wrapping_sub(1), '=')
        {
            let Some(name) = i.checked_sub(1).and_then(|k| ident_at(toks, k)) else {
                continue;
            };
            let rhs = &toks[i + 1..toks.len().min(i + 6)];
            let direct_float = rhs.first().is_some_and(is_float_literal);
            let vec_of_float =
                rhs.first().is_some_and(|t| t.is_ident("vec")) && rhs.iter().any(is_float_literal);
            if direct_float || vec_of_float {
                f64s.insert(name.to_owned());
            }
        }
        // For-pattern propagation.
        if tok.is_ident("for") {
            let mut pattern = Vec::new();
            let mut j = i + 1;
            while j < toks.len() && !toks[j].is_ident("in") && !toks[j].is_punct('{') {
                if let Some(name) = toks[j].ident() {
                    if name != "mut" && name != "_" && name != "ref" {
                        pattern.push(name.to_owned());
                    }
                }
                j += 1;
            }
            if !toks.get(j).is_some_and(|t| t.is_ident("in")) {
                continue;
            }
            let mut header_mentions_f64 = false;
            let mut k = j + 1;
            while k < toks.len() && !toks[k].is_punct('{') {
                if let Some(name) = toks[k].ident() {
                    if f64s.contains(name) {
                        header_mentions_f64 = true;
                    }
                }
                k += 1;
            }
            if header_mentions_f64 {
                f64s.extend(pattern);
            }
        }
    }
    f64s
}

fn rule_ordered_float_fold(ctx: &mut Ctx, lexed: &Lexed) {
    if ctx.zone != Zone::Merge {
        return;
    }
    let toks = &lexed.tokens;
    let f64s = f64_idents(toks);
    for (i, tok) in toks.iter().enumerate() {
        // `.sum::<f64>()`.
        if tok.is_ident("sum")
            && i >= 1
            && punct_at(toks, i - 1, '.')
            && path_sep_at(toks, i + 1)
            && punct_at(toks, i + 3, '<')
            && ident_at(toks, i + 4) == Some("f64")
        {
            self_report_fold(ctx, tok.line, "`.sum::<f64>()`");
        }
        // `lhs += rhs` where the lhs chain touches a known f64 ident.
        if tok.is_punct('+') && punct_at(toks, i + 1, '=') {
            let mut chain = Vec::new();
            let mut j = i;
            while let Some(prev) = j.checked_sub(1) {
                match &toks[prev].kind {
                    TokenKind::Punct(']') => {
                        // Skip the whole index expression.
                        let mut depth = 0usize;
                        let mut k = prev;
                        loop {
                            if toks[k].is_punct(']') {
                                depth += 1;
                            } else if toks[k].is_punct('[') {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            let Some(next_k) = k.checked_sub(1) else {
                                break;
                            };
                            k = next_k;
                        }
                        j = k;
                    }
                    TokenKind::Ident(name) => {
                        chain.push(name.clone());
                        j = prev;
                        // Continue through field access (`self.total`).
                        if !j.checked_sub(1).is_some_and(|p| toks[p].is_punct('.')) {
                            break;
                        }
                        j -= 1;
                    }
                    TokenKind::Punct(')') => break, // method-call result: unknowable
                    _ => break,
                }
            }
            if chain.iter().any(|name| f64s.contains(name)) {
                self_report_fold(ctx, tok.line, "`+=` over f64");
            }
        }
    }
}

/// Reports an unattested f64 fold, honoring `ordered` attestations the
/// same way `report` honors `allow` pragmas.
fn self_report_fold(ctx: &mut Ctx, line: u32, what: &str) {
    if ctx.scanned.in_test_code(line) {
        return;
    }
    if let Some(justification) = ctx.pragmas.ordered_at(line) {
        if ctx.seen.insert((line, "ordered-float-fold")) {
            ctx.out.suppressed.push(Suppressed {
                file: ctx.path.to_owned(),
                line,
                rule: "ordered-float-fold".to_owned(),
                justification: justification.to_owned(),
            });
        }
        return;
    }
    ctx.report(
        line,
        "ordered-float-fold",
        format!(
            "{what} in a merge zone: float addition is not associative, so the fold \
             order must be attested (`dynlint: ordered -- <what fixes the order>`)"
        ),
    );
}

fn rule_env_through_contract(ctx: &mut Ctx, lexed: &Lexed) {
    let toks = &lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if !(tok.is_ident("var") || tok.is_ident("var_os")) {
            continue;
        }
        if i >= 3 && path_sep_at(toks, i - 2) && ident_at(toks, i - 3) == Some("env") {
            ctx.report(
                tok.line,
                "env-through-contract",
                "direct `env::var` read; route it through `env_contract` so every \
                 knob fails as `status=failed reason=env:<VAR>` at startup"
                    .to_owned(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(zone: &str) -> Manifest {
        Manifest::parse(&format!("[zones]\n\"**\" = \"{zone}\"\n")).unwrap()
    }

    fn rules_hit(zone: &str, src: &str) -> Vec<String> {
        check_file("x.rs", src, &manifest(zone))
            .violations
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn unordered_iteration_zones() {
        let src = "fn f(m: &HashMap<u32, f64>) { for (k, v) in m.iter() { let _ = (k, v); } }";
        assert!(rules_hit("kernel", src).contains(&"no-unordered-iteration".to_owned()));
        assert!(rules_hit("merge", src).contains(&"no-unordered-iteration".to_owned()));
        assert!(!rules_hit("infra", src).contains(&"no-unordered-iteration".to_owned()));
    }

    #[test]
    fn lookup_is_not_iteration() {
        let src = "fn f(m: &HashMap<u32, f64>) -> Option<&f64> { m.get(&3) }";
        assert!(rules_hit("kernel", src).is_empty());
    }

    #[test]
    fn wallclock_zones() {
        let src = "fn f() { let t = Instant::now(); drop(t); }";
        assert!(rules_hit("kernel", src).contains(&"no-wallclock-in-kernels".to_owned()));
        assert!(rules_hit("durable", src).contains(&"no-wallclock-in-kernels".to_owned()));
        assert!(rules_hit("infra", src).is_empty());
    }

    #[test]
    fn panic_only_in_durable() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert!(rules_hit("durable", src).contains(&"no-panic-in-durable-paths".to_owned()));
        assert!(rules_hit("kernel", src).is_empty());
        // Local method named expect_byte, and `expect` without a
        // receiver dot, must not trip the rule.
        let ok = "fn g(p: &mut P) { p.expect_byte(b'x'); }";
        assert!(rules_hit("durable", ok).is_empty());
    }

    #[test]
    fn pragma_suppresses_with_justification() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // dynlint: allow(no-panic-in-durable-paths) -- checked two lines up";
        let r = check_file("x.rs", src, &manifest("durable"));
        assert!(r.violations.is_empty());
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.suppressed[0].justification, "checked two lines up");
    }

    #[test]
    fn standalone_pragma_governs_next_line() {
        let src = "// dynlint: allow(no-panic-in-durable-paths) -- startup only\nfn f(x: Option<u8>) -> u8 { x.unwrap() }";
        let r = check_file("x.rs", src, &manifest("durable"));
        assert!(r.violations.is_empty());
        assert_eq!(r.suppressed.len(), 1);
    }

    #[test]
    fn pragma_without_justification_is_violation() {
        let src =
            "fn f(x: Option<u8>) -> u8 { x.unwrap() } // dynlint: allow(no-panic-in-durable-paths)";
        let hits = rules_hit("durable", src);
        assert!(hits.contains(&"invalid-pragma".to_owned()));
        assert!(hits.contains(&"no-panic-in-durable-paths".to_owned()));
    }

    #[test]
    fn pragma_with_unknown_rule_is_violation() {
        let src = "fn f() {} // dynlint: allow(no-such-rule) -- whatever";
        assert!(rules_hit("infra", src).contains(&"invalid-pragma".to_owned()));
    }

    #[test]
    fn ordered_float_fold_needs_attestation() {
        let bad = "fn f(xs: &[f64]) -> f64 { let mut acc = 0.0; for x in xs { acc += x; } acc }";
        assert!(rules_hit("merge", bad).contains(&"ordered-float-fold".to_owned()));
        assert!(rules_hit("kernel", bad).is_empty());
        let attested = "fn f(xs: &[f64]) -> f64 {\n let mut acc = 0.0;\n for x in xs {\n  acc += x; // dynlint: ordered -- xs arrives in fault-index order\n }\n acc\n}";
        let r = check_file("x.rs", attested, &manifest("merge"));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.suppressed.len(), 1);
    }

    #[test]
    fn usize_accumulation_is_fine() {
        let src = "fn f(n: usize) -> usize { let mut row = 0; for _ in 0..n { row += 64; } row }";
        assert!(rules_hit("merge", src).is_empty());
    }

    #[test]
    fn sum_turbofish() {
        let src = "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }";
        assert!(rules_hit("merge", src).contains(&"ordered-float-fold".to_owned()));
    }

    #[test]
    fn ambient_rng_everywhere_but_tests() {
        let src = "fn f() { let mut rng = thread_rng(); }";
        assert!(rules_hit("infra", src).contains(&"no-ambient-rng".to_owned()));
        assert!(rules_hit("kernel", src).contains(&"no-ambient-rng".to_owned()));
        assert!(rules_hit("test", src).is_empty());
    }

    #[test]
    fn env_var_reads_flagged() {
        let src = "fn f() -> Option<String> { std::env::var(\"DYNMOS_THREADS\").ok() }";
        assert!(rules_hit("infra", src).contains(&"env-through-contract".to_owned()));
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n #[test]\n fn t() { let x: Option<u8> = Some(1); x.unwrap(); }\n}";
        assert!(rules_hit("durable", src).is_empty());
    }

    #[test]
    fn pragma_inside_string_is_inert() {
        let src = "fn f() -> &'static str { \"dynlint: allow(no-ambient-rng) -- nope\" }";
        let r = check_file("x.rs", src, &manifest("kernel"));
        assert!(r.violations.is_empty());
        assert!(r.suppressed.is_empty());
    }
}
