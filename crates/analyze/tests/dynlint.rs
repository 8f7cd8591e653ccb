//! dynlint's own test suite: one violating + one clean fixture per
//! rule (under `tests/fixtures/`, a directory the workspace walker
//! deliberately skips), pragma semantics, lexer property tests, and a
//! self-check that the workspace's own source is dynlint-clean.

use std::time::{Duration, Instant};

use dynmos_analyze::lexer::lex;
use dynmos_analyze::zones::Manifest;
use dynmos_analyze::{analyze_root, analyze_source};
use proptest::prelude::*;

/// A manifest classifying every path into one zone.
fn zoned(zone: &str) -> Manifest {
    Manifest::parse(&format!("[zones]\n\"**\" = \"{zone}\"\n")).unwrap()
}

/// Rule names violated by `src` when the file sits in `zone`.
fn rules_in(zone: &str, src: &str) -> Vec<String> {
    analyze_source("fixture.rs", src, &zoned(zone))
        .violations
        .into_iter()
        .map(|v| v.rule)
        .collect()
}

fn assert_clean(zone: &str, src: &str) {
    let result = analyze_source("fixture.rs", src, &zoned(zone));
    assert!(
        result.violations.is_empty(),
        "expected clean fixture in {zone} zone, got: {:#?}",
        result.violations
    );
}

// ------------------------------------------------------- fixture pairs

#[test]
fn unordered_iteration_fixtures() {
    let bad = include_str!("fixtures/unordered_bad.rs");
    assert_eq!(rules_in("kernel", bad), vec!["no-unordered-iteration"]);
    assert_clean("kernel", include_str!("fixtures/unordered_ok.rs"));
    // Zone-scoped: the same hash iteration is legal in infra code.
    assert_clean("infra", bad);
}

#[test]
fn wallclock_fixtures() {
    let bad = include_str!("fixtures/wallclock_bad.rs");
    assert_eq!(rules_in("kernel", bad), vec!["no-wallclock-in-kernels"]);
    assert_eq!(rules_in("durable", bad), vec!["no-wallclock-in-kernels"]);
    assert_clean("kernel", include_str!("fixtures/wallclock_ok.rs"));
    assert_clean("infra", bad);
}

#[test]
fn ambient_rng_fixtures() {
    let bad = include_str!("fixtures/rng_bad.rs");
    // Seed-addressability is global: even infra code may not use
    // ambient entropy.
    assert_eq!(rules_in("infra", bad), vec!["no-ambient-rng"]);
    assert_eq!(rules_in("kernel", bad), vec!["no-ambient-rng"]);
    assert_clean("kernel", include_str!("fixtures/rng_ok.rs"));
}

#[test]
fn panic_in_durable_fixtures() {
    let bad = include_str!("fixtures/panic_bad.rs");
    let hits = rules_in("durable", bad);
    // `.unwrap()` and `.expect(…)` sit on different lines: two findings.
    assert_eq!(
        hits,
        vec!["no-panic-in-durable-paths", "no-panic-in-durable-paths"]
    );
    assert_clean("durable", include_str!("fixtures/panic_ok.rs"));
    // Panic-freedom is a durable-zone rule only.
    assert_clean("kernel", bad);
}

#[test]
fn ordered_float_fold_fixtures() {
    let bad = include_str!("fixtures/fold_bad.rs");
    let hits = rules_in("merge", bad);
    // The unattested `+=` and the `.sum::<f64>()`: two findings.
    assert_eq!(hits, vec!["ordered-float-fold", "ordered-float-fold"]);
    // Merge-only rule.
    assert_clean("kernel", bad);

    // The clean twin carries an `ordered` attestation: no violation,
    // but the suppression is recorded for the audit trail.
    let ok = include_str!("fixtures/fold_ok.rs");
    let result = analyze_source("fixture.rs", ok, &zoned("merge"));
    assert!(result.violations.is_empty(), "{:#?}", result.violations);
    assert_eq!(result.suppressed.len(), 1);
    assert_eq!(result.suppressed[0].rule, "ordered-float-fold");
    assert!(result.suppressed[0].justification.contains("shard index"));
}

#[test]
fn env_contract_fixtures() {
    let bad = include_str!("fixtures/env_bad.rs");
    assert_eq!(rules_in("infra", bad), vec!["env-through-contract"]);
    assert_clean("infra", include_str!("fixtures/env_ok.rs"));
}

#[test]
fn invalid_pragma_fixtures() {
    let bad = include_str!("fixtures/pragma_bad.rs");
    // One pragma without justification, one naming an unknown rule.
    assert_eq!(
        rules_in("infra", bad),
        vec!["invalid-pragma", "invalid-pragma"]
    );
    // Malformed pragmas are violations even in test code.
    assert_eq!(
        rules_in("test", bad),
        vec!["invalid-pragma", "invalid-pragma"]
    );

    let ok = include_str!("fixtures/pragma_ok.rs");
    let result = analyze_source("fixture.rs", ok, &zoned("kernel"));
    assert!(result.violations.is_empty(), "{:#?}", result.violations);
    assert_eq!(result.suppressed.len(), 1);
    assert_eq!(result.suppressed[0].rule, "no-unordered-iteration");
    assert!(result.suppressed[0].justification.contains("visit order"));
}

// --------------------------------------------------- pragma edge cases

#[test]
fn pragma_in_raw_string_is_inert() {
    let src = "pub fn f() -> &'static str {\n    r#\"dynlint: allow(no-ambient-rng) -- not a pragma\"#\n}\n";
    let lexed = lex(src);
    assert!(lexed.comments.is_empty());
    assert_clean("kernel", src);
}

#[test]
fn trailing_pragma_covers_its_own_line_only() {
    let src = "use std::time::Instant;\n\
               pub fn f() -> (std::time::Instant, std::time::Instant) {\n\
               let a = Instant::now(); // dynlint: allow(no-wallclock-in-kernels) -- fixture\n\
               let b = Instant::now();\n\
               (a, b)\n}\n";
    let result = analyze_source("fixture.rs", src, &zoned("kernel"));
    assert_eq!(result.suppressed.len(), 1);
    assert_eq!(result.violations.len(), 1);
    assert_eq!(result.violations[0].line, 4);
}

// ------------------------------------------------ lexer property tests

/// A random string over `chars` with length in `len` — the vendored
/// proptest shim has no regex strategies, so spell it out.
fn gen_string(chars: &'static [u8], len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..chars.len(), len)
        .prop_map(move |ixs| ixs.into_iter().map(|i| chars[i] as char).collect())
}

/// Rule-name-shaped text: lowercase letters and dashes, letter first.
fn gen_rule_name() -> impl Strategy<Value = String> {
    (
        0usize..26,
        gen_string(b"abcdefghijklmnopqrstuvwxyz-", 0..24),
    )
        .prop_map(|(first, rest)| format!("{}{rest}", (b'a' + first as u8) as char))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pragma-shaped text inside a string literal is opaque: the lexer
    /// records no comment, and the rules neither suppress nor trip on it.
    #[test]
    fn pragma_text_in_strings_is_inert(
        rule in gen_rule_name(),
        just in gen_string(b" abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789_().,-", 0..40),
    ) {
        let src = format!(
            "pub fn f() -> &'static str {{\n    \"dynlint: allow({rule}) -- {just}\"\n}}\n"
        );
        let lexed = lex(&src);
        prop_assert!(lexed.comments.is_empty());
        let result = analyze_source("fixture.rs", &src, &zoned("kernel"));
        prop_assert!(result.violations.is_empty(), "{:?}", result.violations);
        prop_assert!(result.suppressed.is_empty());
    }

    /// Doc comments may illustrate pragma syntax (even malformed) without
    /// being parsed as pragmas.
    #[test]
    fn pragma_text_in_doc_comments_is_inert(rule in gen_rule_name()) {
        let src = format!(
            "/// Example: `dynlint: allow({rule})` with no justification.\n\
             //! Module doc: dynlint: ordered\n\
             pub fn f() {{}}\n"
        );
        let lexed = lex(&src);
        prop_assert!(lexed.comments.iter().all(|c| c.doc));
        let result = analyze_source("fixture.rs", &src, &zoned("kernel"));
        prop_assert!(result.violations.is_empty(), "{:?}", result.violations);
        prop_assert!(result.suppressed.is_empty());
    }
}

// ------------------------------------------------------------ self-check

/// The workspace's own source must be dynlint-clean, every suppression
/// must carry a justification, and the whole sweep must stay fast
/// enough to run on every push (< 2s, typically well under 200ms).
#[test]
fn workspace_is_dynlint_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let started = Instant::now();
    let report = analyze_root(&root).expect("analyze workspace");
    let elapsed = started.elapsed();
    assert!(
        report.files.len() > 100,
        "suspiciously few files scanned: {}",
        report.files.len()
    );
    assert!(
        report.clean(),
        "dynlint violations in the workspace:\n{}",
        report.render_text()
    );
    for s in &report.suppressed {
        assert!(
            !s.justification.trim().is_empty(),
            "{}:{} suppresses {} without justification",
            s.file,
            s.line,
            s.rule
        );
    }
    assert!(
        elapsed < Duration::from_secs(2),
        "dynlint took {elapsed:?}; the contract is < 2s"
    );
}
