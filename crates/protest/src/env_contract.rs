//! The environment contract: every `DYNMOS_*` knob is read and
//! validated here, in one shared startup pass, so a typo in any knob
//! fails the same way — `status=failed reason=env:<VAR>` — instead of
//! each reader inventing its own failure shape (or worse, panicking
//! mid-run once the lazily-read knob is finally consulted).
//!
//! `raw` is the single sanctioned `std::env::var` site in the
//! workspace; dynlint's `env-through-contract` rule flags direct reads
//! anywhere else (see `dynlint.toml`).

use crate::chaos::FaultPlan;
use crate::testability::TierMode;

/// The four runtime knobs the service honors. [`raw`] reads no other
/// name (checked in debug builds).
pub(crate) const KNOBS: &[&str] = &[
    "DYNMOS_THREADS",
    "DYNMOS_BUDGET_MS",
    "DYNMOS_TESTABILITY",
    "DYNMOS_FAULT_PLAN",
];

/// A knob that is set but unusable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The variable name, for the `reason=env:<var>` status line.
    pub var: &'static str,
    /// Human-readable description, prefixed with the variable name.
    pub message: String,
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Reads one environment variable. Non-UTF-8 values read as unset —
/// every knob is ASCII, and a knob that cannot be decoded cannot be
/// validated either.
pub(crate) fn raw(name: &str) -> Option<String> {
    debug_assert!(KNOBS.contains(&name), "{name} is not listed in KNOBS");
    std::env::var(name).ok()
}

/// Trims `name`'s value, mapping unset / empty / whitespace-only to
/// `None` (the uniform "no override" convention of every knob).
pub(crate) fn trimmed(name: &str) -> Option<String> {
    let value = raw(name)?;
    let trimmed = value.trim();
    if trimmed.is_empty() {
        None
    } else {
        Some(trimmed.to_owned())
    }
}

/// Validates every knob in [`KNOBS`], returning the first failure in
/// declaration order. Call once at process startup so every knob fails
/// as `status=failed reason=env:<var>` before any work begins.
///
/// Deliberately side-effect free: it does not cache parses or
/// construct budgets, it only proves the readers that follow cannot
/// panic on these values.
pub fn validate_all() -> Result<(), EnvError> {
    validate_threads()?;
    validate_budget_ms()?;
    validate_testability()?;
    validate_fault_plan()?;
    Ok(())
}

fn validate_threads() -> Result<(), EnvError> {
    let Some(value) = trimmed("DYNMOS_THREADS") else {
        return Ok(());
    };
    value.parse::<usize>().map(|_| ()).map_err(|_| EnvError {
        var: "DYNMOS_THREADS",
        message: format!(
            "DYNMOS_THREADS invalid: must be a non-negative integer \
             (unset or empty for all cores), got {value:?}"
        ),
    })
}

fn validate_budget_ms() -> Result<(), EnvError> {
    let Some(value) = trimmed("DYNMOS_BUDGET_MS") else {
        return Ok(());
    };
    value.parse::<u64>().map(|_| ()).map_err(|_| EnvError {
        var: "DYNMOS_BUDGET_MS",
        message: format!(
            "DYNMOS_BUDGET_MS invalid: must be a non-negative integer number of \
             milliseconds (unset or empty for no budget), got {value:?}"
        ),
    })
}

fn validate_testability() -> Result<(), EnvError> {
    let Some(value) = trimmed("DYNMOS_TESTABILITY") else {
        return Ok(());
    };
    TierMode::parse(&value).map(|_| ()).map_err(|e| EnvError {
        var: "DYNMOS_TESTABILITY",
        message: format!("DYNMOS_TESTABILITY invalid: {e}"),
    })
}

fn validate_fault_plan() -> Result<(), EnvError> {
    let Some(value) = trimmed("DYNMOS_FAULT_PLAN") else {
        return Ok(());
    };
    FaultPlan::parse(&value).map(|_| ()).map_err(|e| EnvError {
        var: "DYNMOS_FAULT_PLAN",
        message: format!("DYNMOS_FAULT_PLAN invalid: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env mutation is process-global, so these tests run under a lock
    // shared with nothing else in this crate (each test restores the
    // prior value before releasing).
    use std::sync::Mutex;
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn with_var(name: &str, value: Option<&str>, f: impl FnOnce()) {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prior = std::env::var(name).ok();
        match value {
            Some(v) => std::env::set_var(name, v),
            None => std::env::remove_var(name),
        }
        f();
        match prior {
            Some(v) => std::env::set_var(name, v),
            None => std::env::remove_var(name),
        }
    }

    #[test]
    fn unset_and_empty_pass() {
        for v in [None, Some(""), Some("   ")] {
            with_var("DYNMOS_THREADS", v, || {
                assert_eq!(validate_threads(), Ok(()));
            });
        }
    }

    #[test]
    fn bad_values_name_their_variable() {
        with_var("DYNMOS_THREADS", Some("many"), || {
            let e = validate_threads().unwrap_err();
            assert_eq!(e.var, "DYNMOS_THREADS");
            assert!(e.message.contains("DYNMOS_THREADS invalid"), "{e}");
        });
        with_var("DYNMOS_BUDGET_MS", Some("-5"), || {
            let e = validate_budget_ms().unwrap_err();
            assert_eq!(e.var, "DYNMOS_BUDGET_MS");
        });
        with_var("DYNMOS_TESTABILITY", Some("psychic"), || {
            let e = validate_testability().unwrap_err();
            assert_eq!(e.var, "DYNMOS_TESTABILITY");
        });
        with_var("DYNMOS_FAULT_PLAN", Some("panic=0.05;;nope"), || {
            let e = validate_fault_plan().unwrap_err();
            assert_eq!(e.var, "DYNMOS_FAULT_PLAN");
            assert!(e.message.contains("DYNMOS_FAULT_PLAN invalid"), "{e}");
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "DYNMOS_UNLISTED is not listed in KNOBS")]
    fn reading_an_unlisted_knob_panics() {
        raw("DYNMOS_UNLISTED");
    }

    #[test]
    fn good_values_pass() {
        with_var("DYNMOS_THREADS", Some("4"), || {
            assert_eq!(validate_threads(), Ok(()));
        });
        with_var("DYNMOS_BUDGET_MS", Some("250"), || {
            assert_eq!(validate_budget_ms(), Ok(()));
        });
        with_var("DYNMOS_TESTABILITY", Some("bdd"), || {
            assert_eq!(validate_testability(), Ok(()));
        });
    }
}
