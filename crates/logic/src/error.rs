//! Error types for the logic crate.

use std::error::Error;
use std::fmt;

/// Error produced when parsing a cell expression or assignment list fails.
///
/// Carries the byte offset into the input at which the problem was detected
/// and a human-readable message.
///
/// # Example
///
/// ```
/// use dynmos_logic::{parse_expr, VarTable};
/// let mut vars = VarTable::new();
/// let err = parse_expr("a*+b", &mut vars).unwrap_err();
/// assert!(err.to_string().contains("offset 2"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseExprError {
    offset: usize,
    message: String,
}

impl ParseExprError {
    pub(crate) fn new(offset: usize, message: impl Into<String>) -> Self {
        Self {
            offset,
            message: message.into(),
        }
    }

    /// The diagnostic message (without position information).
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ParseExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at offset {}", self.message, self.offset)
    }
}

impl Error for ParseExprError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_offset_and_message() {
        let e = ParseExprError::new(7, "unexpected token");
        assert_eq!(e.to_string(), "unexpected token at offset 7");
        assert_eq!(e.message(), "unexpected token");
    }

    #[test]
    fn is_std_error() {
        fn takes_err<E: std::error::Error + Send + Sync + 'static>(_: E) {}
        takes_err(ParseExprError::new(0, "x"));
    }
}
