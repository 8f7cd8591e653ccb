//! Parser for full cell descriptions (the paper's Fig. 9 syntax).
//!
//! ```text
//! TECHNOLOGY domino-CMOS;
//! INPUT a,b,c,d,e;
//! OUTPUT u;
//! x1 := a*(b+c);
//! x2 := d*e;
//! u  := x1+x2;
//! ```
//!
//! Keywords are case-insensitive; `--` starts a line comment.

use crate::cell::{Cell, CellDescription, CompileCellError};
use crate::tech::Technology;
use std::error::Error;
use std::fmt;

/// Error from [`parse_cell`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseCellError {
    /// A required section (`TECHNOLOGY`, `INPUT`, `OUTPUT`) is missing.
    MissingSection(&'static str),
    /// A section appeared twice.
    DuplicateSection(&'static str),
    /// Technology keyword unknown.
    BadTechnology(String),
    /// A line could not be parsed.
    BadLine(String),
    /// The description parsed but did not compile.
    Compile(CompileCellError),
}

impl fmt::Display for ParseCellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseCellError::MissingSection(s) => write!(f, "missing {s} section"),
            ParseCellError::DuplicateSection(s) => write!(f, "duplicate {s} section"),
            ParseCellError::BadTechnology(t) => write!(f, "unknown technology '{t}'"),
            ParseCellError::BadLine(l) => write!(f, "cannot parse line '{l}'"),
            ParseCellError::Compile(e) => write!(f, "compile error: {e}"),
        }
    }
}

impl Error for ParseCellError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseCellError::Compile(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CompileCellError> for ParseCellError {
    fn from(e: CompileCellError) -> Self {
        ParseCellError::Compile(e)
    }
}

/// Parses and compiles a cell description in the paper's syntax.
///
/// # Errors
///
/// Returns [`ParseCellError`] on malformed text or a description that
/// fails to compile (see `CellDescription::compile`).
///
/// # Example
///
/// ```
/// use dynmos_netlist::parse_cell;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cell = parse_cell(
///     "and2",
///     "TECHNOLOGY dynamic-nMOS; INPUT a,b; OUTPUT z; z := a*b;",
/// )?;
/// assert_eq!(cell.switch_count(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse_cell(name: &str, text: &str) -> Result<Cell, ParseCellError> {
    let desc = parse_description(name, text)?;
    Ok(desc.compile()?)
}

/// Parses a cell description without compiling it.
///
/// # Errors
///
/// Returns [`ParseCellError`] on malformed text.
pub(crate) fn parse_description(name: &str, text: &str) -> Result<CellDescription, ParseCellError> {
    let mut technology: Option<Technology> = None;
    let mut inputs: Option<Vec<String>> = None;
    let mut output: Option<String> = None;
    let mut assignments: Vec<(String, String)> = Vec::new();

    // Statements are ';'-separated; strip comments first.
    let cleaned: String = text
        .lines()
        .map(|l| match l.find("--") {
            Some(i) => &l[..i],
            None => l,
        })
        .collect::<Vec<_>>()
        .join("\n");

    for stmt in cleaned.split(';') {
        let stmt = stmt.trim();
        if stmt.is_empty() {
            continue;
        }
        let upper = stmt.to_ascii_uppercase();
        if let Some(rest) = strip_keyword(stmt, &upper, "TECHNOLOGY") {
            if technology.is_some() {
                return Err(ParseCellError::DuplicateSection("TECHNOLOGY"));
            }
            technology = Some(
                rest.trim()
                    .parse()
                    .map_err(|_| ParseCellError::BadTechnology(rest.trim().into()))?,
            );
        } else if let Some(rest) = strip_keyword(stmt, &upper, "INPUT") {
            if inputs.is_some() {
                return Err(ParseCellError::DuplicateSection("INPUT"));
            }
            let names: Vec<String> = rest
                .split(',')
                .map(|s| s.trim().to_owned())
                .filter(|s| !s.is_empty())
                .collect();
            inputs = Some(names);
        } else if let Some(rest) = strip_keyword(stmt, &upper, "OUTPUT") {
            if output.is_some() {
                return Err(ParseCellError::DuplicateSection("OUTPUT"));
            }
            output = Some(rest.trim().to_owned());
        } else if let Some((target, rhs)) = stmt.split_once(":=") {
            assignments.push((target.trim().to_owned(), rhs.trim().to_owned()));
        } else {
            return Err(ParseCellError::BadLine(stmt.to_owned()));
        }
    }

    Ok(CellDescription {
        name: name.to_owned(),
        technology: technology.ok_or(ParseCellError::MissingSection("TECHNOLOGY"))?,
        inputs: inputs.ok_or(ParseCellError::MissingSection("INPUT"))?,
        output: output.ok_or(ParseCellError::MissingSection("OUTPUT"))?,
        assignments,
    })
}

/// If `upper` starts with `keyword` followed by whitespace, returns the
/// remainder of the original-case `stmt`.
fn strip_keyword<'a>(stmt: &'a str, upper: &str, keyword: &str) -> Option<&'a str> {
    if upper.starts_with(keyword) {
        let rest = &stmt[keyword.len()..];
        if rest.starts_with(char::is_whitespace) || rest.is_empty() {
            return Some(rest);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG9: &str = "TECHNOLOGY domino-CMOS;
INPUT a,b,c,d,e;
OUTPUT u;
x1 := a*(b+c);
x2 := d*e;
u := x1+x2;
";

    #[test]
    fn parses_the_paper_example_verbatim() {
        let cell = parse_cell("fig9", FIG9).unwrap();
        assert_eq!(cell.technology(), Technology::DominoCmos);
        assert_eq!(cell.input_count(), 5);
        assert_eq!(cell.output_name(), "u");
        assert_eq!(cell.switch_count(), 5);
    }

    #[test]
    fn single_line_description() {
        let cell = parse_cell(
            "nor2",
            "TECHNOLOGY dynamic-nMOS; INPUT a,b; OUTPUT z; z := a+b;",
        )
        .unwrap();
        // dynamic nMOS: z = /(a+b) — a NOR.
        let f = cell.logic_function();
        assert!(f.eval_word(0b00));
        assert!(!f.eval_word(0b01));
    }

    #[test]
    fn comments_are_stripped() {
        let text = "TECHNOLOGY bipolar; -- the technology\nINPUT a; OUTPUT z;\n-- whole line comment\nz := a;";
        let cell = parse_cell("buf", text).unwrap();
        assert_eq!(cell.technology(), Technology::Bipolar);
    }

    #[test]
    fn keywords_case_insensitive() {
        let cell = parse_cell(
            "c",
            "technology domino-CMOS; input a,b; output z; z := a*b;",
        )
        .unwrap();
        assert_eq!(cell.input_count(), 2);
    }

    #[test]
    fn missing_sections_error() {
        assert_eq!(
            parse_cell("x", "INPUT a; OUTPUT z; z := a;").unwrap_err(),
            ParseCellError::MissingSection("TECHNOLOGY")
        );
        assert_eq!(
            parse_cell("x", "TECHNOLOGY bipolar; OUTPUT z; z := 1;").unwrap_err(),
            ParseCellError::MissingSection("INPUT")
        );
        assert_eq!(
            parse_cell("x", "TECHNOLOGY bipolar; INPUT a; a2 := a;").unwrap_err(),
            ParseCellError::MissingSection("OUTPUT")
        );
    }

    #[test]
    fn duplicate_sections_error() {
        let e = parse_cell(
            "x",
            "TECHNOLOGY bipolar; TECHNOLOGY bipolar; INPUT a; OUTPUT z; z := a;",
        )
        .unwrap_err();
        assert_eq!(e, ParseCellError::DuplicateSection("TECHNOLOGY"));
    }

    #[test]
    fn bad_technology_errors() {
        let e = parse_cell("x", "TECHNOLOGY ttl; INPUT a; OUTPUT z; z := a;").unwrap_err();
        assert!(matches!(e, ParseCellError::BadTechnology(_)));
    }

    #[test]
    fn bad_line_errors() {
        let e = parse_cell("x", "TECHNOLOGY bipolar; INPUT a; OUTPUT z; z = a;").unwrap_err();
        assert!(matches!(e, ParseCellError::BadLine(_)));
        assert!(e.to_string().contains("z = a"));
    }

    #[test]
    fn compile_errors_are_wrapped() {
        let e = parse_cell("x", "TECHNOLOGY bipolar; INPUT a; OUTPUT z; z := q;").unwrap_err();
        assert!(matches!(e, ParseCellError::Compile(_)));
        assert!(e.source().is_some());
    }

    #[test]
    fn parse_description_keeps_assignment_order() {
        let d = parse_description("fig9", FIG9).unwrap();
        let targets: Vec<&str> = d.assignments.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(targets, vec!["x1", "x2", "u"]);
    }
}
