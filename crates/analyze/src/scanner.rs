//! A lightweight item scanner on top of the token stream: finds
//! `#[cfg(test)] mod … { … }` line ranges so zone rules can treat
//! in-file test modules as test code.

use crate::lexer::{Lexed, Token};

/// Inclusive 1-based line range.
#[derive(Debug, Clone, Copy)]
pub struct LineRange {
    pub start: u32,
    pub end: u32,
}

impl LineRange {
    pub(crate) fn contains(&self, line: u32) -> bool {
        line >= self.start && line <= self.end
    }
}

/// Scan results for one file.
#[derive(Debug, Default)]
pub struct Scanned {
    /// Line ranges covered by `#[cfg(test)] mod … { … }`.
    pub test_ranges: Vec<LineRange>,
}

impl Scanned {
    /// `true` when `line` falls inside a `#[cfg(test)]` module.
    pub(crate) fn in_test_code(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|r| r.contains(line))
    }
}

/// Scans the token stream for cfg(test) modules.
pub(crate) fn scan(lexed: &Lexed) -> Scanned {
    let toks = &lexed.tokens;
    let mut out = Scanned::default();
    let mut i = 0usize;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            if let Some((range, next)) = parse_cfg_test_mod(toks, i) {
                out.test_ranges.push(range);
                i = next;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Is `#[cfg(test)]` starting at token `i`?
fn is_cfg_test_attr(toks: &[Token], i: usize) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct('#'))
        && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
        && toks.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
        && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
        && toks.get(i + 4).is_some_and(|t| t.is_ident("test"))
        && toks.get(i + 5).is_some_and(|t| t.is_punct(')'))
        && toks.get(i + 6).is_some_and(|t| t.is_punct(']'))
}

/// Parses `#[cfg(test)] mod name { … }` starting at the `#`; returns
/// the line range of the whole module and the index after its close.
/// `#[cfg(test)]` on non-mod items returns None (caller advances by 1).
fn parse_cfg_test_mod(toks: &[Token], start: usize) -> Option<(LineRange, usize)> {
    let mut i = start + 7;
    // Allow further attributes between cfg(test) and mod.
    while toks.get(i).is_some_and(|t| t.is_punct('#'))
        && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
    {
        let mut depth = 0usize;
        i += 1;
        while i < toks.len() {
            if toks[i].is_punct('[') {
                depth += 1;
            } else if toks[i].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    if !toks.get(i).is_some_and(|t| t.is_ident("mod")) {
        return None;
    }
    let start_line = toks[start].line;
    // Scan to the opening brace (a `mod name;` declaration has none).
    while i < toks.len() && !toks[i].is_punct('{') {
        if toks[i].is_punct(';') {
            return Some((
                LineRange {
                    start: start_line,
                    end: toks[i].line,
                },
                i + 1,
            ));
        }
        i += 1;
    }
    let mut depth = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('{') {
            depth += 1;
        } else if toks[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some((
                    LineRange {
                        start: start_line,
                        end: toks[i].line,
                    },
                    i + 1,
                ));
            }
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_ranges() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n use super::*;\n #[test]\n fn t() { assert!(true); }\n}\nfn after() {}";
        let s = scan(&lex(src));
        assert_eq!(s.test_ranges.len(), 1);
        assert!(s.in_test_code(4));
        assert!(s.in_test_code(6));
        assert!(!s.in_test_code(1));
        assert!(!s.in_test_code(8));
    }

    #[test]
    fn cfg_test_on_fn_is_not_a_module() {
        let src = "#[cfg(test)]\nfn helper() {}\nfn real() {}";
        let s = scan(&lex(src));
        assert!(s.test_ranges.is_empty());
    }
}
