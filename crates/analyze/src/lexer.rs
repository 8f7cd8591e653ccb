//! A hand-rolled Rust lexer: just enough tokenization for `dynlint`'s
//! lexical rules, with exact handling of the constructs that defeat
//! naive `grep`-style linting — string literals (including raw strings
//! with arbitrary `#` fences and byte strings), character literals vs.
//! lifetimes, and line/block comments (nested).
//!
//! Comments are captured separately from the token stream because the
//! suppression pragmas live in them; everything inside a string literal
//! is opaque, so a pragma-shaped substring in a string is *not* a
//! pragma (property-tested in `tests/dynlint.rs`).

/// What a token is, as far as the rules need to know.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`for`, `impl`, `HashMap`, …).
    Ident(String),
    /// One punctuation character (`.`, `:`, `{`, `!`, …). Multi-char
    /// operators arrive as consecutive tokens; rules match pairs.
    Punct(char),
    /// Any string-like literal (string, raw string, byte string).
    Str,
    /// A character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A numeric literal, with its text (so rules can tell `0.0` from `0`).
    Num(String),
    /// A lifetime (`'a`).
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// 1-based line the token starts on.
    pub line: u32,
    /// The token itself.
    pub kind: TokenKind,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub(crate) fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// `true` when this token is the punctuation character `c`.
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }

    /// `true` when this token is the identifier `s`.
    pub(crate) fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, TokenKind::Ident(i) if i == s)
    }
}

/// One comment (`//…` to end of line, or one `/*…*/` block).
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// The comment body, markers stripped (`//`/`/*`/`*/` removed,
    /// leading `/`/`!` of doc comments kept out).
    pub text: String,
    /// `true` when no token precedes the comment on its line — a
    /// standalone pragma applies to the next code line, a trailing one
    /// to its own.
    pub standalone: bool,
    /// `true` for doc comments (`///`, `//!`, `/**`, `/*!`). Pragmas
    /// are ordinary comments; docs may *illustrate* pragma syntax
    /// without being parsed as pragmas.
    pub doc: bool,
}

/// The lexed file: code tokens and comments, separately.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in order.
    pub tokens: Vec<Token>,
    /// All comments in order.
    pub comments: Vec<Comment>,
}

/// Lexes `source` into tokens plus comments. Unterminated constructs
/// (string, block comment) consume to end of input rather than erroring:
/// the analyzer lints real, compiling code, and resilience beats
/// strictness on the torn tail of an edited file.
pub fn lex(source: &str) -> Lexed {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
        last_token_line: 0,
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
    last_token_line: u32,
}

impl Lexer {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, line: u32, kind: TokenKind) {
        self.last_token_line = line;
        self.out.tokens.push(Token { line, kind });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek() {
            let line = self.line;
            match c {
                ' ' | '\t' | '\r' | '\n' => {
                    self.bump();
                }
                '/' if self.peek_at(1) == Some('/') => self.line_comment(),
                '/' if self.peek_at(1) == Some('*') => self.block_comment(),
                '"' => {
                    self.string_literal();
                    self.push(line, TokenKind::Str);
                }
                'r' if self.raw_string_ahead(0) => {
                    self.bump();
                    self.raw_string();
                    self.push(line, TokenKind::Str);
                }
                'b' if self.peek_at(1) == Some('"') => {
                    self.bump();
                    self.string_literal();
                    self.push(line, TokenKind::Str);
                }
                'b' if self.peek_at(1) == Some('r') && self.raw_string_ahead(1) => {
                    self.bump();
                    self.bump();
                    self.raw_string();
                    self.push(line, TokenKind::Str);
                }
                'b' if self.peek_at(1) == Some('\'') => {
                    self.bump();
                    self.char_literal();
                    self.push(line, TokenKind::Char);
                }
                '\'' => self.quote(),
                c if c.is_ascii_digit() => {
                    let text = self.number();
                    self.push(line, TokenKind::Num(text));
                }
                c if c.is_alphanumeric() || c == '_' => {
                    let ident = self.ident();
                    self.push(line, TokenKind::Ident(ident));
                }
                other => {
                    self.bump();
                    self.push(line, TokenKind::Punct(other));
                }
            }
        }
        self.out
    }

    /// Is `r`/`br` at `pos + offset` the start of a raw string
    /// (`r"`, `r#`), as opposed to an identifier starting with `r`?
    fn raw_string_ahead(&self, offset: usize) -> bool {
        match self.peek_at(offset + 1) {
            Some('"') => true,
            Some('#') => {
                // r#ident is a raw identifier, r#" is a raw string:
                // scan the run of #s and require a quote after it.
                let mut i = offset + 1;
                while self.peek_at(i) == Some('#') {
                    i += 1;
                }
                self.peek_at(i) == Some('"')
            }
            _ => false,
        }
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let standalone = self.last_token_line != line;
        self.bump();
        self.bump();
        // Strip doc-comment markers so `/// text` and `//! text`
        // surface as `text`, remembering that they were docs.
        let mut doc = false;
        while matches!(self.peek(), Some('/' | '!')) {
            doc = true;
            self.bump();
        }
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment {
            line,
            text: text.trim().to_owned(),
            standalone,
            doc,
        });
    }

    fn block_comment(&mut self) {
        let line = self.line;
        let standalone = self.last_token_line != line;
        self.bump();
        self.bump();
        // `/**` or `/*!` (but not the degenerate `/**/`) is a doc block.
        let doc = matches!(self.peek(), Some('!'))
            || (self.peek() == Some('*') && self.peek_at(1) != Some('/'));
        let mut depth = 1usize;
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c == '/' && self.peek_at(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
                continue;
            }
            if c == '*' && self.peek_at(1) == Some('/') {
                self.bump();
                self.bump();
                depth -= 1;
                if depth == 0 {
                    break;
                }
                continue;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment {
            line,
            text: text.trim().to_owned(),
            standalone,
            doc,
        });
    }

    fn string_literal(&mut self) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
    }

    fn raw_string(&mut self) {
        // At `#*"`: count the fence, then scan for `"` + fence.
        let mut fence = 0usize;
        while self.peek() == Some('#') {
            fence += 1;
            self.bump();
        }
        self.bump(); // opening quote
        'scan: while let Some(c) = self.bump() {
            if c == '"' {
                for i in 0..fence {
                    if self.peek_at(i) != Some('#') {
                        continue 'scan;
                    }
                }
                for _ in 0..fence {
                    self.bump();
                }
                break;
            }
        }
    }

    fn char_literal(&mut self) {
        self.bump(); // opening quote
        if let Some('\\') = self.bump() {
            self.bump();
            // Multi-char escapes (\u{…}, \x41) run to the quote.
            while let Some(c) = self.peek() {
                if c == '\'' {
                    break;
                }
                self.bump();
            }
        }
        if self.peek() == Some('\'') {
            self.bump();
        }
    }

    /// `'` is a char literal or a lifetime; disambiguate the way rustc
    /// does: `'x'` (something then a closing quote) is a char, `'ident`
    /// without a closing quote is a lifetime.
    fn quote(&mut self) {
        let line = self.line;
        let next = self.peek_at(1);
        if next == Some('\\') {
            self.char_literal();
            self.push(line, TokenKind::Char);
            return;
        }
        let is_ident_start = next.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if is_ident_start && self.peek_at(2) != Some('\'') {
            // Lifetime: consume the quote and the identifier.
            self.bump();
            while self.peek().is_some_and(|c| c.is_alphanumeric() || c == '_') {
                self.bump();
            }
            self.push(line, TokenKind::Lifetime);
        } else {
            self.char_literal();
            self.push(line, TokenKind::Char);
        }
    }

    fn number(&mut self) -> String {
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.' && self.peek_at(1).is_some_and(|d| d.is_ascii_digit()) {
                // `1.5` continues the number; `0..n` does not.
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        text
    }

    fn ident(&mut self) -> String {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_owned))
            .collect()
    }

    #[test]
    fn strings_are_opaque() {
        let l = lex(r#"let x = "for y in map.iter() // dynlint: allow(x)";"#);
        assert_eq!(idents(r#"let x = "no idents in here";"#), ["let", "x"]);
        assert!(l.comments.is_empty(), "pragma inside string is no comment");
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokenKind::Str).count(),
            1
        );
    }

    #[test]
    fn raw_strings_with_fences() {
        let l = lex(r###"let x = r#"quote " inside"# ; let y = 1;"###);
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokenKind::Str).count(),
            1
        );
        assert!(idents(r###"let x = r#"hidden_ident"# ;"###)
            .iter()
            .all(|i| i != "hidden_ident"));
    }

    #[test]
    fn raw_identifiers_are_not_strings() {
        let l = lex("let r#type = 1;");
        assert!(l.tokens.iter().all(|t| t.kind != TokenKind::Str));
    }

    #[test]
    fn comments_capture_text_and_position() {
        let l = lex("let a = 1; // trailing note\n// standalone note\nlet b = 2;");
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].text, "trailing note");
        assert!(!l.comments[0].standalone);
        assert_eq!(l.comments[1].text, "standalone note");
        assert!(l.comments[1].standalone);
        assert_eq!(l.comments[1].line, 2);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still comment */ let x = 1;");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(idents("/* a /* b */ c */ let x = 1;"), ["let", "x"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        let chars = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn line_numbers_track() {
        let l = lex("a\nb\n\nc");
        let lines: Vec<u32> = l.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 4]);
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let l = lex("for i in 0..n {}");
        assert!(l.tokens.iter().any(|t| t.is_ident("n")));
        assert_eq!(
            l.tokens.iter().filter(|t| t.is_punct('.')).count(),
            2,
            "range dots survive"
        );
    }
}
