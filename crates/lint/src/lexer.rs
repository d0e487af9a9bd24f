//! A minimal Rust lexer, just strong enough to lint safely.
//!
//! The item parser only needs identifiers and punctuation with accurate
//! line numbers; everything a rule pattern could *falsely* match inside
//! — line and block comments (nested), string literals with escapes,
//! raw strings with any number of `#` guards, byte/C-string variants,
//! char literals, and lifetimes — is consumed and dropped here, so a
//! `thread_rng` inside a doc comment or a test fixture string can never
//! produce a finding. Line comments are additionally captured verbatim,
//! because that is where `alba-lint: allow(...)` suppressions live.
//!
//! The lexer never panics, whatever bytes it is fed: all slicing happens
//! at ASCII boundaries and unterminated literals simply run to EOF.

/// One lexed token.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// An identifier or keyword (raw identifiers lose their `r#`).
    Ident(String),
    /// A single ASCII punctuation character.
    Punct(char),
}

/// A token with the 1-based line it starts on.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// 1-based source line.
    pub line: u32,
    /// The token itself.
    pub tok: Tok,
}

/// A captured `//` comment (doc comments included).
#[derive(Clone, Debug, PartialEq)]
pub struct Comment {
    /// 1-based source line the comment starts on.
    pub line: u32,
    /// Text after the `//` (leading `/` or `!` of doc comments kept).
    pub text: String,
    /// True when code tokens precede the comment on its line.
    pub trailing: bool,
}

/// The lexed view of one source file.
#[derive(Clone, Debug, Default)]
pub struct LexFile {
    /// Identifier/punctuation stream, in source order.
    pub tokens: Vec<Token>,
    /// Every `//` comment, in source order.
    pub comments: Vec<Comment>,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Consumes a `"..."` string body starting at the opening quote;
/// returns the index just past the closing quote (or EOF).
fn skip_string(b: &[u8], open: usize, line: &mut u32) -> usize {
    let mut j = open + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            b'\n' => {
                *line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    b.len()
}

/// True when `at` begins `#`*n `"` — the guard of a raw string.
fn raw_string_starts(b: &[u8], at: usize) -> Option<usize> {
    let mut hashes = 0;
    let mut j = at;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    (j < b.len() && b[j] == b'"').then_some(hashes)
}

/// Consumes a raw string whose `#`-guard (possibly empty) starts at
/// `at`; returns the index just past the closing delimiter (or EOF).
fn skip_raw_string(b: &[u8], at: usize, hashes: usize, line: &mut u32) -> usize {
    let mut j = at + hashes + 1; // past the opening quote
    while j < b.len() {
        if b[j] == b'\n' {
            *line += 1;
            j += 1;
            continue;
        }
        if b[j] == b'"'
            && b.len() - j > hashes
            && b[j + 1..j + 1 + hashes].iter().all(|&h| h == b'#')
        {
            return j + 1 + hashes;
        }
        j += 1;
    }
    b.len()
}

/// Consumes a char/byte-char literal starting at the opening `'`;
/// returns the index just past the closing quote (or EOF).
fn skip_char_literal(b: &[u8], open: usize, line: &mut u32) -> usize {
    let mut j = open + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'\'' => return j + 1,
            b'\n' => {
                // A bare newline cannot appear in a char literal; bail so
                // a stray quote does not swallow the rest of the file.
                *line += 1;
                return j + 1;
            }
            _ => j += 1,
        }
    }
    b.len()
}

/// Lexes `src` (see the module docs for what is kept vs dropped).
pub fn lex(src: &str) -> LexFile {
    let b = src.as_bytes();
    let mut out = LexFile::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                let mut j = start;
                while j < b.len() && b[j] != b'\n' {
                    j += 1;
                }
                let trailing = out.tokens.last().is_some_and(|t| t.line == line);
                out.comments.push(Comment { line, text: src[start..j].to_string(), trailing });
                i = j;
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 1u32;
                let mut j = i + 2;
                while j < b.len() && depth > 0 {
                    match b[j] {
                        b'\n' => {
                            line += 1;
                            j += 1;
                        }
                        b'/' if b.get(j + 1) == Some(&b'*') => {
                            depth += 1;
                            j += 2;
                        }
                        b'*' if b.get(j + 1) == Some(&b'/') => {
                            depth -= 1;
                            j += 2;
                        }
                        _ => j += 1,
                    }
                }
                i = j;
            }
            b'"' => i = skip_string(b, i, &mut line),
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                let k = i + 1;
                if k < b.len() && is_ident_start(b[k]) {
                    let mut m = k;
                    while m < b.len() && is_ident_continue(b[m]) {
                        m += 1;
                    }
                    if b.get(m) == Some(&b'\'') {
                        i = m + 1; // 'a' — a one-ident char literal
                    } else {
                        i = m; // 'a — a lifetime; drop it
                    }
                } else {
                    i = skip_char_literal(b, i, &mut line);
                }
            }
            c if is_ident_start(c) => {
                let start = i;
                let mut j = i;
                while j < b.len() && is_ident_continue(b[j]) {
                    j += 1;
                }
                let ident = &src[start..j];
                let string_prefix = matches!(ident, "r" | "b" | "br" | "c" | "cr");
                if ident == "r"
                    && b.get(j) == Some(&b'#')
                    && b.get(j + 1).copied().is_some_and(is_ident_start)
                {
                    // Raw identifier r#name: keep `name`.
                    let s2 = j + 1;
                    let mut m = s2;
                    while m < b.len() && is_ident_continue(b[m]) {
                        m += 1;
                    }
                    out.tokens.push(Token { line, tok: Tok::Ident(src[s2..m].to_string()) });
                    i = m;
                } else if string_prefix && j < b.len() {
                    if let Some(hashes) = raw_string_starts(b, j) {
                        i = skip_raw_string(b, j, hashes, &mut line);
                    } else if b[j] == b'\'' && (ident == "b" || ident == "c") {
                        i = skip_char_literal(b, j, &mut line);
                    } else {
                        out.tokens.push(Token { line, tok: Tok::Ident(ident.to_string()) });
                        i = j;
                    }
                } else {
                    out.tokens.push(Token { line, tok: Tok::Ident(ident.to_string()) });
                    i = j;
                }
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                while j < b.len() {
                    if is_ident_continue(b[j]) {
                        j += 1;
                    } else if b[j] == b'.'
                        && b.get(j + 1).copied().is_some_and(|d| d.is_ascii_digit())
                    {
                        j += 1; // the dot of a float, not a method call
                    } else {
                        break;
                    }
                }
                i = j;
            }
            c if c.is_ascii_whitespace() => i += 1,
            c if c.is_ascii() => {
                out.tokens.push(Token { line, tok: Tok::Punct(c as char) });
                i += 1;
            }
            _ => i += 1, // non-ASCII byte outside a literal: ignore
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                Tok::Punct(_) => None,
            })
            .collect()
    }

    #[test]
    fn comments_are_dropped_from_the_token_stream() {
        let src = "// thread_rng()\n/* Instant::now() */ let x = 1;\n/// doc partial_cmp\n";
        assert_eq!(idents(src), vec!["let", "x"]);
    }

    #[test]
    fn nested_block_comments_are_handled() {
        let src = "/* outer /* inner thread_rng */ still comment */ fn f() {}";
        assert_eq!(idents(src), vec!["fn", "f"]);
    }

    #[test]
    fn strings_and_raw_strings_are_dropped() {
        let src = concat!(
            "let a = \"thread_rng()\";\n",
            "let b = r\"SystemTime::now()\";\n",
            "let c = r#\"partial_cmp \" quote\"#;\n",
            "let d = r##\"one \"# deep\"##;\n",
            "let e = b\"bytes thread_rng\";\n",
            "let f = br#\"raw bytes\"#;\n",
        );
        assert_eq!(
            idents(src),
            vec!["let", "a", "let", "b", "let", "c", "let", "d", "let", "e", "let", "f"]
        );
    }

    #[test]
    fn escaped_quotes_do_not_end_strings_early() {
        let src = r#"let s = "a\"thread_rng\"b"; let t = 1;"#;
        assert_eq!(idents(src), vec!["let", "s", "let", "t"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'static str { let c = 'x'; let n = '\\n'; x }";
        let ids = idents(src);
        assert!(ids.contains(&"str".to_string()));
        // 'x' must not swallow `; let n` as a string body would.
        assert!(ids.contains(&"n".to_string()));
        assert!(!ids.contains(&"a".to_string()), "lifetime idents are dropped: {ids:?}");
        assert!(!ids.contains(&"static".to_string()));
    }

    #[test]
    fn raw_identifiers_lose_their_prefix() {
        assert_eq!(idents("let r#type = 1;"), vec!["let", "type"]);
    }

    #[test]
    fn float_literals_do_not_split_into_method_calls() {
        let src = "let x = 1.5e3; let y = 2.0.total_cmp(&x);";
        let ids = idents(src);
        assert!(ids.contains(&"total_cmp".to_string()));
    }

    #[test]
    fn line_numbers_survive_multiline_literals() {
        let src = "let a = \"line\none\";\nlet b = 2; // note\n";
        let f = lex(src);
        let b_tok = f.tokens.iter().find(|t| t.tok == Tok::Ident("b".into())).unwrap();
        assert_eq!(b_tok.line, 3);
        assert_eq!(f.comments.len(), 1);
        assert_eq!(f.comments[0].line, 3);
        assert!(f.comments[0].trailing);
    }

    #[test]
    fn standalone_comments_are_not_trailing() {
        let f = lex("// leading note\nlet x = 1; // trailing note\n");
        assert!(!f.comments[0].trailing);
        assert!(f.comments[1].trailing);
    }

    #[test]
    fn lexer_survives_hostile_input() {
        for src in
            ["\"unterminated", "r#\"never closed", "'", "b'", "/* open", "r###", "'\\", "ünïcode £"]
        {
            let _ = lex(src);
        }
    }
}
