//! A dependency-free token-level Rust lexer — the foundation the repo's
//! token guards (`tests/source_rules.rs`, `tests/check_lockorder.rs`) stand on.
//!
//! It is *not* a full Rust lexer: it produces exactly the token classes
//! the rules need, but it is **exact** about the things a line scanner
//! gets wrong — nested `/* /* */ */` block comments, raw strings
//! (`r#"..."#` with any number of `#`s, plus `b`/`br`/`c`/`cr` prefixes),
//! escaped quotes, char literals vs lifetimes — so no byte of a string or
//! comment can ever masquerade as code to a rule. Multi-character
//! operators (`::`, `->`, `=>`, `==`, `..`, shifts, compound assignment)
//! are combined, so `=` reliably means assignment.

/// What a token is. String/char/byte literal *content* is deliberately
/// carried only as opaque `text` — rules match on `kind` + exact ident
/// text, so literal content can never false-positive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `cache`, `r#type` → `type`).
    Ident,
    /// `'a`, `'static`, `'_`.
    Lifetime,
    /// Any string literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `c"…"`.
    Str,
    /// Char or byte-char literal: `'x'`, `'\n'`, `b'x'`.
    Char,
    /// Numeric literal (integers, floats, suffixed, exponents).
    Num,
    /// Punctuation / operator, multi-char ops combined (`::`, `->`, `==`…).
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    pub fn is(&self, kind: TokKind, text: &str) -> bool {
        self.kind == kind && self.text == text
    }
    pub fn is_ident(&self, text: &str) -> bool {
        self.is(TokKind::Ident, text)
    }
    pub fn is_punct(&self, text: &str) -> bool {
        self.is(TokKind::Punct, text)
    }
}

/// Multi-char operators, longest first so maximal munch works.
const OPERATORS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "..", "<<",
    ">>", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

/// Lex `src` into tokens. Comments (line, doc, nested block) vanish;
/// everything else becomes a [`Tok`]. Never panics on malformed input —
/// an unterminated literal simply swallows the rest of the file, which is
/// the conservative behaviour for a token guard (rustc will reject the file
/// anyway).
pub fn lex(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Count newlines in b[from..to] into `line`.
    fn bump_lines(b: &[u8], from: usize, to: usize, line: &mut u32) {
        *line += b[from..to].iter().filter(|&&c| c == b'\n').count() as u32;
    }

    while i < b.len() {
        let c = b[i];
        // Whitespace.
        if c.is_ascii_whitespace() {
            if c == b'\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        // Line comments (incl. doc comments).
        if b[i..].starts_with(b"//") {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        // Block comments, nested.
        if b[i..].starts_with(b"/*") {
            let start = i;
            let mut depth = 1usize;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i..].starts_with(b"/*") {
                    depth += 1;
                    i += 2;
                } else if b[i..].starts_with(b"*/") {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            bump_lines(b, start, i, &mut line);
            continue;
        }
        // Raw strings and prefixed strings: r", r#", br", b", c", cr#"…
        if c == b'r' || c == b'b' || c == b'c' {
            if let Some(end) = string_prefix_end(b, i) {
                let start_line = line;
                bump_lines(b, i, end, &mut line);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: String::from_utf8_lossy(&b[i..end]).into_owned(),
                    line: start_line,
                });
                i = end;
                continue;
            }
            if c == b'b' && i + 1 < b.len() && b[i + 1] == b'\'' {
                // Byte-char literal b'x'.
                let end = char_lit_end(b, i + 1);
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: String::from_utf8_lossy(&b[i..end]).into_owned(),
                    line,
                });
                i = end;
                continue;
            }
        }
        // Plain strings.
        if c == b'"' {
            let start = i;
            let end = dquote_end(b, i);
            let start_line = line;
            bump_lines(b, start, end, &mut line);
            toks.push(Tok {
                kind: TokKind::Str,
                text: String::from_utf8_lossy(&b[start..end]).into_owned(),
                line: start_line,
            });
            i = end;
            continue;
        }
        // Char literal vs lifetime.
        if c == b'\'' {
            let is_char = if i + 1 >= b.len() {
                false
            } else if b[i + 1] == b'\\' {
                true
            } else {
                // 'x' (char) vs 'x (lifetime): char literals close with a
                // quote right after one character (ASCII fast path; a
                // multibyte char closes within 5 bytes).
                (2..=5).any(|k| i + k < b.len() && b[i + k] == b'\'' && !ident_byte(b[i + 1]))
                    || (i + 2 < b.len() && b[i + 2] == b'\'')
            };
            if is_char {
                let end = char_lit_end(b, i);
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: String::from_utf8_lossy(&b[i..end]).into_owned(),
                    line,
                });
                i = end;
            } else {
                let mut j = i + 1;
                while j < b.len() && ident_byte(b[j]) {
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: String::from_utf8_lossy(&b[i..j]).into_owned(),
                    line,
                });
                i = j;
            }
            continue;
        }
        // Idents and keywords (incl. raw idents r#type).
        if ident_start(c) {
            if c == b'r' && b[i..].starts_with(b"r#") && i + 2 < b.len() && ident_start(b[i + 2]) {
                i += 2; // raw ident: token text is the bare ident
            }
            let word_start = i;
            while i < b.len() && ident_byte(b[i]) {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: String::from_utf8_lossy(&b[word_start..i]).into_owned(),
                line,
            });
            continue;
        }
        // Numbers: digits, then a fraction part only if `.` is followed by
        // a digit (so `0..10` stays a range), exponents with signs, and
        // alphanumeric suffixes (`u64`, `f32`, hex digits).
        if c.is_ascii_digit() {
            let start = i;
            i += 1;
            while i < b.len() {
                let d = b[i];
                if d.is_ascii_alphanumeric() || d == b'_' {
                    // `1e-9` / `1E+9`: the sign belongs to the literal.
                    if (d == b'e' || d == b'E')
                        && i + 1 < b.len()
                        && (b[i + 1] == b'+' || b[i + 1] == b'-')
                        && i + 2 < b.len()
                        && b[i + 2].is_ascii_digit()
                        && !b[start..i].contains(&b'x')
                    {
                        i += 2;
                    }
                    i += 1;
                } else if d == b'.' && i + 1 < b.len() && b[i + 1].is_ascii_digit() {
                    i += 1;
                } else {
                    break;
                }
            }
            toks.push(Tok {
                kind: TokKind::Num,
                text: String::from_utf8_lossy(&b[start..i]).into_owned(),
                line,
            });
            continue;
        }
        // Operators, longest-match.
        if let Some(op) = OPERATORS
            .iter()
            .find(|op| b[i..].starts_with(op.as_bytes()))
        {
            toks.push(Tok {
                kind: TokKind::Punct,
                text: (*op).to_string(),
                line,
            });
            i += op.len();
            continue;
        }
        // Single-char punctuation.
        toks.push(Tok {
            kind: TokKind::Punct,
            text: (c as char).to_string(),
            line,
        });
        i += 1;
    }
    toks
}

/// End (exclusive) of a char literal starting at `b[i] == '\''`, with
/// escapes (`'\''`, `'\\'`, `'\u{1F600}'`) honoured.
fn char_lit_end(b: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'\'' => return j + 1,
            _ => j += 1,
        }
    }
    b.len()
}

fn ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// End (exclusive) of a double-quoted string starting at `b[i] == '"'`,
/// honouring backslash escapes.
fn dquote_end(b: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    b.len()
}

/// If `b[i..]` starts a (possibly raw, possibly prefixed) string literal,
/// return its exclusive end. Handles `r"…"`, `r#"…"#` (any # count),
/// `b"…"`, `br#"…"#`, `c"…"`, `cr"…"`.
fn string_prefix_end(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i;
    // Optional b/c prefix before r.
    if b[j] == b'b' || b[j] == b'c' {
        j += 1;
    }
    if j < b.len() && b[j] == b'r' {
        j += 1;
        let mut hashes = 0usize;
        while j < b.len() && b[j] == b'#' {
            hashes += 1;
            j += 1;
        }
        if j < b.len() && b[j] == b'"' {
            // Raw string: scan for `"` followed by `hashes` #s.
            j += 1;
            while j < b.len() {
                if b[j] == b'"' {
                    let close = j + 1;
                    if b[close..].len() >= hashes
                        && b[close..close + hashes].iter().all(|&c| c == b'#')
                    {
                        return Some(close + hashes);
                    }
                }
                j += 1;
            }
            return Some(b.len());
        }
        return None; // `r` not followed by a string — a raw ident or plain ident
    }
    // b"…" / c"…" (non-raw).
    if j > i && j < b.len() && b[j] == b'"' {
        return Some(dquote_end(b, j));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_ops_and_lines() {
        let t = lex("fn f() {\n  x.lock();\n}\n");
        let lock = t.iter().find(|t| t.is_ident("lock")).unwrap();
        assert_eq!(lock.line, 2);
        assert!(t.iter().any(|t| t.is_punct("(")));
    }

    #[test]
    fn strings_hide_their_content() {
        let t = kinds("let s = \".unwrap() /* } */ Mutex<\";");
        assert!(t.iter().filter(|(k, _)| *k == TokKind::Str).count() == 1);
        assert!(!t.iter().any(|(_, s)| s == "unwrap"));
        assert!(!t.iter().any(|(_, s)| s == "Mutex"));
    }

    #[test]
    fn raw_strings_any_hash_depth() {
        for src in [
            "r\"plain raw with no hashes .unwrap()\"",
            "r#\"quote \" inside .unwrap()\"#",
            "r##\"deep \"# still in .unwrap()\"##",
            "br#\"bytes \" .unwrap()\"#",
            "b\"bytes .unwrap()\"",
            "c\"cstr .unwrap()\"",
        ] {
            let t = kinds(src);
            assert_eq!(t.len(), 1, "{src}: {t:?}");
            assert_eq!(t[0].0, TokKind::Str, "{src}");
        }
        // `r#"…"#` followed by code: the code tokens survive.
        let t = kinds("let x = r#\"s\"#; y.unwrap();");
        assert!(t.iter().any(|(_, s)| s == "unwrap"));
    }

    #[test]
    fn raw_string_escapes_are_not_escapes() {
        // In a raw string a backslash before the closing quote does NOT
        // escape it — `r"\"` ends at the quote.
        let t = kinds(r#"r"\" ; x.unwrap()"#);
        assert!(t.iter().any(|(_, s)| s == "unwrap"), "{t:?}");
    }

    #[test]
    fn nested_block_comments() {
        let t = kinds("a /* outer /* inner */ still comment */ b");
        assert_eq!(
            t,
            vec![
                (TokKind::Ident, "a".to_string()),
                (TokKind::Ident, "b".to_string())
            ]
        );
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let t = kinds("'a' '\\n' '\\'' b'x' &'a str &'static str '_");
        let chars = t.iter().filter(|(k, _)| *k == TokKind::Char).count();
        let lifes = t.iter().filter(|(k, _)| *k == TokKind::Lifetime).count();
        assert_eq!(chars, 4, "{t:?}");
        assert_eq!(lifes, 3, "{t:?}");
    }

    #[test]
    fn char_literal_with_brace_does_not_derail() {
        // '{' and '}' as char literals must not look like block delimiters.
        let t = kinds("match c { '{' => a, '}' => b }");
        let braces = t
            .iter()
            .filter(|(k, s)| *k == TokKind::Punct && (s == "{" || s == "}"))
            .count();
        assert_eq!(braces, 2, "{t:?}");
    }

    #[test]
    fn operators_are_combined() {
        let t = kinds("a::b -> c => d == e != f <= g .. h ..= i += j");
        for op in ["::", "->", "=>", "==", "!=", "<=", "..", "..=", "+="] {
            assert!(
                t.iter().any(|(k, s)| *k == TokKind::Punct && s == op),
                "missing {op}: {t:?}"
            );
        }
        // No stray single `=` from splitting `==`.
        assert!(!t.iter().any(|(k, s)| *k == TokKind::Punct && s == "="));
    }

    #[test]
    fn numbers_with_ranges_floats_exponents() {
        let t = kinds("0..10 1.0e9 1e-9 0x2f 42u64 3.5f32 x.0");
        let nums: Vec<_> = t
            .iter()
            .filter(|(k, _)| *k == TokKind::Num)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(
            nums,
            vec!["0", "10", "1.0e9", "1e-9", "0x2f", "42u64", "3.5f32", "0"]
        );
        assert!(t.iter().any(|(k, s)| *k == TokKind::Punct && s == ".."));
    }

    #[test]
    fn raw_idents_lex_as_bare_ident() {
        let t = kinds("r#type r#fn normal");
        assert_eq!(
            t,
            vec![
                (TokKind::Ident, "type".to_string()),
                (TokKind::Ident, "fn".to_string()),
                (TokKind::Ident, "normal".to_string())
            ]
        );
    }

    #[test]
    fn doc_comments_vanish() {
        let t = kinds("/// doc .unwrap()\n//! inner Mutex<\nx");
        assert_eq!(t, vec![(TokKind::Ident, "x".to_string())]);
    }
}
