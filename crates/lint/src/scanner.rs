//! A token-level Rust scanner: just enough lexing for invariant rules.
//!
//! The scanner does not parse Rust — it tokenizes it. Comments, strings
//! (including raw and byte strings), char literals and lifetimes are handled
//! precisely so rules never fire on commented-out or quoted code, but grammar
//! above the token level (expressions, items) is left to each rule's own
//! pattern matching. Two by-products of the scan feed the rules:
//!
//! * **comments**, with line numbers — region markers live here;
//! * a **test mask** covering every `#[cfg(test)] mod … { … }` body, so rules
//!   about production code skip unit tests embedded in `src/` files.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword.
    Ident,
    /// A single punctuation character (`::` is two `:` tokens).
    Punct,
    /// A string literal; `text` holds the contents without quotes.
    Str,
    /// A numeric literal (lexed loosely; rules never inspect numbers).
    Num,
    /// A lifetime such as `'a`.
    Lifetime,
    /// A char literal such as `'x'`.
    Char,
}

/// One lexeme with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Token {
    /// The token's class.
    pub kind: TokenKind,
    /// The token text (contents only for string literals).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
}

impl Token {
    /// True for an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// True for a punctuation token with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == text
    }
}

/// A comment (line or block) with the line it starts on.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Full comment text, delimiters included.
    pub text: String,
}

/// A tokenized source file plus the scan by-products rules consume.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes (a *virtual* path in
    /// fixture tests — rules scope themselves by this value).
    pub path: String,
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
    test_mask: Vec<bool>,
}

impl SourceFile {
    /// Tokenizes `src` and computes the test mask.
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let (tokens, comments) = tokenize(src);
        let test_mask = compute_test_mask(&tokens);
        SourceFile { path: path.replace('\\', "/"), tokens, comments, test_mask }
    }

    /// Whether the token at `idx` sits inside a `#[cfg(test)] mod` body.
    pub fn is_test(&self, idx: usize) -> bool {
        self.test_mask.get(idx).copied().unwrap_or(false)
    }
}

fn tokenize(src: &str) -> (Vec<Token>, Vec<Comment>) {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;

    let count_newlines = |s: &[u8]| s.iter().filter(|&&b| b == b'\n').count() as u32;

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end =
                    bytes[i..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |p| i + p);
                comments.push(Comment { line, text: src[i..end].to_string() });
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                comments.push(Comment { line: start_line, text: src[start..i].to_string() });
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                let (end, text) = scan_raw_string(src, i);
                tokens.push(Token { kind: TokenKind::Str, text, line });
                line += count_newlines(&bytes[i..end]);
                i = end;
            }
            b'b' if bytes.get(i + 1) == Some(&b'"') => {
                let (end, text) = scan_string(src, i + 1);
                tokens.push(Token { kind: TokenKind::Str, text, line });
                line += count_newlines(&bytes[i..end]);
                i = end;
            }
            b'b' if bytes.get(i + 1) == Some(&b'\'') => {
                let end = scan_char(bytes, i + 1);
                tokens.push(Token { kind: TokenKind::Char, text: src[i..end].to_string(), line });
                i = end;
            }
            b'"' => {
                let (end, text) = scan_string(src, i);
                tokens.push(Token { kind: TokenKind::Str, text, line });
                line += count_newlines(&bytes[i..end]);
                i = end;
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`): a lifetime
                // is a quote, ident chars, and *no* closing quote.
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                if j > i + 1 && bytes.get(j) != Some(&b'\'') {
                    tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        text: src[i..j].to_string(),
                        line,
                    });
                    i = j;
                } else {
                    let end = scan_char(bytes, i);
                    tokens.push(Token {
                        kind: TokenKind::Char,
                        text: src[i..end].to_string(),
                        line,
                    });
                    i = end;
                }
            }
            _ if b.is_ascii_alphabetic() || b == b'_' => {
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                tokens.push(Token { kind: TokenKind::Ident, text: src[i..j].to_string(), line });
                i = j;
            }
            _ if b.is_ascii_digit() => {
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                tokens.push(Token { kind: TokenKind::Num, text: src[i..j].to_string(), line });
                i = j;
            }
            _ => {
                tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: src[i..i + 1].to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    (tokens, comments)
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // `r"`, `r#…#"`, `br"`, `br#…#"`.
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

fn scan_raw_string(src: &str, start: usize) -> (usize, String) {
    let bytes = src.as_bytes();
    let mut j = start;
    if bytes[j] == b'b' {
        j += 1;
    }
    j += 1; // 'r'
    let mut hashes = 0;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    let content_start = j;
    let closer = format!("\"{}", "#".repeat(hashes));
    match src[j..].find(&closer) {
        Some(pos) => (j + pos + closer.len(), src[content_start..j + pos].to_string()),
        None => (src.len(), src[content_start..].to_string()),
    }
}

fn scan_string(src: &str, quote: usize) -> (usize, String) {
    let bytes = src.as_bytes();
    let mut j = quote + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return (j + 1, src[quote + 1..j].to_string()),
            _ => j += 1,
        }
    }
    (bytes.len(), src[quote + 1..].to_string())
}

fn scan_char(bytes: &[u8], quote: usize) -> usize {
    let mut j = quote + 1;
    if bytes.get(j) == Some(&b'\\') {
        j += 2;
    } else if j < bytes.len() {
        // Multi-byte UTF-8 scalar: skip continuation bytes.
        j += 1;
        while j < bytes.len() && bytes[j] & 0b1100_0000 == 0b1000_0000 {
            j += 1;
        }
    }
    if bytes.get(j) == Some(&b'\'') {
        j + 1
    } else {
        j
    }
}

/// Marks every token inside a `#[cfg(test)] mod name { … }` body.
fn compute_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            // Skip past the attribute, then look for `mod <name> {` within the
            // next few tokens (other attributes may sit in between).
            let mut j = i + 7;
            let mut guard = 0;
            while j < tokens.len() && guard < 24 {
                if is_cfg_test_attr(tokens, j) {
                    j += 7;
                } else if tokens[j].is_ident("mod") {
                    // `mod name {` — mask to the matching close brace.
                    if let Some(open) = tokens[j..].iter().position(|t| t.is_punct("{")) {
                        let open = j + open;
                        let close = matching_brace(tokens, open);
                        for slot in mask.iter_mut().take(close + 1).skip(i) {
                            *slot = true;
                        }
                        i = close;
                    }
                    break;
                } else {
                    j += 1;
                    guard += 1;
                }
            }
        }
        i += 1;
    }
    mask
}

fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    tokens.len() > i + 6
        && tokens[i].is_punct("#")
        && tokens[i + 1].is_punct("[")
        && tokens[i + 2].is_ident("cfg")
        && tokens[i + 3].is_punct("(")
        && tokens[i + 4].is_ident("test")
        && tokens[i + 5].is_punct(")")
        && tokens[i + 6].is_punct("]")
}

/// Index of the `}` matching the `{` at `open` (or the last token).
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_do_not_produce_idents() {
        let f = SourceFile::parse("x.rs", "// sync_data\nlet s = \"sync_data\"; /* seal( */");
        assert!(!f.tokens.iter().any(|t| t.is_ident("sync_data")));
        assert!(f.tokens.iter().any(|t| t.kind == TokenKind::Str));
        assert_eq!(f.comments.len(), 2);
    }

    #[test]
    fn raw_strings_and_lifetimes_lex_cleanly() {
        let f = SourceFile::parse(
            "x.rs",
            "fn f<'a>(x: &'a str) { let r = r#\"quote \" inside\"#; let c = 'x'; let n = '\\n'; }",
        );
        let strs: Vec<_> = f.tokens.iter().filter(|t| t.kind == TokenKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, "quote \" inside");
        assert_eq!(f.tokens.iter().filter(|t| t.kind == TokenKind::Lifetime).count(), 2);
        assert_eq!(f.tokens.iter().filter(|t| t.kind == TokenKind::Char).count(), 2);
    }

    #[test]
    fn line_numbers_are_accurate() {
        let f = SourceFile::parse("x.rs", "a\nb\n\nc");
        let lines: Vec<u32> = f.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn test_mask_covers_cfg_test_mod() {
        let f = SourceFile::parse(
            "x.rs",
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn inner() {}\n}\nfn after() {}",
        );
        let real = f.tokens.iter().position(|t| t.is_ident("real")).unwrap();
        let inner = f.tokens.iter().position(|t| t.is_ident("inner")).unwrap();
        let after = f.tokens.iter().position(|t| t.is_ident("after")).unwrap();
        assert!(!f.is_test(real));
        assert!(f.is_test(inner));
        assert!(!f.is_test(after));
    }
}
