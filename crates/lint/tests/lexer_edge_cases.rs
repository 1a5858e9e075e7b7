//! Edge-case tests for the hermetic lexer, exercised through the public
//! API exactly as the rule engine consumes it: the token stream and the
//! blanked per-line code view must both survive the dark corners of
//! Rust's lexical grammar.

use uvm_lint::lexer::{lex, TokenKind};

fn kinds_and_texts(text: &str) -> Vec<(TokenKind, String)> {
    lex(text)
        .tokens
        .iter()
        .map(|t| (t.kind, t.text.clone()))
        .collect()
}

#[test]
fn nested_block_comments_close_at_matching_depth() {
    let lexed = lex("/* outer /* inner */ still a comment */ fn f() {}\n");
    let idents: Vec<_> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(idents, vec!["fn", "f"]);
    // The blanked view keeps only the code after the comment closes.
    assert!(!lexed.lines[0].code.contains("inner"));
    assert!(lexed.lines[0].code.contains("fn f()"));
}

#[test]
fn nested_block_comment_spanning_lines_blanks_every_line() {
    let lexed = lex("/* a /* b\n  c */ d\n*/ let x = 1;\n");
    assert!(lexed.lines[0].code.trim().is_empty());
    assert!(lexed.lines[1].code.trim().is_empty());
    assert!(lexed.lines[2].code.contains("let x = 1;"));
}

#[test]
fn raw_strings_with_hash_fences_swallow_quotes_and_comments() {
    let toks =
        kinds_and_texts("let s = r##\"has \"quote\"# and // not a comment\"##;\nlet t = 1;\n");
    let raw: Vec<_> = toks
        .iter()
        .filter(|(k, _)| *k == TokenKind::RawStr)
        .collect();
    assert_eq!(raw.len(), 1);
    assert!(raw[0].1.contains("not a comment"));
    // Lexing resumes cleanly after the closing fence.
    assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "t"));
}

#[test]
fn raw_string_contents_never_harvest_allow_annotations() {
    let lexed = lex("let s = r#\"// lint:allow(rng-taint) — just text\"#;\nlet x = 1;\n");
    assert!(lexed.lines.iter().all(|l| l.allows.is_empty()));
}

#[test]
fn multi_line_raw_string_blanks_interior_lines() {
    let lexed = lex("let s = r#\"first\nsecond // lint:allow(rng-taint)\nthird\"#;\nlet y = 2;\n");
    assert!(lexed.lines.iter().all(|l| l.allows.is_empty()));
    assert!(lexed.lines[1].code.trim().is_empty());
    assert!(lexed.lines[3].code.contains("let y = 2;"));
}

#[test]
fn char_literals_containing_quote_and_slashes_do_not_derail() {
    let toks = kinds_and_texts("let a = '\"'; let b = '/'; let c = '\\''; // done\n");
    let chars: Vec<_> = toks
        .iter()
        .filter(|(k, _)| *k == TokenKind::Char)
        .map(|(_, t)| t.as_str())
        .collect();
    assert_eq!(chars, vec!["'\"'", "'/'", "'\\''"]);
    // The trailing comment was recognised (it is not part of any token).
    assert!(!toks.iter().any(|(_, t)| t.contains("done")));
}

#[test]
fn string_containing_line_comment_marker_is_one_token() {
    let lexed = lex("let u = \"a // b\"; let v = 3;\n");
    let strs: Vec<_> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Str)
        .collect();
    assert_eq!(strs.len(), 1);
    // `v` must still be lexed: the `//` inside the string is not a
    // comment and must not blank the rest of the line.
    assert!(lexed
        .tokens
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text == "v"));
}

#[test]
fn lifetime_ticks_are_distinct_from_char_literals() {
    let toks = kinds_and_texts("fn f<'a>(x: &'a str) -> &'a str { x }\nconst C: char = 'a';\n");
    let lifetimes = toks
        .iter()
        .filter(|(k, _)| *k == TokenKind::Lifetime)
        .count();
    let chars = toks.iter().filter(|(k, _)| *k == TokenKind::Char).count();
    assert_eq!(lifetimes, 3);
    assert_eq!(chars, 1);
}

#[test]
fn labelled_loops_lex_the_label_as_a_lifetime() {
    let toks = kinds_and_texts("fn f() { 'outer: loop { break 'outer; } }\n");
    let labels: Vec<_> = toks
        .iter()
        .filter(|(k, _)| *k == TokenKind::Lifetime)
        .map(|(_, t)| t.as_str())
        .collect();
    assert_eq!(labels, vec!["'outer", "'outer"]);
}

#[test]
fn brace_depth_is_tracked_through_literals_with_braces() {
    let lexed = lex("fn f() {\n    let s = \"{ not a block {\";\n    g();\n}\n");
    let g = lexed
        .tokens
        .iter()
        .find(|t| t.kind == TokenKind::Ident && t.text == "g")
        .expect("g token");
    // Braces inside the string must not have bumped the depth: `g` sits
    // directly inside the fn body.
    assert_eq!(g.depth, 1);
}
