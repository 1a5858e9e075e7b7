//! The workspace item index: a lightweight parse of the token stream.
//!
//! The index records every `fn`, `struct`, `impl`, and `mod` in the
//! workspace with its file and line span, plus the facts the cross-file
//! rules need about each function body: the identifiers it calls (with
//! receiver shape), the identifiers it binds (parameters, `let`, `for`,
//! closure arguments), its direct panic sites, its slice-indexing
//! count, and every `Rng::seed_from_u64` call with the identifiers
//! appearing in the seed argument.
//!
//! This is not a Rust parser — it is a disciplined scan over the
//! [`crate::lexer`] token stream that over-approximates where it must
//! (an unknown callee name matches every function of that name) and
//! never under-approximates reachability. Items inside `#[cfg(test)]`
//! regions are not indexed: test helpers must not alias production
//! symbols in the call graph.

use crate::lexer::{LexedFile, Token, TokenKind};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// A free-function call: `helper(..)` (also module paths,
    /// `registry::by_abbr(..)`).
    Free,
    /// A method call: `x.helper(..)`.
    Method,
    /// A type-qualified call: `Rng::seed_from_u64(..)`; the payload is
    /// the type name (`Self` already resolved to the enclosing impl).
    Qualified(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The callee identifier.
    pub name: String,
    /// The receiver shape, for resolution.
    pub kind: CallKind,
    /// 1-based line of the callee token.
    pub line: u32,
}

/// One direct panic site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// The panicking form, as written (`panic!`, `.unwrap()`,
    /// `.expect(`, `unreachable!`, `todo!`, `unimplemented!`).
    pub what: &'static str,
    /// 1-based line of the site.
    pub line: u32,
}

/// One `Rng::seed_from_u64(..)` call, for the determinism-taint rule.
#[derive(Debug, Clone)]
pub struct SeedCall {
    /// 1-based line of the call.
    pub line: u32,
    /// Identifiers appearing anywhere in the seed argument.
    pub arg_idents: Vec<String>,
}

/// One indexed function.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Workspace-relative file path.
    pub file: String,
    /// The enclosing `impl` type, if any.
    pub owner: Option<String>,
    /// The function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based line of the body's closing brace (= `line` for bodyless
    /// trait signatures).
    pub end_line: u32,
    /// Identifiers the body binds: parameters, `let` / `for` / closure
    /// patterns, and `self` when present.
    pub bindings: Vec<String>,
    /// Call sites, in source order.
    pub calls: Vec<CallSite>,
    /// Direct panic sites, in source order.
    pub panics: Vec<PanicSite>,
    /// Number of `ident[..]` indexing expressions (fallible on slices
    /// and maps; surfaced by `hpe-lint graph`, not as diagnostics).
    pub index_ops: u32,
    /// `Rng::seed_from_u64` calls in the body.
    pub seeds: Vec<SeedCall>,
}

impl FnItem {
    /// Display name: `Type::name` for methods, `name` for free fns.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One indexed `impl` block.
#[derive(Debug, Clone)]
pub struct ImplBlock {
    /// Workspace-relative file path.
    pub file: String,
    /// The implemented type (the type after `for` in trait impls).
    pub type_name: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// 1-based line of the closing brace.
    pub end_line: u32,
}

/// One indexed `struct` / `enum` definition.
#[derive(Debug, Clone)]
pub struct TypeItem {
    /// Workspace-relative file path.
    pub file: String,
    /// The type name.
    pub name: String,
    /// 1-based line of the definition.
    pub line: u32,
}

/// One indexed `mod` (declaration or inline).
#[derive(Debug, Clone)]
pub struct ModItem {
    /// Workspace-relative file path.
    pub file: String,
    /// The module name.
    pub name: String,
    /// 1-based line of the declaration.
    pub line: u32,
}

/// The item index over a set of files.
#[derive(Debug, Clone, Default)]
pub struct ItemIndex {
    /// Every non-test function, across all indexed files.
    pub fns: Vec<FnItem>,
    /// Every non-test `impl` block.
    pub impls: Vec<ImplBlock>,
    /// Every non-test `struct` / `enum`.
    pub types: Vec<TypeItem>,
    /// Every non-test `mod`.
    pub mods: Vec<ModItem>,
}

impl ItemIndex {
    /// Indexes one lexed file into the accumulating index.
    pub fn add_file(&mut self, rel_path: &str, lexed: &LexedFile) {
        index_file(rel_path, &lexed.tokens, self);
    }

    /// Builds an index over several lexed files.
    pub fn build<'a>(files: impl IntoIterator<Item = (&'a str, &'a LexedFile)>) -> Self {
        let mut idx = ItemIndex::default();
        for (rel, lexed) in files {
            idx.add_file(rel, lexed);
        }
        idx
    }
}

/// Control-flow keywords that look like calls (`if (..)`) but are not.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "where", "move", "mut", "ref", "dyn", "fn", "let", "impl", "use", "pub", "mod", "struct",
    "enum", "trait", "type", "unsafe", "const", "static", "crate", "super",
];

/// Macro names whose invocation panics.
const PANIC_MACROS: &[(&str, &str)] = &[
    ("panic", "panic!"),
    ("unreachable", "unreachable!"),
    ("todo", "todo!"),
    ("unimplemented", "unimplemented!"),
];

fn index_file(rel_path: &str, tokens: &[Token], idx: &mut ItemIndex) {
    // Pass 1: impl blocks and items (so fn → owner attribution can look
    // them up regardless of order).
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.in_test || t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "impl" => {
                if impl_in_item_position(tokens, i) {
                    if let Some((type_name, open)) = parse_impl_header(tokens, i) {
                        let end = matching_close(tokens, open);
                        idx.impls.push(ImplBlock {
                            file: rel_path.to_string(),
                            type_name,
                            line: t.line,
                            end_line: tokens.get(end).map_or(t.line, |c| c.line),
                        });
                    }
                }
                i += 1;
            }
            "struct" | "enum" => {
                if let Some(name) = tokens.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                    idx.types.push(TypeItem {
                        file: rel_path.to_string(),
                        name: name.text.clone(),
                        line: t.line,
                    });
                }
                i += 1;
            }
            "mod" => {
                if let Some(name) = tokens.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                    idx.mods.push(ModItem {
                        file: rel_path.to_string(),
                        name: name.text.clone(),
                        line: t.line,
                    });
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    // Pass 2: functions, with bodies scanned for calls/panics/seeds.
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.in_test || !t.is_ident("fn") {
            i += 1;
            continue;
        }
        // `fn` in a type position (`fn(u64) -> u64`) has no name ident.
        let Some(name_tok) = tokens.get(i + 1).filter(|n| n.kind == TokenKind::Ident) else {
            i += 1;
            continue;
        };
        let owner = idx
            .impls
            .iter()
            .filter(|b| b.file == rel_path && b.line <= t.line && t.line <= b.end_line)
            .map(|b| b.type_name.clone())
            .next_back();
        let item = parse_fn(rel_path, tokens, i, name_tok.text.clone(), owner);
        let next = item.body_end_idx.unwrap_or(i) + 1;
        idx.fns.push(item.item);
        i = next.max(i + 1);
    }
}

/// Whether the `impl` keyword at token `i` opens an impl block, as
/// opposed to naming an `impl Trait` type in a parameter, return, or
/// bound position. An impl block is only legal where an item is:
/// directly after `{`, `}`, `;`, a closing attribute `]`, `unsafe`, or
/// at the start of the file.
fn impl_in_item_position(tokens: &[Token], i: usize) -> bool {
    match tokens[..i].last() {
        None => true,
        Some(prev) => {
            prev.is_punct('{')
                || prev.is_punct('}')
                || prev.is_punct(';')
                || prev.is_punct(']')
                || prev.is_ident("unsafe")
        }
    }
}

/// Parses the type name and opening-brace index of an `impl` at token
/// `i`. For `impl Trait for Type`, the owner is `Type`.
fn parse_impl_header(tokens: &[Token], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    // Skip generic parameters on the impl itself.
    if tokens.get(j)?.is_punct('<') {
        j = skip_angle(tokens, j)?;
    }
    let mut last_path_ident: Option<String> = None;
    let mut owner: Option<String> = None;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('{') {
            return Some((owner.or(last_path_ident)?, j));
        }
        if t.is_punct(';') {
            return None;
        }
        if t.is_ident("for") {
            // Trait impl: the type we attribute methods to follows.
            owner = None;
            last_path_ident = None;
        } else if t.is_ident("where") {
            owner = owner.or(last_path_ident.take());
        } else if t.kind == TokenKind::Ident {
            last_path_ident = Some(t.text.clone());
        } else if t.is_punct('<') {
            // Generic arguments of the type just named: skip, keep the
            // name.
            owner = owner.or(last_path_ident.take());
            j = skip_angle(tokens, j)?;
            continue;
        }
        j += 1;
    }
    None
}

/// Skips a balanced `<..>` starting at `open` (which must be `<`);
/// returns the index after the closing `>`.
fn skip_angle(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = open;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        } else if t.is_punct('{') || t.is_punct(';') {
            return None;
        }
        j += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open` (they share a depth
/// value), or the last token if unterminated.
fn matching_close(tokens: &[Token], open: usize) -> usize {
    let depth = tokens[open].depth;
    let mut j = open + 1;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('}') && t.depth == depth {
            return j;
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

struct ParsedFn {
    item: FnItem,
    body_end_idx: Option<usize>,
}

/// Parses one `fn` starting at token index `fn_idx`.
fn parse_fn(
    rel_path: &str,
    tokens: &[Token],
    fn_idx: usize,
    name: String,
    owner: Option<String>,
) -> ParsedFn {
    let fn_tok = &tokens[fn_idx];
    let mut item = FnItem {
        file: rel_path.to_string(),
        owner,
        name,
        line: fn_tok.line,
        end_line: fn_tok.line,
        bindings: Vec::new(),
        calls: Vec::new(),
        panics: Vec::new(),
        index_ops: 0,
        seeds: Vec::new(),
    };
    // Parameter list: the first `(` after the name (skipping generics).
    let mut j = fn_idx + 2;
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angle(tokens, j).unwrap_or(j + 1);
    }
    if tokens.get(j).is_some_and(|t| t.is_punct('(')) {
        let mut paren = 0i32;
        let mut k = j;
        while let Some(t) = tokens.get(k) {
            if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
                if paren == 0 {
                    break;
                }
            } else if paren == 1 && t.kind == TokenKind::Ident {
                // `name: Type` at the top level of the list, or `self`.
                if t.text == "self" {
                    push_unique(&mut item.bindings, "self");
                } else if tokens.get(k + 1).is_some_and(|n| n.is_punct(':')) {
                    push_unique(&mut item.bindings, &t.text);
                }
            }
            k += 1;
        }
        j = k;
    }
    // Body: the first `{` at the fn's depth before a `;` at that depth.
    let fn_depth = fn_tok.depth;
    let mut body_open = None;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('{') && t.depth == fn_depth {
            body_open = Some(j);
            break;
        }
        if t.is_punct(';') && t.depth == fn_depth {
            break;
        }
        j += 1;
    }
    let Some(open) = body_open else {
        return ParsedFn {
            item,
            body_end_idx: None,
        };
    };
    let close = matching_close(tokens, open);
    item.end_line = tokens[close].line;
    scan_body(tokens, open + 1, close, &mut item);
    ParsedFn {
        item,
        body_end_idx: Some(close),
    }
}

fn push_unique(v: &mut Vec<String>, s: &str) {
    if !v.iter().any(|x| x == s) {
        v.push(s.to_string());
    }
}

/// Scans a body token range for calls, bindings, panic sites, indexing,
/// and seed calls.
fn scan_body(tokens: &[Token], start: usize, end: usize, item: &mut FnItem) {
    let mut j = start;
    while j < end {
        let t = &tokens[j];
        if t.kind != TokenKind::Ident {
            j += 1;
            continue;
        }
        let next = tokens.get(j + 1);
        match t.text.as_str() {
            "let" => {
                // Bind every ident of the pattern, up to `=`/`;` (type
                // names in `let x: Foo` are harmless over-approx).
                let mut k = j + 1;
                while k < end {
                    let p = &tokens[k];
                    if p.is_punct('=') || p.is_punct(';') {
                        break;
                    }
                    if p.kind == TokenKind::Ident && !NON_CALL_KEYWORDS.contains(&p.text.as_str()) {
                        push_unique(&mut item.bindings, &p.text);
                    }
                    k += 1;
                }
                j += 1;
                continue;
            }
            "for" => {
                // `for pat in ..`: bind the pattern idents.
                let mut k = j + 1;
                while k < end {
                    let p = &tokens[k];
                    if p.is_ident("in") || p.is_punct('{') {
                        break;
                    }
                    if p.kind == TokenKind::Ident {
                        push_unique(&mut item.bindings, &p.text);
                    }
                    k += 1;
                }
                j += 1;
                continue;
            }
            _ => {}
        }
        // Closure parameters: `|a, b|` — a `|` directly after a call
        // opener, comma, or `=`.
        if t.text == "move" {
            j += 1;
            continue;
        }
        // Panic macros.
        if let Some((_, label)) = PANIC_MACROS.iter().find(|(m, _)| t.text == *m) {
            if next.is_some_and(|n| n.is_punct('!')) {
                item.panics.push(PanicSite {
                    what: label,
                    line: t.line,
                });
                j += 2;
                continue;
            }
        }
        let prev = if j > start {
            Some(&tokens[j - 1])
        } else {
            None
        };
        let after_dot = prev.is_some_and(|p| p.is_punct('.'));
        // `.unwrap()` / `.expect(` method panics.
        if after_dot && next.is_some_and(|n| n.is_punct('(')) {
            if t.text == "unwrap" {
                item.panics.push(PanicSite {
                    what: ".unwrap()",
                    line: t.line,
                });
            } else if t.text == "expect" {
                // `Option::expect` / `Result::expect` take a string
                // message. A `.expect(` whose first argument is not a
                // string literal is some type's own fallible `expect`
                // method (e.g. a parser's token matcher), not a panic.
                let arg_is_str = tokens
                    .get(j + 2)
                    .is_some_and(|a| matches!(a.kind, TokenKind::Str | TokenKind::RawStr));
                if arg_is_str {
                    item.panics.push(PanicSite {
                        what: ".expect(",
                        line: t.line,
                    });
                }
            }
        }
        // Indexing: `ident[..]` (not `[..]` literals, not `x.0[..]`).
        if next.is_some_and(|n| n.is_punct('[')) && !NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            item.index_ops += 1;
        }
        // Calls: `ident(` with receiver shape from the tokens before.
        if next.is_some_and(|n| n.is_punct('(')) && !NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            let kind = if after_dot {
                CallKind::Method
            } else if j >= start + 2 && tokens[j - 1].is_punct(':') && tokens[j - 2].is_punct(':') {
                // `Path::name(` — qualified if the path segment is a
                // type name (capitalized), else treated as a free call
                // through a module path.
                let seg = (j >= start + 3).then(|| &tokens[j - 3]).filter(|s| {
                    s.kind == TokenKind::Ident && !NON_CALL_KEYWORDS.contains(&s.text.as_str())
                });
                match seg {
                    Some(s) if s.text == "Self" => match &item.owner {
                        Some(o) => CallKind::Qualified(o.clone()),
                        None => CallKind::Free,
                    },
                    Some(s) if s.text.chars().next().is_some_and(char::is_uppercase) => {
                        CallKind::Qualified(s.text.clone())
                    }
                    _ => CallKind::Free,
                }
            } else {
                CallKind::Free
            };
            // Seed calls: capture the argument's identifiers.
            if t.text == "seed_from_u64" {
                item.seeds.push(SeedCall {
                    line: t.line,
                    arg_idents: arg_idents(tokens, j + 1, end),
                });
            }
            item.calls.push(CallSite {
                name: t.text.clone(),
                kind,
                line: t.line,
            });
        }
        j += 1;
    }
    // Closure parameters, second sweep: idents between a `|` pair where
    // the opening `|` follows `(`, `,`, `=`, `{`, or a call boundary.
    let mut j = start;
    while j < end {
        if tokens[j].is_punct('|') {
            let opener = j == start
                || tokens[j - 1].is_punct('(')
                || tokens[j - 1].is_punct(',')
                || tokens[j - 1].is_punct('=')
                || tokens[j - 1].is_punct('{')
                || tokens[j - 1].is_ident("move");
            if opener {
                let mut k = j + 1;
                while k < end && !tokens[k].is_punct('|') {
                    if tokens[k].kind == TokenKind::Ident
                        && !NON_CALL_KEYWORDS.contains(&tokens[k].text.as_str())
                    {
                        push_unique(&mut item.bindings, &tokens[k].text);
                    }
                    k += 1;
                }
                j = k;
            }
        }
        j += 1;
    }
}

/// Identifiers inside the balanced `(..)` starting at `open`.
fn arg_idents(tokens: &[Token], open: usize, end: usize) -> Vec<String> {
    let mut idents = Vec::new();
    let mut paren = 0i32;
    let mut j = open;
    while j < end {
        let t = &tokens[j];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
            if paren == 0 {
                break;
            }
        } else if t.kind == TokenKind::Ident {
            push_unique(&mut idents, &t.text);
        }
        j += 1;
    }
    idents
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn index_of(text: &str) -> ItemIndex {
        let lexed = lex(text);
        ItemIndex::build([("test.rs", &lexed)])
    }

    #[test]
    fn free_fn_and_method_are_indexed_with_owner() {
        let idx = index_of(
            "struct S;\n\
             impl S {\n  pub fn m(&self, x: u64) -> u64 { helper(x) }\n}\n\
             fn helper(x: u64) -> u64 { x }\n",
        );
        assert_eq!(idx.types.len(), 1);
        assert_eq!(idx.impls.len(), 1);
        let names: Vec<String> = idx.fns.iter().map(FnItem::qualified).collect();
        assert_eq!(names, vec!["S::m", "helper"]);
        assert_eq!(idx.fns[0].bindings, vec!["self", "x"]);
    }

    #[test]
    fn trait_impl_attributes_to_the_for_type() {
        let idx = index_of("impl Display for Row {\n  fn fmt(&self) {}\n}\n");
        assert_eq!(idx.impls[0].type_name, "Row");
        assert_eq!(idx.fns[0].qualified(), "Row::fmt");
    }

    #[test]
    fn generic_impl_headers_resolve() {
        let idx = index_of("impl<T: Clone> Wrapper<T> {\n  fn get(&self) {}\n}\n");
        assert_eq!(idx.impls[0].type_name, "Wrapper");
        assert_eq!(idx.fns[0].qualified(), "Wrapper::get");
    }

    #[test]
    fn calls_record_receiver_shape() {
        let idx =
            index_of("fn f(x: &S) { free(); x.method(); Rng::seed_from_u64(7); Self::assoc(); }\n");
        let calls = &idx.fns[0].calls;
        assert!(calls
            .iter()
            .any(|c| c.name == "free" && c.kind == CallKind::Free));
        assert!(calls
            .iter()
            .any(|c| c.name == "method" && c.kind == CallKind::Method));
        assert!(calls
            .iter()
            .any(|c| c.name == "seed_from_u64" && c.kind == CallKind::Qualified("Rng".into())));
    }

    #[test]
    fn panic_sites_are_collected() {
        let idx = index_of(
            "fn f(x: Option<u32>) -> u32 {\n  if bad() { panic!(\"no\") }\n  x.unwrap() + y.expect(\"set\")\n}\n",
        );
        let whats: Vec<&str> = idx.fns[0].panics.iter().map(|p| p.what).collect();
        assert_eq!(whats, vec!["panic!", ".unwrap()", ".expect("]);
    }

    #[test]
    fn unwrap_or_variants_are_not_panics() {
        let idx = index_of("fn f(x: Option<u32>) -> u32 { x.unwrap_or(3) }\n");
        assert!(idx.fns[0].panics.is_empty());
    }

    #[test]
    fn bindings_cover_let_for_and_closures() {
        let idx = index_of(
            "fn f(a: u64) {\n  let (b, c) = (1, 2);\n  for d in 0..3 {}\n  g(|e| e + a);\n}\n",
        );
        let b = &idx.fns[0].bindings;
        for name in ["a", "b", "c", "d", "e"] {
            assert!(b.iter().any(|x| x == name), "missing {name} in {b:?}");
        }
    }

    #[test]
    fn seed_calls_capture_arg_idents() {
        let idx = index_of(
            "fn f(seed: u64) { let r = Rng::seed_from_u64(seed ^ 3); let s = Rng::seed_from_u64(42); }\n",
        );
        let seeds = &idx.fns[0].seeds;
        assert_eq!(seeds.len(), 2);
        assert_eq!(seeds[0].arg_idents, vec!["seed"]);
        assert!(seeds[1].arg_idents.is_empty());
    }

    #[test]
    fn test_region_items_are_not_indexed() {
        let idx = index_of("fn real() {}\n#[cfg(test)]\nmod tests { fn fake() { x.unwrap(); } }\n");
        assert_eq!(idx.fns.len(), 1);
        assert_eq!(idx.fns[0].name, "real");
        // The test-module `mod tests` is also skipped.
        assert!(idx.mods.is_empty());
    }

    #[test]
    fn index_ops_are_counted() {
        let idx = index_of("fn f(xs: &[u64], i: usize) -> u64 { xs[i] + xs[0] }\n");
        assert_eq!(idx.fns[0].index_ops, 2);
    }

    #[test]
    fn impl_trait_in_type_position_is_not_an_impl_block() {
        let idx = index_of(
            "struct S;\n\
             impl S {\n  fn m(&self, key: impl Into<String>) {}\n}\n\
             fn free(x: impl Clone) -> impl Iterator<Item = u64> { std::iter::empty() }\n",
        );
        assert_eq!(idx.impls.len(), 1);
        assert_eq!(idx.impls[0].type_name, "S");
        let free = idx.fns.iter().find(|f| f.name == "free").unwrap();
        assert_eq!(free.owner, None);
    }

    #[test]
    fn expect_with_non_string_argument_is_not_a_panic_site() {
        let idx = index_of(
            "fn f(p: &mut Parser) {\n\
             \x20 p.expect(b':');\n\
             \x20 q.expect(\"message\");\n\
             }\n",
        );
        let whats: Vec<_> = idx.fns[0].panics.iter().map(|p| (p.what, p.line)).collect();
        assert_eq!(whats, vec![(".expect(", 3)]);
    }
}
