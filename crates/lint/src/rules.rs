//! The rule families: per-line matchers and cross-file symbol rules.
//!
//! Per-line rules run over [`crate::analyze::LineInfo`] lines — comments
//! and literal contents already blanked — so every matcher is plain,
//! boundary-checked substring search, byte-compatible with the v1
//! engine. Cross-file rules run over the [`crate::index::ItemIndex`]
//! and [`crate::callgraph::CallGraph`] built from the same lex pass.
//! Each hit not covered by a `// lint:allow(rule-id)` annotation becomes
//! one [`crate::Diagnostic`]; every suppression is recorded in an
//! [`AllowTracker`] so the `stale-allow` rule can flag annotations that
//! no longer suppress anything.

use std::collections::BTreeSet;

use crate::analyze::{is_ident_char, LineInfo};
use crate::callgraph::CallGraph;
use crate::index::ItemIndex;
use crate::{Diagnostic, RuleFamily};

/// Rule id: iteration over `HashMap`/`HashSet` (unordered) in
/// deterministic crates.
pub const RULE_HASH_ITERATION: &str = "hash-iteration";
/// Rule id: a literal in a config constructor drifted from the paper's
/// constants manifest.
pub const RULE_PAPER_CONSTANTS: &str = "paper-constants";
/// Rule id: a panic site transitively reachable from a simulation /
/// campaign root (call-graph rule).
pub const RULE_PANIC_REACHABILITY: &str = "panic-reachability";
/// Rule id: a PRNG seeded from a literal or an expression that does not
/// derive from any binding of the enclosing function.
pub const RULE_RNG_TAINT: &str = "rng-taint";
/// Rule id: a `lint:allow` annotation that no longer suppresses any
/// diagnostic.
pub const RULE_STALE_ALLOW: &str = "stale-allow";

/// The family that consumes allows with the given rule id. The
/// `stale-allow` rule only judges an unused allow when its family ran
/// in the same invocation (so a partial `--rules` run cannot misread an
/// allow as stale). Every other id — including those of rules that
/// never consume allows, like `paper-constants` — is unknown and always
/// stale.
const ALLOW_CONSUMERS: &[(&str, RuleFamily)] = &[
    (RULE_HASH_ITERATION, RuleFamily::Determinism),
    (RULE_PANIC_REACHABILITY, RuleFamily::PanicReachability),
    (RULE_RNG_TAINT, RuleFamily::DeterminismTaint),
    (RULE_STALE_ALLOW, RuleFamily::StaleAllow),
];

/// Crates that inherit the workspace clippy panic lints (`unwrap_used`,
/// `expect_used`, `panic`, `unreachable`, `todo`, `unimplemented`) via
/// `[lints] workspace = true`. Clippy already demands a reviewed
/// `#[expect]` at every panic site in them, so `panic-reachability`
/// does not judge those sites a second time.
pub const CLIPPY_PANIC_CRATES: &[&str] = &["crates/core/", "crates/policies/", "crates/sim/"];

/// Crate-path prefixes whose code must be bit-exact deterministic.
const DETERMINISM_SCOPE: &[&str] = &[
    "crates/sim/src/",
    "crates/core/src/",
    "crates/policies/src/",
    "crates/workloads/src/",
];

/// Methods whose call on a `HashMap`/`HashSet` visits entries in hash
/// order.
const HASH_ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".retain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

/// Records which `lint:allow` annotations actually suppressed a
/// diagnostic, keyed by (file, 0-based line of the annotation, rule id).
#[derive(Debug, Default)]
pub struct AllowTracker {
    used: BTreeSet<(String, usize, String)>,
}

impl AllowTracker {
    /// Whether line `n` carries an allow for `rule` — on the line
    /// itself, or on an immediately preceding comment-only line (the
    /// form rustfmt produces when a trailing comment no longer fits).
    /// A hit marks the annotation as used.
    pub fn allowed(&mut self, file: &str, lines: &[LineInfo], n: usize, rule: &str) -> bool {
        if lines[n].allows(rule) {
            self.used.insert((file.to_string(), n, rule.to_string()));
            return true;
        }
        if n > 0 && lines[n - 1].code.trim().is_empty() && lines[n - 1].allows(rule) {
            self.used
                .insert((file.to_string(), n - 1, rule.to_string()));
            return true;
        }
        false
    }

    /// Whether the annotation at (file, 0-based line `n`) for `rule` was
    /// consumed by some diagnostic check.
    pub fn is_used(&self, file: &str, n: usize, rule: &str) -> bool {
        self.used.contains(&(file.to_string(), n, rule.to_string()))
    }
}

/// Whether `rel_path` (normalized with `/` separators) falls under any
/// prefix in `scope`.
fn in_scope(rel_path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|p| rel_path.starts_with(p))
}

/// Runs every per-line rule of the requested `families` over one
/// analyzed file, recording consumed allows in `tracker`.
pub fn scan_lines(
    rel_path: &str,
    lines: &[LineInfo],
    families: &[RuleFamily],
    tracker: &mut AllowTracker,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if families.contains(&RuleFamily::Determinism) && in_scope(rel_path, DETERMINISM_SCOPE) {
        scan_hash_iteration(rel_path, lines, tracker, &mut diags);
    }
    if families.contains(&RuleFamily::PaperConstants) {
        crate::manifest::scan(rel_path, lines, &mut diags);
    }
    diags
}

/// Back-compat wrapper over [`scan_lines`] with a throwaway tracker
/// (per-line families only; symbol rules need the whole file set).
pub fn scan(rel_path: &str, lines: &[LineInfo], families: &[RuleFamily]) -> Vec<Diagnostic> {
    scan_lines(rel_path, lines, families, &mut AllowTracker::default())
}

/// Runs the symbol-aware rule families over the whole file set:
/// `rng-taint` and `panic-reachability` (call graph).
pub fn scan_cross_file(
    files: &[(String, Vec<LineInfo>)],
    idx: &ItemIndex,
    families: &[RuleFamily],
    tracker: &mut AllowTracker,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if families.contains(&RuleFamily::DeterminismTaint) {
        scan_rng_taint(files, idx, tracker, &mut diags);
    }
    if families.contains(&RuleFamily::PanicReachability) {
        scan_panic_reachability(files, idx, tracker, &mut diags);
    }
    diags
}

/// Determinism-taint: every `Rng::seed_from_u64(..)` argument must
/// mention at least one identifier bound in the enclosing function (a
/// seed parameter, a config field through `self`/a local, a loop
/// variable). Literal-only or ambient-constant seeds are flagged.
fn scan_rng_taint(
    files: &[(String, Vec<LineInfo>)],
    idx: &ItemIndex,
    tracker: &mut AllowTracker,
    diags: &mut Vec<Diagnostic>,
) {
    for f in &idx.fns {
        let Some((rel_path, lines)) = files.iter().find(|(p, _)| p == &f.file) else {
            continue;
        };
        for seed in &f.seeds {
            let n = seed.line as usize - 1;
            if n >= lines.len() {
                continue;
            }
            if seed
                .arg_idents
                .iter()
                .any(|id| f.bindings.iter().any(|b| b == id))
            {
                continue;
            }
            if tracker.allowed(rel_path, lines, n, RULE_RNG_TAINT) {
                continue;
            }
            let shape = if seed.arg_idents.is_empty() {
                "a literal".to_string()
            } else {
                format!(
                    "`{}`, none of which is bound in `{}`",
                    seed.arg_idents.join("`, `"),
                    f.qualified()
                )
            };
            diags.push(Diagnostic::new(
                rel_path,
                n as u64 + 1,
                RULE_RNG_TAINT,
                format!(
                    "`Rng::seed_from_u64` seeded from {shape}; derive the seed from a \
                     parameter or config field (or annotate with `// lint:allow(rng-taint)`)"
                ),
            ));
        }
    }
}

/// Panic-reachability: every hard panic site (`panic!`, `unreachable!`,
/// `todo!`, `unimplemented!`, `.unwrap()`, `.expect(`) inside a
/// function transitively reachable from a root (`Simulation::run`,
/// `MixState` accessors, the campaign/mix entry points, the pool) is
/// flagged with its shortest call trail. Sites in
/// [`CLIPPY_PANIC_CRATES`] are left to clippy, which already requires
/// a reviewed `#[expect]` at each of them.
fn scan_panic_reachability(
    files: &[(String, Vec<LineInfo>)],
    idx: &ItemIndex,
    tracker: &mut AllowTracker,
    diags: &mut Vec<Diagnostic>,
) {
    let graph = CallGraph::build(idx);
    for finding in graph.panic_findings() {
        let Some((rel_path, lines)) = files.iter().find(|(p, _)| p == &finding.file) else {
            continue;
        };
        let n = finding.line as usize - 1;
        if n >= lines.len() || lines[n].in_test || in_scope(rel_path, CLIPPY_PANIC_CRATES) {
            continue;
        }
        if tracker.allowed(rel_path, lines, n, RULE_PANIC_REACHABILITY) {
            continue;
        }
        let root = finding.trail.first().cloned().unwrap_or_default();
        let containing = finding.trail.last().cloned().unwrap_or_default();
        diags.push(
            Diagnostic::new(
                rel_path,
                n as u64 + 1,
                RULE_PANIC_REACHABILITY,
                format!(
                    "`{}` in `{containing}` is reachable from root `{root}`; return a \
                     typed error or annotate with `// lint:allow(panic-reachability)`",
                    finding.what
                ),
            )
            .with_trail(finding.trail),
        );
    }
}

/// Stale-allow: flags `lint:allow(rule-id)` annotations that suppressed
/// nothing in this run. Known ids are only judged when the family that
/// consumes them ran; unknown ids are always stale. Runs after every
/// other rule so the tracker is complete.
pub fn scan_stale_allows(
    files: &[(String, Vec<LineInfo>)],
    families: &[RuleFamily],
    tracker: &mut AllowTracker,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if !families.contains(&RuleFamily::StaleAllow) {
        return diags;
    }
    for (rel_path, lines) in files {
        for n in 0..lines.len() {
            if lines[n].in_test {
                continue;
            }
            let ids: Vec<String> = lines[n].allows.clone();
            for id in ids {
                if id == RULE_STALE_ALLOW {
                    continue;
                }
                if tracker.is_used(rel_path, n, &id) {
                    continue;
                }
                let judged = ALLOW_CONSUMERS
                    .iter()
                    .find(|(known, _)| *known == id)
                    .is_none_or(|(_, family)| families.contains(family));
                if !judged {
                    continue;
                }
                if tracker.allowed(rel_path, lines, n, RULE_STALE_ALLOW) {
                    continue;
                }
                diags.push(Diagnostic::new(
                    rel_path,
                    n as u64 + 1,
                    RULE_STALE_ALLOW,
                    format!("`lint:allow({id})` suppresses nothing; remove the stale annotation"),
                ));
            }
        }
    }
    diags
}

/// Determinism rule: iteration over hash containers.
///
/// Pass 1 collects identifiers declared with a `HashMap`/`HashSet` type
/// or initializer anywhere in the file (struct fields included); pass 2
/// flags unordered-iteration methods invoked on them — same-line
/// (`self.stamps.iter()`), continuation-line (receiver at end of one
/// line, `.iter()` opening the next), and `for _ in &ident` loops.
fn scan_hash_iteration(
    rel_path: &str,
    lines: &[LineInfo],
    tracker: &mut AllowTracker,
    diags: &mut Vec<Diagnostic>,
) {
    let idents = collect_hash_idents(lines);
    if idents.is_empty() {
        return;
    }
    for (n, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let mut hit: Option<String> = None;
        for method in HASH_ITER_METHODS {
            let mut start = 0;
            while let Some(at) = code[start..].find(method) {
                let at = start + at;
                if let Some(recv) = receiver_before(code, at) {
                    if idents.contains(&recv) {
                        hit = Some(recv);
                        break;
                    }
                }
                start = at + 1;
            }
            if hit.is_some() {
                break;
            }
            // Continuation: a chain split across lines, with the
            // receiver closing the previous code line.
            if code.trim_start().starts_with(method) {
                if let Some(prev) = previous_code_line(lines, n) {
                    if let Some(recv) = trailing_ident(&lines[prev].code) {
                        if idents.contains(&recv) {
                            hit = Some(recv);
                            break;
                        }
                    }
                }
            }
        }
        if hit.is_none() {
            if let Some(recv) = for_loop_target(code) {
                if idents.contains(&recv) {
                    hit = Some(recv);
                }
            }
        }
        if let Some(recv) = hit {
            if tracker.allowed(rel_path, lines, n, RULE_HASH_ITERATION) {
                continue;
            }
            diags.push(Diagnostic::new(
                rel_path,
                n as u64 + 1,
                RULE_HASH_ITERATION,
                format!(
                    "iteration over hash container `{recv}` visits entries in hash order; \
                     sort first or annotate an order-insensitive use with \
                     `// lint:allow(hash-iteration)`"
                ),
            ));
        }
    }
}

/// Identifiers bound to a `HashMap`/`HashSet` in this file: `let x =
/// HashMap::new()` bindings and `field: HashMap<..>` declarations.
fn collect_hash_idents(lines: &[LineInfo]) -> Vec<String> {
    let mut idents = Vec::new();
    for line in lines {
        let code = &line.code;
        if !code.contains("HashMap") && !code.contains("HashSet") {
            continue;
        }
        let trimmed = code.trim_start();
        if let Some(rest) = trimmed.strip_prefix("let ") {
            let rest = rest.trim_start_matches("mut ").trim_start();
            let ident: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
            if !ident.is_empty() {
                idents.push(ident);
            }
            continue;
        }
        // `name: HashMap<..>` — struct fields, typed lets, fn params.
        for ty in ["HashMap", "HashSet"] {
            let mut start = 0;
            while let Some(at) = code[start..].find(ty) {
                let at = start + at;
                let before = code[..at].trim_end();
                if let Some(stripped) = before.strip_suffix(':') {
                    if let Some(ident) = trailing_ident(stripped) {
                        idents.push(ident);
                    }
                }
                start = at + 1;
            }
        }
    }
    idents.sort();
    idents.dedup();
    idents
}

/// The identifier immediately preceding position `at` (a `.method` call
/// site), skipping nothing else: `self.stamps.iter()` yields `stamps`.
fn receiver_before(code: &str, at: usize) -> Option<String> {
    let ident: String = code[..at]
        .chars()
        .rev()
        .take_while(|&c| is_ident_char(c))
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    (!ident.is_empty()).then_some(ident)
}

/// The identifier a line's code ends with (ignoring trailing spaces).
fn trailing_ident(code: &str) -> Option<String> {
    let trimmed = code.trim_end();
    let ident: String = trimmed
        .chars()
        .rev()
        .take_while(|&c| is_ident_char(c))
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    (!ident.is_empty() && !ident.chars().next().is_some_and(|c| c.is_ascii_digit()))
        .then_some(ident)
}

/// Index of the nearest preceding line with non-blank code.
fn previous_code_line(lines: &[LineInfo], n: usize) -> Option<usize> {
    (0..n).rev().find(|&i| !lines[i].code.trim().is_empty())
}

/// The iterated identifier of a `for .. in <expr> {` line, stripped of
/// `&`, `&mut`, and a `self.` prefix. Returns `None` for non-loops or
/// compound expressions (method calls handle those).
fn for_loop_target(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    if !trimmed.starts_with("for ") {
        return None;
    }
    let after_in = trimmed.split(" in ").nth(1)?;
    let expr = after_in
        .split('{')
        .next()
        .unwrap_or("")
        .trim()
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .trim();
    // A dotted path of plain identifiers (`stamps`, `self.stamps`,
    // `s.stamps`): the hash container is the last segment. Method-call
    // expressions (`map.keys()`) are caught by the method scan instead.
    let mut last = None;
    for seg in expr.split('.') {
        if seg.is_empty() || !seg.chars().all(is_ident_char) {
            return None;
        }
        last = Some(seg);
    }
    last.map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::check_source;

    fn scan_at(path: &str, text: &str, fam: RuleFamily) -> Vec<Diagnostic> {
        scan(path, &analyze(text), &[fam])
    }

    #[test]
    fn hash_iteration_same_line_continuation_and_for_loop() {
        let text = "struct S { stamps: HashMap<u64, u64> }\n\
                    fn f(s: &S) {\n\
                    \x20 for (k, v) in &s.stamps {}\n\
                    \x20 s.stamps.iter().count();\n\
                    \x20 s.stamps\n\
                    \x20     .iter()\n\
                    \x20     .count();\n\
                    }\n";
        let d = scan_at("crates/sim/src/a.rs", text, RuleFamily::Determinism);
        let lines: Vec<u64> = d.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![3, 4, 6], "{d:?}");
    }

    #[test]
    fn vec_iteration_is_not_flagged() {
        let text = "fn f() { let v: Vec<u32> = Vec::new(); v.iter().count(); }\n";
        let d = scan_at("crates/sim/src/a.rs", text, RuleFamily::Determinism);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn standalone_allow_line_covers_the_next_code_line() {
        let text = "struct S { stamps: HashMap<u64, u64> }\n\
                    fn f(s: &S) {\n\
                    \x20 // lint:allow(hash-iteration) — order-insensitive count\n\
                    \x20 s.stamps.iter().count();\n\
                    \x20 s.stamps.iter().count();\n\
                    }\n";
        let d = scan_at("crates/sim/src/a.rs", text, RuleFamily::Determinism);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 5);
    }

    #[test]
    fn rng_taint_flags_literal_and_untraceable_seeds() {
        let text = "const AMBIENT: u64 = 7;\n\
                    fn good(seed: u64) -> Rng {\n\
                    \x20 Rng::seed_from_u64(seed ^ 0x9E37)\n\
                    }\n\
                    fn literal() -> Rng {\n\
                    \x20 Rng::seed_from_u64(0xD1B)\n\
                    }\n\
                    fn ambient() -> Rng {\n\
                    \x20 Rng::seed_from_u64(AMBIENT)\n\
                    }\n";
        let d = check_source("crates/sim/src/a.rs", text, &[RuleFamily::DeterminismTaint]);
        let lines: Vec<u64> = d.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![6, 9], "{d:?}");
        assert!(d.iter().all(|d| d.rule == RULE_RNG_TAINT));
        assert!(d[1].message.contains("AMBIENT"));
    }

    #[test]
    fn rng_taint_honors_allow() {
        let text = "fn f() -> Rng {\n\
                    \x20 Rng::seed_from_u64(3) // lint:allow(rng-taint) — fixed dither stream\n\
                    }\n";
        let d = check_source("crates/sim/src/a.rs", text, &[RuleFamily::DeterminismTaint]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn panic_reachability_carries_trail_and_honors_its_own_allow() {
        let text = "pub fn run_campaign() { worker(0); }\n\
                    fn worker(i: u64) {\n\
                    \x20 merge(i);\n\
                    \x20 audit(i);\n\
                    }\n\
                    fn merge(i: u64) { slots(i).unwrap(); }\n\
                    fn audit(i: u64) {\n\
                    \x20 slots(i).expect(\"present\") // lint:allow(panic-reachability) — audited above\n\
                    }\n\
                    fn slots(i: u64) -> Option<u64> { Some(i) }\n";
        let d = check_source(
            "crates/bench/src/campaign.rs",
            text,
            &[RuleFamily::PanicReachability],
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 6);
        assert_eq!(d[0].rule, RULE_PANIC_REACHABILITY);
        assert_eq!(d[0].trail, vec!["run_campaign", "worker", "merge"]);
        assert!(d[0].message.contains("run_campaign"));
    }

    #[test]
    fn panic_reachability_ignores_the_retired_unwrap_id() {
        // Spelled in pieces so a grep of the tree for retired
        // annotations stays empty.
        let allow = concat!("// lint:allow(", "unwrap", ")");
        let text = format!(
            "pub fn run_campaign() -> u64 {{\n\
             \x20 slots(0).unwrap() {allow}\n\
             }}\n\
             fn slots(i: u64) -> Option<u64> {{ Some(i) }}\n"
        );
        let d = check_source("crates/bench/src/campaign.rs", &text, RuleFamily::ALL);
        let hits: Vec<(u64, &str)> = d.iter().map(|d| (d.line, d.rule)).collect();
        assert_eq!(
            hits,
            vec![(2, RULE_PANIC_REACHABILITY), (2, RULE_STALE_ALLOW)],
            "{d:?}"
        );
    }

    #[test]
    fn panic_reachability_leaves_clippy_crates_to_clippy() {
        // The same reachable site is judged in the bench crate and left
        // to clippy's `#[expect]` discipline in a crate that inherits the
        // workspace panic lints.
        let text = "pub fn run_mix() { merge(0); }\n\
                    fn merge(i: u64) -> u64 { slots(i).unwrap() }\n\
                    fn slots(i: u64) -> Option<u64> { Some(i) }\n";
        let judged = check_source(
            "crates/bench/src/tenant.rs",
            text,
            &[RuleFamily::PanicReachability],
        );
        assert_eq!(judged.len(), 1, "{judged:?}");
        for path in ["crates/sim/src/tenant.rs", "crates/core/src/chain.rs"] {
            let d = check_source(path, text, &[RuleFamily::PanicReachability]);
            assert!(d.is_empty(), "{path}: {d:?}");
        }
    }

    #[test]
    fn panic_unreachable_from_roots_is_not_flagged() {
        let text = "pub fn run_campaign() { safe(); }\n\
                    fn safe() -> u64 { 3 }\n\
                    fn orphan() { x.unwrap(); }\n";
        let d = check_source(
            "crates/bench/src/campaign.rs",
            text,
            &[RuleFamily::PanicReachability],
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn stale_allow_flags_unused_and_unknown_ids() {
        let text = "struct S { stamps: HashMap<u64, u64> }\n\
                    fn f(s: &S) -> usize {\n\
                    \x20 let y = 3; // lint:allow(hash-iteration)\n\
                    \x20 let z = 4; // lint:allow(no-such-rule)\n\
                    \x20 s.stamps.iter().count() // lint:allow(hash-iteration) — used, stays clean\n\
                    }\n";
        let d = check_source("crates/sim/src/a.rs", text, RuleFamily::ALL);
        let hits: Vec<(u64, &str)> = d.iter().map(|d| (d.line, d.rule)).collect();
        assert_eq!(
            hits,
            vec![(3, RULE_STALE_ALLOW), (4, RULE_STALE_ALLOW)],
            "{d:?}"
        );
        assert!(d[0].message.contains("hash-iteration"));
        assert!(d[1].message.contains("no-such-rule"));
    }

    #[test]
    fn stale_allow_skips_ids_whose_consumer_did_not_run() {
        // An unused hash-iteration allow is only judged when the
        // determinism family ran.
        let text = "fn f() {\n  let y = 3; // lint:allow(hash-iteration)\n}\n";
        let d = check_source(
            "crates/sim/src/a.rs",
            text,
            &[RuleFamily::DeterminismTaint, RuleFamily::StaleAllow],
        );
        assert!(d.is_empty(), "{d:?}");
        let d = check_source(
            "crates/sim/src/a.rs",
            text,
            &[RuleFamily::Determinism, RuleFamily::StaleAllow],
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_STALE_ALLOW);
    }

    #[test]
    fn test_regions_are_exempt() {
        let decl = "struct S { stamps: HashMap<u64, u64> }\n";
        let body = "fn g(s: &S) { s.stamps.iter().count(); }\n";
        let outside = format!("{decl}{body}");
        let inside = format!("{decl}#[cfg(test)]\nmod tests {{ {body} }}\n");
        let d = scan_at("crates/sim/src/a.rs", &outside, RuleFamily::Determinism);
        assert_eq!(d.len(), 1, "{d:?}");
        let d = scan_at("crates/sim/src/a.rs", &inside, RuleFamily::Determinism);
        assert!(d.is_empty(), "{d:?}");
    }
}
