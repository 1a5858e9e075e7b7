//! `uvm-lint`: zero-dependency static analysis for the HPE workspace.
//!
//! The reproduction's value rests on bit-exact determinism (golden
//! traces, checkpoint byte-identity), error discipline (typed `SimError`
//! instead of panics), and fidelity to the paper's constants. Whatever
//! rustc and clippy can enforce lives in the workspace lint
//! configuration (`[workspace.lints]` and `clippy.toml`: wall clock,
//! unseeded hashing, unwrap/expect/panic macros) and the compiler
//! itself (undeclared crates, module privacy). This crate keeps the
//! domain rules no stock tool expresses, as machine-checkable rules
//! over the source tree, built
//! on a hand-rolled Rust lexer (no `syn`, no `regex` — the workspace is
//! its own toolchain). One lex pass ([`lexer`]) produces both a blanked
//! per-line view for the substring rule families and a token stream that
//! feeds a workspace item index ([`index`]) and call graph
//! ([`callgraph`]) for the symbol-aware families. JSON diagnostics go
//! through [`uvm_util::json`].
//!
//! # Rule families
//!
//! | Family | Rules | Scope |
//! |---|---|---|
//! | `determinism` | `hash-iteration` | `crates/{sim,core,policies,workloads}/src` |
//! | `paper-constants` | `paper-constants` | manifest files (see [`manifest::MANIFEST`]) |
//! | `panic-reachability` | `panic-reachability` | call graph from `Simulation::run` / `MixState` / worker roots, outside [`rules::CLIPPY_PANIC_CRATES`] |
//! | `determinism-taint` | `rng-taint` | every indexed `Rng::seed_from_u64` call |
//! | `stale-allow` | `stale-allow` | every `lint:allow` annotation |
//!
//! A violation is suppressed by a `// lint:allow(rule-id)` annotation —
//! trailing on the offending line, or as a standalone comment line
//! directly above it. The annotation documents *why* at the call site
//! instead of in a central baseline number; the `stale-allow` rule flags
//! annotations that stopped suppressing anything.
//!
//! # Examples
//!
//! ```
//! use uvm_lint::{check_source, RuleFamily};
//!
//! let diags = check_source(
//!     "crates/sim/src/demo.rs",
//!     "fn f(m: HashMap<u64, u64>) { m.keys().count(); }\n",
//!     &[RuleFamily::Determinism],
//! );
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].rule, "hash-iteration");
//! assert_eq!(diags[0].line, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyze;
pub mod callgraph;
pub mod index;
pub mod lexer;
pub mod manifest;
pub mod rules;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use uvm_util::{json, Json};

use index::ItemIndex;
use rules::AllowTracker;

/// A family of related rules, selectable on the `hpe-lint` command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleFamily {
    /// Bans hash-order iteration in the deterministic crates.
    Determinism,
    /// Cross-checks config literals against the paper-constants
    /// manifest.
    PaperConstants,
    /// Flags panic sites transitively reachable from the simulation /
    /// campaign roots, with a call trail per finding.
    PanicReachability,
    /// Flags PRNG seeds that do not derive from a seed parameter or
    /// config field of the enclosing function.
    DeterminismTaint,
    /// Flags `lint:allow` annotations that no longer suppress any
    /// diagnostic.
    StaleAllow,
}

impl RuleFamily {
    /// Every family, in reporting order.
    pub const ALL: &'static [RuleFamily] = &[
        RuleFamily::Determinism,
        RuleFamily::PaperConstants,
        RuleFamily::PanicReachability,
        RuleFamily::DeterminismTaint,
        RuleFamily::StaleAllow,
    ];

    /// The CLI label (`determinism`, `paper-constants`,
    /// `panic-reachability`, `determinism-taint`, `stale-allow`).
    pub fn label(self) -> &'static str {
        match self {
            RuleFamily::Determinism => "determinism",
            RuleFamily::PaperConstants => "paper-constants",
            RuleFamily::PanicReachability => "panic-reachability",
            RuleFamily::DeterminismTaint => "determinism-taint",
            RuleFamily::StaleAllow => "stale-allow",
        }
    }

    /// Parses a CLI label.
    pub fn parse(s: &str) -> Option<Self> {
        RuleFamily::ALL.iter().copied().find(|f| f.label() == s)
    }
}

/// One rule violation, locatable as `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative file path (`/`-separated).
    pub file: String,
    /// 1-based line number.
    pub line: u64,
    /// Stable rule id (e.g. `hash-iteration`).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
    /// For call-graph rules: the qualified call trail from a root to
    /// the function containing the violation (empty for per-line
    /// rules, and omitted from JSON when empty — which keeps the v1
    /// diagnostic schema byte-identical).
    pub trail: Vec<String>,
}

impl Diagnostic {
    /// Creates a diagnostic (no trail).
    pub fn new(file: impl Into<String>, line: u64, rule: &'static str, message: String) -> Self {
        Diagnostic {
            file: file.into(),
            line,
            rule,
            message,
            trail: Vec::new(),
        }
    }

    /// Attaches a call trail.
    pub fn with_trail(mut self, trail: Vec<String>) -> Self {
        self.trail = trail;
        self
    }

    /// JSON form: `{"file", "line", "rule", "message"}` plus `"trail"`
    /// (array of qualified names) when a call trail is present.
    pub fn to_json(&self) -> Json {
        let mut obj = json!({
            "file": self.file,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        });
        if !self.trail.is_empty() {
            obj.insert(
                "trail",
                Json::Array(self.trail.iter().map(|s| Json::Str(s.clone())).collect()),
            );
        }
        obj
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )?;
        if !self.trail.is_empty() {
            write!(f, " (trail: {})", self.trail.join(" -> "))?;
        }
        Ok(())
    }
}

/// An internal lint failure (I/O, not a rule violation) — exit code 2
/// territory for the CLI.
#[derive(Debug)]
pub struct LintError(String);

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint internal error: {}", self.0)
    }
}

impl std::error::Error for LintError {}

/// One in-memory source file: the workspace-relative path (which
/// decides rule scoping) plus its text.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// The file's source text.
    pub text: String,
}

/// Whether a path contributes to the item index / call graph: library
/// sources of workspace crates (binaries, integration tests, and
/// examples have their own entry points and are not simulation roots).
fn indexed_path(rel_path: &str) -> bool {
    rel_path.starts_with("crates/") && rel_path.contains("/src/") && !rel_path.contains("/src/bin/")
}

/// Lints a set of in-memory files as one workspace: per-line rules per
/// file, then the symbol-aware rules over the shared item index, then
/// stale-allow over the recorded suppressions. Diagnostics are sorted
/// by (file, line, rule).
pub fn check_files(files: &[SourceFile], families: &[RuleFamily]) -> Vec<Diagnostic> {
    let lexed: Vec<(String, lexer::LexedFile)> = files
        .iter()
        .map(|f| (f.rel_path.clone(), lexer::lex(&f.text)))
        .collect();
    let mut idx = ItemIndex::default();
    for (rel, lx) in &lexed {
        if indexed_path(rel) {
            idx.add_file(rel, lx);
        }
    }
    let line_files: Vec<(String, Vec<analyze::LineInfo>)> = lexed
        .iter()
        .map(|(rel, lx)| (rel.clone(), analyze::line_infos(lx)))
        .collect();
    let mut tracker = AllowTracker::default();
    let mut diags = Vec::new();
    for (rel, lines) in &line_files {
        diags.extend(rules::scan_lines(rel, lines, families, &mut tracker));
    }
    diags.extend(rules::scan_cross_file(
        &line_files,
        &idx,
        families,
        &mut tracker,
    ));
    diags.extend(rules::scan_stale_allows(
        &line_files,
        families,
        &mut tracker,
    ));
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    diags
}

/// Lints one in-memory source file. `rel_path` decides which rule
/// scopes apply, so fixtures can impersonate any workspace location.
/// Symbol-aware rules see only this file's items.
pub fn check_source(rel_path: &str, text: &str, families: &[RuleFamily]) -> Vec<Diagnostic> {
    check_files(
        &[SourceFile {
            rel_path: rel_path.to_string(),
            text: text.to_string(),
        }],
        families,
    )
}

/// Builds the item index and call graph over every `.rs` library source
/// under `root`, for `hpe-lint graph` / `explain`.
///
/// # Errors
///
/// Returns [`LintError`] on I/O failure (unreadable tree).
pub fn load_workspace_index(root: &Path) -> Result<ItemIndex, LintError> {
    let files = read_workspace(root)?;
    let mut idx = ItemIndex::default();
    for f in &files {
        if indexed_path(&f.rel_path) {
            idx.add_file(&f.rel_path, &lexer::lex(&f.text));
        }
    }
    Ok(idx)
}

/// Lints every `.rs` file under `root` (the workspace checkout),
/// skipping build output, VCS metadata, and the lint fixtures (which
/// contain violations by design). File order — and therefore diagnostic
/// order — is sorted, so output is identical across filesystems.
///
/// # Errors
///
/// Returns [`LintError`] on I/O failure (unreadable tree), never for
/// rule violations.
pub fn check_workspace(root: &Path, families: &[RuleFamily]) -> Result<Vec<Diagnostic>, LintError> {
    let files = read_workspace(root)?;
    Ok(check_files(&files, families))
}

/// Reads every `.rs` file under `root` into memory, sorted by path.
fn read_workspace(root: &Path) -> Result<Vec<SourceFile>, LintError> {
    let mut paths = Vec::new();
    collect_rs_files(root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let text = fs::read_to_string(&path)
            .map_err(|e| LintError(format!("read {}: {e}", path.display())))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile {
            rel_path: rel,
            text,
        });
    }
    Ok(files)
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries =
        fs::read_dir(dir).map_err(|e| LintError(format!("read dir {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError(format!("walk {}: {e}", dir.display())))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Machine-readable report: `{"count": N, "diagnostics": [...]}`.
pub fn report_json(diags: &[Diagnostic]) -> Json {
    let mut obj = Json::object();
    obj.insert("count", Json::UInt(diags.len() as u64));
    obj.insert(
        "diagnostics",
        Json::Array(diags.iter().map(Diagnostic::to_json).collect()),
    );
    obj
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_labels_roundtrip() {
        for f in RuleFamily::ALL {
            assert_eq!(RuleFamily::parse(f.label()), Some(*f));
        }
        assert_eq!(RuleFamily::parse("nope"), None);
    }

    #[test]
    fn diagnostics_sort_and_render() {
        let d = Diagnostic::new("a.rs", 3, "hash-iteration", "x".into());
        assert_eq!(d.to_string(), "a.rs:3: [hash-iteration] x");
        let j = report_json(&[d]);
        assert_eq!(j.get("count").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn trail_appears_in_display_and_json_only_when_present() {
        let plain = Diagnostic::new("a.rs", 3, "hash-iteration", "x".into());
        assert!(plain.to_json().get("trail").is_none());
        let trailed = Diagnostic::new("a.rs", 3, "panic-reachability", "x".into())
            .with_trail(vec!["Simulation::run".into(), "step".into()]);
        assert!(trailed.to_string().contains("Simulation::run -> step"));
        let j = trailed.to_json();
        let trail = j.get("trail").expect("trail key");
        assert_eq!(
            trail.as_array().map(<[Json]>::len),
            Some(2),
            "trail should be a 2-element array"
        );
    }

    #[test]
    fn check_source_orders_by_line() {
        // The stale allow is found by the last pass, after the
        // hash-iteration hit below it.
        let text = "struct S { m: HashMap<u64, u64> }\n\
                    fn f(s: &S) -> usize {\n\
                    \x20 let y = 3; // lint:allow(no-such-rule)\n\
                    \x20 s.m.keys().count()\n\
                    }\n";
        let d = check_source("crates/sim/src/x.rs", text, RuleFamily::ALL);
        let hits: Vec<(u64, &str)> = d.iter().map(|d| (d.line, d.rule)).collect();
        assert_eq!(hits, vec![(3, "stale-allow"), (4, "hash-iteration")]);
    }

    #[test]
    fn indexed_path_excludes_bins_and_tests() {
        assert!(indexed_path("crates/sim/src/engine.rs"));
        assert!(indexed_path("crates/bench/src/tenant.rs"));
        assert!(!indexed_path("crates/bench/src/bin/hpe-lint.rs"));
        assert!(!indexed_path("crates/sim/tests/chaos_props.rs"));
        assert!(!indexed_path("examples/trace_analysis.rs"));
    }
}
