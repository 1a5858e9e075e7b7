//! The workspace call graph and panic-reachability analysis.
//!
//! Built on the [`crate::index`] item index, the graph resolves every
//! call site by name and receiver shape:
//!
//! - `Type::name(..)` resolves to functions owned by `Type` (falling
//!   back to any function of that name when the type is not indexed);
//! - `x.name(..)` resolves to every *method* of that name (we do not
//!   type receivers — a deliberate over-approximation that never
//!   under-reports reachability);
//! - `name(..)` resolves to free functions of that name, falling back
//!   to any function of that name (module-path calls like
//!   `registry::by_abbr(..)` arrive shaped as free calls).
//!
//! Reachability runs BFS from the paper-critical roots — the
//! simulation loop, the `MixState` accessors, the campaign/mix entry
//! points and the worker pool (`run_indexed`) — recording parent pointers so every finding
//! carries its shortest call trail back to a root. Ties break on index
//! order, which follows sorted file order, so trails are deterministic.

use std::collections::BTreeMap;

use crate::index::{CallKind, FnItem, ItemIndex};

/// Qualified names treated as reachability roots when present.
const ROOT_QUALIFIED: &[&str] = &["Simulation::run", "Simulation::run_until"];

/// Free functions treated as reachability roots when present.
const ROOT_FREE: &[&str] = &["run_campaign", "run_mix", "run_indexed"];

/// Every method of these types is a reachability root.
const ROOT_IMPLS: &[&str] = &["MixState"];

/// One panic site reachable from a root, with its call trail.
#[derive(Debug, Clone)]
pub struct PanicFinding {
    /// Index into [`ItemIndex::fns`] of the containing function.
    pub fn_idx: usize,
    /// Workspace-relative file of the panic site.
    pub file: String,
    /// 1-based line of the panic site.
    pub line: u32,
    /// The panicking form (`panic!`, `.unwrap()`, ...).
    pub what: &'static str,
    /// Qualified call trail from a root to the containing function
    /// (first element is the root, last is the containing function).
    pub trail: Vec<String>,
}

/// The resolved call graph over an [`ItemIndex`].
pub struct CallGraph<'a> {
    /// The underlying index.
    pub idx: &'a ItemIndex,
    /// Adjacency: `edges[i]` lists callee fn indices, sorted + deduped.
    edges: Vec<Vec<usize>>,
    /// Root fn indices, in index order.
    roots: Vec<usize>,
    /// BFS parent pointers from the roots (`None` = unreachable or is
    /// itself a root).
    parent: Vec<Option<usize>>,
    /// Whether each fn is reachable from some root.
    reachable: Vec<bool>,
}

impl<'a> CallGraph<'a> {
    /// Builds the graph and runs root reachability.
    pub fn build(idx: &'a ItemIndex) -> Self {
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_owner_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, f) in idx.fns.iter().enumerate() {
            by_name.entry(&f.name).or_default().push(i);
            match &f.owner {
                Some(o) => {
                    methods_by_name.entry(&f.name).or_default().push(i);
                    by_owner_name
                        .entry((o.as_str(), f.name.as_str()))
                        .or_default()
                        .push(i);
                }
                None => free_by_name.entry(&f.name).or_default().push(i),
            }
        }
        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(idx.fns.len());
        for f in &idx.fns {
            let mut out: Vec<usize> = Vec::new();
            for call in &f.calls {
                let resolved: Option<&Vec<usize>> = match &call.kind {
                    CallKind::Qualified(t) => by_owner_name
                        .get(&(t.as_str(), call.name.as_str()))
                        .or_else(|| by_name.get(call.name.as_str())),
                    CallKind::Method => methods_by_name
                        .get(call.name.as_str())
                        .or_else(|| by_name.get(call.name.as_str())),
                    CallKind::Free => free_by_name
                        .get(call.name.as_str())
                        .or_else(|| by_name.get(call.name.as_str())),
                };
                if let Some(targets) = resolved {
                    out.extend_from_slice(targets);
                }
            }
            out.sort_unstable();
            out.dedup();
            edges.push(out);
        }
        let roots = default_roots(idx);
        let (parent, reachable) = bfs(&edges, &roots);
        CallGraph {
            idx,
            edges,
            roots,
            parent,
            reachable,
        }
    }

    /// Root fn indices, in index order.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Whether fn `i` is reachable from a root.
    pub fn is_reachable(&self, i: usize) -> bool {
        self.reachable[i]
    }

    /// Direct callees of fn `i`.
    pub fn callees(&self, i: usize) -> &[usize] {
        &self.edges[i]
    }

    /// Shortest qualified-name trail from a root to fn `i`, empty if
    /// unreachable.
    pub fn trail_to(&self, i: usize) -> Vec<String> {
        if !self.reachable[i] {
            return Vec::new();
        }
        let mut rev = vec![i];
        let mut cur = i;
        while let Some(p) = self.parent[cur] {
            rev.push(p);
            cur = p;
        }
        rev.reverse();
        rev.into_iter()
            .map(|j| self.idx.fns[j].qualified())
            .collect()
    }

    /// Every hard panic site inside a reachable function, with its
    /// trail, in index order. Suppression (`lint:allow`) is the
    /// caller's concern: `hpe-lint graph` shows suppressed sites too.
    pub fn panic_findings(&self) -> Vec<PanicFinding> {
        let mut out = Vec::new();
        for (i, f) in self.idx.fns.iter().enumerate() {
            if !self.reachable[i] || f.panics.is_empty() {
                continue;
            }
            let trail = self.trail_to(i);
            for p in &f.panics {
                out.push(PanicFinding {
                    fn_idx: i,
                    file: f.file.clone(),
                    line: p.line,
                    what: p.what,
                    trail: trail.clone(),
                });
            }
        }
        out
    }

    /// Reachable functions with at least one slice-indexing expression
    /// (weak panic evidence, reported only by `hpe-lint graph`):
    /// `(fn_idx, index_op_count)` in index order.
    pub fn reachable_index_ops(&self) -> Vec<(usize, u32)> {
        self.idx
            .fns
            .iter()
            .enumerate()
            .filter(|(i, f)| self.reachable[*i] && f.index_ops > 0)
            .map(|(i, f)| (i, f.index_ops))
            .collect()
    }

    /// The function item for index `i`.
    pub fn fn_item(&self, i: usize) -> &FnItem {
        &self.idx.fns[i]
    }

    /// Looks up functions whose qualified name (or bare name) is
    /// `symbol`, in index order.
    pub fn find_symbol(&self, symbol: &str) -> Vec<usize> {
        self.idx
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.qualified() == symbol || f.name == symbol)
            .map(|(i, _)| i)
            .collect()
    }
}

/// The root set actually present in the index, in index order.
fn default_roots(idx: &ItemIndex) -> Vec<usize> {
    let mut roots: Vec<usize> = idx
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            let q = f.qualified();
            ROOT_QUALIFIED.contains(&q.as_str())
                || (f.owner.is_none() && ROOT_FREE.contains(&f.name.as_str()))
                || f.owner.as_deref().is_some_and(|o| ROOT_IMPLS.contains(&o))
        })
        .map(|(i, _)| i)
        .collect();
    roots.sort_unstable();
    roots
}

/// BFS over `edges` from `roots`; returns parent pointers and the
/// reachable set. Neighbor lists are sorted, so ties are deterministic.
fn bfs(edges: &[Vec<usize>], roots: &[usize]) -> (Vec<Option<usize>>, Vec<bool>) {
    let n = edges.len();
    let mut parent = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for &r in roots {
        if !seen[r] {
            seen[r] = true;
            queue.push_back(r);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in &edges[u] {
            if !seen[v] {
                seen[v] = true;
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    (parent, seen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ItemIndex;
    use crate::lexer::lex;

    /// (panicking fn, panic kind, trail) per finding.
    type Finding = (String, &'static str, Vec<String>);

    fn graph_of(files: &[(&str, &str)]) -> (ItemIndex, Vec<Finding>) {
        let lexed: Vec<(String, crate::lexer::LexedFile)> =
            files.iter().map(|(p, t)| (p.to_string(), lex(t))).collect();
        let idx = ItemIndex::build(lexed.iter().map(|(p, l)| (p.as_str(), l)));
        let graph = CallGraph::build(&idx);
        let findings = graph
            .panic_findings()
            .into_iter()
            .map(|f| (f.file, f.what, f.trail))
            .collect();
        (idx, findings)
    }

    #[test]
    fn panic_reachable_through_two_hops_carries_trail() {
        let (_, findings) = graph_of(&[(
            "crates/sim/src/engine.rs",
            "struct Simulation;\n\
             impl Simulation {\n  pub fn run(self) { step(); }\n}\n\
             fn step() { deep(); }\n\
             fn deep() { panic!(\"boom\"); }\n",
        )]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].1, "panic!");
        assert_eq!(findings[0].2, vec!["Simulation::run", "step", "deep"]);
    }

    #[test]
    fn unreachable_panics_are_not_reported() {
        let (_, findings) = graph_of(&[(
            "crates/sim/src/engine.rs",
            "struct Simulation;\n\
             impl Simulation {\n  pub fn run(self) {}\n}\n\
             fn orphan() { x.unwrap(); }\n",
        )]);
        assert!(findings.is_empty());
    }

    #[test]
    fn cross_file_method_calls_resolve() {
        let (_, findings) = graph_of(&[
            (
                "crates/bench/src/tenant.rs",
                "pub fn run_mix() { let s = MixState::new(); s.record(0); }\n\
                 struct MixState;\n\
                 impl MixState {\n  fn new() -> Self { MixState }\n  fn record(&self, i: u64) { other_helper(i) }\n}\n",
            ),
            (
                "crates/bench/src/lib.rs",
                "pub fn other_helper(i: u64) -> u64 { SLOTS[i as usize].unwrap() }\n",
            ),
        ]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].0, "crates/bench/src/lib.rs");
        assert_eq!(findings[0].1, ".unwrap()");
        // MixState::record is itself a root, so the shortest trail
        // starts there rather than at run_mix.
        assert_eq!(findings[0].2, vec!["MixState::record", "other_helper"]);
    }

    #[test]
    fn cycles_terminate() {
        let (_, findings) = graph_of(&[(
            "crates/sim/src/engine.rs",
            "struct Simulation;\n\
             impl Simulation {\n  pub fn run(self) { a(); }\n}\n\
             fn a() { b(); }\n\
             fn b() { a(); x.unwrap(); }\n",
        )]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].2, vec!["Simulation::run", "a", "b"]);
    }

    #[test]
    fn qualified_calls_prefer_the_named_type() {
        let (idx, findings) = graph_of(&[(
            "crates/sim/src/engine.rs",
            "struct Simulation;\nstruct A;\nstruct B;\n\
             impl Simulation {\n  pub fn run(self) { A::go(); }\n}\n\
             impl A {\n  fn go() {}\n}\n\
             impl B {\n  fn go() { panic!(\"wrong type\") }\n}\n",
        )]);
        assert_eq!(idx.fns.len(), 3);
        assert!(
            findings.is_empty(),
            "B::go should not resolve: {findings:?}"
        );
    }

    #[test]
    fn find_symbol_matches_bare_and_qualified() {
        let lexed = lex("struct S;\nimpl S {\n  fn m(&self) {}\n}\nfn m() {}\n");
        let idx = ItemIndex::build([("crates/sim/src/x.rs", &lexed)]);
        let graph = CallGraph::build(&idx);
        assert_eq!(graph.find_symbol("S::m").len(), 1);
        assert_eq!(graph.find_symbol("m").len(), 2);
    }
}
