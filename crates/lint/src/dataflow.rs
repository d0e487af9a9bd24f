//! The three interprocedural passes over the call graph.
//!
//! All three are *function-level* analyses: a fact attaches to a whole
//! fn, not to individual values. That makes them flow-insensitive
//! over-approximations (documented in DESIGN.md) but keeps them exact
//! about one thing — every reported chain is a real path of resolved
//! call edges, printed step by step as clickable `file:line`s.
//!
//! 1. **reachable-panic** — multi-source BFS from the designated
//!    hot-path roots; any panic site (`unwrap`/`expect`/`panic!`-family
//!    macros, plus indexing inside the service crates) in a reached fn
//!    is a finding.
//! 2. **nondet-taint** — roots are the journaled-output sinks
//!    (`Obs::event`/`expose`, `Tracer::hop`/`dump`,
//!    `DiagnosisModel::to_json`/`save`) *and* every fn that calls one
//!    directly; any ambient time/entropy or unordered-container site
//!    reachable from such a fn is a finding, because that fn's output
//!    lands in a byte-compared journal.
//! 3. **lock-order-cycle** — a digraph over lock identities
//!    (`Type::field`): an edge `A -> B` exists when `B` is acquired
//!    (directly, or anywhere inside a callee) while `A` is held; any
//!    cycle is a deadlock candidate and fails the gate.

use crate::callgraph::{FnIdx, Graph};
use crate::parse::{Site, SiteKind};
use crate::rules;
use std::collections::{BTreeMap, BTreeSet};

/// A designated analysis root: (path prefix, optional impl type, name).
#[derive(Clone, Copy, Debug)]
pub struct RootSpec {
    pub path_prefix: &'static str,
    pub self_ty: Option<&'static str>,
    pub name: &'static str,
}

/// The hot-path roots for the panic pass: the fns that must never
/// panic in production, per the fleet-runtime contract.
pub const HOT_PATH_ROOTS: &[RootSpec] = &[
    RootSpec { path_prefix: "crates/serve/", self_ty: Some("FleetService"), name: "tick" },
    RootSpec { path_prefix: "crates/serve/", self_ty: Some("FleetService"), name: "tick_from" },
    RootSpec { path_prefix: "crates/par/", self_ty: Some("Pool"), name: "run_epoch" },
    RootSpec { path_prefix: "crates/par/", self_ty: None, name: "worker_loop" },
    RootSpec { path_prefix: "crates/net/", self_ty: Some("Gateway"), name: "poll" },
    RootSpec { path_prefix: "crates/grid/", self_ty: None, name: "run_grid" },
    RootSpec { path_prefix: "crates/grid/", self_ty: None, name: "worker_loop" },
];

/// The journaled-output sinks for the taint pass: anything written
/// through these fns is byte-compared across replays.
pub const OUTPUT_SINKS: &[RootSpec] = &[
    RootSpec { path_prefix: "crates/obs/", self_ty: Some("Obs"), name: "event" },
    RootSpec { path_prefix: "crates/obs/", self_ty: Some("Obs"), name: "expose" },
    RootSpec { path_prefix: "crates/trace/", self_ty: Some("Tracer"), name: "hop" },
    RootSpec { path_prefix: "crates/trace/", self_ty: Some("Tracer"), name: "dump" },
    RootSpec { path_prefix: "crates/ml/", self_ty: Some("DiagnosisModel"), name: "to_json" },
    RootSpec { path_prefix: "crates/ml/", self_ty: Some("DiagnosisModel"), name: "save" },
];

/// One step of a reported call chain.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct ChainStep {
    /// Workspace-relative file.
    pub path: String,
    /// 1-based line (fn declaration, or the site itself for the last
    /// step).
    pub line: u32,
    /// `Type::name` for fn steps; a site description for the last step.
    pub func: String,
}

/// One interprocedural finding, before suppression filtering.
#[derive(Clone, Debug)]
pub struct InterFinding {
    /// `reachable-panic` / `nondet-taint` / `lock-order-cycle`.
    pub rule: &'static str,
    /// File of the *site* (where the panic / nondeterminism lives).
    pub path: String,
    /// 1-based line of the site.
    pub line: u32,
    /// File of the *root* (hot-path fn / sink caller) — findings are
    /// suppressible here too.
    pub root_path: String,
    /// 1-based line of the root fn declaration.
    pub root_line: u32,
    /// The full chain, root first, site last.
    pub chain: Vec<ChainStep>,
    /// Human explanation (includes the rendered chain).
    pub message: String,
    /// The per-file rule whose `allow(...)` also silences this finding at
    /// the source line (`no-panic-in-fallible` for reachable-panic,
    /// the matching nondet rule for taint findings).
    pub alias: Option<&'static str>,
}

/// Human description of a site kind, for messages.
fn describe(kind: &SiteKind) -> String {
    match kind {
        SiteKind::PanicUnwrap(d) => format!("`.{d}()`"),
        SiteKind::PanicMacro(m) => format!("`{m}!`"),
        SiteKind::Index => "slice indexing `[..]`".to_string(),
        SiteKind::AmbientTime(t) => format!("`{t}::now`"),
        SiteKind::AmbientEntropy(e) => format!("`{e}`"),
        SiteKind::UnorderedContainer(c) => format!("`{c}`"),
        // Per-file-rule kinds never enter a chain.
        other => format!("{other:?}"),
    }
}

fn render_chain(chain: &[ChainStep]) -> String {
    let steps: Vec<String> =
        chain.iter().map(|s| format!("{} ({}:{})", s.func, s.path, s.line)).collect();
    steps.join(" -> ")
}

/// Multi-source BFS; returns (visited-in-order, parent edge map).
/// Deterministic: roots in given order, edges in call order.
fn bfs(graph: &Graph, roots: &[FnIdx]) -> (Vec<FnIdx>, Vec<Option<FnIdx>>) {
    let mut parent: Vec<Option<FnIdx>> = vec![None; graph.fns.len()];
    let mut seen = vec![false; graph.fns.len()];
    let mut queue: std::collections::VecDeque<FnIdx> = std::collections::VecDeque::new();
    let mut order = Vec::new();
    for &r in roots {
        if !seen[r] {
            seen[r] = true;
            queue.push_back(r);
        }
    }
    while let Some(f) = queue.pop_front() {
        order.push(f);
        for e in &graph.edges[f] {
            if !seen[e.callee] {
                seen[e.callee] = true;
                parent[e.callee] = Some(f);
                queue.push_back(e.callee);
            }
        }
    }
    (order, parent)
}

/// Walks parent pointers from `f` back to its root; returns fn steps
/// root-first (each step at the fn's declaration line).
fn chain_to(graph: &Graph, parent: &[Option<FnIdx>], f: FnIdx) -> Vec<ChainStep> {
    let mut steps = Vec::new();
    let mut cur = Some(f);
    while let Some(i) = cur {
        let fi = &graph.fns[i];
        steps.push(ChainStep { path: fi.path.clone(), line: fi.line, func: fi.display() });
        cur = parent[i];
    }
    steps.reverse();
    steps
}

fn site_step(fi: &crate::parse::FnItem, site: &Site) -> ChainStep {
    ChainStep { path: fi.path.clone(), line: site.line, func: describe(&site.kind) }
}

fn resolve_roots(graph: &Graph, specs: &[RootSpec]) -> Vec<FnIdx> {
    let mut out = Vec::new();
    for s in specs {
        for idx in graph.find(s.path_prefix, s.self_ty, s.name) {
            if !out.contains(&idx) {
                out.push(idx);
            }
        }
    }
    out
}

/// Pass 1: panic sites reachable from the hot-path roots.
pub fn panic_reachability(graph: &Graph, roots: &[RootSpec]) -> Vec<InterFinding> {
    let root_idxs = resolve_roots(graph, roots);
    let (order, parent) = bfs(graph, &root_idxs);
    let mut out = Vec::new();
    let mut seen_sites: BTreeSet<(String, u32)> = BTreeSet::new();
    for f in order {
        let fi = &graph.fns[f];
        let index_in_scope = rules::INDEX.contains(&fi.path);
        for site in &fi.sites {
            let is_panic = match &site.kind {
                SiteKind::PanicUnwrap(_) | SiteKind::PanicMacro(_) => true,
                SiteKind::Index => index_in_scope,
                _ => false,
            };
            if !is_panic || !seen_sites.insert((fi.path.clone(), site.line)) {
                continue;
            }
            let mut chain = chain_to(graph, &parent, f);
            let root = chain[0].clone();
            chain.push(site_step(fi, site));
            let message = format!(
                "panic site {} reachable from hot-path root `{}`: {}",
                describe(&site.kind),
                root.func,
                render_chain(&chain),
            );
            out.push(InterFinding {
                rule: "reachable-panic",
                path: fi.path.clone(),
                line: site.line,
                root_path: root.path,
                root_line: root.line,
                chain,
                message,
                alias: Some("no-panic-in-fallible"),
            });
        }
    }
    out
}

/// Pass 2: nondeterminism sources reachable from fns whose output is
/// journaled (sink fns and their direct callers).
pub fn nondet_taint(graph: &Graph, sinks: &[RootSpec]) -> Vec<InterFinding> {
    let sink_idxs = resolve_roots(graph, sinks);
    let sink_set: BTreeSet<FnIdx> = sink_idxs.iter().copied().collect();
    // Taint roots: the sinks themselves, plus every fn with a direct
    // call edge into a sink (that call's output is journaled). Each
    // root remembers which sink implicates it, for the message.
    let mut roots: Vec<FnIdx> = Vec::new();
    let mut implicated_by: BTreeMap<FnIdx, (String, u32)> = BTreeMap::new();
    for &s in &sink_idxs {
        roots.push(s);
        implicated_by.insert(s, (graph.fns[s].display(), graph.fns[s].line));
    }
    for (i, edges) in graph.edges.iter().enumerate() {
        for e in edges {
            if sink_set.contains(&e.callee) && !implicated_by.contains_key(&i) {
                roots.push(i);
                implicated_by.insert(i, (graph.fns[e.callee].display(), e.line));
            }
        }
    }
    let (order, parent) = bfs(graph, &roots);
    let mut out = Vec::new();
    let mut seen_sites: BTreeSet<(String, u32)> = BTreeSet::new();
    for f in order {
        let fi = &graph.fns[f];
        for site in &fi.sites {
            let is_source = matches!(
                site.kind,
                SiteKind::AmbientTime(_)
                    | SiteKind::AmbientEntropy(_)
                    | SiteKind::UnorderedContainer(_)
            );
            if !is_source || !seen_sites.insert((fi.path.clone(), site.line)) {
                continue;
            }
            let mut chain = chain_to(graph, &parent, f);
            let root = chain[0].clone();
            chain.push(site_step(fi, site));
            // The root fn is implicated by some sink call; name it.
            let root_idx = root_of(&parent, f);
            let (sink_name, sink_line) = implicated_by
                .get(&root_idx)
                .cloned()
                .unwrap_or_else(|| (root.func.clone(), root.line));
            let message = format!(
                "nondeterminism source {} flows into journaled output: `{}` writes `{}` ({}:{}); chain {}",
                describe(&site.kind),
                root.func,
                sink_name,
                root.path,
                sink_line,
                render_chain(&chain),
            );
            let alias = match &site.kind {
                SiteKind::AmbientTime(_) => Some("no-ambient-time"),
                SiteKind::AmbientEntropy(_) => Some("no-ambient-entropy"),
                _ => Some("no-unordered-iteration"),
            };
            out.push(InterFinding {
                rule: "nondet-taint",
                path: fi.path.clone(),
                line: site.line,
                root_path: root.path,
                root_line: root.line,
                chain,
                message,
                alias,
            });
        }
    }
    out
}

fn root_of(parent: &[Option<FnIdx>], mut f: FnIdx) -> FnIdx {
    while let Some(p) = parent[f] {
        f = p;
    }
    f
}

/// An edge in the lock digraph, with its witness location.
#[derive(Clone, Debug)]
struct LockEdge {
    to: String,
    /// Where `to` is acquired (or the call that leads to it) while the
    /// `from` lock is held.
    path: String,
    line: u32,
    /// The fn the witness sits in.
    func: String,
}

/// Pass 3: cycles in the lock-acquisition-order digraph.
pub fn lock_order(graph: &Graph) -> Vec<InterFinding> {
    // Transitive lock set per fn: every lock identity acquired in the
    // fn itself or anywhere in its callees (fixpoint).
    let n = graph.fns.len();
    let mut owned: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    for (i, f) in graph.fns.iter().enumerate() {
        for l in &f.locks {
            if let Some(id) = &l.lock_id {
                owned[i].insert(id.clone());
            }
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            for e in &graph.edges[i] {
                let add: Vec<String> =
                    owned[e.callee].iter().filter(|l| !owned[i].contains(*l)).cloned().collect();
                if !add.is_empty() {
                    owned[i].extend(add);
                    changed = true;
                }
            }
        }
    }

    // Edges: while span L is held in f, any direct acquisition of M or
    // any call whose callee (transitively) acquires M gives L -> M.
    let mut edges: BTreeMap<String, Vec<LockEdge>> = BTreeMap::new();
    let mut add_edge = |from: &str, to: &str, path: &str, line: u32, func: &str| {
        if from == to {
            return; // re-acquisition is a self-deadlock but not an order cycle
        }
        let list = edges.entry(from.to_string()).or_default();
        if !list.iter().any(|e| e.to == to) {
            list.push(LockEdge {
                to: to.to_string(),
                path: path.to_string(),
                line,
                func: func.to_string(),
            });
        }
    };
    for (i, f) in graph.fns.iter().enumerate() {
        for l in &f.locks {
            let Some(from) = &l.lock_id else { continue };
            for m in &f.locks {
                if let Some(to) = &m.lock_id {
                    if m.start_seq > l.start_seq && m.start_seq <= l.end_seq {
                        add_edge(from, to, &f.path, m.line, &f.display());
                    }
                }
            }
            for e in &graph.edges[i] {
                if e.seq > l.start_seq && e.seq <= l.end_seq {
                    for to in owned[e.callee].clone() {
                        add_edge(from, &to, &f.path, e.line, &f.display());
                    }
                }
            }
        }
    }

    // Cycle detection: DFS from each node in sorted order; report each
    // cycle once, canonicalised by its smallest rotation.
    let mut findings = Vec::new();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<&String> = edges.keys().collect();
    for &start in &nodes {
        let mut stack: Vec<(String, usize)> = vec![(start.clone(), 0)];
        let mut path_nodes: Vec<String> = vec![start.clone()];
        while let Some((node, ei)) = stack.last().cloned() {
            let next = edges.get(&node).and_then(|l| l.get(ei)).cloned();
            let Some(edge) = next else {
                stack.pop();
                path_nodes.pop();
                continue;
            };
            if let Some(s) = stack.last_mut() {
                s.1 += 1;
            }
            if edge.to == *start {
                // A cycle back to the DFS origin.
                let mut cyc = path_nodes.clone();
                // Canonical form: rotate so the smallest id leads.
                let min_pos =
                    cyc.iter().enumerate().min_by_key(|&(_, v)| v.clone()).map(|(i, _)| i);
                if let Some(p) = min_pos {
                    cyc.rotate_left(p);
                }
                if reported.insert(cyc.clone()) {
                    findings.push(cycle_finding(&path_nodes, &edges));
                }
            } else if !path_nodes.contains(&edge.to) && edges.contains_key(&edge.to) {
                path_nodes.push(edge.to.clone());
                stack.push((edge.to, 0));
            }
        }
    }
    findings
}

/// Builds the finding for one cycle (nodes in DFS path order).
fn cycle_finding(cycle: &[String], edges: &BTreeMap<String, Vec<LockEdge>>) -> InterFinding {
    let mut chain = Vec::new();
    let mut witness_bits = Vec::new();
    for (k, from) in cycle.iter().enumerate() {
        let to = &cycle[(k + 1) % cycle.len()];
        if let Some(e) = edges.get(from).and_then(|l| l.iter().find(|e| &e.to == to)) {
            chain.push(ChainStep {
                path: e.path.clone(),
                line: e.line,
                func: format!("{} holds `{from}`, takes `{to}`", e.func),
            });
            witness_bits.push(format!("`{from}` -> `{to}` in {} ({}:{})", e.func, e.path, e.line));
        }
    }
    let first = chain.first().cloned().unwrap_or(ChainStep {
        path: String::new(),
        line: 0,
        func: String::new(),
    });
    let order: Vec<&str> = cycle.iter().map(String::as_str).collect();
    let message = format!(
        "lock-order cycle (deadlock candidate): {} -> {}; {}",
        order.join(" -> "),
        order[0],
        witness_bits.join("; "),
    );
    InterFinding {
        rule: "lock-order-cycle",
        path: first.path.clone(),
        line: first.line,
        root_path: first.path,
        root_line: first.line,
        chain,
        message,
        alias: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_file;
    use std::collections::BTreeMap;

    fn graph(files: &[(&str, &str)]) -> Graph {
        let mut parsed = BTreeMap::new();
        for (path, src) in files {
            parsed.insert(path.to_string(), parse_file(path, &lex(src)));
        }
        Graph::build(&parsed)
    }

    #[test]
    fn panic_pass_reports_the_full_chain() {
        let g = graph(&[
            (
                "crates/serve/src/service.rs",
                "impl FleetService { pub fn tick(&mut self) { self.step(); } fn step(&mut self) { refine(1); } }\nfn refine(x: u8) { inner(x); }\nfn inner(x: u8) { Some(x).unwrap(); }",
            ),
        ]);
        let f = panic_reachability(&g, HOT_PATH_ROOTS);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "reachable-panic");
        // tick -> step -> refine -> inner -> site: 3+ call edges deep.
        assert_eq!(f[0].chain.len(), 5);
        assert_eq!(f[0].chain[0].func, "FleetService::tick");
        assert_eq!(f[0].chain[4].func, "`.unwrap()`");
        assert!(f[0].message.contains("service.rs:"));
    }

    #[test]
    fn panic_pass_ignores_unreachable_sites() {
        let g = graph(&[(
            "crates/serve/src/service.rs",
            "impl FleetService { pub fn tick(&mut self) {} }\nfn dead() { Some(1).unwrap(); }",
        )]);
        assert!(panic_reachability(&g, HOT_PATH_ROOTS).is_empty());
    }

    #[test]
    fn indexing_counts_only_in_service_crates() {
        let g = graph(&[
            (
                "crates/serve/src/service.rs",
                "impl FleetService { pub fn tick(&mut self, v: &[u8]) { let _ = v[9]; kernel(v); } }",
            ),
            ("crates/ml/src/kern.rs", "pub fn kernel(v: &[u8]) -> u8 { v[0] }"),
        ]);
        let f = panic_reachability(&g, HOT_PATH_ROOTS);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].path, "crates/serve/src/service.rs");
    }

    #[test]
    fn taint_pass_tracks_time_through_helpers() {
        let g = graph(&[
            (
                "crates/serve/src/service.rs",
                "impl FleetService { fn report(&self, o: &Obs) { o.event(\"t\", &[]); let t = stamp(); } }\nfn stamp() -> u64 { wall() }\nfn wall() -> u64 { Instant::now() }",
            ),
            ("crates/obs/src/registry.rs", "impl Obs { pub fn event(&self, k: &str, f: &[u8]) {} }"),
        ]);
        let f = nondet_taint(&g, OUTPUT_SINKS);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "nondet-taint");
        assert!(f[0].message.contains("Obs::event"), "{}", f[0].message);
        // report -> stamp -> wall -> site.
        assert_eq!(f[0].chain.len(), 4);
    }

    #[test]
    fn taint_pass_ignores_fns_that_never_reach_a_sink() {
        let g = graph(&[
            ("crates/serve/src/a.rs", "fn helper() -> u64 { Instant::now() }"),
            ("crates/obs/src/registry.rs", "impl Obs { pub fn event(&self, k: &str) {} }"),
        ]);
        assert!(nondet_taint(&g, OUTPUT_SINKS).is_empty());
    }

    #[test]
    fn lock_cycle_is_detected_across_fns() {
        let g = graph(&[(
            "crates/par/src/lib.rs",
            "impl Gate { fn a(&self, o: &Other) { let g = self.inner.lock(); o.b(); } }\nimpl Other { fn b(&self) { let g = self.state.lock(); } fn c(&self, q: &Gate) { let g = self.state.lock(); q.d(); } }\nimpl Gate { fn d(&self) { let g = self.inner.lock(); } }",
        )]);
        let f = lock_order(&g);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lock-order-cycle");
        assert!(f[0].message.contains("Gate::inner"), "{}", f[0].message);
        assert!(f[0].message.contains("Other::state"), "{}", f[0].message);
        assert_eq!(f[0].chain.len(), 2);
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let g = graph(&[(
            "crates/par/src/lib.rs",
            "impl Gate { fn a(&self, o: &Other) { let g = self.inner.lock(); o.b(); } }\nimpl Other { fn b(&self) { let g = self.state.lock(); } }",
        )]);
        assert!(lock_order(&g).is_empty());
    }

    #[test]
    fn sequential_spans_do_not_create_edges() {
        // Locks taken in disjoint blocks are never held together.
        let g = graph(&[(
            "crates/par/src/lib.rs",
            "impl Gate { fn a(&self) { { let g = self.inner.lock(); } { let h = self.other.lock(); } } fn b(&self) { { let h = self.other.lock(); } { let g = self.inner.lock(); } } }",
        )]);
        assert!(lock_order(&g).is_empty());
    }
}
