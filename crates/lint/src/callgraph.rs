//! Cross-crate call graph over the parsed workspace.
//!
//! Name resolution is deliberately conservative — an edge exists only
//! when the callee is unambiguous:
//!
//! * `self.m()` / `Self::m()` resolve against the enclosing impl type
//!   (falling back to the implemented trait's default methods);
//! * `Type::m()` resolves through the type index (with `use ... as`
//!   aliases applied first);
//! * `x.m()` on an unknown receiver resolves only when exactly **one**
//!   workspace type defines a method `m` — if several types share the
//!   name (trait impls, common names like `len`), the call stays
//!   unresolved rather than fan out to every candidate;
//! * free `f()` prefers same-crate definitions, then a unique
//!   cross-crate definition; `module::f()` uses the leading segment
//!   (`crate`/`alba_x`/...) as a crate hint.
//!
//! Unresolved calls are dropped edges (possible false negatives, listed
//! in DESIGN.md), never false edges. Test-context fns are excluded
//! entirely, so `#[cfg(test)]` callers cannot make a panic "reachable".

use crate::parse::{Call, CallTarget, FnItem, ParsedFile};
use std::collections::BTreeMap;

/// A function's index in [`Graph::fns`].
pub type FnIdx = usize;

/// One resolved call edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// The callee.
    pub callee: FnIdx,
    /// 1-based line of the call site in the caller.
    pub line: u32,
    /// Sequence number of the call within the caller's body.
    pub seq: u32,
}

/// The workspace call graph: parsed fns plus resolved edges.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// All non-test fns, ordered by (path, line) — deterministic.
    pub fns: Vec<FnItem>,
    /// Outgoing edges per fn, in call order.
    pub edges: Vec<Vec<Edge>>,
}

impl Graph {
    /// Builds the graph from per-file parses (path -> parse). Test fns
    /// are dropped before indexing so they neither produce nor receive
    /// edges.
    pub fn build(files: &BTreeMap<String, ParsedFile>) -> Graph {
        let mut fns: Vec<FnItem> = Vec::new();
        for parsed in files.values() {
            fns.extend(parsed.fns.iter().filter(|f| !f.is_test).cloned());
        }
        fns.sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));

        // Indices. Methods = fns with a self type (impl or trait body).
        let mut by_type_method: BTreeMap<(&str, &str), Vec<FnIdx>> = BTreeMap::new();
        let mut method_types: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        let mut free_by_crate: BTreeMap<(&str, &str), Vec<FnIdx>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<&str, Vec<FnIdx>> = BTreeMap::new();
        let mut type_traits: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            match &f.self_ty {
                Some(ty) => {
                    by_type_method.entry((ty, &f.name)).or_default().push(i);
                    let types = method_types.entry(&f.name).or_default();
                    if !types.contains(&ty.as_str()) {
                        types.push(ty);
                    }
                    if let Some(tr) = &f.trait_of {
                        if tr != ty {
                            let traits = type_traits.entry(ty.as_str()).or_default();
                            if !traits.contains(&tr.as_str()) {
                                traits.push(tr);
                            }
                        }
                    }
                }
                None => {
                    free_by_crate.entry((&f.crate_name, &f.name)).or_default().push(i);
                    free_by_name.entry(&f.name).or_default().push(i);
                }
            }
        }

        // Per-file alias maps: visible name -> (real name, crate hint).
        let mut aliases: BTreeMap<&str, BTreeMap<&str, (&str, Option<String>)>> = BTreeMap::new();
        for (path, parsed) in files {
            let map = aliases.entry(path).or_default();
            for (name, full) in &parsed.uses {
                let hint = full.first().and_then(|s| crate_hint(s, path));
                if let Some(real) = full.last() {
                    map.insert(name, (real, hint));
                }
            }
        }

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); fns.len()];
        for (i, f) in fns.iter().enumerate() {
            let file_aliases = aliases.get(f.path.as_str());
            for call in &f.calls {
                let callee = resolve(
                    call,
                    f,
                    &by_type_method,
                    &method_types,
                    &type_traits,
                    &free_by_crate,
                    &free_by_name,
                    file_aliases,
                );
                for c in callee {
                    edges[i].push(Edge { callee: c, line: call.line, seq: call.seq });
                }
            }
        }
        Graph { fns, edges }
    }

    /// Finds a fn by (path prefix, optional self type, name). Used to
    /// designate analysis roots; returns every match (e.g. `worker_loop`
    /// exists in both par and grid — the prefix disambiguates).
    pub fn find(&self, path_prefix: &str, self_ty: Option<&str>, name: &str) -> Vec<FnIdx> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.name == name
                    && f.path.starts_with(path_prefix)
                    && match self_ty {
                        Some(t) => f.self_ty.as_deref() == Some(t),
                        None => f.self_ty.is_none(),
                    }
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Total resolved edge count (for the bench / stats line).
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }
}

/// Maps a `use` path's leading segment to a crate-directory hint.
fn crate_hint(seg: &str, path: &str) -> Option<String> {
    match seg {
        "crate" | "self" | "super" => Some(crate::parse::crate_of(path)),
        _ => crate::parse::crate_of_extern(seg),
    }
}

/// Method names ubiquitous on std types. A workspace type defining one
/// of these must not capture every `x.iter()`-style call in the tree,
/// so the unique-name rule never applies to them (`self.m()` and
/// `Type::m()` still resolve precisely).
const COMMON_STD_METHODS: &[&str] = &[
    "abs",
    "all",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "borrow",
    "borrow_mut",
    "bytes",
    "ceil",
    "chars",
    "chunks",
    "clear",
    "clone",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copy_from_slice",
    "count",
    "drain",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "extend_from_slice",
    "fill",
    "filter",
    "find",
    "first",
    "flush",
    "floor",
    "fold",
    "get",
    "get_mut",
    "get_or_insert_with",
    "insert",
    "into_iter",
    "is_empty",
    "is_some",
    "is_none",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "map",
    "max",
    "min",
    "next",
    "parse",
    "partial_cmp",
    "pop",
    "position",
    "push",
    "push_str",
    "read",
    "read_to_end",
    "read_to_string",
    "recv",
    "remove",
    "replace",
    "reserve",
    "resize",
    "rev",
    "rotate_left",
    "rotate_right",
    "send",
    "set",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "split_at",
    "starts_with",
    "sum",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "values",
    "windows",
    "write",
    "write_all",
    "zip",
];

/// Resolves one call to zero or more callees (multiple only when the
/// same type name + method name has several impl blocks).
#[allow(clippy::too_many_arguments)]
fn resolve(
    call: &Call,
    caller: &FnItem,
    by_type_method: &BTreeMap<(&str, &str), Vec<FnIdx>>,
    method_types: &BTreeMap<&str, Vec<&str>>,
    type_traits: &BTreeMap<&str, Vec<&str>>,
    free_by_crate: &BTreeMap<(&str, &str), Vec<FnIdx>>,
    free_by_name: &BTreeMap<&str, Vec<FnIdx>>,
    aliases: Option<&BTreeMap<&str, (&str, Option<String>)>>,
) -> Vec<FnIdx> {
    match &call.target {
        CallTarget::SelfMethod(m) => {
            let Some(ty) = caller.self_ty.as_deref() else { return Vec::new() };
            let direct = lookup(by_type_method, ty, m);
            if !direct.is_empty() {
                return direct;
            }
            // Default trait method: `self.m()` where `m` lives in a
            // trait the type implements (or, inside `impl Tr for T`,
            // in `Tr` itself). Ambiguous across traits -> no edge.
            let mut traits: Vec<&str> = Vec::new();
            if let Some(tr) = caller.trait_of.as_deref() {
                traits.push(tr);
            }
            if let Some(ts) = type_traits.get(ty) {
                traits.extend(ts.iter().copied());
            }
            let mut hits: Vec<Vec<FnIdx>> = Vec::new();
            for tr in traits {
                let h = lookup(by_type_method, tr, m);
                if !h.is_empty() && !hits.contains(&h) {
                    hits.push(h);
                }
            }
            if hits.len() == 1 {
                hits.remove(0)
            } else {
                Vec::new()
            }
        }
        CallTarget::Method(m) => {
            // Unknown receiver: resolve only when exactly one workspace
            // type defines the method (else: ambiguous, no edge) and
            // the name isn't a ubiquitous std method.
            if COMMON_STD_METHODS.contains(&m.as_str()) {
                return Vec::new();
            }
            match method_types.get(m.as_str()) {
                Some(types) if types.len() == 1 => lookup(by_type_method, types[0], m),
                _ => Vec::new(),
            }
        }
        CallTarget::Path(segs) => {
            resolve_path(segs, caller, by_type_method, free_by_crate, free_by_name, aliases)
        }
    }
}

fn lookup(index: &BTreeMap<(&str, &str), Vec<FnIdx>>, ty: &str, m: &str) -> Vec<FnIdx> {
    index.get(&(ty, m)).cloned().unwrap_or_default()
}

fn resolve_path(
    segs: &[String],
    caller: &FnItem,
    by_type_method: &BTreeMap<(&str, &str), Vec<FnIdx>>,
    free_by_crate: &BTreeMap<(&str, &str), Vec<FnIdx>>,
    free_by_name: &BTreeMap<&str, Vec<FnIdx>>,
    aliases: Option<&BTreeMap<&str, (&str, Option<String>)>>,
) -> Vec<FnIdx> {
    let Some(name) = segs.last() else { return Vec::new() };

    if segs.len() >= 2 {
        let qual = &segs[segs.len() - 2];
        // `Type::assoc(...)` — type names are capitalised by repo
        // convention. Apply `use x::Real as Alias` renames first.
        if qual.chars().next().is_some_and(char::is_uppercase) {
            let real = match aliases.and_then(|a| a.get(qual.as_str())) {
                Some((real, _)) => real,
                None => qual.as_str(),
            };
            return lookup(by_type_method, real, name);
        }
    }

    // Free fn. Determine a crate hint from the path or the use map.
    let hint: Option<String> = if segs.len() >= 2 {
        crate_hint(&segs[0], &caller.path)
    } else {
        match aliases.and_then(|a| a.get(segs[0].as_str())) {
            Some((_, h)) => h.clone(),
            // Bare `f()`: same-crate first.
            None => Some(caller.crate_name.clone()),
        }
    };
    if let Some(h) = &hint {
        let hit = free_by_crate.get(&(h.as_str(), name.as_str())).cloned().unwrap_or_default();
        if !hit.is_empty() {
            return hit;
        }
        // A qualified path (`module::f`) whose hint resolved to a real
        // crate but found nothing stays unresolved (std / vendor).
        if segs.len() >= 2 {
            return Vec::new();
        }
    }
    // Unique cross-crate fallback for bare names.
    match free_by_name.get(name.as_str()) {
        Some(all) => {
            // Unique definition anywhere -> take it; ambiguous -> drop.
            if all.len() == 1 {
                all.clone()
            } else {
                Vec::new()
            }
        }
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    fn graph(files: &[(&str, &str)]) -> Graph {
        let mut parsed = BTreeMap::new();
        for (path, src) in files {
            parsed.insert(path.to_string(), parse_file(path, &lex(src)));
        }
        Graph::build(&parsed)
    }

    fn idx(g: &Graph, name: &str) -> FnIdx {
        g.fns.iter().position(|f| f.name == name).unwrap_or_else(|| panic!("no fn {name}"))
    }

    fn callees(g: &Graph, name: &str) -> Vec<String> {
        g.edges[idx(g, name)].iter().map(|e| g.fns[e.callee].display()).collect()
    }

    #[test]
    fn self_calls_resolve_within_the_impl() {
        let g = graph(&[(
            "crates/serve/src/service.rs",
            "impl FleetService { pub fn tick(&mut self) { self.tick_core(); } fn tick_core(&mut self) {} }",
        )]);
        assert_eq!(callees(&g, "tick"), vec!["FleetService::tick_core"]);
    }

    #[test]
    fn assoc_calls_resolve_across_crates() {
        let g = graph(&[
            ("crates/serve/src/a.rs", "fn run() { Store::open(); }"),
            ("crates/store/src/b.rs", "impl Store { pub fn open() {} }"),
        ]);
        assert_eq!(callees(&g, "run"), vec!["Store::open"]);
    }

    #[test]
    fn unknown_receiver_resolves_only_when_unique() {
        let g = graph(&[
            ("crates/serve/src/a.rs", "fn run(t: &Tracer, s: &S) { t.hop(); s.len(); }"),
            ("crates/trace/src/b.rs", "impl Tracer { pub fn hop(&self) {} }"),
            // Two types define `len` -> ambiguous -> no edge.
            (
                "crates/store/src/c.rs",
                "impl Seg { pub fn len(&self) {} } impl Buf { pub fn len(&self) {} }",
            ),
        ]);
        assert_eq!(callees(&g, "run"), vec!["Tracer::hop"]);
    }

    #[test]
    fn free_fns_prefer_same_crate() {
        let g = graph(&[
            ("crates/serve/src/a.rs", "fn run() { helper(); }\nfn helper() {}"),
            ("crates/ml/src/b.rs", "pub fn helper() {}"),
        ]);
        let e = &g.edges[idx(&g, "run")];
        assert_eq!(e.len(), 1);
        assert_eq!(g.fns[e[0].callee].crate_name, "serve");
    }

    #[test]
    fn crate_qualified_paths_use_the_hint() {
        let g = graph(&[
            ("crates/serve/src/a.rs", "fn run() { alba_ml::fit(); crate::local(); }"),
            ("crates/serve/src/b.rs", "pub fn local() {}"),
            ("crates/ml/src/c.rs", "pub fn fit() {}"),
        ]);
        let got = callees(&g, "run");
        assert_eq!(got, vec!["fit", "local"]);
    }

    #[test]
    fn use_aliases_rename_types() {
        let g = graph(&[
            ("crates/serve/src/a.rs", "use alba_ml::Fitted as Model;\nfn run() { Model::load(); }"),
            ("crates/ml/src/b.rs", "impl Fitted { pub fn load() {} }"),
        ]);
        assert_eq!(callees(&g, "run"), vec!["Fitted::load"]);
    }

    #[test]
    fn test_fns_are_excluded() {
        let g = graph(&[(
            "crates/serve/src/a.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests { fn t() { live(); } }",
        )]);
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn trait_default_methods_resolve_for_impls() {
        let g = graph(&[(
            "crates/net/src/a.rs",
            "trait Frontier { fn poll(&mut self); fn drain(&mut self) { self.poll(); } }\nimpl Frontier for Gateway { fn poll(&mut self) { self.step(); } }\nimpl Gateway { fn step(&mut self) { self.drain(); } }",
        )]);
        // Gateway::step -> Frontier::drain (default method).
        assert_eq!(callees(&g, "step"), vec!["Frontier::drain"]);
    }

    #[test]
    fn find_disambiguates_by_path_prefix() {
        let g = graph(&[
            ("crates/par/src/lib.rs", "fn worker_loop() {}"),
            ("crates/grid/src/runner.rs", "fn worker_loop() {}"),
        ]);
        let hits = g.find("crates/par/", None, "worker_loop");
        assert_eq!(hits.len(), 1);
        assert_eq!(g.fns[hits[0]].path, "crates/par/src/lib.rs");
    }
}
