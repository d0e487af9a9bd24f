//! `alba-lint` — workspace determinism & robustness lints.
//!
//! Every subsystem in this workspace leans on one invariant: *no
//! ambient nondeterminism and no panics on fallible paths*, because
//! serve's equal-seed event logs, store's bit-for-bit warm restarts and
//! chaos's replayable fault drills are all byte-identity contracts. The
//! end-to-end tests tell you when that invariant breaks; this crate
//! tells you *where*, before anything runs.
//!
//! One front end feeds both kinds of rules and one reporting pipeline:
//!
//! * the **front end** — the hand-rolled [`lexer`] (comments and
//!   strings can never fire) and an item parser ([`parse`]) that
//!   records, in one walk over the tokens, every fn item with its calls
//!   and locks, and every *site* (`.unwrap()`, `Instant::now`,
//!   `HashMap`, `std::fs`, ...) inside fn bodies and out;
//! * the **per-file rules** ([`rules`]) — a lookup from each site's
//!   kind, the file's path scope and its test context to a rule and a
//!   message;
//! * the **interprocedural passes** — a cross-crate call graph
//!   ([`callgraph`]) over the same parse, and three dataflow passes
//!   ([`dataflow`]): panic-reachability from hot-path roots,
//!   nondeterminism taint into journaled-output sinks, and lock-order
//!   cycle detection. Findings carry the full call chain, each step a
//!   clickable `file:line`.
//!
//! Suppressions ([`suppress`]) are reason-mandatory; interprocedural
//! findings are suppressible at the *source* (the panic/nondet site —
//! also via the matching per-file rule's name) or at the *root* (the
//! hot-path fn / sink caller — interprocedural rule name only). A
//! suppression naming an interprocedural rule that no longer silences
//! anything is itself reported (`stale-suppression`), so dead call
//! edges cannot leave dead allows behind. A tree passes exactly when
//! [`Report::is_clean`]: no finding and no stale suppression. Run as
//! `cargo run -p alba-lint`; `scripts/ci.sh` runs it as a hard gate.

pub mod callgraph;
pub mod dataflow;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod suppress;
pub mod walk;

use callgraph::Graph;
use dataflow::{lock_order, nondet_taint, panic_reachability, InterFinding};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The rules produced by the interprocedural passes.
pub const INTERPROCEDURAL_RULES: &[&str] = &["reachable-panic", "nondet-taint", "lock-order-cycle"];

/// Rule name of the diagnostics produced for suppressions that name an
/// interprocedural rule but no longer silence anything.
pub const STALE_SUPPRESSION: &str = "stale-suppression";

/// One reportable finding (post-suppression).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Finding {
    /// Rule that fired (or `bad-suppression`).
    pub rule: String,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human explanation.
    pub message: String,
    /// Interprocedural findings carry the call chain, root first, site
    /// last; per-file findings leave it empty.
    pub chain: Vec<dataflow::ChainStep>,
}

/// The outcome of linting a set of files.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Report {
    /// Findings not silenced by a suppression.
    pub findings: Vec<Finding>,
    /// Suppressions naming an interprocedural rule that silenced
    /// nothing.
    pub stale_suppressions: Vec<Finding>,
    /// Findings silenced by a reasoned suppression.
    pub suppressed: u64,
    /// Files scanned.
    pub files_scanned: u64,
    /// Non-test fns in the call graph.
    pub fns_analyzed: u64,
    /// Resolved call edges in the graph.
    pub call_edges: u64,
}

impl Report {
    /// The pass/fail rule: a tree passes when nothing fires and no
    /// suppression has gone stale.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.stale_suppressions.is_empty()
    }
}

/// Runs the per-file rules on one in-memory source file: the one-file
/// case of [`analyze_sources`], without the interprocedural findings
/// (a call graph of one file is not the workspace's). `path` is the
/// workspace-relative path (forward slashes) the rule scopes match
/// against.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let files = BTreeMap::from([(path.to_string(), src.to_string())]);
    let mut findings = analyze_sources(&files).findings;
    findings.retain(|f| !INTERPROCEDURAL_RULES.contains(&f.rule.as_str()));
    findings
}

/// Malformed or unknown-rule suppressions are findings themselves,
/// never silenceable.
fn push_suppression_findings(sup: &suppress::Suppressions, path: &str, out: &mut Vec<Finding>) {
    for bad in &sup.bad {
        out.push(Finding {
            rule: suppress::BAD_SUPPRESSION.to_string(),
            path: path.to_string(),
            line: bad.line,
            message: bad.detail.clone(),
            chain: Vec::new(),
        });
    }
    // A suppression naming an unknown rule is a typo that would silently
    // not protect anything — reject it loudly.
    for s in &sup.active {
        for r in &s.rules {
            if !rules::is_known_rule(r) {
                out.push(Finding {
                    rule: suppress::BAD_SUPPRESSION.to_string(),
                    path: path.to_string(),
                    line: s.line,
                    message: format!(
                        "allow names unknown rule `{r}` (see --rules for the catalog)"
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }
}

/// Runs the whole analysis over a set of in-memory sources
/// (workspace-relative path -> contents). This is what
/// [`lint_workspace`] runs; the fixture tests drive it directly.
pub fn analyze_sources(files: &BTreeMap<String, String>) -> Report {
    let mut report = Report::default();
    let mut sups: BTreeMap<String, suppress::Suppressions> = BTreeMap::new();
    let mut parsed: BTreeMap<String, parse::ParsedFile> = BTreeMap::new();

    // Stage 1: lex and parse once per file; suppression extraction and
    // the per-file rules read that one parse.
    for (path, src) in files {
        let lexed = lexer::lex(src);
        let sup = suppress::extract(&lexed);
        let file = parse::parse_file(path, &lexed);
        report.files_scanned += 1;
        push_suppression_findings(&sup, path, &mut report.findings);
        for raw in rules::check_file(path, &file) {
            if sup.silences(raw.rule, raw.line) {
                report.suppressed += 1;
            } else {
                report.findings.push(Finding {
                    rule: raw.rule.to_string(),
                    path: path.clone(),
                    line: raw.line,
                    message: raw.message,
                    chain: Vec::new(),
                });
            }
        }
        parsed.insert(path.clone(), file);
        sups.insert(path.clone(), sup);
    }

    // Stage 2: call graph + the three interprocedural passes.
    let graph = Graph::build(&parsed);
    report.fns_analyzed = graph.fns.len() as u64;
    report.call_edges = graph.edge_count() as u64;
    let mut inter = panic_reachability(&graph, dataflow::HOT_PATH_ROOTS);
    inter.extend(nondet_taint(&graph, dataflow::OUTPUT_SINKS));
    inter.extend(lock_order(&graph));

    // Stage 3: suppression scoping — a finding is silenceable at its
    // source site or at its root. Track which interprocedural
    // suppressions earned their keep.
    let mut used: BTreeSet<(String, u32)> = BTreeSet::new();
    for f in inter {
        if silences_inter(&sups, &f, &mut used) {
            report.suppressed += 1;
        } else {
            report.findings.push(Finding {
                rule: f.rule.to_string(),
                path: f.path,
                line: f.line,
                message: f.message,
                chain: f.chain,
            });
        }
    }
    for (path, sup) in &sups {
        for s in &sup.active {
            let names_inter = s.rules.iter().any(|r| INTERPROCEDURAL_RULES.contains(&r.as_str()));
            if names_inter && !used.contains(&(path.clone(), s.line)) {
                report.stale_suppressions.push(Finding {
                    rule: STALE_SUPPRESSION.to_string(),
                    path: path.clone(),
                    line: s.line,
                    message: format!(
                        "suppression names `{}` but silences no interprocedural finding — the call edge it covered is dead; remove the allow",
                        s.rules.join(", "),
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }

    report
        .findings
        .sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)).then(a.rule.cmp(&b.rule)));
    report.stale_suppressions.sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));
    report
}

/// Whether any suppression silences interprocedural finding `f` —
/// at the source (its own rule name or the matching per-file rule's) or at
/// the root (interprocedural rule name only). Every matching
/// suppression that names an interprocedural rule is marked used.
fn silences_inter(
    sups: &BTreeMap<String, suppress::Suppressions>,
    f: &InterFinding,
    used: &mut BTreeSet<(String, u32)>,
) -> bool {
    let mut hit = false;
    if let Some(sup) = sups.get(&f.path) {
        for s in &sup.active {
            let covers = s.whole_file || s.covers.contains(&f.line);
            let named = s.rules.iter().any(|r| r == f.rule || Some(r.as_str()) == f.alias);
            if covers && named {
                hit = true;
                if s.rules.iter().any(|r| INTERPROCEDURAL_RULES.contains(&r.as_str())) {
                    used.insert((f.path.clone(), s.line));
                }
            }
        }
    }
    if let Some(sup) = sups.get(&f.root_path) {
        for s in &sup.active {
            let covers = s.whole_file || s.covers.contains(&f.root_line);
            if covers && s.rules.iter().any(|r| r == f.rule) {
                hit = true;
                used.insert((f.root_path.clone(), s.line));
            }
        }
    }
    hit
}

/// Lints every workspace source under `root`: per-file rules and
/// interprocedural passes.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = BTreeMap::new();
    for abs in walk::workspace_sources(root)? {
        let rel = walk::relative_path(root, &abs);
        files.insert(rel, std::fs::read_to_string(&abs)?);
    }
    Ok(analyze_sources(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(files: &[(&str, &str)]) -> Report {
        let map: BTreeMap<String, String> =
            files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        analyze_sources(&map)
    }

    #[test]
    fn suppressed_findings_are_counted_not_reported() {
        let src = "struct S { m: HashMap<u8, u8> } // alba-lint: allow(no-unordered-iteration) reason=\"lookup only\"\n";
        let path = "crates/serve/src/x.rs";
        assert!(lint_source(path, src).is_empty());
        assert_eq!(analyze(&[(path, src)]).suppressed, 1);
    }

    #[test]
    fn reasonless_suppression_is_a_finding_and_does_not_silence() {
        let src = "struct S { m: HashMap<u8, u8> } // alba-lint: allow(no-unordered-iteration)\n";
        let found = lint_source("crates/serve/src/x.rs", src);
        let rules: Vec<&str> = found.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"bad-suppression"));
        assert!(rules.contains(&"no-unordered-iteration"), "unjustified allow must not silence");
    }

    #[test]
    fn unknown_rule_in_allow_is_rejected() {
        let src = "fn f() {} // alba-lint: allow(no-such-rule) reason=\"typo\"\n";
        let found = lint_source("crates/serve/src/x.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "bad-suppression");
        assert!(found[0].message.contains("no-such-rule"));
    }

    #[test]
    fn allow_file_silences_the_whole_file() {
        let src = "// alba-lint: allow-file(no-ambient-time) reason=\"the one sanctioned wall clock\"\nfn f() { let t = Instant::now(); }\nfn g() { let u = Instant::now(); }\n";
        assert!(lint_source("crates/obs/src/clock.rs", src).is_empty());
        assert_eq!(analyze(&[("crates/obs/src/clock.rs", src)]).suppressed, 2);
    }

    #[test]
    fn interprocedural_findings_flow_through_analyze() {
        let report = analyze(&[(
            "crates/serve/src/service.rs",
            "impl FleetService { pub fn tick(&mut self) { helper(); } }\nfn helper() { None::<u8>.unwrap(); }\n",
        )]);
        let reach: Vec<&Finding> =
            report.findings.iter().filter(|f| f.rule == "reachable-panic").collect();
        assert_eq!(reach.len(), 1);
        assert_eq!(reach[0].line, 2);
        assert_eq!(reach[0].chain.len(), 3, "tick -> helper -> site");
        assert!(report.fns_analyzed >= 2 && report.call_edges >= 1);
    }

    #[test]
    fn inter_findings_suppressible_at_source_via_alias() {
        let report = analyze(&[(
            "crates/serve/src/service.rs",
            "impl FleetService { pub fn tick(&mut self) { helper(); } }\nfn helper() { None::<u8>.unwrap(); } // alba-lint: allow(no-panic-in-fallible) reason=\"demo: cannot be none\"\n",
        )]);
        assert!(
            !report.findings.iter().any(|f| f.rule == "reachable-panic"),
            "{:?}",
            report.findings
        );
        // The alias suppression is a per-file-rule allow, not an
        // interprocedural one — it cannot go stale here.
        assert!(report.stale_suppressions.is_empty());
    }

    #[test]
    fn inter_findings_suppressible_at_the_root() {
        let report = analyze(&[(
            "crates/serve/src/service.rs",
            "impl FleetService { pub fn tick(&mut self) { helper(); } } // alba-lint: allow(reachable-panic) reason=\"demo: panic is the supervisor contract\"\nfn helper() { None::<u8>.unwrap(); }\n",
        )]);
        assert!(!report.findings.iter().any(|f| f.rule == "reachable-panic"));
        assert!(report.stale_suppressions.is_empty(), "{:?}", report.stale_suppressions);
    }

    #[test]
    fn dead_edge_suppression_goes_stale() {
        // The allow names reachable-panic but nothing reaches the site.
        let report = analyze(&[(
            "crates/serve/src/service.rs",
            "fn dead() { None::<u8>.unwrap(); } // alba-lint: allow(reachable-panic, no-panic-in-fallible) reason=\"demo: was reachable once\"\n",
        )]);
        assert!(!report.findings.iter().any(|f| f.rule == "reachable-panic"));
        assert_eq!(report.stale_suppressions.len(), 1);
        assert_eq!(report.stale_suppressions[0].rule, STALE_SUPPRESSION);
    }

    #[test]
    fn a_cfg_test_import_does_not_hide_the_file_from_the_graph() {
        let report = analyze(&[(
            "crates/serve/src/service.rs",
            "#[cfg(test)]\nuse crate::testutil::fake;\nimpl FleetService { pub fn tick(&mut self) { helper(); } }\nfn helper() { None::<u8>.unwrap(); }\n",
        )]);
        assert_eq!(report.fns_analyzed, 2);
        let reach: Vec<u32> = report
            .findings
            .iter()
            .filter(|f| f.rule == "reachable-panic")
            .map(|f| f.line)
            .collect();
        assert_eq!(reach, vec![4]);
    }

    #[test]
    fn a_cfg_test_module_declaration_exempts_only_itself() {
        let src = "#[cfg(test)] mod testutil;\npub fn live(v: Option<u8>) -> u8 { v.unwrap() }\n";
        let found = lint_source("crates/store/src/x.rs", src);
        let rules: Vec<(&str, u32)> = found.iter().map(|f| (f.rule.as_str(), f.line)).collect();
        assert_eq!(rules, vec![("no-panic-in-fallible", 2)]);
    }

    #[test]
    fn the_workspace_itself_is_clean() {
        // The real tree must lint clean: this is the `cargo test`
        // form of the CI gate.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = lint_workspace(&root).unwrap();
        let msgs: Vec<String> = report
            .findings
            .iter()
            .chain(&report.stale_suppressions)
            .map(|f| format!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message))
            .collect();
        assert!(
            report.is_clean(),
            "workspace findings and stale suppressions:\n{}",
            msgs.join("\n")
        );
        assert!(report.files_scanned > 50);
        assert!(report.suppressed > 0, "the justified suppressions must be exercised");
        // The interprocedural engine is actually engaged on the real
        // tree: the graph must be substantial.
        assert!(report.fns_analyzed > 300, "only {} fns", report.fns_analyzed);
        assert!(report.call_edges > 300, "only {} edges", report.call_edges);
    }
}
