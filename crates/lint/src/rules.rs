//! The rule catalog, the named path scopes, and the per-file rules.
//!
//! The per-file rules do not scan tokens themselves: the item parser
//! ([`crate::parse`]) records every site once, inside fn bodies and
//! outside them, and [`check_file`] looks each one up — site kind to
//! rule and message, kept when the file is in the rule's [`Scope`] and
//! the line is not exempt test code. The lexer drops comments, strings,
//! and raw strings, so patterns inside them can never fire.
//!
//! | rule | guards against |
//! |------|----------------|
//! | `no-float-partial-cmp` | `partial_cmp(..).unwrap()/expect(..)` float ordering — panics on NaN; use `total_cmp` |
//! | `no-ambient-time` | `Instant::now`/`SystemTime::now` outside the obs clock seam |
//! | `no-ambient-entropy` | `thread_rng`/`from_entropy`/`OsRng`/`getrandom` — all RNGs must be seeded |
//! | `no-unordered-iteration` | `HashMap`/`HashSet` in crates that serialise ordered output |
//! | `no-panic-in-fallible` | `unwrap`/`expect`/`panic!`-family on non-test runtime paths of the service crates |
//! | `no-direct-failpoint-bypass` | direct `std::fs`/`File`/`OpenOptions` I/O in serve, bypassing the store's `set_fault_hook` seam |
//! | `no-unbounded-channel` | `VecDeque::new`/`LinkedList::new`/`mpsc::channel` queues on the network ingest path — every buffer a peer can fill must be born bounded |
//! | `no-untraced-stage` | stage functions in serve's service.rs that open an obs span without touching the causal tracer — metrics and traces must cover the same stages |
//! | `no-unordered-join` | `try_iter`/`try_recv`/iterating a receiver in the parallel runtime — results must be joined by a counted blocking barrier, in slot order, never in arrival order |
//!
//! Three further rules — `reachable-panic`, `nondet-taint`,
//! `lock-order-cycle` — are produced by the interprocedural passes in
//! [`crate::dataflow`] from the same parse; they live in the same
//! catalog so `allow(...)` validation and `--rules` cover them.

use crate::parse::{ParsedFile, Site, SiteKind};

/// A single diagnostic before suppression filtering.
#[derive(Clone, Debug, PartialEq)]
pub struct RawFinding {
    /// Rule that fired.
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// Human explanation.
    pub message: String,
}

// ---- path scopes ----------------------------------------------------

/// A named set of workspace-relative paths (forward slashes) that a
/// rule, or a dataflow site kind, applies to. Scopes are deliberately
/// coarse: they guard the crates whose *outputs* must replay
/// byte-identically, not the type system.
#[derive(Debug)]
pub struct Scope {
    /// Name printed by `--rules`.
    pub name: &'static str,
    /// Paths in scope: a pattern ending in `/` is a directory prefix,
    /// any other pattern is one file. Empty means every path.
    pub only: &'static [&'static str],
    /// Patterns carved back out of `only`.
    pub except: &'static [&'static str],
}

impl Scope {
    /// Whether `path` is in this scope.
    pub fn contains(&self, path: &str) -> bool {
        let hit = |p: &&str| if p.ends_with('/') { path.starts_with(*p) } else { path == *p };
        (self.only.is_empty() || self.only.iter().any(hit)) && !self.except.iter().any(hit)
    }

    /// The paths, as `--rules` prints them.
    pub fn describe(&self) -> String {
        let only =
            if self.only.is_empty() { "every path".to_string() } else { self.only.join(", ") };
        if self.except.is_empty() {
            only
        } else {
            format!("{only} except {}", self.except.join(", "))
        }
    }
}

/// Every path.
pub const EVERYWHERE: Scope = Scope { name: "everywhere", only: &[], except: &[] };

/// The replayed pipeline: bench binaries and examples measure wall time
/// legitimately, and the lint tool itself is not part of the pipeline.
pub const PIPELINE: Scope =
    Scope { name: "pipeline", only: &[], except: &["crates/bench/", "examples/", "crates/lint/"] };

/// Crates whose outputs are serialised in order and byte-compared.
pub const ORDERED_OUTPUT: Scope = Scope {
    name: "ordered-output",
    only: &[
        "crates/serve/src/",
        "crates/store/src/",
        "crates/obs/src/",
        "crates/net/src/",
        "crates/trace/src/",
        "crates/grid/src/",
        "crates/par/src/",
        "crates/bench/src/bin/repro.rs",
    ],
    except: &[],
};

/// Runtime paths that must surface typed errors instead of panicking.
pub const NO_PANIC: Scope = Scope {
    name: "no-panic",
    only: &[
        "crates/serve/src/",
        "crates/store/src/",
        "crates/chaos/src/",
        "crates/net/src/",
        "crates/trace/src/",
        "crates/grid/src/",
    ],
    except: &[],
};

/// Where slice indexing counts as a `reachable-panic` site: the service
/// crates, whose contract is "no panics on runtime paths". The numeric
/// kernels in ml/features/core index behind length invariants as a
/// matter of course; their `unwrap`/`expect`/`panic!` still count
/// everywhere.
pub const INDEX: Scope = Scope {
    name: "index",
    only: &[
        "crates/serve/",
        "crates/store/",
        "crates/chaos/",
        "crates/net/",
        "crates/trace/",
        "crates/grid/",
        "crates/par/",
    ],
    except: &[],
};

/// Serve, whose persistence must cross the store's failpoint seam.
pub const SERVE_IO: Scope = Scope { name: "serve-io", only: &["crates/serve/src/"], except: &[] };

/// The network ingest path: buffers here are fillable by a remote peer,
/// so every queue must be born with an explicit capacity.
pub const NET_INGEST: Scope = Scope {
    name: "net-ingest",
    only: &["crates/net/src/", "crates/serve/src/ingest.rs"],
    except: &[],
};

/// The serve tick pipeline: the one file where obs stage spans and
/// alba-trace hops must move in lockstep.
pub const TRACED_STAGE: Scope =
    Scope { name: "traced-stage", only: &["crates/serve/src/service.rs"], except: &[] };

/// Code that joins worker results. Arrival-order consumption makes the
/// merge order scheduler-dependent, which is exactly the
/// non-determinism the epoch barrier exists to prevent.
pub const JOIN: Scope = Scope {
    name: "join",
    only: &["crates/par/src/", "crates/serve/src/service.rs", "crates/grid/src/runner.rs"],
    except: &[],
};

/// Whole files that are test context: integration tests, benches,
/// examples, and `testutil.rs` helpers.
pub fn is_test_file(path: &str) -> bool {
    path.starts_with("tests/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.starts_with("examples/")
        || path.contains("/examples/")
        || path.ends_with("/testutil.rs")
}

// ---- the catalog ----------------------------------------------------

/// Static description of one rule (the catalog entry).
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Kebab-case rule name, as used in `allow(...)`.
    pub name: &'static str,
    /// One-line description for `--rules` and the docs.
    pub summary: &'static str,
    /// The paths the rule fires in.
    pub scope: &'static Scope,
    /// Whether test code (test files, `#[cfg(test)]` items) is exempt.
    pub tests_exempt: bool,
}

/// The full rule catalog, in reporting order.
pub const CATALOG: &[RuleInfo] = &[
    RuleInfo {
        name: "no-float-partial-cmp",
        summary: "float ordering must use total_cmp; partial_cmp().unwrap()/expect() panics on NaN",
        scope: &EVERYWHERE,
        tests_exempt: false,
    },
    RuleInfo {
        name: "no-ambient-time",
        summary: "Instant::now/SystemTime::now only inside the obs clock seam (crates/obs/src/clock.rs)",
        scope: &PIPELINE,
        tests_exempt: false,
    },
    RuleInfo {
        name: "no-ambient-entropy",
        summary: "thread_rng/from_entropy/OsRng/getrandom forbidden; every RNG must be explicitly seeded",
        scope: &EVERYWHERE,
        tests_exempt: false,
    },
    RuleInfo {
        name: "no-unordered-iteration",
        summary: "HashMap/HashSet forbidden where output is serialised in order; use BTreeMap/BTreeSet or justify lookup-only use",
        scope: &ORDERED_OUTPUT,
        tests_exempt: true,
    },
    RuleInfo {
        name: "no-panic-in-fallible",
        summary: "unwrap/expect/panic!/unreachable!/todo!/unimplemented! forbidden on non-test service runtime paths",
        scope: &NO_PANIC,
        tests_exempt: true,
    },
    RuleInfo {
        name: "no-direct-failpoint-bypass",
        summary: "serve must not do filesystem I/O directly; store I/O routes through alba-store and its set_fault_hook seam",
        scope: &SERVE_IO,
        tests_exempt: true,
    },
    RuleInfo {
        name: "no-unbounded-channel",
        summary: "VecDeque::new/LinkedList::new/mpsc::channel forbidden on the network ingest path; queues a peer can fill must use with_capacity plus an enforced bound",
        scope: &NET_INGEST,
        tests_exempt: true,
    },
    RuleInfo {
        name: "no-untraced-stage",
        summary: "a serve service.rs function that opens an obs stage span must also record alba-trace hops, so causal traces cover every stage the metrics cover",
        scope: &TRACED_STAGE,
        tests_exempt: true,
    },
    RuleInfo {
        name: "no-unordered-join",
        summary: "try_iter/try_recv/iterating a receiver forbidden in the parallel runtime; join worker results with a counted blocking recv and reorder by slot, never by arrival",
        scope: &JOIN,
        tests_exempt: true,
    },
    RuleInfo {
        name: "reachable-panic",
        summary: "interprocedural: no unwrap/expect/panic!-family/indexing transitively reachable from the hot-path roots (FleetService::tick, par epoch/workers, gateway poll, grid workers); reported with the full call chain",
        scope: &EVERYWHERE,
        tests_exempt: true,
    },
    RuleInfo {
        name: "nondet-taint",
        summary: "interprocedural: ambient time/entropy and unordered containers must not be reachable from fns whose output is journaled (obs events/exposition, traces, model serialisation)",
        scope: &EVERYWHERE,
        tests_exempt: true,
    },
    RuleInfo {
        name: "lock-order-cycle",
        summary: "interprocedural: the lock-acquisition-order graph over Type::field lock identities must be acyclic; a cycle is a deadlock candidate",
        scope: &EVERYWHERE,
        tests_exempt: true,
    },
];

/// Every named scope, as `--rules` lists them.
pub const SCOPES: &[&Scope] = &[
    &EVERYWHERE,
    &PIPELINE,
    &ORDERED_OUTPUT,
    &NO_PANIC,
    &INDEX,
    &SERVE_IO,
    &NET_INGEST,
    &TRACED_STAGE,
    &JOIN,
];

/// The catalog entry for `name`.
fn rule_info(name: &str) -> Option<&'static RuleInfo> {
    CATALOG.iter().find(|r| r.name == name)
}

/// True when `name` is a known rule (for validating `allow(...)` lists).
pub fn is_known_rule(name: &str) -> bool {
    name == crate::suppress::BAD_SUPPRESSION || rule_info(name).is_some()
}

// ---- the per-file rules ---------------------------------------------

/// The per-file rule that reports a site of this kind, if any.
fn site_rule(kind: &SiteKind) -> Option<&'static str> {
    Some(match kind {
        SiteKind::FloatPartialCmp => "no-float-partial-cmp",
        SiteKind::AmbientTime(_) => "no-ambient-time",
        SiteKind::AmbientEntropy(_) => "no-ambient-entropy",
        SiteKind::UnorderedContainer(_) => "no-unordered-iteration",
        SiteKind::PanicUnwrap(_) | SiteKind::PanicMacro(_) => "no-panic-in-fallible",
        SiteKind::FsIo(_) => "no-direct-failpoint-bypass",
        SiteKind::UnboundedQueue(_) => "no-unbounded-channel",
        SiteKind::ArrivalJoin(_) | SiteKind::ReceiverLoop(_) => "no-unordered-join",
        SiteKind::Index => return None,
    })
}

/// The message a site reports under its [`site_rule`].
fn site_message(kind: &SiteKind) -> String {
    match kind {
        SiteKind::FloatPartialCmp => {
            "partial_cmp().unwrap()/expect() panics on NaN; order floats with total_cmp".to_string()
        }
        SiteKind::AmbientTime(src) => format!(
            "{src}::now() is ambient time; route through the alba-obs Clock seam \
             (WallClock/TickClock) so replays stay byte-identical"
        ),
        SiteKind::AmbientEntropy(s) => format!(
            "`{s}` draws ambient entropy; derive every RNG from an explicit seed \
             (SeedableRng::seed_from_u64)"
        ),
        SiteKind::UnorderedContainer(s) => format!(
            "`{s}` iteration order is seeded by ambient RandomState; in a crate \
             that serialises ordered output use BTreeMap/BTreeSet, sort before \
             emitting, or justify a lookup-only use with an allow"
        ),
        SiteKind::PanicUnwrap(what) => format!(
            "`.{what}()` on a runtime path; return a typed error (or justify an \
             infallible-by-construction case with an allow)"
        ),
        SiteKind::PanicMacro(mac) => format!(
            "`{mac}!` on a runtime path; surface a typed error instead of \
             crashing the service"
        ),
        SiteKind::FsIo(what) => format!(
            "direct `{what}` I/O in serve bypasses the store's set_fault_hook \
             failpoint seam; route persistence through alba-store APIs"
        ),
        SiteKind::UnboundedQueue(what) => format!(
            "`{what}` creates an unbounded queue on the network ingest path; a \
             hostile or bursty peer can grow it without limit — use with_capacity \
             and shed (BUSY) past the bound, or justify with an allow"
        ),
        SiteKind::ArrivalJoin(what) => format!(
            "`.{what}()` consumes worker results in arrival order; join with a \
             counted blocking recv and reorder by slot index so the merge is \
             scheduler-independent"
        ),
        SiteKind::ReceiverLoop(rx) => format!(
            "`for … in` over receiver `{rx}` drains results in completion \
             order; use a counted blocking recv loop and reorder by slot \
             index instead"
        ),
        SiteKind::Index => String::new(),
    }
}

/// Runs every per-file rule over one parsed file. Suppressions are NOT
/// applied here — the caller filters (so it can also count suppressed
/// findings).
pub fn check_file(path: &str, file: &ParsedFile) -> Vec<RawFinding> {
    let applies = |rule: &str, line: u32| {
        rule_info(rule)
            .is_some_and(|r| r.scope.contains(path) && !(r.tests_exempt && file.is_test_line(line)))
    };
    let mut out = Vec::new();

    // Sites in source order, so same-line findings keep token order.
    let mut sites: Vec<&Site> = file.fns.iter().flat_map(|f| &f.sites).chain(&file.sites).collect();
    sites.sort_by_key(|s| s.seq);
    for site in sites {
        if let Some(rule) = site_rule(&site.kind).filter(|r| applies(r, site.line)) {
            out.push(RawFinding { rule, line: site.line, message: site_message(&site.kind) });
        }
    }

    // no-untraced-stage: a fn that opens an obs stage span must also
    // touch the causal tracer — otherwise the stage is visible to
    // metrics but invisible to trace replay.
    for f in &file.fns {
        if f.opens_span && !f.touches_tracer && applies("no-untraced-stage", f.line) {
            out.push(RawFinding {
                rule: "no-untraced-stage",
                line: f.line,
                message: format!(
                    "`{}` opens an obs stage span but never records an alba-trace hop; \
                     every pipeline stage must appear in the causal trace (record a hop, or \
                     justify a metrics-only stage with an allow)",
                    f.name
                ),
            });
        }
    }

    out.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    fn run(path: &str, src: &str) -> Vec<RawFinding> {
        check_file(path, &parse_file(path, &lex(src)))
    }

    fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
        run(path, src).into_iter().map(|f| f.rule).collect()
    }

    // ---- no-float-partial-cmp ---------------------------------------

    #[test]
    fn partial_cmp_unwrap_fires_anywhere() {
        let src = "fn f(a: &[f64], b: f64) { let mut v = a.to_vec(); v.sort_by(|x, y| x.partial_cmp(y).unwrap()); }";
        assert_eq!(rules_fired("crates/core/src/x.rs", src), vec!["no-float-partial-cmp"]);
        let src2 = "fn g() { let _ = a.partial_cmp(&b).expect(\"finite\"); }";
        assert_eq!(rules_fired("tests/t.rs", src2), vec!["no-float-partial-cmp"]);
    }

    #[test]
    fn partial_cmp_with_nan_handling_is_fine() {
        let src = "fn f() { let o = a.partial_cmp(&b).unwrap_or(core::cmp::Ordering::Equal); let t = a.total_cmp(&b); }";
        assert!(rules_fired("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn partial_cmp_with_nested_parens_still_matches() {
        let src = "fn f() { v.sort_by(|a, b| score(a).partial_cmp(&score(b)).unwrap()); }";
        assert_eq!(rules_fired("crates/ml/src/x.rs", src), vec!["no-float-partial-cmp"]);
    }

    // ---- no-ambient-time --------------------------------------------

    #[test]
    fn ambient_time_fires_in_pipeline_crates() {
        let src = "fn f() { let t = Instant::now(); let w = std::time::SystemTime::now(); }";
        assert_eq!(
            rules_fired("crates/serve/src/x.rs", src),
            vec!["no-ambient-time", "no-ambient-time"]
        );
    }

    #[test]
    fn ambient_time_is_allowed_in_bench_and_examples() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(rules_fired("crates/bench/src/bin/repro.rs", src).is_empty());
        assert!(rules_fired("examples/fleet_monitor.rs", src).is_empty());
    }

    // ---- no-ambient-entropy -----------------------------------------

    #[test]
    fn ambient_entropy_fires_everywhere_even_tests() {
        assert_eq!(
            rules_fired("crates/serve/src/x.rs", "fn f() { let mut rng = thread_rng(); }"),
            vec!["no-ambient-entropy"]
        );
        assert_eq!(
            rules_fired("tests/t.rs", "fn f() { let r = StdRng::from_entropy(); }"),
            vec!["no-ambient-entropy"]
        );
        assert_eq!(
            rules_fired("crates/bench/benches/b.rs", "use rand::rngs::OsRng;"),
            vec!["no-ambient-entropy"]
        );
    }

    #[test]
    fn seeded_rngs_are_fine() {
        let src = "fn f() { let r = StdRng::seed_from_u64(42); }";
        assert!(rules_fired("crates/serve/src/x.rs", src).is_empty());
    }

    // ---- no-unordered-iteration -------------------------------------

    #[test]
    fn hashmap_fires_in_output_sensitive_crates_only() {
        let src = "struct S { m: HashMap<u32, u32> }";
        assert_eq!(rules_fired("crates/serve/src/x.rs", src), vec!["no-unordered-iteration"]);
        assert_eq!(rules_fired("crates/obs/src/x.rs", src), vec!["no-unordered-iteration"]);
        assert!(rules_fired("crates/chaos/src/x.rs", src).is_empty(), "chaos is out of scope");
        assert!(rules_fired("crates/ml/src/x.rs", src).is_empty());
    }

    #[test]
    fn hashmap_in_use_items_and_tests_is_exempt() {
        let src = "use std::collections::HashMap;\nfn f() {}\n#[cfg(test)]\nmod tests { fn g() { let m: HashMap<u8, u8> = HashMap::new(); } }";
        assert!(rules_fired("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn btreemap_is_always_fine() {
        let src = "use std::collections::BTreeMap;\nstruct S { m: BTreeMap<u32, u32> }";
        assert!(rules_fired("crates/obs/src/x.rs", src).is_empty());
    }

    // ---- no-panic-in-fallible ---------------------------------------

    #[test]
    fn unwrap_fires_on_runtime_paths_of_guarded_crates() {
        let src = "fn f(v: Option<u8>) -> u8 { v.unwrap() }";
        assert_eq!(rules_fired("crates/store/src/x.rs", src), vec!["no-panic-in-fallible"]);
        assert_eq!(rules_fired("crates/chaos/src/x.rs", src), vec!["no-panic-in-fallible"]);
        assert!(rules_fired("crates/ml/src/x.rs", src).is_empty(), "ml is out of scope");
    }

    #[test]
    fn panic_macros_fire_but_not_panic_any() {
        let src = "fn f(x: u8) { if x > 3 { panic!(\"bad\"); } else { unreachable!() } }";
        let fired = rules_fired("crates/serve/src/x.rs", src);
        assert_eq!(fired, vec!["no-panic-in-fallible", "no-panic-in-fallible"]);
        // panic_any is the sanctioned chaos-injection channel.
        let src2 = "fn g() { std::panic::panic_any(InjectedPanic); }";
        assert!(rules_fired("crates/serve/src/x.rs", src2).is_empty());
    }

    #[test]
    fn test_modules_and_test_files_are_exempt() {
        let src = "fn f() -> u8 { 1 }\n#[cfg(test)]\nmod tests { #[test] fn t() { Some(1).unwrap(); panic!(\"in test\"); } }";
        assert!(rules_fired("crates/store/src/x.rs", src).is_empty());
        assert!(
            rules_fired("crates/store/tests/durability.rs", "fn t() { x.unwrap(); }").is_empty()
        );
        assert!(
            rules_fired("crates/store/src/testutil.rs", "fn t() { x.expect(\"e\"); }").is_empty()
        );
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = "fn f(v: Option<u8>) -> u8 { v.unwrap_or(0) + v.unwrap_or_else(|| 1) + v.unwrap_or_default() }";
        assert!(rules_fired("crates/serve/src/x.rs", src).is_empty());
    }

    // ---- no-direct-failpoint-bypass ---------------------------------

    #[test]
    fn direct_fs_io_in_serve_fires() {
        let src = "fn f() { let _ = std::fs::read(\"x\"); }";
        assert_eq!(rules_fired("crates/serve/src/x.rs", src), vec!["no-direct-failpoint-bypass"]);
        let src2 = "fn f() { let _ = File::open(\"x\"); }";
        assert_eq!(rules_fired("crates/serve/src/x.rs", src2), vec!["no-direct-failpoint-bypass"]);
    }

    #[test]
    fn fs_io_outside_serve_src_is_fine() {
        let src = "fn f() { let _ = std::fs::read(\"x\"); }";
        assert!(rules_fired("crates/store/src/x.rs", src).is_empty());
        assert!(rules_fired("crates/serve/tests/t.rs", src).is_empty());
    }

    // ---- no-unbounded-channel ---------------------------------------

    #[test]
    fn unbounded_queues_fire_on_the_net_ingest_path() {
        let src = "fn f() { let q: VecDeque<u8> = VecDeque::new(); }";
        assert_eq!(rules_fired("crates/net/src/conn.rs", src), vec!["no-unbounded-channel"]);
        assert_eq!(rules_fired("crates/serve/src/ingest.rs", src), vec!["no-unbounded-channel"]);
        let src2 = "fn g() { let (tx, rx) = mpsc::channel(); }";
        assert_eq!(rules_fired("crates/net/src/gateway.rs", src2), vec!["no-unbounded-channel"]);
        let src3 = "fn h() { let l = LinkedList::new(); }";
        assert_eq!(rules_fired("crates/net/src/client.rs", src3), vec!["no-unbounded-channel"]);
    }

    #[test]
    fn bounded_queues_and_out_of_scope_paths_are_fine() {
        let bounded = "fn f(cap: usize) { let q: VecDeque<u8> = VecDeque::with_capacity(cap); }";
        assert!(rules_fired("crates/net/src/conn.rs", bounded).is_empty());
        // Outside the ingest path, unbounded queues are not this rule's
        // business (other crates are not peer-fillable).
        let unbounded = "fn f() { let q: VecDeque<u8> = VecDeque::new(); }";
        assert!(rules_fired("crates/serve/src/service.rs", unbounded).is_empty());
        assert!(rules_fired("crates/store/src/wal.rs", unbounded).is_empty());
        // Test modules on the ingest path are exempt.
        let test_src = "fn f() {}\n#[cfg(test)]\nmod tests { fn g() { let q: VecDeque<u8> = VecDeque::new(); } }";
        assert!(rules_fired("crates/net/src/conn.rs", test_src).is_empty());
    }

    // ---- no-untraced-stage ------------------------------------------

    #[test]
    fn span_without_tracer_fires_only_in_service_rs() {
        let src =
            "impl S { fn tick(&self) { let s = self.obs.span(\"stage_ns\", &[]); s.finish(); } }";
        assert_eq!(rules_fired("crates/serve/src/service.rs", src), vec!["no-untraced-stage"]);
        assert!(rules_fired("crates/serve/src/shard.rs", src).is_empty(), "only service.rs");
    }

    #[test]
    fn stage_fns_touching_the_tracer_are_fine() {
        let hopped = "impl S { fn tick(&self) { let s = self.obs.span(\"stage_ns\", &[]); s.finish(); self.tracer.hop(); } }";
        assert!(rules_fired("crates/serve/src/service.rs", hopped).is_empty());
        let helper = "impl S { fn tick(&self) { let s = self.obs.span(\"x\", &[]); self.trace_stage(0); s.finish(); } }";
        assert!(rules_fired("crates/serve/src/service.rs", helper).is_empty());
        let spanless = "impl S { fn stats(&self) -> u8 { 1 } }";
        assert!(rules_fired("crates/serve/src/service.rs", spanless).is_empty());
    }

    #[test]
    fn untraced_spans_in_test_modules_are_exempt() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests { fn t(o: &Obs) { let s = o.span(\"x\", &[]); s.finish(); } }";
        assert!(rules_fired("crates/serve/src/service.rs", src).is_empty());
    }

    // ---- no-unordered-join ------------------------------------------

    #[test]
    fn arrival_order_joins_fire_in_the_parallel_runtime() {
        let src = "fn f(rx: &Receiver<u8>) { for r in rx.try_iter() { use_it(r); } }";
        // Both the try_iter call and the for-over-rx header fire.
        assert_eq!(
            rules_fired("crates/par/src/lib.rs", src),
            vec!["no-unordered-join", "no-unordered-join"]
        );
        let src2 = "fn g(results_rx: &Receiver<u8>) { while let Ok(r) = results_rx.try_recv() { use_it(r); } }";
        assert_eq!(rules_fired("crates/serve/src/service.rs", src2), vec!["no-unordered-join"]);
        let src3 = "fn h(receiver: Receiver<u8>) { for r in receiver { use_it(r); } }";
        assert_eq!(rules_fired("crates/grid/src/runner.rs", src3), vec!["no-unordered-join"]);
    }

    #[test]
    fn counted_blocking_joins_are_fine() {
        // The sanctioned barrier: block on recv exactly n times, then
        // reorder by slot — no arrival-order iteration anywhere.
        let src = "fn f(rx: &Receiver<(usize, u8)>, n: usize) { let mut got = 0; while got < n { let (slot, r) = rx.recv().unwrap_or_default(); out[slot] = r; got += 1; } }";
        assert!(rules_fired("crates/par/src/lib.rs", src).is_empty());
        let shutdown = "fn d(rx: &Receiver<u8>) { while let Ok(m) = rx.recv() { handle(m); } }";
        assert!(rules_fired("crates/par/src/lib.rs", shutdown).is_empty());
    }

    #[test]
    fn unordered_joins_outside_the_join_scope_or_in_tests_are_exempt() {
        let src = "fn f(rx: &Receiver<u8>) { for r in rx.try_iter() { use_it(r); } }";
        assert!(rules_fired("crates/net/src/conn.rs", src).is_empty(), "net is out of scope");
        assert!(rules_fired("crates/serve/src/shard.rs", src).is_empty(), "only service.rs");
        let test_src = "fn ok() {}\n#[cfg(test)]\nmod tests { fn t(rx: &Receiver<u8>) { for r in rx.try_iter() {} } }";
        assert!(rules_fired("crates/par/src/lib.rs", test_src).is_empty());
        // Idents merely *containing* rx (matrix …) are not receivers.
        let matrix = "fn f(matrix: &Matrix) { for row in matrix.rows() { use_it(row); } }";
        assert!(rules_fired("crates/par/src/lib.rs", matrix).is_empty());
        // `for<'a>` higher-ranked bounds are not loops.
        let hrtb = "fn f<F: for<'a> Fn(&'a u8)>(g: F) { g(&1); }";
        assert!(rules_fired("crates/par/src/lib.rs", hrtb).is_empty());
    }

    // ---- context classification -------------------------------------

    #[test]
    fn cfg_test_region_detection_handles_nested_cfgs() {
        let path = "crates/serve/src/x.rs";
        let nested = lex("fn f() {}\n#[cfg(all(test, feature = \"x\"))]\nmod tests {}\n");
        assert_eq!(parse_file(path, &nested).test_items, vec![(2, 3)]);
        let other = lex("#[cfg(feature = \"slow\")]\nmod slow {}\n");
        assert!(parse_file(path, &other).test_items.is_empty());
    }

    #[test]
    fn cfg_test_exempts_only_the_item_it_annotates() {
        // A test-only item ends at its closing brace; the live code
        // after it is checked again.
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn live() { y.unwrap(); }\n";
        let fired = run("crates/store/src/x.rs", src);
        assert_eq!(fired.iter().map(|f| f.line).collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn findings_inside_comments_and_strings_never_fire() {
        let src = concat!(
            "// thread_rng() Instant::now() HashMap x.partial_cmp(y).unwrap()\n",
            "/* SystemTime::now() panic!(\"no\") */\n",
            "fn f() -> &'static str { \"thread_rng OsRng std::fs::read\" }\n",
            "const R: &str = r#\"Instant::now() .unwrap()\"#;\n",
        );
        assert!(rules_fired("crates/serve/src/x.rs", src).is_empty());
    }
}
