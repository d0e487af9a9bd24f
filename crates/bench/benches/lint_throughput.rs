//! Linter throughput: the full interprocedural pipeline over the
//! workspace's own sources.
//!
//! The corpus is the real tree (every file `alba-lint` itself scans),
//! loaded once up front so timings measure analysis, not I/O. Each rep
//! runs `analyze_sources` — lex, parse (the one front end), per-file
//! rules, call-graph build, and the three dataflow passes (panic
//! reachability, nondeterminism taint, lock order) — and the best of
//! `reps` is reported.
//!
//! Writes `results/BENCH_lint.json` through [`alba_bench::Report`].
//!
//! Run with: `cargo bench -p alba-bench --bench lint_throughput`

use std::collections::BTreeMap;
use std::time::Instant;

use alba_bench::{workspace_root, Better, Op, Report};
use alba_lint::{analyze_sources, walk};

fn main() {
    let root = workspace_root();
    let mut files: BTreeMap<String, String> = BTreeMap::new();
    for abs in walk::workspace_sources(&root).expect("walk workspace") {
        let rel = walk::relative_path(&root, &abs);
        files.insert(rel, std::fs::read_to_string(&abs).expect("read source"));
    }
    let n_files = files.len();
    let n_lines: usize = files.values().map(|s| s.lines().count()).sum();

    let mut best = f64::MAX;
    let mut fns = 0u64;
    let mut edges = 0u64;
    for _ in 0..3 {
        let t = Instant::now();
        let report = analyze_sources(&files);
        best = best.min(t.elapsed().as_secs_f64().max(1e-9));
        assert!(report.findings.is_empty(), "the tree must be clean: {:?}", report.findings);
        fns = report.fns_analyzed;
        edges = report.call_edges;
    }

    Report::new("lint_throughput")
        .metric("files", n_files as f64, "files", Better::Info)
        .metric("lines", n_lines as f64, "lines", Better::Info)
        .metric("fns_analyzed", fns as f64, "fns", Better::Info)
        .metric("call_edges", edges as f64, "edges", Better::Info)
        .metric("lint_files_per_sec", n_files as f64 / best, "files/s", Better::Higher)
        .metric("lint_lines_per_sec", n_lines as f64 / best, "lines/s", Better::Higher)
        .metric("interproc_ns_per_fn", best * 1e9 / fns.max(1) as f64, "ns", Better::Lower)
        .require("fns_analyzed", Op::Above, 300.0)
        .require("call_edges", Op::Above, 300.0)
        .require("lint_files_per_sec", Op::Above, 0.0)
        .require("lint_lines_per_sec", Op::Above, 0.0)
        .require("interproc_ns_per_fn", Op::Above, 0.0)
        .finish("BENCH_lint.json");
}
