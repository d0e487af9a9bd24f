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
//! Writes `results/BENCH_lint.json` — a trajectory point for
//! `scripts/bench_gate.sh` — and prints the same numbers.
//!
//! Environment knobs:
//!
//! * `ALBA_BENCH_QUICK=1` — fewer reps.
//!
//! Run with: `cargo bench -p alba-bench --bench lint_throughput`

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use alba_lint::{analyze_sources, walk};

fn main() {
    let quick = std::env::var("ALBA_BENCH_QUICK").is_ok_and(|v| v == "1");
    let reps = if quick { 3 } else { 7 };

    // `cargo bench` runs with cwd = the package dir; anchor at the
    // workspace root explicitly.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
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
    for _ in 0..reps {
        let t = Instant::now();
        let report = analyze_sources(&files);
        best = best.min(t.elapsed().as_secs_f64().max(1e-9));
        assert!(report.findings.is_empty(), "the tree must be clean: {:?}", report.findings);
        fns = report.fns_analyzed;
        edges = report.call_edges;
    }

    let files_per_sec = n_files as f64 / best;
    let lines_per_sec = n_lines as f64 / best;
    let ns_per_fn = best * 1e9 / fns.max(1) as f64;

    println!(
        "lint/full     {n_files} files, {fns} fns / {edges} edges {files_per_sec:>10.0} files/s"
    );
    println!("lint/full     {n_lines} lines           {lines_per_sec:>14.0} lines/s");
    println!("lint/full     per function         {ns_per_fn:>14.0} ns/fn");

    let json = format!(
        "{{\n  \"bench\": \"lint_throughput\",\n  \"quick\": {},\n  \
         \"files\": {},\n  \
         \"lines\": {},\n  \
         \"fns_analyzed\": {},\n  \
         \"call_edges\": {},\n  \
         \"lint_files_per_sec\": {:.0},\n  \
         \"lint_lines_per_sec\": {:.0},\n  \
         \"interproc_ns_per_fn\": {:.0}\n}}\n",
        quick, n_files, n_lines, fns, edges, files_per_sec, lines_per_sec, ns_per_fn,
    );
    let results = root.join("results");
    std::fs::create_dir_all(&results).expect("create results dir");
    std::fs::write(results.join("BENCH_lint.json"), json).expect("write results/BENCH_lint.json");
    println!("lint/json     wrote results/BENCH_lint.json");
}
