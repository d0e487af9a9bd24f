//! Perf-regression gate over the committed bench points.
//!
//! Reads every `results/BENCH_*.json` and the same file committed at
//! `HEAD` (`git show HEAD:results/BENCH_x.json`) as [`Report`]s, and
//! fails when a key declared `Higher` or `Lower` moved more than
//! [`GATE_TOL_PCT`] in its worse direction. A bench with no committed
//! point, or one in a layout `Report` does not read, is skipped.
//!
//! Run after `cargo bench -p alba-bench`:
//! `cargo run --release -p alba-bench --bin bench_gate`

use std::process::{exit, Command};

use alba_bench::{gate, workspace_root, Report, GATE_TOL_PCT};

fn main() {
    let root = workspace_root();
    let mut files: Vec<String> = std::fs::read_dir(root.join("results"))
        .expect("read results/")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    files.sort();
    if files.is_empty() {
        eprintln!("bench_gate: no results/BENCH_*.json points found");
        exit(1);
    }

    let mut regressed = 0usize;
    for file in &files {
        let rel = format!("results/{file}");
        let text = std::fs::read_to_string(root.join(&rel)).expect("read a bench point");
        let current: Report = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{rel} is not a bench report: {e}"));
        let committed = Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(["show", &format!("HEAD:{rel}")])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok());
        let Some(rows) = gate(&current, committed.as_deref()) else {
            println!("bench_gate: {rel} has no committed baseline in this layout — skipped");
            continue;
        };
        for c in rows {
            let change = (c.current - c.baseline) / c.baseline.abs() * 100.0;
            let marker = if c.regressed { "REGRESSED" } else { "ok" };
            println!(
                "bench_gate: {:>20} {:<42} {:>14.0} -> {:>14.0} ({change:+6.1}%) {marker}",
                current.bench, c.key, c.baseline, c.current
            );
            regressed += usize::from(c.regressed);
        }
    }
    if regressed > 0 {
        eprintln!("bench_gate: FAILED ({regressed} key(s) regressed beyond {GATE_TOL_PCT}%)");
        exit(1);
    }
    println!("bench_gate: OK (every compared key within {GATE_TOL_PCT}% of HEAD's point)");
}
