//! The `alba-lint` command-line gate.
//!
//! ```text
//! cargo run -p alba-lint                  # human output, exit 1 on findings
//! cargo run -p alba-lint -- --json        # machine output for tooling
//! cargo run -p alba-lint -- --check-stale # additionally fail on stale baseline entries
//! cargo run -p alba-lint -- --write-baseline   # grandfather current findings
//! cargo run -p alba-lint -- --rules       # print the rule catalog
//! ```
//!
//! Exit codes: 0 clean, 1 findings (or stale baseline under
//! `--check-stale`), 2 usage/environment error.

use alba_lint::baseline::Baseline;
use alba_lint::{gate, lint_workspace, rules};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    baseline_path: PathBuf,
    json: bool,
    check_stale: bool,
    write_baseline: bool,
}

const USAGE: &str = "usage: alba-lint [--root DIR] [--baseline FILE] [--json] \
                     [--check-stale] [--write-baseline] [--rules]";

fn parse_args() -> Result<Option<Args>, String> {
    // Default root: the workspace root, two levels above this crate.
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut baseline_path: Option<PathBuf> = None;
    let mut json = false;
    let mut check_stale = false;
    let mut write_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from).ok_or("--root needs a value")?,
            "--baseline" => {
                baseline_path =
                    Some(args.next().map(PathBuf::from).ok_or("--baseline needs a value")?)
            }
            "--json" => json = true,
            "--check-stale" => check_stale = true,
            "--write-baseline" => write_baseline = true,
            "--rules" => {
                for r in rules::CATALOG {
                    let tests = if r.tests_exempt { "exempt" } else { "checked" };
                    println!("{:28} {}", r.name, r.summary);
                    println!("{:28} scope `{}`, test code {tests}", "", r.scope.name);
                }
                println!("\nscopes (`dir/` = every path under dir):");
                for s in rules::SCOPES {
                    println!("  {:16} {}", s.name, s.describe());
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other:?} ({USAGE})")),
        }
    }
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("lint-baseline.txt"));
    Ok(Some(Args { root, baseline_path, json, check_stale, write_baseline }))
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let report =
        lint_workspace(&args.root).map_err(|e| format!("scanning {}: {e}", args.root.display()))?;

    if args.write_baseline {
        let b = Baseline::from_counts(&report.counts());
        std::fs::write(&args.baseline_path, b.render())
            .map_err(|e| format!("writing {}: {e}", args.baseline_path.display()))?;
        println!("wrote {} ({} entries)", args.baseline_path.display(), b.entries.len());
        return Ok(ExitCode::SUCCESS);
    }

    let baseline = match std::fs::read_to_string(&args.baseline_path) {
        Ok(text) => {
            Baseline::parse(&text).map_err(|e| format!("{}: {e}", args.baseline_path.display()))?
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Baseline::default(),
        Err(e) => return Err(format!("reading {}: {e}", args.baseline_path.display())),
    };
    let gated = gate(&report, &baseline);
    let stale_fails =
        args.check_stale && (!gated.stale.is_empty() || !report.stale_suppressions.is_empty());
    let failed = !gated.violations.is_empty() || stale_fails;

    if args.json {
        let payload = serde_json::to_string_pretty(&JsonReport {
            findings: report.findings.clone(),
            violations: gated.violations.clone(),
            stale: gated.stale.clone(),
            stale_suppressions: report.stale_suppressions.clone(),
            suppressed: report.suppressed,
            absorbed: gated.absorbed,
            files_scanned: report.files_scanned,
            fns_analyzed: report.fns_analyzed,
            call_edges: report.call_edges,
            ok: !failed,
        })
        .map_err(|e| format!("rendering JSON: {e}"))?;
        println!("{payload}");
        return Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS });
    }

    // Print findings for (rule, path) pairs over their baseline budget;
    // fully-absorbed pairs stay quiet (they are the grandfathered debt).
    let over: std::collections::BTreeSet<(&str, &str)> =
        gated.violations.iter().map(|v| (v.rule.as_str(), v.path.as_str())).collect();
    for f in &report.findings {
        if over.contains(&(f.rule.as_str(), f.path.as_str())) {
            println!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
        }
    }
    for v in &gated.violations {
        if v.allowed > 0 {
            println!(
                "baseline exceeded: [{}] {} has {} findings, baseline tolerates {}",
                v.rule, v.path, v.actual, v.allowed
            );
        }
    }
    for s in &gated.stale {
        let verdict = if args.check_stale { "error" } else { "note" };
        println!(
            "{verdict}: stale baseline entry [{}] {} tolerates {}, only {} fire — shrink it",
            s.rule, s.path, s.allowed, s.actual
        );
    }
    for f in &report.stale_suppressions {
        let verdict = if args.check_stale { "error" } else { "note" };
        println!("{verdict}: {}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
    }
    println!(
        "alba-lint: {} files, {} fns / {} call edges, {} findings ({} absorbed by baseline), {} suppressed with reasons{}",
        report.files_scanned,
        report.fns_analyzed,
        report.call_edges,
        report.findings.len(),
        gated.absorbed,
        report.suppressed,
        if failed { " — FAIL" } else { " — OK" }
    );
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[derive(serde::Serialize)]
struct JsonReport {
    findings: Vec<alba_lint::Finding>,
    violations: Vec<alba_lint::baseline::Violation>,
    stale: Vec<alba_lint::baseline::StaleEntry>,
    stale_suppressions: Vec<alba_lint::Finding>,
    suppressed: u64,
    absorbed: u64,
    files_scanned: u64,
    fns_analyzed: u64,
    call_edges: u64,
    ok: bool,
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(args)) => match run(&args) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("alba-lint: {e}");
                ExitCode::from(2)
            }
        },
        Err(e) => {
            eprintln!("alba-lint: {e}");
            ExitCode::from(2)
        }
    }
}
