//! The `alba-lint` command-line gate.
//!
//! ```text
//! cargo run -p alba-lint                  # human output, exit 1 on findings
//! cargo run -p alba-lint -- --json        # machine output for tooling
//! cargo run -p alba-lint -- --rules       # print the rule catalog
//! cargo run -p alba-lint -- --root DIR    # lint another tree
//! ```
//!
//! Exit codes: 0 clean, 1 findings or stale suppressions (the tree is
//! not [`Report::is_clean`](alba_lint::Report::is_clean)), 2
//! usage/environment error.

use alba_lint::{lint_workspace, rules};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    json: bool,
}

const USAGE: &str = "usage: alba-lint [--root DIR] [--json] [--rules]";

fn parse_args() -> Result<Option<Args>, String> {
    // Default root: the workspace root, two levels above this crate.
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from).ok_or("--root needs a value")?,
            "--json" => json = true,
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
    Ok(Some(Args { root, json }))
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let report =
        lint_workspace(&args.root).map_err(|e| format!("scanning {}: {e}", args.root.display()))?;
    let ok = report.is_clean();

    if args.json {
        let payload = serde_json::to_string_pretty(&JsonReport {
            findings: report.findings,
            stale_suppressions: report.stale_suppressions,
            suppressed: report.suppressed,
            files_scanned: report.files_scanned,
            fns_analyzed: report.fns_analyzed,
            call_edges: report.call_edges,
            ok,
        })
        .map_err(|e| format!("rendering JSON: {e}"))?;
        println!("{payload}");
    } else {
        for f in report.findings.iter().chain(&report.stale_suppressions) {
            println!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
        }
        println!(
            "alba-lint: {} files, {} fns / {} call edges, {} findings, {} stale suppressions, {} suppressed with reasons{}",
            report.files_scanned,
            report.fns_analyzed,
            report.call_edges,
            report.findings.len(),
            report.stale_suppressions.len(),
            report.suppressed,
            if ok { " — OK" } else { " — FAIL" }
        );
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[derive(serde::Serialize)]
struct JsonReport {
    findings: Vec<alba_lint::Finding>,
    stale_suppressions: Vec<alba_lint::Finding>,
    suppressed: u64,
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
