//! The one bench judge: `bench_gate [--trace] <runs-dir>`.
//!
//! Reads the alternating passes `scripts/bench_pairs.sh` leaves in
//! `<runs-dir>` (`parent-<n>` pairs with `change-<n>`), of one of two kinds:
//! perfbench runs (`<side>-<seed>.json`), judged on BENCHMARK.json's
//! `end_to_end` metrics and bounds (with `--trace`, its `per_layer`
//! metrics are tabulated with no verdict), or `cargo bench` passes
//! (`<side>-<pass>/BENCH_*.json`), judged on every key declared `Higher`
//! or `Lower` with [`GATE_TOL_PCT`]. Every metric is judged by
//! [`alba_bench::judge`], and each bench's requirements once, on the
//! change's per-key medians ([`Report::median`]). Exits 1 on `worse`, an
//! unmet requirement, or a change pass lacking an end-to-end metric or a
//! bench point; `unresolved` keys only print.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::exit;

use alba_bench::{judge, workspace_root, Better, Pass, Report, Spread, Verdict, GATE_TOL_PCT};
use serde::{Deserialize, Value};

const SIDES: [&str; 2] = ["parent", "change"];

/// A judged metric: its key, direction and bound.
type Decl = (String, Better, f64);

/// perfbench's metrics, from this tree's BENCHMARK.json (per-layer ones
/// have no bound).
fn perfbench_decls(trace: bool) -> Vec<Decl> {
    let text = std::fs::read_to_string(workspace_root().join("BENCHMARK.json"));
    let spec = serde_json::parse_value(&text.expect("read BENCHMARK.json")).expect("parse it");
    let list = if trace { "per_layer" } else { "end_to_end" };
    let metrics = spec.as_object().and_then(|o| serde::field(o, list).ok()?.as_array());
    let decl = |m: &Value| {
        let m = m.as_object().expect("a metric object");
        let text = |f| serde::field(m, f).ok().and_then(Value::as_str);
        let better = if text("better") == Some("lower") { Better::Lower } else { Better::Higher };
        let bound = serde::field(m, "bound").and_then(f64::deserialize);
        (text("name").expect("a named metric").into(), better, bound.unwrap_or(f64::INFINITY))
    };
    metrics.expect("a metric list").iter().map(decl).collect()
}

/// Every key either side reports as `Higher`/`Lower`, as the change
/// declares it where the change reports it (a key the change made `Info`
/// is not judged).
fn report_decls(passes: &[[Pass; 2]]) -> Vec<Decl> {
    let mut seen = BTreeSet::new();
    let sides = passes.iter().map(|p| &p[1]).chain(passes.iter().map(|p| &p[0]));
    let metrics = sides.flat_map(|p| &p.reports).flat_map(|r| &r.metrics);
    let judged = metrics.filter(|m| seen.insert(m.key.clone()) && m.better != Better::Info);
    judged.map(|m| (m.key.clone(), m.better, GATE_TOL_PCT / 100.0)).collect()
}

/// `v` as Python's `{:.6g}` prints it.
fn g6(v: f64) -> String {
    if !v.is_finite() {
        return if v.is_nan() { "nan".into() } else { v.to_string() };
    }
    let trim = |s: &str| {
        if s.contains('.') { s.trim_end_matches('0').trim_end_matches('.') } else { s }.to_string()
    };
    let sci = format!("{v:.5e}");
    let (mantissa, exp) = sci.split_once('e').expect("an exponent");
    let exp: i32 = exp.parse().expect("a decimal exponent");
    if (-4..6).contains(&exp) {
        trim(&format!("{v:.*}", (5 - exp) as usize))
    } else {
        format!("{}e{}{:02}", trim(mantissa), if exp < 0 { '-' } else { '+' }, exp.abs())
    }
}

fn spread(s: Spread) -> String {
    format!("{} [{}, {}]", g6(s.median), g6(s.q1), g6(s.q3))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (trace, dir) = match args.as_slice() {
        [flag, dir] if flag == "--trace" => (true, Path::new(dir)),
        [dir] if !dir.starts_with('-') => (false, Path::new(dir)),
        _ => {
            eprintln!("usage: bench_gate [--trace] <runs-dir>");
            exit(2);
        }
    };
    let (mut ids, mut benches) = (BTreeSet::new(), false);
    for path in std::fs::read_dir(dir).expect("read the runs dir").flatten().map(|e| e.path()) {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        let rest = SIDES.iter().find_map(|s| name.strip_prefix(s)?.strip_prefix('-'));
        let number = if path.is_dir() { rest } else { rest.and_then(|r| r.strip_suffix(".json")) };
        if let Some(Ok(n)) = number.map(str::parse::<u64>) {
            ids.insert(n);
            benches |= path.is_dir();
        }
    }
    let (Some(first), Some(last)) = (ids.first(), ids.last()) else {
        eprintln!("bench_gate: no parent-<n> or change-<n> passes in {}", dir.display());
        exit(1);
    };
    let read = |side: &str, n: &u64| match benches {
        true => Pass::benches(&dir.join(format!("{side}-{n}"))),
        false => Pass::perf(&dir.join(format!("{side}-{n}.json"))),
    };
    let passes: Vec<[Pass; 2]> = ids.iter().map(|n| SIDES.map(|side| read(side, n))).collect();
    let decls = if benches { report_decls(&passes) } else { perfbench_decls(trace) };
    let all = passes.iter().flatten().flat_map(|p| &p.reports);
    let names: BTreeSet<&str> = all.map(|r| r.bench.as_str()).collect();
    let mut failed = false;

    for (s, side) in SIDES.iter().enumerate() {
        let (mut ops, mut bad) = ((0, 0), Vec::new());
        for (n, pass) in ids.iter().zip(passes.iter().map(|p| &p[s])) {
            // A bench pass attempts one point per bench and fails each it
            // lacks; a perfbench run counts its own operations.
            let lacks: Vec<&str> = if benches {
                let no_point = |b: &&str| pass.reports.iter().all(|r| r.bench != *b);
                names.iter().copied().filter(no_point).collect()
            } else {
                let keys = decls.iter().map(|d| d.0.as_str());
                keys.filter(|k| !trace && !pass.values.contains_key(*k)).collect()
            };
            let (tried, lost) =
                if benches { (names.len() as u64, lacks.len() as u64) } else { pass.ops };
            ops = (ops.0 + tried, ops.1 + lost);
            if !pass.correct || lost > 0 {
                bad.push(*n);
            }
            if s == 1 && !lacks.is_empty() {
                println!("change pass {n} lacks {}", lacks.join(", "));
                failed = true;
            }
        }
        let bad = if bad.is_empty() { "none".to_string() } else { format!("{bad:?}") };
        println!("{side}: {} operations, {} failed, runs not correct: {bad}", ops.0, ops.1);
    }

    let width = if benches || trace { 36 } else { 14 };
    let (kind, traced) =
        (if benches { "passes" } else { "seeds" }, if trace { ", traced" } else { "" });
    println!("\n{}: {} pairs, {kind} {first}..{last}{traced}", dir.display(), ids.len());
    let columns = "        parent median [q1, q3]         change median [q1, q3]    wins";
    println!("{:<width$} {columns}{}", "metric", if trace { "" } else { "  bound  verdict" });
    let mut reported = Vec::new();
    for (name, better, bound) in &decls {
        let values: Vec<[Option<f64>; 2]> =
            passes.iter().map(|p| p.each_ref().map(|p| p.values.get(name).copied())).collect();
        if trace && values.iter().flatten().all(|v| v.unwrap_or(0.0) == 0.0) {
            continue; // a layer this workload does not run (absent or 0)
        }
        let both: Vec<(f64, f64)> = values.iter().filter_map(|&[p, c]| Some((p?, c?))).collect();
        if both.is_empty() {
            let on = |s: usize| usize::from(values.iter().any(|v| v[s].is_some()));
            let why = ["no complete pair", "only in change", "only in parent", "no complete pair"];
            println!("{name:<width$} {}", why[on(0) * 2 + on(1)]);
            continue;
        }
        let j = judge(&both, *better, *bound);
        let (p, c, n) = (spread(j.parent), spread(j.change), both.len());
        let row = format!("{name:<width$} {p:>30} {c:>30} {:>3}/{n:<3}", j.wins);
        if trace {
            println!("{row}");
        } else {
            println!("{row} {bound:>6}  {}", j.verdict);
            failed |= matches!(j.verdict, Verdict::Worse(_));
        }
        reported.push((name, values));
    }
    println!("\nper pair (parent -> change):");
    for (name, values) in reported {
        let show = |v: Option<f64>| g6(v.unwrap_or(f64::NAN));
        let pairs: Vec<String> =
            values.iter().map(|&[p, c]| format!("{}->{}", show(p), show(c))).collect();
        println!("{name}: {}", pairs.join(" "));
    }

    for bench in names {
        let of_bench = passes.iter().flat_map(|p| &p[1].reports).filter(|r| r.bench == bench);
        let change: Vec<Report> = of_bench.cloned().collect();
        for line in Report::median(&change).map(|r| r.unmet()).unwrap_or_default() {
            let n = change.len();
            println!("{bench}: requirement not met on the median of {n} passes: {line}");
            failed = true;
        }
    }
    if failed {
        eprintln!("bench_gate: FAILED");
        exit(1);
    }
    println!("bench_gate: OK");
}
