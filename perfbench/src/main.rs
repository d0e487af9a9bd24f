//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! Before measuring, the run makes sure the warm store exists: a
//! separate, untimed process of the same build populates it once per
//! build (the store lives under the executable's directory, keyed by a
//! hash of the executable). Set-up time is then the median over fresh
//! processes, each timing its first build against that store.

use perfbench::serve::{self, Kind};
use perfbench::stats::Report;
use perfbench::sweep;
use perfbench::sysinfo::{build_id, flush_dirty_pages, host_probe_ms, nproc, HostCpu};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Fresh processes whose set-up times `setup_s` is the median of (the
/// measuring process is one of them).
const SETUP_PROCESSES: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    EclipseFleet,
    VoltaWireLearn,
    AlSweep,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "eclipse-fleet" => Some(Workload::EclipseFleet),
            "volta-wire-learn" => Some(Workload::VoltaWireLearn),
            "al-sweep" => Some(Workload::AlSweep),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::EclipseFleet => "eclipse-fleet",
            Workload::VoltaWireLearn => "volta-wire-learn",
            Workload::AlSweep => "al-sweep",
        }
    }

    fn serve_kind(self) -> Option<Kind> {
        match self {
            Workload::EclipseFleet => Some(Kind::Eclipse),
            Workload::VoltaWireLearn => Some(Kind::Volta),
            Workload::AlSweep => None,
        }
    }
}

/// What this process was asked to do.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Measure and report (the command users run).
    Run,
    /// Populate the warm store, untimed (a child of `Run`).
    Populate,
    /// Time one fresh set-up and print it (a child of `Run`).
    SetupProbe,
}

struct Args {
    role: Role,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <eclipse-fleet|volta-wire-learn|al-sweep> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let (role, rest) = match argv.first().map(String::as_str) {
            Some("populate") => (Role::Populate, &argv[1..]),
            Some("setup-probe") => (Role::SetupProbe, &argv[1..]),
            _ => (Role::Run, argv),
        };
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, Some(false));
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<u64>()
                            .ok()
                            .filter(|&s| s >= 1)
                            .ok_or_else(|| format!("bad seconds {value}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            role,
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }

    fn child(&self, role: &str) -> Command {
        let mut c = Command::new(std::env::current_exe().expect("own executable path"));
        c.args([
            role,
            "--workload",
            self.workload.name(),
            "--seed",
            &self.seed.to_string(),
            "--seconds",
            &self.seconds.to_string(),
        ]);
        c.stdin(Stdio::null()).stderr(Stdio::inherit());
        c
    }
}

/// Per-seed (or per-length) stores of a workload kept on disk at once;
/// older ones are deleted, so a long series of seeds does not fill the disk.
const KEPT_STORES: usize = 2;

/// The build's warm store for a run: beside the executable, under a hash
/// of the executable (so no two builds ever share one), one directory per
/// workload and, where the stored data depends on them, per seed and run
/// length.
fn store_dir(a: &Args) -> std::io::Result<(PathBuf, String)> {
    let exe = std::env::current_exe()?;
    let id = build_id(&exe)?;
    let root = exe.parent().unwrap_or(Path::new(".")).join("perfbench-store").join(&id);
    let name = match a.workload {
        // The Eclipse service's configuration depends on neither.
        Workload::EclipseFleet => a.workload.name().to_string(),
        // The Volta service's streams are as long as the run needs.
        Workload::VoltaWireLearn => format!("{}-{}", a.workload.name(), a.seconds),
        Workload::AlSweep => format!("{}-{}-{}", a.workload.name(), a.seed, a.seconds),
    };
    let dir = root.join(name);
    std::fs::create_dir_all(&dir)?;
    Ok((dir, id))
}

/// Populates the store in a separate, untimed process unless an earlier
/// run of this build already did, then evicts the workload's oldest
/// per-seed stores.
fn ensure_populated(a: &Args, store: &Path) -> Result<(), String> {
    let marker = store.join("ready");
    if marker.exists() {
        return Ok(());
    }
    let status = a.child("populate").stdout(Stdio::null()).status().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("populating the store failed: {status}"));
    }
    std::fs::write(&marker, b"").map_err(|e| e.to_string())?;
    evict_old_stores(a, store);
    Ok(())
}

fn evict_old_stores(a: &Args, keep: &Path) {
    let Some(root) = keep.parent() else { return };
    let prefix = format!("{}-", a.workload.name());
    let mut seeded: Vec<(std::time::SystemTime, PathBuf)> = std::fs::read_dir(root)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
        .filter_map(|e| Some((e.path().join("ready").metadata().ok()?.modified().ok()?, e.path())))
        .collect();
    seeded.sort();
    let excess = seeded.len().saturating_sub(KEPT_STORES);
    for (_, dir) in seeded.into_iter().take(excess) {
        if dir != keep {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Set-up times of `n` fresh child processes.
fn probe_setups(a: &Args, n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let out = a.child("setup-probe").output().map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&out.stdout);
            let value = text.lines().last().and_then(|l| l.strip_prefix("setup_s "));
            match (out.status.success(), value.and_then(|v| v.parse::<f64>().ok())) {
                (true, Some(v)) => Ok(v),
                _ => Err(format!("set-up probe failed: {} {text}", out.status)),
            }
        })
        .collect()
}

fn populate(a: &Args, store: &Path) {
    match a.workload.serve_kind() {
        Some(kind) => {
            let shape = serve::Shape::new(kind, a.seconds);
            let cfg = serve::config(&shape, store);
            drop(serve::build_service(&cfg, store, alba_obs::Obs::disabled()));
            serve::clear_journals(store);
        }
        None => {
            sweep::load_datasets(a.seed, store);
        }
    }
    flush_dirty_pages();
}

fn setup_probe(a: &Args, store: &Path) -> f64 {
    match a.workload.serve_kind() {
        Some(kind) => {
            let shape = serve::Shape::new(kind, a.seconds);
            let cfg = serve::config(&shape, store);
            serve::build_service(&cfg, store, alba_obs::Obs::disabled()).1
        }
        None => sweep::load_datasets(a.seed, store),
    }
}

fn run(a: &Args, store: &Path, build: &str) -> Result<Report, String> {
    let host0 = HostCpu::now();
    ensure_populated(a, store)?;
    let speed0 = host_probe_ms();
    let report = match (a.workload.serve_kind(), a.trace) {
        (Some(kind), false) => {
            serve::measure(kind, a.seed, a.seconds, store, probe_setups(a, SETUP_PROCESSES - 1)?)
        }
        (Some(kind), true) => serve::trace(kind, a.seed, a.seconds, store),
        (None, false) => sweep::measure(a.seed, store, probe_setups(a, SETUP_PROCESSES - 1)?),
        (None, true) => sweep::trace(a.seed, store),
    };
    // Noise diagnostics, recorded with every run and not gated.
    println!(
        "info host workload={} seed={} seconds={} trace={} nproc={} build={build} steal_pct={:.3} \
         probe_ms_before={speed0:.2} probe_ms_after={:.2}",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        nproc(),
        HostCpu::now().steal_pct_since(&host0),
        host_probe_ms(),
    );
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (store, build) = match store_dir(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cannot open the benchmark store: {e}");
            return ExitCode::FAILURE;
        }
    };
    match args.role {
        Role::Populate => populate(&args, &store),
        Role::SetupProbe => println!("setup_s {}", setup_probe(&args, &store)),
        Role::Run => match run(&args, &store, &build) {
            Ok(report) => report.print(),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
    }
    ExitCode::SUCCESS
}
