//! Process and host readings: memory high-water mark, CPU time and
//! context switches, hypervisor steal time, core count and build
//! identity. Linux only (`/proc` and `getrusage`).

use std::path::Path;

/// `struct timeval` as laid out on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sync();
}

/// Flushes every dirty page to disk, so writeback of a freshly
/// populated store does not compete with a later measurement.
pub fn flush_dirty_pages() {
    // SAFETY: sync(2) takes no arguments and cannot fail.
    unsafe { sync() }
}

const RUSAGE_SELF: i32 = 0;

/// Whole-process resource counters at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User + system CPU time, seconds.
    pub cpu_s: f64,
    /// Voluntary context switches.
    pub voluntary: u64,
    /// Involuntary context switches (preemptions).
    pub involuntary: u64,
}

impl Usage {
    /// Current counters of this process (all threads).
    pub fn now() -> Self {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a valid, writable `struct rusage` for 64-bit
        // Linux, and RUSAGE_SELF is a valid `who`; the call only writes
        // into the struct it is given.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid buffer");
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Self {
            cpu_s: secs(&ru.utime) + secs(&ru.stime),
            voluntary: ru.nvcsw as u64,
            involuntary: ru.nivcsw as u64,
        }
    }

    /// Counters accrued since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - earlier.cpu_s,
            voluntary: self.voluntary - earlier.voluntary,
            involuntary: self.involuntary - earlier.involuntary,
        }
    }
}

/// A `/proc/self/status` size field (`VmHWM`, `VmRSS`, ...) in MiB.
pub fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU time counters from `/proc/stat`: (steal, total) jiffies.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostCpu {
    steal: u64,
    total: u64,
}

impl HostCpu {
    /// Current host-wide counters (zeros when `/proc/stat` is unreadable).
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return Self::default();
        };
        let fields: Vec<u64> =
            line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted in user, so the total stops at steal.
        let total = fields.iter().take(8).sum();
        Self { steal: fields.get(7).copied().unwrap_or(0), total }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`, %.
    pub fn steal_pct_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Milliseconds a fixed integer kernel takes on one core (median of
/// three): a host-speed reading, so that a run slowed by a busy host (a
/// neighbour on the same physical core slows it without showing as
/// steal time) can be told from one slowed by the program.
pub fn host_probe_ms() -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            for _ in 0..20_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Identity of a build: FNV-1a over the executable's bytes.
pub fn build_id(exe: &Path) -> std::io::Result<String> {
    let bytes = std::fs::read(exe)?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    Ok(format!("{h:016x}"))
}
