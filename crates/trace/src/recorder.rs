//! The flight recorder: one bounded ring of recent trace events per
//! lane, with deterministic (strictly oldest-first) eviction. Always
//! on, always cheap — the ring holds pre-rendered JSONL lines, so a
//! dump is pure concatenation with no serialisation at crash time.

/// Where a hop happened. Lanes order deterministically — net first,
/// then shards ascending, then the service lane — which fixes the
/// layout of every flight-recorder dump.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    /// The network gateway (frame decode).
    Net,
    /// One worker shard.
    Shard(u32),
    /// The service tick loop (stage timings, retrain, faults).
    Service,
}

impl Lane {
    /// Appends the label to `out` without an intermediate allocation —
    /// the hop hot path renders straight into the line buffer. Labels
    /// are plain ASCII identifiers, so no JSON escaping is needed.
    pub fn write_label(&self, out: &mut String) {
        match self {
            Lane::Net => out.push_str("net"),
            Lane::Shard(i) => {
                out.push_str("shard");
                alba_obs::push_u64(out, u64::from(*i));
            }
            Lane::Service => out.push_str("service"),
        }
    }
}

/// Appends `v` as 16 lowercase hex digits — same bytes as
/// `write!(out, "{v:016x}")`, filled into a stack buffer that lands in
/// one `push_str`.
pub(crate) fn push_hex16(out: &mut String, v: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    // alba-lint: allow(reachable-panic) reason="index is masked to 0..16"
    let buf: [u8; 16] = std::array::from_fn(|i| HEX[((v >> (60 - 4 * i)) & 0xf) as usize]);
    // The buffer holds ASCII hex digits only, so the conversion cannot fail.
    if let Ok(digits) = std::str::from_utf8(&buf) {
        out.push_str(digits);
    }
}

/// One recorded trace event: the source node (for `/trace/<node>`
/// filtering) plus the pre-rendered JSONL line.
#[derive(Clone, Debug)]
pub(crate) struct RingEntry {
    /// Source node of the hop, `None` for fleet-wide hops.
    pub(crate) node: Option<usize>,
    /// The rendered JSON object, no trailing newline.
    pub(crate) line: String,
}

/// Fixed-capacity ring of recent trace events. Eviction is
/// deterministic: once full, each push overwrites the single oldest
/// entry — no timers, no sampling, no randomness.
#[derive(Clone, Debug)]
pub(crate) struct FlightRing {
    cap: usize,
    buf: Vec<RingEntry>,
    /// Index of the oldest entry once the ring is full.
    head: usize,
    evicted: u64,
}

impl FlightRing {
    /// An empty ring holding at most `cap` entries (min 1).
    pub(crate) fn new(cap: usize) -> Self {
        Self { cap: cap.max(1), buf: Vec::new(), head: 0, evicted: 0 }
    }

    /// Records one entry, evicting the oldest when full.
    pub(crate) fn push(&mut self, entry: RingEntry) {
        if self.buf.len() < self.cap {
            self.buf.push(entry);
        } else {
            self.buf[self.head] = entry;
            self.head = (self.head + 1) % self.cap;
            self.evicted += 1;
        }
    }

    /// Hands back a reusable line buffer: once the ring is full, the
    /// `String` of the entry the next [`FlightRing::push`] will
    /// overwrite (cleared, capacity kept); a fresh buffer while the
    /// ring is still filling. Pairing each call with one `push` makes
    /// a full ring allocation-free in steady state — which is what
    /// keeps the always-on recorder within the tracing overhead bound.
    pub(crate) fn recycle_buffer(&mut self) -> String {
        if self.buf.len() < self.cap {
            String::with_capacity(192)
        } else {
            // alba-lint: allow(reachable-panic) reason="head stays within the ring by the wrap above"
            let mut s = std::mem::take(&mut self.buf[self.head].line);
            s.clear();
            s
        }
    }

    /// Entries currently held.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Entries evicted so far (how much history the ring has forgotten).
    pub(crate) fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Iterates the retained entries oldest → newest.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &RingEntry> {
        self.buf[self.head..].iter().chain(self.buf[..self.head].iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(i: usize) -> RingEntry {
        RingEntry { node: Some(i), line: format!("{{\"n\":{i}}}") }
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let mut r = FlightRing::new(3);
        for i in 0..5 {
            r.push(entry(i));
        }
        let kept: Vec<usize> = r.iter().map(|e| e.node.unwrap()).collect();
        assert_eq!(kept, vec![2, 3, 4], "strictly oldest-first eviction");
        assert_eq!(r.evicted(), 2);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn ring_below_capacity_keeps_everything_in_order() {
        let mut r = FlightRing::new(8);
        for i in 0..3 {
            r.push(entry(i));
        }
        let kept: Vec<usize> = r.iter().map(|e| e.node.unwrap()).collect();
        assert_eq!(kept, vec![0, 1, 2]);
        assert_eq!(r.evicted(), 0);
    }

    #[test]
    fn hand_rolled_formatters_match_write() {
        use std::fmt::Write as _;
        for v in [0u64, 1, 9, 10, 42, 999, 1_000, u64::MAX / 2, u64::MAX] {
            let (mut fast, mut slow) = (String::new(), String::new());
            alba_obs::push_u64(&mut fast, v);
            let _ = write!(slow, "{v}");
            assert_eq!(fast, slow, "decimal {v}");
            let (mut fast, mut slow) = (String::new(), String::new());
            push_hex16(&mut fast, v);
            let _ = write!(slow, "{v:016x}");
            assert_eq!(fast, slow, "hex {v}");
        }
    }

    #[test]
    fn recycled_buffers_come_back_cleared_and_do_not_change_ring_contents() {
        let mut r = FlightRing::new(2);
        assert_eq!(r.recycle_buffer(), "", "filling ring hands out fresh buffers");
        r.push(entry(0));
        r.push(entry(1));
        let buf = r.recycle_buffer();
        assert!(buf.is_empty() && buf.capacity() > 0, "full ring recycles the oldest buffer");
        r.push(RingEntry { node: Some(2), line: buf });
        let kept: Vec<usize> = r.iter().map(|e| e.node.unwrap()).collect();
        assert_eq!(kept, vec![1, 2], "eviction order is unchanged by recycling");
        assert_eq!(r.evicted(), 1);
    }

    #[test]
    fn lanes_order_net_shards_service() {
        let mut lanes = vec![Lane::Service, Lane::Shard(2), Lane::Net, Lane::Shard(0)];
        lanes.sort();
        assert_eq!(lanes, vec![Lane::Net, Lane::Shard(0), Lane::Shard(2), Lane::Service]);
    }
}
