//! Property-based tests (proptest) on the core data structures and
//! numerical kernels: invariants that must hold for *any* input, not just
//! the unit-test examples.

use albadross_repro::active::{entropy_score, margin_score, uncertainty_score};
use albadross_repro::chaos::{Backoff, QuarantineConfig, QuarantineGate, Transition};
use albadross_repro::data::Matrix;
use albadross_repro::data::MetricKind;
use albadross_repro::features::stats;
use albadross_repro::features::{chi_square_scores, interpolate_gaps, MinMaxScaler};
use albadross_repro::lint::lexer::lex;
use albadross_repro::lint::lint_source;
use albadross_repro::lint::parse::parse_file;
use albadross_repro::ml::{softmax_row, ConfusionMatrix};
use albadross_repro::store::codec::{get_uvarint, put_uvarint};
use albadross_repro::store::{decode_column, put_column};
use proptest::prelude::*;

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 0..max_len)
}

fn nonempty_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..max_len)
}

/// Arbitrary IEEE-754 bit patterns, weighted towards the nasty ones.
fn any_bits() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..u64::MAX,
        Just(f64::NAN.to_bits()),
        Just(f64::INFINITY.to_bits()),
        Just(f64::NEG_INFINITY.to_bits()),
        Just((-0.0f64).to_bits()),
        Just(u64::MAX), // NaN with an all-ones payload
        Just(1u64),     // smallest positive subnormal
    ]
}

fn any_kind() -> impl Strategy<Value = MetricKind> {
    (0u8..2).prop_map(|v| if v == 0 { MetricKind::Gauge } else { MetricKind::Counter })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- stats kernels -------------------------------------------------

    #[test]
    fn stats_are_always_finite(x in finite_vec(200)) {
        prop_assert!(stats::mean(&x).is_finite());
        prop_assert!(stats::std_dev(&x).is_finite());
        prop_assert!(stats::skewness(&x).is_finite());
        prop_assert!(stats::kurtosis(&x).is_finite());
        prop_assert!(stats::linear_trend_slope(&x).is_finite());
        prop_assert!(stats::binned_entropy(&x, 10).is_finite());
        prop_assert!(stats::cid_ce(&x).is_finite());
        prop_assert!(stats::autocorrelation(&x, 3).is_finite());
    }

    #[test]
    fn mean_bounded_by_min_max(x in nonempty_vec(100)) {
        let m = stats::mean(&x);
        prop_assert!(m >= stats::min(&x) - 1e-9);
        prop_assert!(m <= stats::max(&x) + 1e-9);
    }

    #[test]
    fn quantiles_are_monotone(x in nonempty_vec(100), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(stats::quantile(&x, lo) <= stats::quantile(&x, hi) + 1e-9);
    }

    #[test]
    fn shift_invariance_of_dispersion(x in nonempty_vec(80), shift in -1e3f64..1e3) {
        let shifted: Vec<f64> = x.iter().map(|v| v + shift).collect();
        prop_assert!((stats::std_dev(&x) - stats::std_dev(&shifted)).abs() < 1e-6 * (1.0 + stats::std_dev(&x)));
        prop_assert!((stats::mean_abs_change(&x) - stats::mean_abs_change(&shifted)).abs() < 1e-6);
    }

    #[test]
    fn autocorrelation_is_bounded(x in nonempty_vec(120), lag in 1usize..10) {
        let a = stats::autocorrelation(&x, lag);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&a), "autocorr {a}");
    }

    // ---- interpolation -------------------------------------------------

    #[test]
    fn interpolation_removes_all_gaps(
        mut x in prop::collection::vec(prop_oneof![Just(f64::NAN), -1e3f64..1e3], 0..100)
    ) {
        interpolate_gaps(&mut x);
        prop_assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn interpolation_preserves_finite_values(x in nonempty_vec(50), gap_at in 0usize..49) {
        let mut with_gap = x.clone();
        if gap_at < with_gap.len() {
            with_gap[gap_at] = f64::NAN;
        }
        interpolate_gaps(&mut with_gap);
        for (i, (&orig, &filled)) in x.iter().zip(&with_gap).enumerate() {
            if i != gap_at {
                prop_assert_eq!(orig, filled);
            }
        }
    }

    // ---- matrix --------------------------------------------------------

    #[test]
    fn transpose_is_involution(rows in 1usize..8, cols in 1usize..8, seed in 0u64..1000) {
        let mut m = Matrix::zeros(rows, cols);
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(1);
        for v in m.as_mut_slice() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *v = (s >> 33) as f64 / (1u64 << 31) as f64 - 0.5;
        }
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matvec_is_linear(cols in 1usize..6, a in -5.0f64..5.0) {
        let m = Matrix::filled(3, cols, 2.0);
        let v1 = vec![1.0; cols];
        let scaled: Vec<f64> = v1.iter().map(|x| x * a).collect();
        let r1 = m.matvec(&v1);
        let r2 = m.matvec(&scaled);
        for (x, y) in r1.iter().zip(&r2) {
            prop_assert!((x * a - y).abs() < 1e-9);
        }
    }

    // ---- scaling -------------------------------------------------------

    #[test]
    fn minmax_maps_training_to_unit_interval(rows in 2usize..12, cols in 1usize..6, seed in 0u64..1000) {
        let mut m = Matrix::zeros(rows, cols);
        let mut s = seed.wrapping_add(7);
        for v in m.as_mut_slice() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            *v = (s >> 33) as f64 / (1u64 << 28) as f64 - 16.0;
        }
        let scaler = MinMaxScaler::fit(&m);
        let t = scaler.transform(&m);
        for &v in t.as_slice() {
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v), "scaled value {v}");
        }
    }

    // ---- metrics -------------------------------------------------------

    #[test]
    fn scores_are_within_unit_interval(
        truth in prop::collection::vec(0usize..4, 1..80),
        seed in 0u64..500,
    ) {
        let mut s = seed;
        let pred: Vec<usize> = truth.iter().map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as usize % 4
        }).collect();
        let cm = ConfusionMatrix::from_predictions(&truth, &pred, 4);
        prop_assert!((0.0..=1.0).contains(&cm.macro_f1()));
        prop_assert!((0.0..=1.0).contains(&cm.accuracy()));
        prop_assert!((0.0..=1.0).contains(&cm.false_alarm_rate(0)));
        prop_assert!((0.0..=1.0).contains(&cm.anomaly_miss_rate(0)));
        prop_assert_eq!(cm.total(), truth.len());
    }

    #[test]
    fn perfect_predictions_always_score_one(truth in prop::collection::vec(0usize..3, 1..50)) {
        let cm = ConfusionMatrix::from_predictions(&truth, &truth, 3);
        prop_assert!((cm.macro_f1() - 1.0).abs() < 1e-12);
        prop_assert_eq!(cm.false_alarm_rate(0), 0.0);
    }

    // ---- query strategies ----------------------------------------------

    #[test]
    fn strategy_scores_are_consistent(raw in prop::collection::vec(0.01f64..10.0, 2..8)) {
        let mut p = raw;
        softmax_row(&mut p);
        let u = uncertainty_score(&p);
        let m = margin_score(&p);
        let h = entropy_score(&p);
        let k = p.len() as f64;
        prop_assert!((0.0..=1.0).contains(&u), "uncertainty {u}");
        prop_assert!((0.0..=1.0).contains(&m), "margin {m}");
        prop_assert!(h >= -1e-12 && h <= k.ln() + 1e-9, "entropy {h}");
    }

    #[test]
    fn certain_predictions_have_extreme_scores(winner in 0usize..4) {
        let mut p = vec![0.0; 4];
        p[winner] = 1.0;
        prop_assert!(uncertainty_score(&p).abs() < 1e-12);
        prop_assert!((margin_score(&p) - 1.0).abs() < 1e-12);
        prop_assert!(entropy_score(&p).abs() < 1e-12);
    }

    // ---- store codecs --------------------------------------------------

    #[test]
    fn uvarint_round_trips_any_u64(values in prop::collection::vec(any_bits(), 0..50)) {
        let mut buf = Vec::new();
        for &v in &values {
            put_uvarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            prop_assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
        }
        prop_assert_eq!(pos, buf.len(), "no trailing bytes");
    }

    #[test]
    fn column_codec_round_trips_any_bit_pattern(
        bits in prop::collection::vec(any_bits(), 0..120),
        kind in any_kind(),
    ) {
        // *Any* IEEE-754 pattern — subnormals, infinities, NaN payloads —
        // must survive the column codec; NaNs may collapse to the
        // canonical NaN (the gap bitmap carries them), everything else
        // must round-trip bit-exactly.
        let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let mut encoded = Vec::new();
        put_column(&mut encoded, &values, kind);
        let decoded = decode_column(&encoded, values.len(), kind).unwrap();
        prop_assert_eq!(values.len(), decoded.len());
        for (a, b) in values.iter().zip(&decoded) {
            if a.is_nan() {
                prop_assert!(b.is_nan(), "NaN must decode as NaN");
            } else {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn column_decode_never_panics_on_garbage(
        bytes in prop::collection::vec((0u16..256).prop_map(|v| v as u8), 0..200),
        n in 0usize..64,
        kind in any_kind(),
    ) {
        // Hostile bytes must yield Ok or Err — never a panic, never a
        // huge allocation.
        if let Ok(decoded) = decode_column(&bytes, n, kind) {
            prop_assert_eq!(decoded.len(), n);
        }
    }

    // ---- chaos: backoff ------------------------------------------------

    #[test]
    fn backoff_is_bounded_monotone_and_deterministic(
        base in 1u64..10_000_000,
        cap_mult in 1u64..1_000,
        max_attempts in 1u32..32,
        seed in 0u64..10_000,
    ) {
        let cap = base.saturating_mul(cap_mult);
        let b = Backoff::new(base, cap, max_attempts, seed);
        let mut prev = 0u64;
        for a in 0..max_attempts {
            let d = b.delay_ns(a).expect("attempt inside the budget");
            prop_assert!(d <= cap, "attempt {a}: delay {d} exceeds cap {cap}");
            prop_assert!(d >= base.min(cap), "attempt {a}: delay {d} below floor");
            prop_assert!(d >= prev, "attempt {a}: schedule dipped {prev} -> {d}");
            prev = d;
        }
        // The budget is a hard edge, not a taper.
        prop_assert_eq!(b.delay_ns(max_attempts), None);
        prop_assert_eq!(b.delay_ns(max_attempts.saturating_add(7)), None);
        // Determinism: an identically-parameterised policy replays the
        // exact schedule.
        let twin = Backoff::new(base, cap, max_attempts, seed);
        for a in 0..max_attempts {
            prop_assert_eq!(b.delay_ns(a), twin.delay_ns(a));
        }
        prop_assert!(b.worst_case_total_ns() >= prev, "total covers the largest step");
    }

    // ---- chaos: quarantine hysteresis ----------------------------------

    #[test]
    fn quarantine_never_flaps_under_sub_threshold_alternation(
        bad_windows in 1u32..6,
        good_windows in 1u32..8,
        bad_run in 1u32..10,
        good_run in 1u32..10,
        cycles in 1usize..40,
    ) {
        let gate = QuarantineGate::new(QuarantineConfig { bad_windows, good_windows });
        let mut transitions = 0u64;
        for _ in 0..cycles {
            for _ in 0..bad_run {
                if gate.observe(0, true) != Transition::None {
                    transitions += 1;
                }
            }
            for _ in 0..good_run {
                if gate.observe(0, false) != Transition::None {
                    transitions += 1;
                }
            }
        }
        if bad_run < bad_windows {
            // Bad runs too short to cross the enter threshold: the gate
            // must sit perfectly still, whatever the good runs do.
            prop_assert_eq!(transitions, 0, "hysteresis must absorb sub-threshold flapping");
            prop_assert!(!gate.is_quarantined(0));
        }
        // Transitions strictly alternate enter/release, at most one
        // enter per bad phase — bounded, never runaway.
        prop_assert!(gate.entered() >= gate.released());
        prop_assert!(gate.entered() - gate.released() <= 1);
        prop_assert!(gate.entered() <= cycles as u64);
        prop_assert_eq!(gate.entered() + gate.released(), transitions);
        prop_assert_eq!(gate.is_quarantined(0), gate.entered() > gate.released());
    }

    #[test]
    fn quarantine_thresholds_are_exact(bad_windows in 1u32..9, good_windows in 1u32..9) {
        let gate = QuarantineGate::new(QuarantineConfig { bad_windows, good_windows });
        // Exactly bad_windows consecutive garbage observations enter…
        for k in 1..bad_windows {
            prop_assert_eq!(gate.observe(5, true), Transition::None, "early enter at {k}");
        }
        prop_assert_eq!(gate.observe(5, true), Transition::Entered);
        prop_assert!(gate.is_quarantined(5));
        // …and exactly good_windows consecutive clean ones release.
        for k in 1..good_windows {
            prop_assert_eq!(gate.observe(5, false), Transition::None, "early release at {k}");
        }
        prop_assert_eq!(gate.observe(5, false), Transition::Released);
        prop_assert!(!gate.is_quarantined(5));
        prop_assert_eq!(gate.entered(), 1);
        prop_assert_eq!(gate.released(), 1);
    }

    // ---- chi-square ----------------------------------------------------

    #[test]
    fn chi_square_scores_are_nonnegative_and_finite(
        rows in 4usize..30,
        seed in 0u64..300,
    ) {
        let mut x = Matrix::zeros(rows, 3);
        let mut y = Vec::with_capacity(rows);
        let mut s = seed.wrapping_add(13);
        for r in 0..rows {
            y.push(r % 2);
            for c in 0..3 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                x.set(r, c, (s >> 33) as f64 / (1u64 << 30) as f64 - 4.0);
            }
        }
        let scores = chi_square_scores(&x, &y, 2);
        for &v in &scores.scores {
            prop_assert!(v.is_finite() && v >= 0.0, "chi2 {v}");
        }
    }
}

// ---- alba-lint: the linter itself ----------------------------------

/// Forbidden patterns, the path whose scope they fire in, and the rule
/// each fires when it appears as real code there. The stage rule is
/// about fn bodies, so its pattern is a whole fn.
const LINT_CASES: &[(&str, &str, &str)] = &[
    ("crates/serve/src/generated.rs", "thread_rng()", "no-ambient-entropy"),
    ("crates/serve/src/generated.rs", "rng.from_entropy()", "no-ambient-entropy"),
    ("crates/serve/src/generated.rs", "Instant::now()", "no-ambient-time"),
    ("crates/serve/src/generated.rs", "SystemTime::now()", "no-ambient-time"),
    ("crates/serve/src/generated.rs", "a.partial_cmp(&b).unwrap()", "no-float-partial-cmp"),
    ("crates/serve/src/generated.rs", "v.unwrap()", "no-panic-in-fallible"),
    ("crates/serve/src/generated.rs", "v.expect(0)", "no-panic-in-fallible"),
    ("crates/serve/src/generated.rs", "std::fs::read(p)", "no-direct-failpoint-bypass"),
    ("crates/serve/src/generated.rs", "File::open(p)", "no-direct-failpoint-bypass"),
    ("crates/serve/src/generated.rs", "HashMap::new()", "no-unordered-iteration"),
    ("crates/net/src/generated.rs", "VecDeque::new()", "no-unbounded-channel"),
    ("crates/serve/src/service.rs", "fn stage(o: &Obs) { o.span(p); }", "no-untraced-stage"),
    ("crates/par/src/generated.rs", "rx.try_recv()", "no-unordered-join"),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Forbidden patterns inside line comments, block comments (plain and
    /// nested), strings, and raw strings with any hash-guard depth must
    /// never produce a finding: rules match the token stream, and the
    /// lexer strips all of these.
    #[test]
    fn lint_never_fires_on_commented_or_quoted_patterns(
        case in 0..LINT_CASES.len(),
        wrap in 0usize..5,
        hashes in 0usize..4,
    ) {
        let (path, snippet, _) = LINT_CASES[case];
        let guard = "#".repeat(hashes);
        let src = match wrap {
            0 => format!("fn ok() {{}}\n// {snippet}\n"),
            1 => format!("/* {snippet}\n   spanning lines */\nfn ok() {{}}\n"),
            2 => format!("fn ok() -> &'static str {{ \"{snippet}\" }}\n"),
            3 => format!("fn ok() -> &'static str {{ r{guard}\"{snippet}\"{guard} }}\n"),
            _ => format!("fn ok() {{}} /* nested /* {snippet} */ still a comment */\n"),
        };
        let findings = lint_source(path, &src);
        prop_assert!(findings.is_empty(), "{snippet:?} wrapped via {wrap} fired: {findings:?}");
    }

    /// The same patterns as live code fire their rule (so the property
    /// above is not vacuous) — in a fn body, in a file-level item, and
    /// after a fn header the item parser gives up on: site detection
    /// must not depend on the parser recognising the code around it.
    #[test]
    fn lint_fires_on_the_bare_patterns(case in 0..LINT_CASES.len(), place in 0usize..3) {
        let (path, snippet, rule) = LINT_CASES[case];
        let src = match place {
            0 => format!("fn f(a: f64, b: f64, v: X, p: &str) {{ let _ = {snippet}; }}"),
            1 => format!("const C: X = {{ let _ = {snippet}; }};"),
            _ => format!("fn (a: f64, b: f64) {{ let _ = {snippet}; }}"),
        };
        let findings = lint_source(path, &src);
        prop_assert!(
            findings.iter().any(|f| f.rule == rule),
            "{snippet:?} placed via {place} should fire {rule}, got {findings:?}"
        );
    }

    /// The lexer and linter are total: hostile input — unterminated
    /// strings and comments, stray hash guards, multi-byte unicode,
    /// control bytes — never panics, and tokens never overlap.
    #[test]
    fn lint_is_total_on_arbitrary_input(seed in 0u64..5000, len in 0usize..400) {
        // Alphabet weighted towards lexer-relevant characters.
        const ALPHABET: &[char] = &[
            '"', '\'', '#', 'r', 'b', 'c', '/', '*', '\\', '\n', '\t', '\0',
            'x', '_', '0', '9', '.', ':', '(', ')', '{', '}', '!', '&',
            'é', '\u{1F600}', '\u{7F}', ' ',
        ];
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(99);
        let src: String = (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ALPHABET[(s >> 33) as usize % ALPHABET.len()]
            })
            .collect();
        let lexed = lex(&src);
        prop_assert!(lexed.tokens.len() <= src.chars().count().max(1));
        let _ = lint_source("crates/serve/src/generated.rs", &src);
    }

    /// The item parser is total on the same hostile character soup: no
    /// panics, and every item/call/site it does extract carries a line
    /// number inside the input.
    #[test]
    fn item_parser_is_total_on_arbitrary_input(seed in 0u64..5000, len in 0usize..400) {
        const ALPHABET: &[char] = &[
            '"', '\'', '#', 'r', 'b', 'c', '/', '*', '\\', '\n', '\t', '\0',
            'x', '_', '0', '9', '.', ':', '(', ')', '{', '}', '!', '&',
            '<', '>', '[', ']', 'é', '\u{1F600}', '\u{7F}', ' ',
        ];
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(7);
        let src: String = (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ALPHABET[(s >> 33) as usize % ALPHABET.len()]
            })
            .collect();
        let last_line = src.lines().count().max(1) as u32;
        let parsed = parse_file("crates/serve/src/generated.rs", &lex(&src));
        for f in &parsed.fns {
            prop_assert!(f.line >= 1 && f.line <= last_line, "fn line {}", f.line);
            for c in &f.calls {
                prop_assert!(c.line >= 1 && c.line <= last_line, "call line {}", c.line);
            }
            for site in &f.sites {
                prop_assert!(site.line >= 1 && site.line <= last_line, "site line {}", site.line);
            }
        }
    }

    /// Item-shaped token soup drives the parser through its scope
    /// stack (impl/trait/fn nesting, use trees, signatures, bodies)
    /// far more often than raw characters do — still no panics, and
    /// the extracted functions keep their lines in bounds.
    #[test]
    fn item_parser_is_total_on_item_shaped_soup(seed in 0u64..5000, len in 0usize..160) {
        const WORDS: &[&str] = &[
            "fn", "impl", "trait", "use", "for", "struct", "mod", "pub",
            "self", "Self", "crate", "super", "where", "dyn", "as", "mut",
            "{", "}", "(", ")", "[", "]", "<", ">", "::", ".", ",", ";",
            "#", "!", "->", "&", "=", "\n", "a", "B", "f", "unwrap",
            "expect", "lock", "now", "Instant", "HashMap", "tick",
        ];
        let mut s = seed.wrapping_mul(0x9E3779B9).wrapping_add(13);
        let src: String = (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                WORDS[(s >> 33) as usize % WORDS.len()]
            })
            .collect::<Vec<_>>()
            .join(" ");
        let last_line = src.lines().count().max(1) as u32;
        let parsed = parse_file("crates/serve/src/generated.rs", &lex(&src));
        for f in &parsed.fns {
            prop_assert!(f.line >= 1 && f.line <= last_line, "fn line {}", f.line);
        }
    }
}

// ---- alba-net: the wire codec ---------------------------------------

use albadross_repro::net::frame::{decode_frame, HEADER_LEN, MAGIC};
use albadross_repro::net::journal::{parse_log, IngestLog};
use albadross_repro::net::{Decoded, Frame};
use albadross_repro::serve::TelemetrySample;

/// Lowercase ASCII names of bounded length (tenant names, tokens,
/// error messages — content is irrelevant to framing).
fn wire_name() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..26, 0..24)
        .prop_map(|v| v.into_iter().map(|b| (b'a' + b) as char).collect())
}

/// Metric vectors over arbitrary IEEE-754 bit patterns.
fn wire_values() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(any_bits().prop_map(f64::from_bits), 0..32)
}

/// Any frame of any type, hostile float payloads included.
fn any_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (wire_name(), wire_name()).prop_map(|(tenant, token)| Frame::Hello { tenant, token }),
        (0u64..u64::MAX, 0u32..u32::MAX)
            .prop_map(|(session, credits)| Frame::Welcome { session, credits }),
        (0u64..1 << 48, 0u64..1 << 48, wire_values())
            .prop_map(|(node, at, values)| Frame::Telemetry { node, at, values }),
        (0u32..u32::MAX).prop_map(|credits| Frame::Credit { credits }),
        (0u64..u64::MAX).prop_map(|dropped| Frame::Busy { dropped }),
        Just(Frame::Bye),
        (0u16..u16::MAX, wire_name()).prop_map(|(code, message)| Frame::Error { code, message }),
    ]
}

/// Bit-exact value equality up to NaN canonicalization: the store
/// column codec represents NaN as a gap and restores the canonical
/// `f64::NAN`, so NaN payload bits are (by documented design) not
/// preserved; everything else must round-trip bit-for-bit.
fn values_codec_equal(x: f64, y: f64) -> bool {
    (x.is_nan() && y.is_nan()) || x.to_bits() == y.to_bits()
}

/// Frames equal bit-for-bit (plain `==` is false for NaN payloads).
fn frames_bit_equal(a: &Frame, b: &Frame) -> bool {
    match (a, b) {
        (
            Frame::Telemetry { node: n1, at: a1, values: v1 },
            Frame::Telemetry { node: n2, at: a2, values: v2 },
        ) => {
            n1 == n2
                && a1 == a2
                && v1.len() == v2.len()
                && v1.iter().zip(v2).all(|(x, y)| values_codec_equal(*x, *y))
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any frame round-trips bit-exactly through encode/decode, and the
    /// decoder consumes exactly the encoded length.
    #[test]
    fn wire_frames_round_trip_bit_exactly(frame in any_frame()) {
        let bytes = frame.encode();
        match decode_frame(&bytes) {
            Ok(Decoded::Frame(out, consumed)) => {
                prop_assert_eq!(consumed, bytes.len());
                prop_assert!(frames_bit_equal(&frame, &out), "decoded {:?} from {:?}", out, frame);
            }
            other => prop_assert!(false, "expected a frame, got {:?}", other),
        }
    }

    /// Every strict prefix of a valid frame is Incomplete — truncation
    /// never panics, never errors, never yields a frame.
    #[test]
    fn wire_truncation_is_always_incomplete(frame in any_frame(), cut in 0usize..4096) {
        let bytes = frame.encode();
        let cut = cut % bytes.len().max(1);
        match decode_frame(&bytes[..cut]) {
            Ok(Decoded::Incomplete) => {}
            other => prop_assert!(false, "prefix of {} decoded as {:?}", cut, other),
        }
    }

    /// A single flipped byte can never decode as a valid frame: the CRC
    /// (or the magic/version check) always catches it, with a typed
    /// outcome — corrupt-and-skip, incomplete, or a fatal desync error.
    #[test]
    fn wire_byte_flips_never_yield_a_frame(frame in any_frame(), pos in 0usize..4096, bit in 0usize..8) {
        let mut bytes = frame.encode();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        match decode_frame(&bytes) {
            Ok(Decoded::Frame(_, _)) => {
                prop_assert!(false, "flipped byte {} decoded as a valid frame", pos)
            }
            Ok(Decoded::Corrupt(_, skip)) => prop_assert!(skip > 0 && skip <= bytes.len()),
            Ok(Decoded::Incomplete) => {
                // A corrupted length field can inflate the frame past the
                // buffer; the partial-frame timeout reaps this in practice.
            }
            Err(_) => {
                // Fatal desync: only from damage to the fixed prelude —
                // magic (0..2), version (2), or a length byte (4..8)
                // inflated past the payload cap (Oversize).
                prop_assert!(pos < 8, "fatal error from byte {} past the prelude", pos);
            }
        }
    }

    /// A two-frame stream resyncs past arbitrary corruption of the first
    /// frame's interior: the second frame always decodes intact.
    #[test]
    fn wire_stream_resyncs_after_skippable_corruption(
        a in any_frame(),
        b in any_frame(),
        pos in 0usize..4096,
    ) {
        let mut bytes = a.encode();
        let first_len = bytes.len();
        // Corrupt strictly inside the CRC-covered region (past magic,
        // version, and the length field) so the damage is skippable.
        let lo = HEADER_LEN.min(first_len.saturating_sub(1));
        let pos = lo + pos % (first_len - lo).max(1);
        bytes[pos.min(first_len - 1)] ^= 0xFF;
        bytes.extend_from_slice(&b.encode());
        prop_assert_eq!(&bytes[..2], &MAGIC[..]);
        let mut cursor = 0usize;
        let mut decoded = Vec::new();
        loop {
            match decode_frame(&bytes[cursor..]) {
                Ok(Decoded::Frame(f, n)) => { decoded.push(f); cursor += n; }
                Ok(Decoded::Corrupt(_, n)) => cursor += n,
                Ok(Decoded::Incomplete) => break,
                Err(e) => prop_assert!(false, "desync at {}: {}", cursor, e),
            }
            if cursor >= bytes.len() { break; }
        }
        prop_assert_eq!(decoded.len(), 1, "exactly the second frame survives");
        prop_assert!(frames_bit_equal(&decoded[0], &b));
    }

    /// The ingest journal round-trips hostile float payloads bit-exactly
    /// and tolerates any torn tail without panicking.
    #[test]
    fn ingest_log_round_trips_and_tolerates_torn_tails(
        samples in prop::collection::vec((0usize..64, 0usize..4096, wire_values()), 1..16),
        cut in 0usize..4096,
    ) {
        let mut log = IngestLog::new();
        for (i, (node, at, values)) in samples.iter().enumerate() {
            log.append(i, &TelemetrySample { node: *node, at: *at, values: values.clone() });
        }
        let full = parse_log(log.as_bytes()).expect("a clean log parses");
        prop_assert_eq!(full.len(), samples.len());
        for (rec, (node, at, values)) in full.iter().zip(&samples) {
            prop_assert_eq!(rec.sample.node, *node);
            prop_assert_eq!(rec.sample.at, *at);
            prop_assert_eq!(rec.sample.values.len(), values.len());
            for (x, y) in rec.sample.values.iter().zip(values) {
                prop_assert!(values_codec_equal(*x, *y), "{:?} vs {:?}", x, y);
            }
        }
        // A torn tail drops at most the trailing record, never panics.
        let cut = cut % log.as_bytes().len().max(1);
        if let Ok(records) = parse_log(&log.as_bytes()[..cut]) {
            prop_assert!(records.len() < samples.len());
            for (rec, (node, _, _)) in records.iter().zip(&samples) {
                prop_assert_eq!(rec.sample.node, *node);
            }
        }
    }
}

// ---- alba-par: determinism stress matrix -----------------------------
//
// Random (workers, shards, nodes, fault-plan) tuples, each judged
// against the single-worker oracle for the same configuration: the
// merged event log and the deployed model must be *byte-identical*
// whatever the pool size. A short slice of the matrix runs in tier-1;
// the full sweep is `#[ignore]`d and wired behind `ci.sh --full`.

use albadross_repro::chaos::{FaultEvent, FaultKind, FaultPlan};
use albadross_repro::framework::{MonitorConfig, System};
use albadross_repro::obs::{MemorySink, Obs, TickClock};
use albadross_repro::serve::{FleetService, ServeConfig};
use albadross_repro::telemetry::Scale;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One randomly drawn stress cell.
#[derive(Debug)]
struct StressCell {
    seed: u64,
    nodes: usize,
    shards: usize,
    workers: usize,
    duration: usize,
    plan: FaultPlan,
}

/// Draws one cell; every dimension that may interact with the merge
/// barrier is randomised — pool size, shard count (including shards >
/// nodes leaving some shards empty), fleet size, and a fault plan
/// mixing shard panics with telemetry faults.
fn draw_cell(rng: &mut StdRng) -> StressCell {
    let nodes = rng.gen_range(4usize..=20);
    let shards = rng.gen_range(1usize..=6);
    let workers = rng.gen_range(2usize..=8);
    let duration = rng.gen_range(90usize..=130);
    let kinds = [
        FaultKind::ShardPanic,
        FaultKind::ShardPanic, // weighted: panics exercise the supervisor
        FaultKind::NodeBlackout,
        FaultKind::GarbageSensor,
        FaultKind::StuckSensor,
    ];
    let events = (0..rng.gen_range(0usize..=4))
        .map(|_| {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let target = match kind {
                FaultKind::ShardPanic => rng.gen_range(0..shards),
                _ => rng.gen_range(0..nodes),
            };
            FaultEvent {
                kind,
                tick: rng.gen_range(10..duration.saturating_sub(10).max(11)),
                duration: rng.gen_range(1usize..=8),
                target,
                metric: 0,
                magnitude: 1,
            }
        })
        .collect();
    let plan =
        FaultPlan { seed: 0, horizon: duration + 60, n_nodes: nodes, n_shards: shards, events };
    StressCell { seed: rng.gen_range(0u64..1 << 32), nodes, shards, workers, duration, plan }
}

/// Runs one cell at the given worker count; returns the event log and
/// the deployed model (serialised), the byte-identity artifacts.
fn stress_run(cell: &StressCell, workers: usize) -> (Vec<String>, String) {
    let mut cfg = ServeConfig::new(System::Volta, Scale::Smoke, cell.nodes, cell.seed);
    cfg.fleet.duration_override_s = Some(cell.duration);
    cfg.monitor = MonitorConfig { window: 60, stride: 10, confirm: 2, min_confidence: 0.5 };
    cfg.n_shards = cell.shards;
    cfg.n_workers = workers;
    cfg.uncertainty_threshold = 0.35;
    cfg.retrain_batch = 6;
    cfg.max_retrains = 1;
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::with_clock(Arc::new(TickClock::new()), Some(sink.clone()));
    let mut svc = FleetService::with_chaos_plan(cfg, cell.plan.clone(), obs);
    svc.run_to_completion();
    (sink.lines(), svc.model().to_json())
}

/// Judges `cells` random tuples against their 1-worker oracles.
fn stress_matrix(rng_seed: u64, cells: usize) {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut total_events = 0usize;
    for i in 0..cells {
        let cell = draw_cell(&mut rng);
        let (oracle_events, oracle_model) = stress_run(&cell, 1);
        let (events, model) = stress_run(&cell, cell.workers);
        assert_eq!(oracle_events, events, "cell {i} diverged from the 1-worker oracle: {cell:?}");
        assert_eq!(oracle_model, model, "cell {i} deployed a different model: {cell:?}");
        total_events += events.len();
    }
    assert!(total_events > 0, "a stress sweep with no events proves nothing");
}

/// Tier-1 slice of the matrix: a handful of random cells on every run.
#[test]
fn parallel_stress_matrix_smoke() {
    stress_matrix(0xA1BA_0901, 3);
}

/// The full sweep — minutes, not seconds — behind `ci.sh --full`:
/// `cargo test -q parallel_stress_matrix_full -- --ignored`.
#[test]
#[ignore = "full stress sweep; run via ci.sh --full"]
fn parallel_stress_matrix_full() {
    stress_matrix(0xA1BA_0902, 24);
}
