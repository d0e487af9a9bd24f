//! `f64::total_cmp` order as unsigned integer keys.
//!
//! Sorting `u64` keys with `sort_unstable` is several times faster than
//! `sort_by(f64::total_cmp)` on short slices, and gives the same output:
//! two values `total_cmp` calls equal have the same bits, so stability
//! cannot change which bits land where. The forest presort and the
//! extractors' sorted copies both sort this way.
//!
//! NaN is the one value whose bits arithmetic does not fix:
//! [`canonical_nan`] gives every NaN one pattern.

/// An unsigned integer whose order is `f64::total_cmp`'s.
pub fn total_order_key(v: f64) -> u64 {
    let bits = v.to_bits() as i64;
    let signed = bits ^ ((((bits >> 63) as u64) >> 1) as i64);
    (signed as u64) ^ (1 << 63)
}

/// The value behind a [`total_order_key`] (its inverse, bit for bit).
pub fn from_total_order_key(key: u64) -> f64 {
    let signed = (key ^ (1 << 63)) as i64;
    f64::from_bits((signed ^ ((((signed >> 63) as u64) >> 1) as i64)) as u64)
}

/// Replaces every NaN in `values` with `f64::NAN` and leaves every other
/// value's bits alone. When both operands of an x86 float op are NaN
/// the result takes the first one's sign and payload, and the optimiser
/// may order a commutative op's operands differently in each inlined
/// copy of a kernel, so one expression can return `NaN` in one caller
/// and `-NaN` in another. The feature extractors pass what they append
/// through this, so their outputs agree bit for bit.
pub fn canonical_nan(values: &mut [f64]) {
    for v in values.iter_mut().filter(|v| v.is_nan()) {
        *v = f64::NAN;
    }
}

/// Sorts `values` into `f64::total_cmp` order through their keys;
/// `keys` is a reusable buffer whose contents on entry are unspecified.
/// Bit-identical to `values.sort_by(f64::total_cmp)`.
pub fn sort_total(values: &mut [f64], keys: &mut Vec<u64>) {
    keys.clear();
    keys.extend(values.iter().map(|&v| total_order_key(v)));
    keys.sort_unstable();
    for (v, &k) in values.iter_mut().zip(keys.iter()) {
        *v = from_total_order_key(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Values that stress the order: both NaN signs (with payloads),
    /// both zeros, both infinities, subnormals, and heavy ties.
    fn nasty() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(f64::NAN),
            Just(-f64::NAN),
            Just(f64::from_bits(0x7ff8_0000_0000_0123)),
            Just(f64::from_bits(0xfff0_0000_0000_0001)),
            Just(0.0),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::MIN_POSITIVE / 8.0),
            Just(-f64::MIN_POSITIVE / 8.0),
            Just(1.0),
            Just(-1.0),
            -1e9f64..1e9,
            (0..u64::MAX).prop_map(f64::from_bits),
        ]
    }

    #[test]
    fn keys_follow_total_cmp_on_the_special_values() {
        let ordered = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1.0,
            -f64::MIN_POSITIVE / 8.0,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 8.0,
            1.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for w in ordered.windows(2) {
            assert!(total_order_key(w[0]) < total_order_key(w[1]), "{} !< {}", w[0], w[1]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn key_round_trips_and_orders_like_total_cmp(a in nasty(), b in nasty()) {
            prop_assert_eq!(from_total_order_key(total_order_key(a)).to_bits(), a.to_bits());
            prop_assert_eq!(total_order_key(a).cmp(&total_order_key(b)), a.total_cmp(&b));
        }

        #[test]
        fn key_sort_is_bit_identical_to_sort_by_total_cmp(
            values in prop::collection::vec(nasty(), 0..130),
        ) {
            let mut want = values.clone();
            want.sort_by(f64::total_cmp);
            let mut got = values;
            // A stale, oversized buffer must not leak into the result.
            let mut keys = vec![7; 200];
            sort_total(&mut got, &mut keys);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
        }

        #[test]
        fn canonical_nan_rewrites_only_nan(values in prop::collection::vec(nasty(), 0..40)) {
            let mut got = values.clone();
            canonical_nan(&mut got);
            for (g, v) in got.iter().zip(&values) {
                let want = if v.is_nan() { f64::NAN } else { *v };
                prop_assert_eq!(g.to_bits(), want.to_bits());
            }
        }
    }
}
