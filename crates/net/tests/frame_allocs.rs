//! Allocation count of one telemetry frame encode.
//!
//! A counting global allocator tallies allocation events (`alloc`,
//! `alloc_zeroed`, `realloc`) made by the current thread while a
//! `Frame::Telemetry` is encoded. The frame `Vec` starts at header size
//! and `put_telemetry_payload` reserves the payload's varint upper bound
//! once, so an encode costs at most two events whatever the readings'
//! bit patterns: the header allocation and that one reserve.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use alba_net::frame::decode_frame;
use alba_net::{Decoded, Frame};

struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static EVENTS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    if ON.try_with(Cell::get).unwrap_or(false) {
        let _ = EVENTS.try_with(|e| e.set(e.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Encodes `frame` and returns the bytes with the allocation events the
/// encode made on this thread.
fn counted_encode(frame: &Frame) -> (Vec<u8>, usize) {
    EVENTS.with(|e| e.set(0));
    ON.with(|on| on.set(true));
    let bytes = frame.encode();
    ON.with(|on| on.set(false));
    (bytes, EVENTS.with(Cell::get))
}

/// splitmix64: full-width pseudo-random bit patterns, so most XOR
/// varints take their 9–10 byte worst case.
fn bits(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const SPECIALS: [f64; 7] =
    [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 5e-324, -2.2e-308];

fn readings(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|i| {
            if i % 5 == 0 {
                SPECIALS[(i / 5) % SPECIALS.len()]
            } else {
                f64::from_bits(bits(&mut state))
            }
        })
        .collect()
}

#[test]
fn telemetry_encode_allocates_at_most_twice() {
    for n in [721, 68] {
        for seed in 0..4 {
            let values = readings(n, seed);
            let frame = Frame::Telemetry { node: u64::MAX - seed, at: 1 << 40, values };
            let (bytes, events) = counted_encode(&frame);
            assert!(events <= 2, "{n} readings (seed {seed}): {events} allocation events");
            match decode_frame(&bytes) {
                Ok(Decoded::Frame(Frame::Telemetry { values, .. }, used)) => {
                    assert_eq!(used, bytes.len());
                    assert_eq!(values.len(), n);
                }
                other => panic!("{n} readings (seed {seed}) did not decode: {other:?}"),
            }
        }
    }
}
