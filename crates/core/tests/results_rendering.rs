//! The results writer's integer timestamp path against the float
//! formatting it replaces: `push_secs6` must write exactly the bytes of
//! `format!("{:.6}", us as f64 / 1e6)` for every `u64`, on both sides
//! of the `2⁵²` µs fast-path bound. Replay a failure with
//! `DIABLO_PROP_SEED=0x…`.

use diablo_core::output::{push_secs6, SECS6_EXACT_BELOW};
use diablo_testkit::gen::{u32s, u64s, BoxedGen, Gen};
use diablo_testkit::{prop_assert_eq, Property};

fn float_secs6(us: u64) -> String {
    format!("{:.6}", us as f64 / 1e6)
}

fn int_secs6(us: u64) -> String {
    let mut out = Vec::new();
    push_secs6(&mut out, us);
    String::from_utf8(out).expect("ASCII")
}

/// Log-uniform `u64`s: a bit width in 0..=64, then a uniform value of
/// that width, so every order of magnitude is drawn equally often.
fn log_uniform_u64() -> BoxedGen<u64> {
    (u32s(0..=64), u64s(0..=u64::MAX))
        .map(|(bits, raw)| match bits {
            0 => 0,
            bits => raw >> (64 - bits),
        })
        .boxed()
}

#[test]
fn secs6_matches_float_formatting_at_the_edges() {
    let bound = SECS6_EXACT_BELOW;
    let mut edges = vec![
        0,
        1,
        9,
        10,
        99,
        100,
        999_999,
        1_000_000,
        1_000_001,
        9_999_999,
        10_000_000,
        99_999_999,
        100_000_000,
        u64::MAX,
        u64::MAX - 1,
    ];
    edges.extend((bound - 2_000..bound + 2_000).step_by(7));
    edges.extend([bound - 1, bound, bound + 1]);
    edges.extend((0..=19).map(|e| 10u64.pow(e)));
    edges.extend((0..=19).map(|e| 10u64.pow(e) - 1));
    for us in edges.into_iter().chain(0..200_000) {
        assert_eq!(int_secs6(us), float_secs6(us), "us = {us}");
    }
}

#[test]
fn secs6_matches_float_formatting() {
    Property::new("push_secs6 == {:.6} of us / 1e6")
        .cases(20_000)
        .check(&log_uniform_u64(), |&us| {
            prop_assert_eq!(int_secs6(us), float_secs6(us));
            Ok(())
        });
}
