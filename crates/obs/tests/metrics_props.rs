//! Property-based tests for the lock-free log-bucketed histogram: bucket
//! geometry invariants, percentile error bounds against exact sorted
//! samples, shard-merge equivalence, and exposition round-trips.
//!
//! The vendored proptest only generates scalars, so each test takes a
//! seed and synthesizes its sample vector with a local splitmix64 —
//! deterministic per case, varied across cases.

use proptest::prelude::*;
use ramiel_obs::metrics::{bucket_bounds, bucket_index, Histogram};
use ramiel_obs::{parse_prometheus, quantile_from_buckets, Metrics};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` values spread across the magnitudes that show up in practice:
/// sub-octave singletons, microsecond-scale, second-scale, and full-range
/// nanosecond counts. `max_bits` caps the magnitude (64 = anything).
fn samples(seed: u64, n: usize, max_bits: u32) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            let r = splitmix(&mut state);
            let v = match r % 4 {
                0 => r % 64,
                1 => r % 100_000,
                2 => r % 10_000_000_000,
                _ => splitmix(&mut state),
            };
            if max_bits >= 64 {
                v
            } else {
                v & ((1u64 << max_bits) - 1)
            }
        })
        .collect()
}

/// Exact quantile of a sorted sample set, matching the histogram's
/// rank definition (`rank = ceil(q * n)`, 1-based, clamped).
fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every value lands inside its own bucket's bounds, and consecutive
    /// buckets tile the u64 range without gaps or overlaps.
    #[test]
    fn bucket_bounds_contain_their_values(v in any::<u64>()) {
        let i = bucket_index(v);
        let (lower, upper) = bucket_bounds(i);
        prop_assert!(lower <= v && v <= upper, "v={} not in bucket {} [{}, {}]", v, i, lower, upper);
        if upper < u64::MAX {
            prop_assert_eq!(bucket_bounds(i + 1).0, upper + 1, "gap after bucket {}", i);
        }
    }

    /// Reported percentiles sit within one bucket of the exact sorted-
    /// sample percentile: never below it, and above it by at most the
    /// bucket's width (≤ value/8 + 1 by the 8-sub-buckets-per-octave
    /// scheme).
    #[test]
    fn percentiles_within_one_bucket_of_exact(
        seed in any::<u64>(), n in 1usize..300, qi in 1usize..100,
    ) {
        let values = samples(seed, n, 64);
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values;
        sorted.sort_unstable();
        let snap = h.snapshot();
        for q in [qi as f64 / 100.0, 0.5, 0.9, 0.99, 1.0] {
            let exact = exact_percentile(&sorted, q);
            let approx = snap.percentile(q);
            prop_assert!(approx >= exact, "q={}: approx {} < exact {}", q, approx, exact);
            prop_assert!(
                approx - exact <= exact / 8 + 1,
                "q={}: approx {} off exact {} by more than one bucket", q, approx, exact
            );
        }
        // p100 is exact: the histogram tracks the true max.
        prop_assert_eq!(snap.percentile(1.0), *sorted.last().unwrap());
    }

    /// Merging per-shard snapshots is indistinguishable from recording
    /// the union into a single histogram (count, sum, max, every bucket).
    #[test]
    fn merge_of_shards_equals_union(
        seed in any::<u64>(), shard_count in 1usize..6, per_shard in 0usize..60,
    ) {
        let union = Histogram::new();
        let mut merged = Histogram::new().snapshot();
        for s in 0..shard_count {
            let shard = samples(seed ^ (s as u64) << 32, per_shard, 64);
            let h = Histogram::new();
            for &v in &shard {
                h.record(v);
                union.record(v);
            }
            merged.merge(&h.snapshot());
        }
        let expected = union.snapshot();
        prop_assert_eq!(merged.count, expected.count);
        prop_assert_eq!(merged.sum, expected.sum);
        prop_assert_eq!(merged.max, expected.max);
        for (i, count) in expected.nonzero() {
            prop_assert_eq!(merged.bucket(i), count, "bucket {} diverged", i);
        }
    }

    /// Prometheus text rendering round-trips: parsing the exposition
    /// recovers the count, sum, and cumulative bucket structure, and a
    /// client-side quantile from the parsed buckets agrees with the
    /// snapshot's own percentile to within one bucket. Values stay below
    /// 2^40 so the text → f64 path is exact.
    #[test]
    fn render_parse_roundtrip(seed in any::<u64>(), n in 1usize..120) {
        let values = samples(seed, n, 40);
        let m = Metrics::enabled();
        let h = m.histogram("t_ns", "test series", &[("model", "m")]);
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        let text = m.render_prometheus(false);
        let parsed = parse_prometheus(&text);

        let count = parsed.iter().find(|s| s.name == "t_ns_count").expect("count");
        prop_assert_eq!(count.value as u64, snap.count);
        let sum = parsed.iter().find(|s| s.name == "t_ns_sum").expect("sum");
        prop_assert_eq!(sum.value as u64, snap.sum);

        let mut buckets: Vec<(f64, f64)> = parsed
            .iter()
            .filter(|s| s.name == "t_ns_bucket")
            .map(|s| {
                let le = s.label("le").expect("le label").parse::<f64>().expect("le value");
                (le, s.value)
            })
            .collect();
        buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        // Cumulative counts are monotone and end at the total.
        for pair in buckets.windows(2) {
            prop_assert!(pair[0].1 <= pair[1].1, "cumulative counts must be monotone");
        }
        prop_assert_eq!(buckets.last().expect("+Inf bucket").1 as u64, snap.count);

        // The wire-side quantile is the bucket's upper edge; the snapshot
        // additionally clamps to the observed max, so they agree to
        // within one bucket's width.
        let wire = quantile_from_buckets(&buckets, 0.5) as u64;
        let own = snap.percentile(0.5);
        prop_assert!(own <= wire, "snapshot p50 {} above wire p50 {}", own, wire);
        prop_assert!(wire - own <= own / 8 + 1, "wire p50 {} more than a bucket past {}", wire, own);
    }
}
