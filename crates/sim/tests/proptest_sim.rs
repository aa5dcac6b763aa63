//! Property tests of the simulation kernel: time arithmetic, merging and
//! statistics invariants under arbitrary inputs.

use swallow_sim::stats::{LatencySketch, LinearFit};
use swallow_sim::{kway_merge_by, DetRng, Frequency, Time, TimeDelta};
use swallow_testkit::proptest::prelude::*;

proptest! {
    /// Period/cycle conversions are consistent for any frequency.
    #[test]
    fn frequency_cycle_round_trip(mhz in 1u64..2000, cycles in 0u64..100_000) {
        let f = Frequency::from_mhz(mhz);
        let span = f.cycles(cycles);
        prop_assert_eq!(f.cycles_in(span), cycles);
        // One period less always yields one cycle fewer (for cycles > 0).
        if cycles > 0 {
            prop_assert_eq!(f.cycles_in(span - TimeDelta::from_ps(1)), cycles - 1);
        }
    }

    /// Time arithmetic is associative with deltas and never wraps in range.
    #[test]
    fn time_arithmetic(a in 0u64..1_000_000, b in 0u64..1_000_000, c in 0u64..1_000_000) {
        let t = Time::from_ps(a);
        let d1 = TimeDelta::from_ps(b);
        let d2 = TimeDelta::from_ps(c);
        prop_assert_eq!((t + d1) + d2, t + (d1 + d2));
        prop_assert_eq!((t + d1) - t, d1);
        prop_assert_eq!((t + d1).since(t), d1);
    }

    /// A linear fit recovers exact coefficients from exact data.
    #[test]
    fn linear_fit_recovers_exact_lines(
        intercept in -1e3f64..1e3,
        slope in -1e3f64..1e3,
        n in 3usize..50,
    ) {
        let mut fit = LinearFit::new();
        for i in 0..n {
            let x = i as f64;
            fit.push(x, intercept + slope * x);
        }
        let (a, b) = fit.solve().expect("distinct xs");
        prop_assert!((a - intercept).abs() < 1e-6 * intercept.abs().max(1.0));
        prop_assert!((b - slope).abs() < 1e-6 * slope.abs().max(1.0));
    }

    /// The RNG's below() is in range and deterministic per seed.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut a = DetRng::seed_from(seed);
        let mut b = DetRng::seed_from(seed);
        for _ in 0..50 {
            let x = a.below(bound);
            prop_assert!(x < bound);
            prop_assert_eq!(x, b.below(bound));
        }
    }

    /// Every sketch quantile under-estimates the exact order statistic by
    /// at most 1/32 of itself, at any count and value scale.
    #[test]
    fn latency_sketch_quantile_error_bound(
        values in proptest::collection::vec(0u64..u64::MAX / 2, 1..300),
        qs in proptest::collection::vec(0.0f64..1.0, 1..8),
    ) {
        let mut sketch = LatencySketch::new();
        for &v in &values {
            sketch.record(v);
        }
        prop_assert_eq!(sketch.count(), values.len() as u64);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sketch.min(), sorted.first().copied());
        prop_assert_eq!(sketch.max(), sorted.last().copied());
        for &q in &qs {
            let rank = ((sorted.len() as f64 * q).ceil().max(1.0) as usize)
                .min(sorted.len());
            let exact = sorted[rank - 1];
            let est = sketch.quantile(q).expect("non-empty");
            prop_assert!(est <= exact, "q={} est {} > exact {}", q, est, exact);
            prop_assert!(
                exact - est <= est / 32,
                "q={} exact {} est {} outside 1/32", q, exact, est
            );
        }
    }

    /// Merging sketches is exactly equivalent to recording the
    /// concatenated stream, however the values are split.
    #[test]
    fn latency_sketch_merge_is_concatenation(
        values in proptest::collection::vec(0u64..1_000_000_000, 1..200),
        split in 0usize..200,
    ) {
        let cut = split.min(values.len());
        let (mut left, mut right, mut whole) = (
            LatencySketch::new(), LatencySketch::new(), LatencySketch::new(),
        );
        for (i, &v) in values.iter().enumerate() {
            if i < cut { left.record(v) } else { right.record(v) }
            whole.record(v);
        }
        left.merge(&right);
        prop_assert_eq!(&left, &whole);
        for q in [0.5, 0.95, 0.99] {
            prop_assert_eq!(left.quantile(q), whole.quantile(q));
        }
    }

    /// k-way merge of sorted shards equals a stable sort of the whole.
    #[test]
    fn kway_merge_matches_stable_sort(
        raw in proptest::collection::vec(
            proptest::collection::vec(0u64..64, 0..40), 0..6),
    ) {
        let streams: Vec<Vec<u64>> = raw
            .into_iter()
            .map(|mut s| { s.sort_unstable(); s })
            .collect();
        let mut tagged: Vec<(u64, usize)> = Vec::new();
        for (i, s) in streams.iter().enumerate() {
            tagged.extend(s.iter().map(|&v| (v, i)));
        }
        tagged.sort_by_key(|&(v, i)| (v, i));
        let merged = kway_merge_by(streams, |&v| v);
        let expect: Vec<u64> = tagged.into_iter().map(|(v, _)| v).collect();
        prop_assert_eq!(merged, expect);
    }
}
