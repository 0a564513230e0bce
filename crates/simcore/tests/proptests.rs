//! Property tests for the simulation primitives.

use dmsa_simcore::interval::{merge, union_len_within, Interval};
use dmsa_simcore::stats::{geometric_mean, mean, percentile, OnlineStats};
use dmsa_simcore::{EventQueue, QueueBackend, SimDuration, SimTime};
use proptest::prelude::*;

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (0i64..2_000, 0i64..500)
        .prop_map(|(a, len)| Interval::new(SimTime::from_millis(a), SimTime::from_millis(a + len)))
}

/// Brute-force union length: count covered milliseconds one by one.
fn union_len_brute(intervals: &[Interval], window: Interval) -> i64 {
    let mut covered = 0;
    for ms in window.start.as_millis()..window.end.as_millis() {
        let t = SimTime::from_millis(ms);
        if intervals.iter().any(|iv| iv.contains(t)) {
            covered += 1;
        }
    }
    covered
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn union_len_matches_brute_force(
        intervals in prop::collection::vec(interval_strategy(), 0..12),
        win_start in 0i64..1_000,
        win_len in 0i64..800,
    ) {
        let window = Interval::new(
            SimTime::from_millis(win_start),
            SimTime::from_millis(win_start + win_len),
        );
        let fast = union_len_within(&intervals, window).as_millis();
        let brute = union_len_brute(&intervals, window);
        prop_assert_eq!(fast, brute);
    }

    #[test]
    fn merge_output_is_disjoint_sorted_and_preserves_union(
        intervals in prop::collection::vec(interval_strategy(), 0..12),
    ) {
        let merged = merge(&intervals);
        // Sorted, disjoint, non-empty members.
        for w in merged.windows(2) {
            prop_assert!(w[0].end < w[1].start, "not disjoint: {:?}", w);
        }
        for iv in &merged {
            prop_assert!(!iv.is_empty());
        }
        // Union length is preserved.
        let window = Interval::new(SimTime::from_millis(0), SimTime::from_millis(4_000));
        prop_assert_eq!(
            union_len_within(&intervals, window),
            union_len_within(&merged, window)
        );
    }

    #[test]
    fn event_queue_equals_stable_sort(
        times in prop::collection::vec(0i64..1_000, 1..64),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_millis(t), i);
        }
        let mut expected: Vec<(i64, usize)> =
            times.iter().copied().zip(0..).collect();
        // Stable sort by time == FIFO among equal timestamps.
        expected.sort_by_key(|&(t, _)| t);
        let got: Vec<(i64, usize)> =
            std::iter::from_fn(|| q.pop()).map(|(t, i)| (t.as_millis(), i)).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn queue_clock_is_monotone_under_interleaving(
        ops in prop::collection::vec((0i64..500, any::<bool>()), 1..64),
    ) {
        let mut q = EventQueue::new();
        let mut last = SimTime::EPOCH;
        for &(dt, push) in &ops {
            if push || q.is_empty() {
                q.push(q.now() + SimDuration::from_millis(dt), ());
            } else if let Some((t, ())) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }
        while let Some((t, ())) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn percentile_is_bounded_and_monotone(
        xs in prop::collection::vec(-1e6f64..1e6, 1..100),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let lo = p1.min(p2);
        let hi = p1.max(p2);
        let vlo = percentile(&xs, lo).unwrap();
        let vhi = percentile(&xs, hi).unwrap();
        prop_assert!(vlo <= vhi + 1e-9);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(vlo >= min - 1e-9 && vhi <= max + 1e-9);
    }

    #[test]
    fn am_gm_inequality(xs in prop::collection::vec(1e-3f64..1e6, 1..50)) {
        let am = mean(&xs).unwrap();
        let gm = geometric_mean(&xs).unwrap();
        prop_assert!(am >= gm * (1.0 - 1e-12), "AM {am} < GM {gm}");
    }

    #[test]
    fn online_stats_merge_is_order_independent(
        xs in prop::collection::vec(-1e3f64..1e3, 1..60),
        split in 0usize..60,
    ) {
        let split = split.min(xs.len());
        let (a, b) = xs.split_at(split);
        let fold = |slice: &[f64]| {
            let mut s = OnlineStats::new();
            for &x in slice {
                s.add(x);
            }
            s
        };
        let mut ab = fold(a);
        ab.merge(&fold(b));
        let mut ba = fold(b);
        ba.merge(&fold(a));
        prop_assert_eq!(ab.count(), ba.count());
        if let (Some(m1), Some(m2)) = (ab.mean(), ba.mean()) {
            prop_assert!((m1 - m2).abs() < 1e-9);
        }
        if let (Some(v1), Some(v2)) = (ab.variance(), ba.variance()) {
            prop_assert!((v1 - v2).abs() < 1e-6);
        }
    }
}

// ---------------------------------------------------------------------------
// Calendar queue vs reference binary heap: the two backends must be
// observationally identical — same pop order (FIFO among equal
// timestamps included) and byte-identical checkpoint images.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random interleavings of pushes and pops (with deliberately heavy
    /// timestamp collisions from the tiny time range) pop identically
    /// from both backends, down to the last event.
    #[test]
    fn calendar_and_heap_backends_pop_identically(
        ops in prop::collection::vec((0i64..25, prop::bool::weighted(0.4)), 1..120),
    ) {
        let mut cal = EventQueue::with_backend(QueueBackend::Calendar);
        let mut heap = EventQueue::with_backend(QueueBackend::BinaryHeap);
        for (next, &(gap, pop_now)) in (0u32..).zip(&ops) {
            // Push relative to the consumed clock so time never regresses.
            let at = cal.now() + SimDuration::from_millis(gap);
            cal.push(at, next);
            heap.push(at, next);
            if pop_now {
                prop_assert_eq!(cal.pop(), heap.pop());
                prop_assert_eq!(cal.now(), heap.now());
            }
        }
        loop {
            let a = cal.pop();
            prop_assert_eq!(a, heap.pop());
            if a.is_none() {
                break;
            }
        }
    }

    /// Same-tick ties drain in push (FIFO) order on both backends.
    #[test]
    fn same_tick_ties_are_fifo_on_both_backends(
        n in 1usize..40,
        t in 0i64..1_000,
    ) {
        for backend in [QueueBackend::Calendar, QueueBackend::BinaryHeap] {
            let mut q = EventQueue::with_backend(backend);
            let at = SimTime::from_millis(t);
            for i in 0..n {
                q.push(at, i);
            }
            for i in 0..n {
                prop_assert_eq!(q.pop(), Some((at, i)));
            }
            prop_assert!(q.pop().is_none());
        }
    }

    /// `snapshot_entries` → `restore_with_backend` round-trips onto
    /// either backend: the restored queue snapshots byte-identically and
    /// drains exactly like the original.
    #[test]
    fn restore_round_trips_on_both_backends(
        gaps in prop::collection::vec(0i64..20, 1..60),
        pops in 0usize..20,
        onto_heap in any::<bool>(),
    ) {
        let mut q = EventQueue::new();
        for (i, &gap) in gaps.iter().enumerate() {
            let at = q.now() + SimDuration::from_millis(gap);
            q.push(at, i as u32);
        }
        for _ in 0..pops.min(gaps.len()) {
            q.pop();
        }
        let entries: Vec<(SimTime, u64, u32)> = q
            .snapshot_entries()
            .into_iter()
            .map(|(t, s, &e)| (t, s, e))
            .collect();
        let backend = if onto_heap {
            QueueBackend::BinaryHeap
        } else {
            QueueBackend::Calendar
        };
        let mut r =
            EventQueue::restore_with_backend(entries.clone(), q.next_seq(), q.now(), backend);
        prop_assert_eq!(r.backend(), backend);
        prop_assert_eq!(r.next_seq(), q.next_seq());
        prop_assert_eq!(r.now(), q.now());
        // Identical canonical checkpoint image...
        let reimage: Vec<(SimTime, u64, u32)> = r
            .snapshot_entries()
            .into_iter()
            .map(|(t, s, &e)| (t, s, e))
            .collect();
        prop_assert_eq!(&reimage, &entries);
        // ...and an identical drain.
        loop {
            let a = q.pop();
            prop_assert_eq!(a, r.pop());
            if a.is_none() {
                break;
            }
        }
    }
}
