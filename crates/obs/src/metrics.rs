//! Named monotonic counters and log₂-bucket histograms.
//!
//! Metrics are declared as `static` items at their recording site —
//! const-constructible, so declaring one costs nothing:
//!
//! ```
//! static TRANSLATIONS: simbench_obs::Counter =
//!     simbench_obs::Counter::new("dbt.translations");
//! TRANSLATIONS.add(1);
//! ```
//!
//! An update first checks the process-global metrics flag (relaxed
//! load + branch — the disabled path ends there), then a relaxed
//! `fetch_add`. A metric registers itself in the process registry on
//! its first *enabled* update, so the disabled path never touches the
//! registry lock and never allocates. [`snapshot`] reads the registry
//! into a name-sorted, deterministic form the campaign schema persists
//! as its `telemetry` block.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Histogram bucket count: bucket `b` (1..=64) counts values whose bit
/// length is `b`, i.e. `v` in `[2^(b-1), 2^b)`; bucket 0 counts zeros.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A named monotonic counter.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Const constructor for `static` declarations.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n`. One relaxed load + branch when metrics are off.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !crate::metrics_enabled() {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().lock().unwrap().push(Metric::Counter(self));
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A named histogram over log₂ buckets: cheap enough for hot paths
/// (bit-length bucketing, one relaxed `fetch_add`), coarse enough to
/// stay fixed-size.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    registered: AtomicBool,
}

impl Histogram {
    /// Const constructor for `static` declarations.
    pub const fn new(name: &'static str) -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            registered: AtomicBool::new(false),
        }
    }

    /// The histogram's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record one observation. One relaxed load + branch when metrics
    /// are off.
    #[inline]
    pub fn observe(&'static self, v: u64) {
        if !crate::metrics_enabled() {
            return;
        }
        let bucket = (u64::BITS - v.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().lock().unwrap().push(Metric::Histogram(self));
        }
    }

    /// Sparse read: `(bucket index, count)` for nonzero buckets.
    fn nonzero_buckets(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let v = b.load(Ordering::Relaxed);
                (v != 0).then_some((i as u32, v))
            })
            .collect()
    }
}

enum Metric {
    Counter(&'static Counter),
    Histogram(&'static Histogram),
}

fn registry() -> &'static Mutex<Vec<Metric>> {
    static REGISTRY: OnceLock<Mutex<Vec<Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// A deterministic, name-sorted read of every registered metric.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` for every counter that has been updated while
    /// metrics were enabled, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, sparse log₂ buckets)` per histogram, sorted by name.
    pub histograms: Vec<(String, Vec<(u32, u64)>)>,
}

impl Snapshot {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }
}

/// Snapshot the registry. Registration order is first-update order
/// (nondeterministic under threads), so the snapshot sorts by name.
pub fn snapshot() -> Snapshot {
    let registry = registry().lock().unwrap();
    let mut snap = Snapshot::default();
    for m in registry.iter() {
        match m {
            Metric::Counter(c) => snap.counters.push((c.name.to_string(), c.get())),
            Metric::Histogram(h) => snap
                .histograms
                .push((h.name.to_string(), h.nonzero_buckets())),
        }
    }
    snap.counters.sort();
    snap.histograms.sort();
    snap
}

/// The lower bound of histogram bucket `b`: 0 for bucket 0, else
/// `2^(b-1)`. Rendering helper for reports.
pub fn bucket_floor(b: u32) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_COUNTER: Counter = Counter::new("test.counter");
    static TEST_HIST: Histogram = Histogram::new("test.hist");

    #[test]
    fn disabled_updates_are_dropped_and_unregistered() {
        let _guard = crate::test_guard();
        crate::set_metrics(false);
        static OFF: Counter = Counter::new("test.never_enabled");
        OFF.add(5);
        assert_eq!(OFF.get(), 0);
        assert!(
            !snapshot()
                .counters
                .iter()
                .any(|(n, _)| n == "test.never_enabled"),
            "a metric never updated while enabled must not register"
        );
    }

    #[test]
    fn enabled_counters_accumulate_and_register_once() {
        let _guard = crate::test_guard();
        crate::set_metrics(true);
        let before = TEST_COUNTER.get();
        TEST_COUNTER.add(2);
        TEST_COUNTER.add(3);
        crate::set_metrics(false);
        assert_eq!(TEST_COUNTER.get(), before + 5);
        let snap = snapshot();
        let hits = snap
            .counters
            .iter()
            .filter(|(n, _)| n == "test.counter")
            .count();
        assert_eq!(hits, 1, "registered exactly once: {snap:?}");
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let _guard = crate::test_guard();
        crate::set_metrics(true);
        for v in [0, 1, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            TEST_HIST.observe(v);
        }
        crate::set_metrics(false);
        let buckets: std::collections::BTreeMap<u32, u64> =
            TEST_HIST.nonzero_buckets().into_iter().collect();
        assert!(buckets[&0] >= 1, "zero bucket");
        assert!(buckets[&1] >= 2, "v=1 has bit length 1");
        assert!(buckets[&2] >= 2, "v=2,3");
        assert!(buckets[&3] >= 1, "v=4");
        assert!(buckets[&10] >= 1, "v=1023");
        assert!(buckets[&11] >= 1, "v=1024");
        assert!(buckets[&64] >= 1, "v=u64::MAX");
        let snap = snapshot();
        assert!(snap.histograms.iter().any(|(n, _)| n == "test.hist"));
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let _guard = crate::test_guard();
        crate::set_metrics(true);
        static A: Counter = Counter::new("test.zz_last");
        static B: Counter = Counter::new("test.aa_first");
        A.add(1);
        B.add(1);
        crate::set_metrics(false);
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn bucket_floor_bounds() {
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(2), 2);
        assert_eq!(bucket_floor(11), 1024);
        assert_eq!(bucket_floor(64), 1 << 63);
    }
}
