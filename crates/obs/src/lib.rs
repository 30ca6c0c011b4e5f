//! # simbench-obs
//!
//! Low-overhead telemetry for every layer of SimBench-rs: spans and
//! instant events on per-thread lock-free ring buffers ([`ring`],
//! [`trace`]), a registry of named monotonic counters and log-bucket
//! histograms ([`metrics`]), a leveled stderr logger ([`log`]), and
//! streaming per-cell campaign progress ([`progress`]).
//!
//! ## Zero-cost when off
//!
//! Telemetry is always compiled in and *disabled by default*. Every
//! recording site first checks a process-global `AtomicBool` with a
//! relaxed load — the disabled path is one load and one predictable
//! branch, touches no locks, and **never allocates** (per-thread rings
//! are created lazily on the first *enabled* record, metric
//! registration happens on the first *enabled* update). The repo's
//! counting-allocator test (`tests/alloc_free.rs`) pins this: the
//! engine hot loops allocate zero times with this crate linked in.
//!
//! Tracing ([`set_tracing`]) and metrics ([`set_metrics`]) are opt-in
//! per process — `simbench-harness campaign run --trace FILE` switches
//! both on — so default measurement runs are never perturbed.
//!
//! This crate deliberately depends on nothing, so every other crate in
//! the workspace (engines included) can depend on it.

use std::sync::atomic::{AtomicBool, Ordering};

pub mod log;
pub mod metrics;
pub mod progress;
pub mod ring;
pub mod shutdown;
pub mod trace;

pub use metrics::{Counter, Histogram};
pub use progress::ProgressMode;
pub use trace::Span;

static TRACING: AtomicBool = AtomicBool::new(false);
static METRICS: AtomicBool = AtomicBool::new(false);

/// Is span/event recording on? One relaxed load.
#[inline(always)]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Switch span/event recording on or off (process-global).
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Is metric recording on? One relaxed load.
#[inline(always)]
pub fn metrics_enabled() -> bool {
    METRICS.load(Ordering::Relaxed)
}

/// Switch metric recording on or off (process-global).
pub fn set_metrics(on: bool) {
    METRICS.store(on, Ordering::Relaxed);
}

/// Open a scoped span: records a begin event now and an end event when
/// the returned guard drops. Compiles to a relaxed load + branch when
/// tracing is off. Bind the guard: `let _span = obs::span!("name");`.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::trace::Span::enter($name)
    };
}

/// Record an instant event (a point in time, no duration).
#[macro_export]
macro_rules! event {
    ($name:literal) => {
        $crate::trace::instant($name)
    };
}

/// Log at warn level: always printed, even under `--quiet`.
#[macro_export]
macro_rules! warn {
    ($($t:tt)*) => {{
        $crate::log::line(format_args!($($t)*));
    }};
}

/// Log at info level: printed unless `--quiet`.
#[macro_export]
macro_rules! info {
    ($($t:tt)*) => {{
        if $crate::log::enabled($crate::log::LEVEL_INFO) {
            $crate::log::line(format_args!($($t)*));
        }
    }};
}

/// Log at debug level: printed only under `-v`.
#[macro_export]
macro_rules! debug {
    ($($t:tt)*) => {{
        if $crate::log::enabled($crate::log::LEVEL_DEBUG) {
            $crate::log::line(format_args!($($t)*));
        }
    }};
}

/// Serializes tests that touch the process-global enable flags,
/// registry or rings: libtest runs tests on parallel threads, and two
/// tests flipping [`set_metrics`] concurrently would observe each
/// other. Every such test takes this guard first.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_default_off_and_toggle() {
        let _guard = crate::test_guard();
        // Default-off is the zero-cost contract; toggles are observable.
        set_tracing(false);
        set_metrics(false);
        assert!(!tracing_enabled());
        assert!(!metrics_enabled());
        set_tracing(true);
        set_metrics(true);
        assert!(tracing_enabled());
        assert!(metrics_enabled());
        set_tracing(false);
        set_metrics(false);
    }
}
