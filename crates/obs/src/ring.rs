//! Per-thread lock-free event rings.
//!
//! Each recording thread owns one fixed-capacity ring, created lazily
//! on its first *enabled* record and registered in a process-global
//! list for draining. The writer never takes a lock and never
//! allocates after ring creation: a push is a sequence-number store, a
//! payload write and a release store. The ring keeps the most recent
//! [`RING_CAP`] events — campaign traces care about the recent window,
//! and an unbounded log would violate the allocation-free contract.
//!
//! Draining is seqlock-style: the drainer snapshots each slot and
//! accepts it only if the slot's sequence number is stable and marks a
//! completed write. In practice the harness drains after the worker
//! pool has been joined (a happens-before edge), so torn slots only
//! arise when a trace is pulled from a still-running campaign; those
//! slots are skipped, never misread.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Events kept per thread. Power of two so the index mask is one AND.
const RING_CAP: usize = 4096;

/// What kind of trace record an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A span opened.
    Begin,
    /// A span closed.
    End,
    /// A point event with no duration.
    Instant,
}

/// One trace record. `Copy` and pointer-free so a ring slot write is a
/// plain store and a torn snapshot is harmless garbage, not UB-adjacent
/// pointer chasing.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Record kind.
    pub phase: Phase,
    /// Static site name (e.g. `"dbt.translate"`).
    pub name: &'static str,
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
}

const EMPTY: Event = Event {
    phase: Phase::Instant,
    name: "",
    ts_ns: 0,
};

struct Slot {
    /// `2*i + 1` while slot `i` (mod cap) is being written, `2*i + 2`
    /// once the write completed. A drainer accepts a slot only when it
    /// reads the same completed value before and after the copy.
    seq: AtomicU64,
    event: UnsafeCell<Event>,
}

/// One thread's event ring. Only the owning thread writes; any thread
/// may drain.
pub(crate) struct Ring {
    slots: Box<[Slot]>,
    /// Next write position (monotonic; the slot index is `head % cap`).
    head: AtomicU64,
    /// Small dense id for trace output (`tid`).
    pub tid: u64,
}

// The UnsafeCell payloads are published via the per-slot seq protocol
// above; a torn read is detected and discarded.
unsafe impl Sync for Ring {}

impl Ring {
    fn new(tid: u64) -> Ring {
        let slots = (0..RING_CAP)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                event: UnsafeCell::new(EMPTY),
            })
            .collect();
        Ring {
            slots,
            head: AtomicU64::new(0),
            tid,
        }
    }

    /// Append an event, overwriting the oldest when full. Writer-side
    /// only: must be called by the ring's owning thread.
    pub fn push(&self, event: Event) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head as usize) & (RING_CAP - 1)];
        slot.seq.store(head * 2 + 1, Ordering::Relaxed);
        // Mark in progress before the payload store so a concurrent
        // drain can never accept a half-written slot.
        unsafe { *slot.event.get() = event };
        slot.seq.store(head * 2 + 2, Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Snapshot the retained events, oldest first, plus the count of
    /// events that fell off the ring. Slots caught mid-write are
    /// skipped.
    pub fn drain(&self) -> (Vec<Event>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let dropped = head.saturating_sub(RING_CAP as u64);
        let mut out = Vec::with_capacity((head - dropped) as usize);
        for i in dropped..head {
            let slot = &self.slots[(i as usize) & (RING_CAP - 1)];
            let done = i * 2 + 2;
            if slot.seq.load(Ordering::Acquire) != done {
                continue;
            }
            let ev = unsafe { std::ptr::read_volatile(slot.event.get()) };
            if slot.seq.load(Ordering::Acquire) == done {
                out.push(ev);
            }
        }
        (out, dropped)
    }
}

fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    // Lazily bound so a thread that never records while tracing is
    // enabled never allocates a ring.
    static MY_RING: OnceLock<Arc<Ring>> = const { OnceLock::new() };
}

/// Run `f` with the calling thread's ring, creating and registering it
/// on first use. Only called from enabled recording paths.
pub(crate) fn with_ring(f: impl FnOnce(&Ring)) {
    MY_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            static NEXT_TID: AtomicUsize = AtomicUsize::new(1);
            let ring = Arc::new(Ring::new(NEXT_TID.fetch_add(1, Ordering::Relaxed) as u64));
            rings().lock().unwrap().push(Arc::clone(&ring));
            ring
        });
        f(ring)
    });
}

/// Snapshot every registered ring: `(tid, events, dropped)` per
/// recording thread, in registration order.
pub fn drain_all() -> Vec<(u64, Vec<Event>, u64)> {
    let rings = rings().lock().unwrap();
    rings
        .iter()
        .map(|r| {
            let (events, dropped) = r.drain();
            (r.tid, events, dropped)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent_events_in_order() {
        let ring = Ring::new(7);
        for i in 0..10u64 {
            ring.push(Event {
                phase: Phase::Instant,
                name: "t",
                ts_ns: i,
            });
        }
        let (events, dropped) = ring.drain();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 10);
        assert!(events.windows(2).all(|w| w[0].ts_ns + 1 == w[1].ts_ns));
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let ring = Ring::new(1);
        for i in 0..(RING_CAP as u64 + 10) {
            ring.push(Event {
                phase: Phase::Begin,
                name: "x",
                ts_ns: i,
            });
        }
        let (events, dropped) = ring.drain();
        assert_eq!(dropped, 10);
        assert_eq!(events.len(), RING_CAP);
        assert_eq!(events[0].ts_ns, 10, "oldest surviving event");
        assert_eq!(events.last().unwrap().ts_ns, RING_CAP as u64 + 9);
    }

    #[test]
    fn drain_is_nondestructive() {
        let ring = Ring::new(2);
        ring.push(Event {
            phase: Phase::Instant,
            name: "once",
            ts_ns: 1,
        });
        assert_eq!(ring.drain().0.len(), 1);
        assert_eq!(ring.drain().0.len(), 1);
    }

    #[test]
    fn concurrent_drain_never_sees_torn_half_writes() {
        // A writer hammers the ring while a drainer snapshots it; every
        // accepted event must be one the writer actually completed
        // (name matches, ts within the written range).
        let ring = Arc::new(Ring::new(3));
        let w = Arc::clone(&ring);
        let writer = std::thread::spawn(move || {
            for i in 0..100_000u64 {
                w.push(Event {
                    phase: Phase::End,
                    name: "w",
                    ts_ns: i,
                });
            }
        });
        for _ in 0..50 {
            let (events, _) = ring.drain();
            for e in events {
                assert_eq!(e.name, "w");
                assert!(e.ts_ns < 100_000);
            }
        }
        writer.join().unwrap();
    }
}
