//! A process-wide stock of values that outlive their owner.
//!
//! A campaign is thousands of boot-to-halt runs, each of which builds a
//! platform and an engine and throws both away: what they allocate —
//! guest RAM, TLB arrays, decode arenas, block tables — costs more to
//! make than a short run spends using it. The owner's `Drop` therefore
//! [`give`](Pool::give)s those parts to a `static` [`Pool`] and the
//! next constructor [`take`](Pool::take)s them before allocating. What
//! state a part may carry across is its owner's business: the pool
//! keeps whatever it is given.
//!
//! Pools are process-wide rather than per thread because the campaign
//! watchdog runs every repetition on a thread of its own. One never
//! holds more than were alive at once.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Values between owners, most recently given last.
#[derive(Debug)]
pub struct Pool<T>(Mutex<Vec<T>>);

impl<T> Pool<T> {
    /// An empty pool, for a `static`.
    pub const fn new() -> Self {
        Pool(Mutex::new(Vec::new()))
    }

    /// Every update is one `push` or `remove`, so a holder that
    /// panics cannot leave the list half-updated.
    fn items(&self) -> MutexGuard<'_, Vec<T>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Remove and return the most recently given value that `fits`.
    pub fn take(&self, fits: impl FnMut(&T) -> bool) -> Option<T> {
        let mut items = self.items();
        let i = items.iter().rposition(fits)?;
        Some(items.remove(i))
    }

    /// Hand `item` to the next [`Pool::take`] it fits.
    pub fn give(&self, item: T) {
        self.items().push(item);
    }
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;

    #[test]
    fn takes_the_latest_fit_and_leaves_the_rest() {
        static POOL: Pool<(u8, &str)> = Pool::new();
        assert_eq!(POOL.take(|_| true), None);
        for item in [(1, "a"), (2, "b"), (1, "c"), (3, "d")] {
            POOL.give(item);
        }
        assert_eq!(POOL.take(|i| i.0 == 1), Some((1, "c")));
        assert_eq!(POOL.take(|i| i.0 == 1), Some((1, "a")));
        assert_eq!(POOL.take(|i| i.0 == 1), None);
        assert_eq!(POOL.take(|_| true), Some((3, "d")));
        assert_eq!(POOL.take(|_| true), Some((2, "b")));
        assert_eq!(POOL.take(|_| true), None);
    }

    #[test]
    fn a_panic_under_the_lock_loses_nothing() {
        let pool = Pool::new();
        pool.give(7);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            pool.take(|_| panic!("while holding the lock"))
        }));
        assert!(unwound.is_err());
        assert_eq!(pool.take(|_| true), Some(7));
    }
}
