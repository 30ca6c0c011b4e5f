//! Leveled stderr logging shared by the campaign runner and the CLI.
//!
//! Three levels, set once from the command line (`--quiet` → warn
//! only, default → info, `-v` → debug) and read with one relaxed load
//! per log site. Status output goes to stderr; stdout stays reserved
//! for data (tables, reports, JSON), so piping results never captures
//! chatter. Use via the crate-root macros [`crate::warn!`],
//! [`crate::info!`] and [`crate::debug!`]; every line they print goes
//! through [`line`].

use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};

/// Warnings only (`--quiet`).
pub const LEVEL_QUIET: u8 = 0;
/// Warnings + status lines (default).
pub const LEVEL_INFO: u8 = 1;
/// Everything, including per-job progress (`-v`).
pub const LEVEL_DEBUG: u8 = 2;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_INFO);

/// Set the process log level.
pub fn set_level(level: u8) {
    LEVEL.store(level.min(LEVEL_DEBUG), Ordering::Relaxed);
}

/// The current level.
pub fn level() -> u8 {
    LEVEL.load(Ordering::Relaxed)
}

/// Would a message at `at` print? One relaxed load.
#[inline]
pub fn enabled(at: u8) -> bool {
    at <= LEVEL.load(Ordering::Relaxed)
}

/// Write one line to stderr under its lock, dropping the error: a
/// stderr that cannot be written (a closed pipe) loses the line, never
/// the process.
pub fn line(args: fmt::Arguments<'_>) {
    let _ = writeln!(std::io::stderr().lock(), "{args}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_gate_monotonically() {
        let _guard = crate::test_guard();
        set_level(LEVEL_QUIET);
        assert!(enabled(LEVEL_QUIET));
        assert!(!enabled(LEVEL_INFO));
        assert!(!enabled(LEVEL_DEBUG));
        set_level(LEVEL_INFO);
        assert!(enabled(LEVEL_INFO));
        assert!(!enabled(LEVEL_DEBUG));
        set_level(LEVEL_DEBUG);
        assert!(enabled(LEVEL_DEBUG));
        // Out-of-range requests clamp instead of inventing a level.
        set_level(250);
        assert_eq!(level(), LEVEL_DEBUG);
        set_level(LEVEL_INFO);
    }
}
