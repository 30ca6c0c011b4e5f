//! Named-site fault injection for exercising the campaign's
//! crash-safety machinery (journal + resume, panic quarantine,
//! watchdog, retry) from tests and CI.
//!
//! A failpoint is a named call site (`failpoint::fire("measure.rep")`)
//! that normally does nothing. Arming a spec — via `campaign run
//! --failpoints SPEC` or the `SIMBENCH_FAILPOINTS` environment
//! variable — attaches an action to a site: panic with a payload, hang
//! for a duration, return a transient error, or abort the process
//! (simulating a crash between journal records).
//!
//! Disarmed cost: [`fire`] is one relaxed atomic load and a branch —
//! no allocation, no lock, no formatting — so sprinkling sites through
//! measurement code cannot violate the alloc-free steady-state
//! guarantee, and the sites live outside the hot-path-linted dispatch
//! files anyway (failures are injected per repetition, never per
//! instruction).
//!
//! # Spec grammar
//!
//! ```text
//! SPEC   := SITE '=' ACTION (';' SITE '=' ACTION)*
//! ACTION := [SKIP '+'] [N '*'] KIND
//! KIND   := 'panic' ['(' MSG ')']
//!         | 'hang'  '(' MILLIS ')'
//!         | 'err'   ['(' MSG ')']
//!         | 'abort'
//! ```
//!
//! `SKIP+` skips the first SKIP hits of the site; `N*` fires at most N
//! times after the skip window. Both default to "from the first hit"
//! and "every hit". Examples:
//!
//! - `measure.rep=1*panic(injected)` — panic on the first repetition,
//!   run everything after cleanly (one cell quarantines, the rest of
//!   the matrix completes).
//! - `measure.rep=4+hang(60000)` — let four repetitions finish, then
//!   hang each later one for 60 s (watchdog / kill -9 fodder).
//! - `journal.append=2+abort` — crash the process after two journal
//!   records, leaving a prefix for `--resume` to replay.
//!
//! Current sites: `measure.rep` (entry of every measurement attempt),
//! `measure.finish` (after a measurement returns, before its sample is
//! recorded), `journal.append` (before each journal record is
//! written).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Environment variable consulted by [`arm_from_env`]; same grammar as
/// the `--failpoints` flag.
const ENV_VAR: &str = "SIMBENCH_FAILPOINTS";

/// Fast-path gate: false until the first successful [`arm`]. Checked
/// with one relaxed load so disarmed sites cost a branch and nothing
/// else.
static ARMED: AtomicBool = AtomicBool::new(false);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Action {
    Panic(String),
    Hang(u64),
    Err(String),
    Abort,
}

#[derive(Debug)]
struct SiteState {
    /// Hits to let through before firing.
    skip: u64,
    /// Cap on firings after the skip window (`None` = unbounded).
    times: Option<u64>,
    action: Action,
    hits: u64,
    fired: u64,
}

fn registry() -> &'static Mutex<HashMap<String, SiteState>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, SiteState>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock_registry() -> std::sync::MutexGuard<'static, HashMap<String, SiteState>> {
    // A panic is this module's product, not a reason to wedge: recover
    // the registry from poisoning so later sites keep firing.
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arm failpoints from a spec string (see the module docs for the
/// grammar). Merges into any already-armed sites; a site named twice
/// keeps the later action. Errors name the offending clause.
pub fn arm(spec: &str) -> Result<(), String> {
    let mut parsed = Vec::new();
    for clause in spec.split(';') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (site, action) = clause
            .split_once('=')
            .ok_or_else(|| format!("failpoint clause {clause:?}: expected SITE=ACTION"))?;
        let site = site.trim();
        if site.is_empty() {
            return Err(format!("failpoint clause {clause:?}: empty site name"));
        }
        let state =
            parse_action(action.trim()).map_err(|e| format!("failpoint clause {clause:?}: {e}"))?;
        parsed.push((site.to_string(), state));
    }
    if parsed.is_empty() {
        return Err("empty failpoint spec".to_string());
    }
    let mut reg = lock_registry();
    for (site, state) in parsed {
        reg.insert(site, state);
    }
    drop(reg);
    ARMED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Arm from [`ENV_VAR`] if it is set and non-empty. Returns whether a
/// spec was armed; a malformed spec is an error, not a silent no-op.
pub fn arm_from_env() -> Result<bool, String> {
    match std::env::var(ENV_VAR) {
        Ok(spec) if !spec.trim().is_empty() => arm(&spec).map(|()| true),
        _ => Ok(false),
    }
}

/// Disarm every site and reset hit counts (test isolation).
pub fn disarm_all() {
    ARMED.store(false, Ordering::Relaxed);
    lock_registry().clear();
}

fn parse_action(s: &str) -> Result<SiteState, String> {
    let mut rest = s;
    let mut skip = 0u64;
    let mut times = None;
    // Leading `SKIP+` then `N*`, both optional. Kind names never start
    // with a digit, so leading digits always belong to a count.
    if let Some((n, after)) = leading_count(rest, '+') {
        skip = n;
        rest = after;
    }
    if let Some((n, after)) = leading_count(rest, '*') {
        times = Some(n);
        rest = after;
    }
    let (kind, arg) = match rest.split_once('(') {
        None => (rest, None),
        Some((kind, tail)) => {
            let arg = tail
                .strip_suffix(')')
                .ok_or_else(|| format!("unclosed argument in {rest:?}"))?;
            (kind, Some(arg))
        }
    };
    let action = match (kind, arg) {
        ("panic", arg) => Action::Panic(arg.unwrap_or("injected panic").to_string()),
        ("hang", Some(ms)) => Action::Hang(
            ms.trim()
                .parse()
                .map_err(|_| format!("hang wants milliseconds, got {ms:?}"))?,
        ),
        ("hang", None) => return Err("hang wants a duration: hang(MILLIS)".to_string()),
        ("err", arg) => Action::Err(arg.unwrap_or("injected transient error").to_string()),
        ("abort", None) => Action::Abort,
        ("abort", Some(_)) => return Err("abort takes no argument".to_string()),
        (other, _) => {
            return Err(format!(
                "unknown kind {other:?} (expected panic/hang/err/abort)"
            ))
        }
    };
    Ok(SiteState {
        skip,
        times,
        action,
        hits: 0,
        fired: 0,
    })
}

/// Parse a leading `<digits><sep>` prefix; `None` when `s` does not
/// start with one.
fn leading_count(s: &str, sep: char) -> Option<(u64, &str)> {
    let digits = s.len() - s.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    if digits == 0 {
        return None;
    }
    let rest = &s[digits..];
    let rest = rest.strip_prefix(sep)?;
    s[..digits].parse().ok().map(|n| (n, rest))
}

/// Hit a failpoint site. Disarmed (the overwhelmingly common state):
/// one relaxed load, one branch, `Ok(())`. Armed with a matching site:
/// the configured action — `panic` unwinds with its payload, `hang`
/// sleeps, `err` returns the message as a transient error, `abort`
/// kills the process without unwinding.
#[inline]
pub fn fire(site: &str) -> Result<(), String> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    fire_armed(site)
}

#[cold]
fn fire_armed(site: &str) -> Result<(), String> {
    let action = {
        let mut reg = lock_registry();
        let Some(state) = reg.get_mut(site) else {
            return Ok(());
        };
        state.hits += 1;
        if state.hits <= state.skip {
            return Ok(());
        }
        if state.times.is_some_and(|t| state.fired >= t) {
            return Ok(());
        }
        state.fired += 1;
        state.action.clone()
        // The lock drops here: a hang must never wedge other sites.
    };
    simbench_obs::warn!("[campaign] failpoint {site}: firing {action:?}");
    match action {
        Action::Panic(msg) => panic!("{msg}"),
        Action::Hang(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        Action::Err(msg) => Err(msg),
        Action::Abort => {
            // Simulates a hard crash (power loss / kill -9): no unwind,
            // no destructors, no flush of buffered state.
            simbench_obs::log::line(format_args!("failpoint {site}: aborting process"));
            std::process::abort();
        }
    }
}

/// The registry is process-global, so in-process tests that arm it
/// (here, in `runner`, wherever) must serialize on this guard and
/// disarm on entry; the guard disarms again on drop.
#[cfg(test)]
pub(crate) struct TestGuard {
    _serialize: std::sync::MutexGuard<'static, ()>,
}

#[cfg(test)]
impl Drop for TestGuard {
    fn drop(&mut self) {
        disarm_all();
    }
}

#[cfg(test)]
pub(crate) fn test_guard() -> TestGuard {
    static GUARD: Mutex<()> = Mutex::new(());
    let g = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    disarm_all();
    TestGuard { _serialize: g }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard() -> TestGuard {
        test_guard()
    }

    #[test]
    fn disarmed_sites_are_no_ops() {
        let _g = guard();
        assert_eq!(fire("measure.rep"), Ok(()));
        assert_eq!(fire("anything.at.all"), Ok(()));
    }

    #[test]
    fn err_kind_fires_with_skip_and_count() {
        let _g = guard();
        arm("site.a=1+2*err(flaky)").unwrap();
        assert_eq!(fire("site.a"), Ok(()), "first hit is skipped");
        assert_eq!(fire("site.a"), Err("flaky".to_string()));
        assert_eq!(fire("site.a"), Err("flaky".to_string()));
        assert_eq!(fire("site.a"), Ok(()), "count exhausted");
        assert_eq!(fire("site.b"), Ok(()), "unarmed sites stay quiet");
        disarm_all();
        assert_eq!(fire("site.a"), Ok(()));
    }

    #[test]
    fn panic_kind_unwinds_with_its_payload() {
        let _g = guard();
        arm("site.p=panic(boom)").unwrap();
        let payload = std::panic::catch_unwind(|| fire("site.p")).unwrap_err();
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "boom");
        disarm_all();
    }

    #[test]
    fn hang_kind_sleeps_then_succeeds() {
        let _g = guard();
        arm("site.h=hang(10)").unwrap();
        let t0 = std::time::Instant::now();
        assert_eq!(fire("site.h"), Ok(()));
        assert!(t0.elapsed() >= Duration::from_millis(10));
        disarm_all();
    }

    #[test]
    fn defaults_and_multi_clause_specs_parse() {
        let _g = guard();
        arm("a=panic; b=err ; c=3*err(x)").unwrap();
        let payload = std::panic::catch_unwind(|| fire("a")).unwrap_err();
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "injected panic");
        assert_eq!(fire("b"), Err("injected transient error".to_string()));
        assert_eq!(fire("c"), Err("x".to_string()));
        disarm_all();
    }

    #[test]
    fn malformed_specs_are_errors() {
        let _g = guard();
        for bad in [
            "",
            "   ",
            "no-equals",
            "=panic",
            "s=hang",
            "s=hang(soon)",
            "s=abort(now)",
            "s=explode",
            "s=panic(unclosed",
            "s=5panic",
        ] {
            assert!(arm(bad).is_err(), "{bad:?} should not parse");
        }
        assert!(
            !ARMED.load(Ordering::Relaxed),
            "failed arms must not half-arm"
        );
    }
}
