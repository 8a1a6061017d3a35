//! Flight recorder: an always-on ring of the last N events per thread,
//! dumped on contained failures.
//!
//! Unlike the main event buffer (which grows until [`crate::drain`]) the
//! flight ring is bounded and survives even when nobody plans to drain:
//! its job is to hold the immediate pre-history of a crash. The crash
//! containment machinery (`flexile::pool` worker panics, scenario
//! quarantine, the subproblem watchdog) calls [`dump`] with a reason;
//! the recorder merges every thread's ring, sorts by `(ts_us, tid)` and
//! writes a JSONL black-box trace:
//!
//! ```text
//! {"type":"flight","reason":"worker_panic","ts_us":123,"events":42}
//! {"type":"event","name":"flexile.scenario","ts_us":...,...}
//! ...
//! ```
//!
//! Dumps go to the directory configured via [`set_dump_dir`] or the
//! `FLEXILE_FLIGHT_DIR` environment variable (checked once, lazily); the
//! most recent dump is always retained in memory for tests and for the
//! dashboard regardless of whether a directory is configured. Recording
//! costs one `VecDeque` rotation per event and can be disabled entirely
//! with [`set_capacity`]`(0)`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Default per-thread ring size: enough to cover a scenario solve's
/// span tail without measurable memory cost.
pub const DEFAULT_CAPACITY: usize = 128;

static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static DUMP_DIR: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
static LAST_DUMP: OnceLock<Mutex<Option<String>>> = OnceLock::new();
static SEQ: AtomicU64 = AtomicU64::new(0);

fn dump_dir() -> &'static Mutex<Option<PathBuf>> {
    DUMP_DIR.get_or_init(|| {
        Mutex::new(std::env::var_os("FLEXILE_FLIGHT_DIR").map(PathBuf::from))
    })
}

fn last_dump() -> &'static Mutex<Option<String>> {
    LAST_DUMP.get_or_init(|| Mutex::new(None))
}

/// Current per-thread ring capacity; 0 disables recording.
#[inline]
pub fn capacity() -> usize {
    CAPACITY.load(Ordering::Relaxed)
}

/// Set the per-thread ring capacity. 0 disables recording (existing ring
/// contents are kept until the owning thread records its next event).
pub fn set_capacity(n: usize) {
    CAPACITY.store(n, Ordering::Relaxed);
}

/// Direct dumps to `dir` (created on first dump). Overrides the
/// `FLEXILE_FLIGHT_DIR` environment variable.
pub fn set_dump_dir<P: AsRef<Path>>(dir: P) {
    *dump_dir().lock().unwrap_or_else(PoisonError::into_inner) =
        Some(dir.as_ref().to_path_buf());
}

/// The most recent dump's JSONL text, if any dump has happened.
pub fn last() -> Option<String> {
    last_dump()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Drop the retained in-memory dump and empty every registered thread's
/// ring (test isolation: a finished thread whose buffer is not yet retired
/// would otherwise leak its events into the next dump).
pub fn clear_last() {
    *last_dump().lock().unwrap_or_else(PoisonError::into_inner) = None;
    crate::clear_flight_rings();
}

/// Merge all thread rings into one black-box JSONL trace, retain it in
/// memory, and — if a dump directory is configured — write it to
/// `flight-<reason>-<seq>.jsonl` there. Returns the file path when one
/// was written. Never panics: I/O errors only forfeit the file, not the
/// in-memory copy, because this runs inside crash containment.
pub fn dump(reason: &str) -> Option<PathBuf> {
    // With the sink disabled the rings are empty — an empty black box
    // helps nobody, so the crash hooks become free no-ops.
    if !crate::enabled() {
        return None;
    }
    let events = crate::flight_events();
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"type\":\"flight\",\"reason\":\"");
    crate::export::json_escape_into(&mut out, reason);
    out.push_str("\",\"ts_us\":");
    out.push_str(&crate::now().to_string());
    out.push_str(",\"events\":");
    out.push_str(&events.len().to_string());
    out.push_str("}\n");
    for e in &events {
        crate::export::write_jsonl_event(&mut out, e);
        out.push('\n');
    }
    *last_dump().lock().unwrap_or_else(PoisonError::into_inner) = Some(out.clone());
    crate::add("obs.flight_dump", 1);

    let dir = dump_dir()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()?;
    if std::fs::create_dir_all(&dir).is_err() {
        return None;
    }
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let safe: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let path = dir.join(format!("flight-{safe}-{seq}.jsonl"));
    match std::fs::write(&path, &out) {
        Ok(()) => Some(path),
        Err(_) => None,
    }
}
