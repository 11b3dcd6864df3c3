//! Process-wide caching telemetry and the runtime caching kill-switch.
//!
//! The performance layer computes every derived certificate artifact (DER
//! bytes, fingerprints, SPKI digests, pin strings, chain validations, Merkle
//! proof batches) exactly once per distinct input. Two properties make that
//! trustworthy rather than magic:
//!
//! * **Observability** — every cache keeps a [`CacheCounter`] of hits and
//!   misses. The study surfaces the counters in its run-health table, so a
//!   reported speedup can be traced to concrete avoided recomputation.
//! * **Falsifiability** — a global kill-switch ([`set_caching_enabled`])
//!   turns every cache into a pass-through. Benchmarks and CI run the same
//!   workload both ways in one process and assert the outputs are
//!   byte-identical; the speedup claim is measured, not assumed.
//!
//! Counters are monotone process-wide atomics. Callers that want per-run
//! numbers snapshot before and after (see [`CacheCounter::snapshot`] and
//! [`CacheStat::delta_since`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Global switch: when `false`, every derived-value cache recomputes from
/// scratch on each call (counters are left untouched in that mode).
static CACHING_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables all derived-value caches; returns the previous state.
///
/// Results must be identical either way — the switch exists so benchmarks
/// and CI can A/B the cached and uncached paths inside one process and fail
/// loudly if they ever diverge.
pub fn set_caching_enabled(enabled: bool) -> bool {
    CACHING_ENABLED.swap(enabled, Ordering::Relaxed)
}

/// Whether derived-value caching is currently enabled.
pub fn caching_enabled() -> bool {
    CACHING_ENABLED.load(Ordering::Relaxed)
}

/// RAII guard that disables caching for a scope and restores the previous
/// state on drop. Scopes using the guard must not overlap across threads
/// (the switch is global); tests serialize around it.
#[derive(Debug)]
pub struct CachingDisabledGuard {
    prev: bool,
}

/// Disables caching until the returned guard is dropped.
pub fn caching_disabled_scope() -> CachingDisabledGuard {
    CachingDisabledGuard {
        prev: set_caching_enabled(false),
    }
}

impl Drop for CachingDisabledGuard {
    fn drop(&mut self) {
        set_caching_enabled(self.prev);
    }
}

/// Hit/miss counters for one named cache. Declared as `static`s by each
/// caching site; cheap enough to bump on every access.
#[derive(Debug)]
pub struct CacheCounter {
    name: &'static str,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CacheCounter {
    /// Creates a counter (usable in `static` position).
    pub const fn new(name: &'static str) -> Self {
        CacheCounter {
            name,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cache's stable display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records a cache hit.
    pub fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a cache miss (the value was computed and stored).
    pub fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Current cumulative numbers.
    pub fn snapshot(&self) -> CacheStat {
        CacheStat {
            name: self.name.to_string(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time reading of one cache's counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStat {
    /// Cache name (e.g. `"cert-der"`).
    pub name: String,
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that computed and stored a fresh value.
    pub misses: u64,
}

impl CacheStat {
    /// Total queries served.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]` (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }

    /// The activity between an earlier snapshot `base` of the same counter
    /// and this one — what a single study run contributed.
    pub fn delta_since(&self, base: &CacheStat) -> CacheStat {
        debug_assert_eq!(self.name, base.name);
        CacheStat {
            name: self.name.clone(),
            hits: self.hits.saturating_sub(base.hits),
            misses: self.misses.saturating_sub(base.misses),
        }
    }
}

/// Cached DER encodings ([`crate::cert::Certificate::der_bytes`]).
pub static CERT_DER: CacheCounter = CacheCounter::new("cert-der");
/// Cached certificate fingerprints.
pub static CERT_FINGERPRINT: CacheCounter = CacheCounter::new("cert-fingerprint");
/// Cached SPKI SHA-256 digests.
pub static CERT_SPKI_SHA256: CacheCounter = CacheCounter::new("cert-spki-sha256");
/// Cached SPKI SHA-1 digests.
pub static CERT_SPKI_SHA1: CacheCounter = CacheCounter::new("cert-spki-sha1");
/// Cached `sha256/<base64>` pin strings.
pub static CERT_PIN_STRING: CacheCounter = CacheCounter::new("cert-pin-string");
/// Memoized chain-validation verdicts ([`crate::validate::validate_chain_cached`]).
pub static CHAIN_VALIDATION: CacheCounter = CacheCounter::new("chain-validation");

/// Snapshots of every cache owned by this crate, in stable order.
pub fn snapshot_all() -> Vec<CacheStat> {
    [
        &CERT_DER,
        &CERT_FINGERPRINT,
        &CERT_SPKI_SHA256,
        &CERT_SPKI_SHA1,
        &CERT_PIN_STRING,
        &CHAIN_VALIDATION,
    ]
    .iter()
    .map(|c| c.snapshot())
    .collect()
}

/// Serializes the unit tests that touch process-global cache state —
/// clearing the validation memo, asserting what it holds, or flipping the
/// caching kill switch — so one cannot change it under another's
/// assertions. Every such test in this crate must hold the guard.
#[cfg(test)]
pub(crate) fn cache_state_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        static C: CacheCounter = CacheCounter::new("test-counter");
        let base = C.snapshot();
        C.hit();
        C.hit();
        C.miss();
        let now = C.snapshot();
        let d = now.delta_since(&base);
        assert_eq!((d.hits, d.misses), (2, 1));
        assert_eq!(d.total(), 3);
        assert!((d.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn kill_switch_guard_restores() {
        let _state = cache_state_lock();
        let before = caching_enabled();
        {
            let _g = caching_disabled_scope();
            assert!(!caching_enabled());
        }
        assert_eq!(caching_enabled(), before);
    }

    #[test]
    fn unused_counter_rate_is_zero() {
        static C: CacheCounter = CacheCounter::new("idle");
        assert_eq!(C.snapshot().hit_rate(), 0.0);
        assert_eq!(C.name(), "idle");
    }
}
