//! Activity of the public cache counters over one repetition.
//!
//! The counters are process-wide and monotone, so a repetition's share is
//! the difference between snapshots taken before and after it.

use pinning_pki::cache::CacheStat;
use std::collections::BTreeMap;

/// Every public cache counter, named `<layer>.<cache>` after the crate
/// that owns the cache.
pub fn snapshot() -> Vec<(String, CacheStat)> {
    let mut stats: Vec<(String, CacheStat)> = pinning_pki::cache::snapshot_all()
        .into_iter()
        .map(|s| (format!("pki.{}", s.name.replace('-', "_")), s))
        .collect();
    for (name, counter) in [
        (
            "analysis.pki_classification",
            &pinning_analysis::certs::PKI_CLASSIFICATION,
        ),
        (
            "analysis.static_scan_memo",
            &pinning_analysis::statics::STATIC_SCAN,
        ),
        ("analysis.pii_scan", &pinning_analysis::pii::PII_SCAN),
        ("ctlog.proof_batch", &pinning_ctlog::merkle::PROOF_BATCH),
    ] {
        stats.push((name.to_string(), counter.snapshot()));
    }
    stats
}

/// Adds `<cache>.hits`, `.misses` and `.hit_ratio` for the activity
/// between two snapshots. Hits plus misses is the ratio's base.
pub fn record_delta(
    before: &[(String, CacheStat)],
    after: &[(String, CacheStat)],
    out: &mut BTreeMap<String, f64>,
) {
    for ((name, base), (_, now)) in before.iter().zip(after) {
        let delta = now.delta_since(base);
        out.insert(format!("{name}.hits"), delta.hits as f64);
        out.insert(format!("{name}.misses"), delta.misses as f64);
        out.insert(format!("{name}.hit_ratio"), delta.hit_rate());
    }
}
