//! Ablations of the paper's design choices (DESIGN.md §5).
//!
//! Each ablation contrasts the paper's technique with a strawman on the
//! same world, quantifying why the methodology is built the way it is.

use pinning_analysis::dynamics::classify::{classify_connection, ConnStatus};
use pinning_analysis::dynamics::detect::{detect_pinned_destinations, Exclusions};
use pinning_analysis::dynamics::pipeline::{
    analyze_app, associated_domains_from_package, DynamicEnv,
};
use pinning_analysis::statics::analyze_package;
use pinning_app::platform::Platform;
use pinning_netsim::flow::Capture;
use pinning_store::world::World;
use std::collections::BTreeSet;

/// Accuracy counts against planted ground truth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accuracy {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
}

impl Accuracy {
    /// Precision in [0, 1] (1.0 when nothing was reported).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall in [0, 1] (1.0 when nothing was there to find).
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }
}

/// The strawman detector: flag any destination whose MITM-run connections
/// show a fatal alert or client reset — no baseline comparison. This is
/// what §4.2.2 warns against ("these signals may also appear ... for
/// reasons other than pinning").
pub fn naive_alert_detector(mitm: &Capture) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (dest, flows) in mitm.by_destination() {
        let suspicious = flows.iter().any(|f| {
            !f.transcript.plaintext_alerts().is_empty()
                || f.transcript.client_rst()
                || classify_connection(&f.transcript) == ConnStatus::Failed
        });
        if suspicious {
            out.insert(dest.to_string());
        }
    }
    out
}

/// Ablation 1: naive alert counting vs the paper's differential rule,
/// destination-level accuracy over every app in the world.
pub fn naive_vs_differential(world: &World) -> (Accuracy, Accuracy) {
    let env = env_for(world);
    let mut diff = Accuracy::default();
    let mut naive = Accuracy::default();
    for app in &world.apps {
        let truth: BTreeSet<&str> = app.runtime_pinned_domains().into_iter().collect();
        let result = analyze_app(&env, app);
        // Restrict scoring to destinations observed *used* in the baseline:
        // neither detector can say anything about unobserved destinations.
        let observable: BTreeSet<&str> = result
            .verdicts
            .iter()
            .filter(|v| v.used_baseline)
            .map(|v| v.destination.as_str())
            .collect();

        let detected: BTreeSet<&str> = result.pinned_destinations().into_iter().collect();
        score(&mut diff, &truth, &detected, &observable);

        let naive_detected_owned = naive_alert_detector(&result.mitm);
        let naive_detected: BTreeSet<&str> =
            naive_detected_owned.iter().map(String::as_str).collect();
        score(&mut naive, &truth, &naive_detected, &observable);
    }
    (diff, naive)
}

fn score(
    acc: &mut Accuracy,
    truth: &BTreeSet<&str>,
    detected: &BTreeSet<&str>,
    observable: &BTreeSet<&str>,
) {
    for d in observable {
        match (truth.contains(d), detected.contains(d)) {
            (true, true) => acc.tp += 1,
            (false, true) => acc.fp += 1,
            (true, false) => acc.fn_ += 1,
            (false, false) => {}
        }
    }
    // Detections outside the observable set are still false positives.
    for d in detected {
        if !observable.contains(d) && !truth.contains(d) {
            acc.fp += 1;
        }
    }
}

/// Ablation 2: the TLS 1.3 used-connection heuristic vs a cheating oracle
/// that reads inner record types. Returns (agreements, disagreements).
pub fn tls13_heuristic_vs_oracle(world: &World) -> (usize, usize) {
    let env = env_for(world);
    let mut agree = 0;
    let mut disagree = 0;
    for app in world.apps.iter().take(world.apps.len().min(200)) {
        let result = analyze_app(&env, app);
        for capture in [&result.baseline, &result.mitm] {
            for flow in &capture.flows {
                let t = &flow.transcript;
                if !matches!(t.negotiated, Some((pinning_tls::TlsVersion::V1_3, _))) {
                    continue;
                }
                let heuristic = classify_connection(t) == ConnStatus::Used;
                // Oracle: any client record whose true inner type is
                // application data.
                let oracle = t.records().any(|r| {
                    r.direction == pinning_tls::record::Direction::ClientToServer
                        && r.encrypted
                        && r.inner_type == pinning_tls::ContentType::ApplicationData
                });
                if heuristic == oracle {
                    agree += 1;
                } else {
                    disagree += 1;
                }
            }
        }
    }
    (agree, disagree)
}

/// Ablation 3: iOS associated-domain exclusion on/off. Returns false
/// positives (without exclusion, with exclusion) against ground truth.
pub fn associated_domain_exclusion(world: &World) -> (usize, usize) {
    let env = env_for(world);
    let mut fp_without = 0;
    let mut fp_with = 0;
    for app in world.apps.iter().filter(|a| a.id.platform == Platform::Ios) {
        let truth: BTreeSet<&str> = app.runtime_pinned_domains().into_iter().collect();
        let device = env.device(Platform::Ios);
        let mut base_cfg = pinning_netsim::device::RunConfig::baseline();
        base_cfg.run_tag = "abl-base".to_string();
        let baseline = device.run_app(app, &base_cfg);
        let mut mitm_cfg = pinning_netsim::device::RunConfig::mitm(env.proxy());
        mitm_cfg.run_tag = "abl-mitm".to_string();
        let mitm = device.run_app(app, &mitm_cfg);

        let with = detect_pinned_destinations(
            &baseline,
            &mitm,
            &Exclusions::ios(associated_domains_from_package(app)),
        );
        let without = detect_pinned_destinations(&baseline, &mitm, &Exclusions::none());
        fp_with += with
            .iter()
            .filter(|v| v.pinned && !truth.contains(v.destination.as_str()))
            .count();
        fp_without += without
            .iter()
            .filter(|v| v.pinned && !truth.contains(v.destination.as_str()))
            .count();
    }
    (fp_without, fp_with)
}

/// Ablation 4: static-technique breadth. Returns, per platform, the number
/// of apps flagged by (NSC only, full static, dynamic).
pub fn static_breadth(world: &World) -> Vec<(Platform, usize, usize, usize)> {
    let env = env_for(world);
    let mut out = Vec::new();
    for platform in Platform::BOTH {
        let mut nsc_only = 0;
        let mut full = 0;
        let mut dynamic = 0;
        for app in world.apps.iter().filter(|a| a.id.platform == platform) {
            let findings = analyze_package(
                &app.package,
                (platform == Platform::Ios).then_some(world.config.ios_encryption_seed),
            );
            if findings.nsc_signal() {
                nsc_only += 1;
            }
            if findings.has_pin_material() {
                full += 1;
            }
            if analyze_app(&env, app).pins() {
                dynamic += 1;
            }
        }
        out.push((platform, nsc_only, full, dynamic));
    }
    out
}

/// §2.2 related-work comparison: Stone et al.'s (ACSAC'17) dynamic
/// technique "only finds apps that pin intermediate or root certificates
/// in the certificate chain. In contrast, our dynamic and static analysis
/// techniques cover all pinned certificates."
///
/// Returns, over all runtime-pinned destinations in the world,
/// `(ca_pinned, leaf_pinned)` — the first being the upper bound of what a
/// Stone-style detector can see, the second what it structurally misses.
pub fn stone_etal_coverage(world: &World) -> (usize, usize) {
    use pinning_app::pinning::PinTarget;
    let mut ca = 0;
    let mut leaf = 0;
    let mut seen = BTreeSet::new();
    for app in &world.apps {
        for domain in app.runtime_pinned_domains() {
            if !seen.insert((app.id.platform, domain.to_string())) {
                continue;
            }
            if let Some((_, rule)) = app.pin_rule_for(domain) {
                match rule.target {
                    PinTarget::Leaf => leaf += 1,
                    PinTarget::Intermediate | PinTarget::Root => ca += 1,
                }
            }
        }
    }
    (ca, leaf)
}

fn env_for(world: &World) -> DynamicEnv<'_> {
    DynamicEnv::new(
        &world.network,
        world.universe.aosp_oem.clone(),
        world.universe.ios.clone(),
        world.now,
        world.config.seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_store::config::WorldConfig;

    fn world() -> World {
        World::generate(WorldConfig::tiny(0xAB1A))
    }

    #[test]
    fn differential_beats_naive_on_precision() {
        let w = world();
        let (diff, naive) = naive_vs_differential(&w);
        assert_eq!(diff.fp, 0, "differential must not hallucinate: {diff:?}");
        assert!(
            naive.fp > 0,
            "the strawman should be fooled by redundant/flaky connections: {naive:?}"
        );
        assert!(diff.precision() > naive.precision());
    }

    #[test]
    fn tls13_heuristic_mostly_agrees_with_oracle() {
        let w = world();
        let (agree, disagree) = tls13_heuristic_vs_oracle(&w);
        assert!(agree > 0);
        let rate = agree as f64 / (agree + disagree).max(1) as f64;
        assert!(rate > 0.95, "agreement {rate}");
    }

    #[test]
    fn exclusion_removes_ios_false_positives() {
        let w = world();
        let (without, with) = associated_domain_exclusion(&w);
        assert_eq!(with, 0, "with exclusions there must be no false positives");
        assert!(
            without >= with,
            "exclusion can only help: without={without}, with={with}"
        );
    }

    #[test]
    fn stone_style_detection_misses_leaf_pins() {
        let w = world();
        let (ca, leaf) = stone_etal_coverage(&w);
        assert!(ca + leaf > 0);
        // The whole point of the comparison: a non-trivial share of pinned
        // destinations pin the leaf and are invisible to the older
        // technique, while CA pins dominate (§5.3.2's ~73/27 split).
        assert!(ca > leaf, "CA pins should dominate: {ca} vs {leaf}");
    }

    #[test]
    fn full_static_finds_more_than_nsc() {
        let w = world();
        for (platform, nsc, full, _dynamic) in static_breadth(&w) {
            assert!(full >= nsc, "{platform}: full {full} < nsc {nsc}");
        }
    }
}
