//! Third-party attribution of pinning code (§4.1.4, Table 7).
//!
//! Each certificate/pin finding carries the path it was found at. Paths
//! that recur across ≥ 5 apps are reviewed against the SDK registry (the
//! "publicly available knowledge" of §4.1.4): a path under
//! `assets/com/braintreepayments/...` attributes to Braintree, a path under
//! `Frameworks/Stripe.framework/` to Stripe. Generic paths (`config.json`)
//! are excluded, as in the paper.

use super::StaticFindings;
use pinning_app::platform::Platform;
use pinning_app::sdk;
use std::collections::{BTreeMap, HashSet};

/// Minimum number of distinct apps sharing a path before it is reviewed.
pub const REVIEW_THRESHOLD: usize = 5;

/// One attributed framework with its app count (a Table 7 row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameworkCount {
    /// Framework (SDK) name.
    pub framework: String,
    /// Number of apps in which its certificate/pin paths appear.
    pub apps: usize,
}

/// Attribution output per platform.
#[derive(Debug, Clone, Default)]
pub struct AttributionReport {
    /// Frameworks sorted by descending app count.
    pub frameworks: Vec<FrameworkCount>,
    /// Paths that recurred but could not be attributed.
    pub unattributed_paths: Vec<(String, usize)>,
}

fn is_generic_path(path: &str) -> bool {
    let name = path.rsplit('/').next().unwrap_or(path);
    matches!(name, "config.json" | "settings.json") || name.starts_with("bundled_ca_")
}

/// Infers the SDK owning `path` on `platform`, if any.
fn attribute_path(path: &str, platform: Platform) -> Option<&'static str> {
    for spec in sdk::registry() {
        let needle = spec.path_on(platform);
        if path.contains(needle) {
            return Some(spec.name);
        }
    }
    None
}

/// Builds the Table 7 attribution for a set of per-app findings.
///
/// `findings` pairs each app with its static findings; only certificate
/// and pin *paths* are consulted.
pub fn attribute(
    findings: &[(&StaticFindings, Platform)],
) -> BTreeMap<Platform, AttributionReport> {
    let mut out: BTreeMap<Platform, AttributionReport> = BTreeMap::new();
    for platform in [Platform::Android, Platform::Ios] {
        // path → set of app indices it appears in.
        let mut apps_per_path: BTreeMap<&str, HashSet<usize>> = BTreeMap::new();
        for (idx, (f, p)) in findings.iter().enumerate() {
            if *p != platform {
                continue;
            }
            for loc in &f.embedded_certs {
                apps_per_path
                    .entry(loc.path.as_str())
                    .or_default()
                    .insert(idx);
            }
            for loc in &f.pin_strings {
                apps_per_path
                    .entry(loc.path.as_str())
                    .or_default()
                    .insert(idx);
            }
        }

        // Review recurring, non-generic paths.
        let mut per_framework: BTreeMap<&'static str, HashSet<usize>> = BTreeMap::new();
        let mut unattributed: Vec<(String, usize)> = Vec::new();
        for (path, apps) in &apps_per_path {
            if apps.len() < REVIEW_THRESHOLD || is_generic_path(path) {
                continue;
            }
            match attribute_path(path, platform) {
                Some(name) => {
                    per_framework
                        .entry(name)
                        .or_default()
                        .extend(apps.iter().copied());
                }
                None => unattributed.push((path.to_string(), apps.len())),
            }
        }

        let mut frameworks: Vec<FrameworkCount> = per_framework
            .into_iter()
            .map(|(framework, apps)| FrameworkCount {
                framework: framework.to_string(),
                apps: apps.len(),
            })
            .collect();
        frameworks.sort_by(|a, b| b.apps.cmp(&a.apps).then(a.framework.cmp(&b.framework)));
        out.insert(
            platform,
            AttributionReport {
                frameworks,
                unattributed_paths: unattributed,
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statics::{FoundPin, Located};
    use pinning_app::platform::Platform;

    fn findings_with_path(path: &str) -> StaticFindings {
        StaticFindings {
            pin_strings: vec![Located {
                path: path.to_string(),
                value: FoundPin {
                    raw: "sha256/x".into(),
                    parsed: None,
                },
            }],
            ..Default::default()
        }
    }

    #[test]
    fn path_attribution_by_registry() {
        assert_eq!(
            attribute_path("assets/com/braintreepayments/api/ca.pem", Platform::Android),
            Some("Braintree")
        );
        assert_eq!(
            attribute_path(
                "Payload/App.app/Frameworks/Stripe.framework/ca.pem",
                Platform::Ios
            ),
            Some("Stripe")
        );
        assert_eq!(
            attribute_path("assets/random/thing.pem", Platform::Android),
            None
        );
    }

    #[test]
    fn threshold_applies() {
        let base = findings_with_path("assets/com/mparticle/pin.txt");
        let few: Vec<_> = (0..REVIEW_THRESHOLD - 1)
            .map(|_| (&base, Platform::Android))
            .collect();
        let report = attribute(&few);
        assert!(report[&Platform::Android].frameworks.is_empty());

        let many: Vec<_> = (0..REVIEW_THRESHOLD)
            .map(|_| (&base, Platform::Android))
            .collect();
        let report = attribute(&many);
        assert_eq!(
            report[&Platform::Android].frameworks[0].framework,
            "MParticle"
        );
        assert_eq!(
            report[&Platform::Android].frameworks[0].apps,
            REVIEW_THRESHOLD
        );
    }

    #[test]
    fn generic_paths_excluded() {
        let base = findings_with_path("assets/config.json");
        let many: Vec<_> = (0..10).map(|_| (&base, Platform::Android)).collect();
        let report = attribute(&many);
        assert!(report[&Platform::Android].frameworks.is_empty());
        assert!(report[&Platform::Android].unattributed_paths.is_empty());
    }

    #[test]
    fn unknown_recurring_path_reported() {
        let base = findings_with_path("assets/mystery/sdk/pin.bin");
        let many: Vec<_> = (0..6).map(|_| (&base, Platform::Android)).collect();
        let report = attribute(&many);
        assert_eq!(report[&Platform::Android].unattributed_paths.len(), 1);
    }

    #[test]
    fn platforms_separated() {
        let android = findings_with_path("assets/com/mparticle/pin.txt");
        let ios = findings_with_path("Payload/App.app/Frameworks/Amplitude.framework/pin");
        let mut rows: Vec<(&StaticFindings, Platform)> = Vec::new();
        for _ in 0..6 {
            rows.push((&android, Platform::Android));
            rows.push((&ios, Platform::Ios));
        }
        let report = attribute(&rows);
        assert_eq!(
            report[&Platform::Android].frameworks[0].framework,
            "MParticle"
        );
        assert_eq!(report[&Platform::Ios].frameworks[0].framework, "Amplitude");
    }
}
