//! CSV export of the study's tables — the machine-readable half of the
//! released dataset (the human-readable half being [`crate::tables`]).

use crate::tables::{Table3Row, Table6Row, Table8Row};
use pinning_analysis::categories::CategoryRow;
use pinning_analysis::destinations::AppDestinationProfile;
use pinning_analysis::pii::PiiComparison;
use pinning_app::pii::PiiType;
use pinning_app::platform::Platform;
use pinning_store::whois::Party;

/// Escapes one CSV field (RFC 4180 quoting).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Joins fields into one CSV line.
pub fn csv_line<S: AsRef<str>>(fields: &[S]) -> String {
    fields
        .iter()
        .map(|f| csv_field(f.as_ref()))
        .collect::<Vec<_>>()
        .join(",")
}

/// Table 3 as CSV.
pub fn table3_csv(rows: &[Table3Row]) -> String {
    let mut out = String::from("dataset,platform,n,dynamic,static_embedded,nsc\n");
    for r in rows {
        out.push_str(&csv_line(&[
            r.dataset.to_string(),
            r.platform.to_string(),
            r.n.to_string(),
            r.dynamic.to_string(),
            r.static_embedded.to_string(),
            r.nsc.map(|n| n.to_string()).unwrap_or_default(),
        ]));
        out.push('\n');
    }
    out
}

/// Tables 4/5 as CSV.
pub fn categories_csv(platform: Platform, rows: &[CategoryRow]) -> String {
    let mut out =
        String::from("platform,category,population_rank,pinning_apps,total_apps,pinning_pct\n");
    for r in rows {
        out.push_str(&csv_line(&[
            platform.to_string(),
            r.category.label_on(platform).to_string(),
            r.population_rank.to_string(),
            r.pinning_apps.to_string(),
            r.total_apps.to_string(),
            format!("{:.4}", r.pinning_pct),
        ]));
        out.push('\n');
    }
    out
}

/// Table 6 as CSV.
pub fn table6_csv(rows: &[Table6Row]) -> String {
    let mut out = String::from("platform,default_pki,custom_pki,unavailable\n");
    for r in rows {
        out.push_str(&csv_line(&[
            r.platform.to_string(),
            r.default_pki.to_string(),
            r.custom_pki.to_string(),
            r.unavailable.to_string(),
        ]));
        out.push('\n');
    }
    out
}

/// Table 8 as CSV.
pub fn table8_csv(rows: &[Table8Row]) -> String {
    let mut out =
        String::from("dataset,platform,overall_pct,pinning_pct,total_apps,pinning_apps\n");
    for r in rows {
        out.push_str(&csv_line(&[
            r.dataset.to_string(),
            r.platform.to_string(),
            format!("{:.4}", r.row.overall_pct),
            format!("{:.4}", r.row.pinning_pct),
            r.row.total_apps.to_string(),
            r.row.pinning_apps.to_string(),
        ]));
        out.push('\n');
    }
    out
}

/// Table 9 as CSV.
pub fn table9_csv(per_platform: &[(Platform, PiiComparison)]) -> String {
    let mut out = String::from("platform,pii,pinned_pct,unpinned_pct,chi_square,significant\n");
    for (platform, cmp) in per_platform {
        for pii in PiiType::ALL {
            let Some(t) = cmp.tables.get(&pii) else {
                continue;
            };
            out.push_str(&csv_line(&[
                platform.to_string(),
                pii.label().to_string(),
                format!("{:.4}", t.pinned_pct()),
                format!("{:.4}", t.unpinned_pct()),
                format!("{:.4}", t.chi_square()),
                t.significant().to_string(),
            ]));
            out.push('\n');
        }
    }
    out
}

/// Figure 5's per-destination rows as CSV.
pub fn destinations_csv(platform: Platform, profiles: &[AppDestinationProfile]) -> String {
    let mut out = String::from("platform,app,domain,pinned,party\n");
    for p in profiles {
        for e in &p.entries {
            out.push_str(&csv_line(&[
                platform.to_string(),
                p.app_name.clone(),
                e.domain.clone(),
                e.pinned.to_string(),
                match e.party {
                    Party::First => "first".to_string(),
                    Party::Third => "third".to_string(),
                },
            ]));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_store::datasets::DatasetKind;

    #[test]
    fn escaping() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("q\"x"), "\"q\"\"x\"");
        assert_eq!(csv_line(&["a", "b,c"]), "a,\"b,c\"");
    }

    #[test]
    fn table3_csv_shape() {
        let rows = vec![Table3Row {
            dataset: DatasetKind::Popular,
            platform: Platform::Ios,
            n: 1000,
            dynamic: 114,
            static_embedded: 334,
            nsc: None,
        }];
        let csv = table3_csv(&rows);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "dataset,platform,n,dynamic,static_embedded,nsc"
        );
        assert_eq!(lines.next().unwrap(), "Popular,iOS,1000,114,334,");
    }

    #[test]
    fn table9_csv_has_chi_square() {
        use pinning_analysis::pii::Contingency;
        let mut cmp = PiiComparison::default();
        cmp.tables.insert(
            PiiType::AdvertisingId,
            Contingency {
                pinned_with: 1,
                pinned_without: 1,
                unpinned_with: 1,
                unpinned_without: 1,
            },
        );
        let csv = table9_csv(&[(Platform::Android, cmp)]);
        assert!(csv.contains("Ad. ID"));
        assert!(csv.lines().count() >= 2);
    }
}
