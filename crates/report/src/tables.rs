//! Table renderers (Tables 1–9).

use crate::text::{bar, pct_count, Align, TextTable};
use pinning_analysis::categories::CategoryRow;
use pinning_analysis::pii::PiiComparison;
use pinning_analysis::security::WeakCipherRow;
use pinning_analysis::statics::attribution::FrameworkCount;
use pinning_app::pii::PiiType;
use pinning_app::platform::Platform;
use pinning_store::datasets::DatasetKind;

/// Table 1: top-10 category mix per dataset.
#[derive(Debug, Clone, Default)]
pub struct Table1 {
    /// One column per dataset: `(label, [(category, pct)])`.
    pub columns: Vec<(String, Vec<(String, f64)>)>,
}

/// Renders Table 1.
pub fn table1(data: &Table1) -> String {
    let mut out = String::from("Table 1: Top app categories per dataset (% of dataset)\n");
    for (label, rows) in &data.columns {
        let mut t = TextTable::new(format!("  {label}"), &["rank", "category", "%"]).aligns(&[
            Align::Right,
            Align::Left,
            Align::Right,
        ]);
        for (i, (cat, p)) in rows.iter().enumerate().take(10) {
            t.row(&[format!("{}", i + 1), cat.clone(), format!("{p:.0}%")]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// One prior-work row of Table 2.
#[derive(Debug, Clone)]
pub struct PriorWorkRow {
    /// Study citation.
    pub study: String,
    /// Publication year.
    pub year: u32,
    /// Reported prevalence (already formatted, e.g. `"0.67%"`).
    pub prevalence: String,
    /// Analysis style.
    pub analysis: String,
    /// Dataset size.
    pub dataset_size: String,
    /// Dataset source.
    pub source: String,
}

/// The fixed prior-work rows of Table 2 (literature constants).
fn prior_work_rows() -> Vec<PriorWorkRow> {
    let mk =
        |study: &str, year, prev: &str, analysis: &str, size: &str, source: &str| PriorWorkRow {
            study: study.into(),
            year,
            prevalence: prev.into(),
            analysis: analysis.into(),
            dataset_size: size.into(),
            source: source.into(),
        };
    vec![
        mk(
            "Fahl et al. [26]",
            2012,
            "10%",
            "Dynamic",
            "20",
            "High-profile Android apps",
        ),
        mk(
            "Oltrogge et al. [37]",
            2015,
            "0.07%",
            "Static",
            "639,283",
            "Google Play store",
        ),
        mk(
            "Razaghpanah et al. [42]",
            2017,
            "2%",
            "Dynamic",
            "7,258",
            "Android apps in the wild",
        ),
        mk(
            "Stone et al. [48]",
            2017,
            "28%",
            "Dynamic",
            "135",
            "Security-sensitive apps",
        ),
        mk(
            "Possemato et al. [41]",
            2020,
            "0.62%",
            "Static",
            "16,332",
            "Android apps using NSCs",
        ),
        mk(
            "Oltrogge et al. [38]",
            2021,
            "0.67%",
            "Static",
            "99,212",
            "Android apps using NSCs",
        ),
    ]
}

/// Renders Table 2, appending this reproduction's NSC-technique results so
/// the comparison the paper makes ("same technique, our datasets") is
/// explicit.
pub fn table2(ours: &[PriorWorkRow]) -> String {
    let mut t = TextTable::new(
        "Table 2: Certificate pinning prevalence in prior work (and this pipeline's NSC re-run)",
        &[
            "Study",
            "Year",
            "Prevalence",
            "Analysis",
            "Dataset size",
            "Dataset source",
        ],
    )
    .aligns(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Left,
        Align::Right,
        Align::Left,
    ]);
    for r in prior_work_rows().iter().chain(ours) {
        t.row(&[
            r.study.clone(),
            r.year.to_string(),
            r.prevalence.clone(),
            r.analysis.clone(),
            r.dataset_size.clone(),
            r.source.clone(),
        ]);
    }
    t.render()
}

/// One Table 3 row.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Dataset family.
    pub dataset: DatasetKind,
    /// Platform.
    pub platform: Platform,
    /// Dataset size.
    pub n: usize,
    /// Dynamic-analysis pinning apps (count).
    pub dynamic: usize,
    /// Embedded-certificate static signal (count).
    pub static_embedded: usize,
    /// NSC configuration-file signal (count; None on iOS).
    pub nsc: Option<usize>,
}

impl Table3Row {
    fn pct(&self, count: usize) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            100.0 * count as f64 / self.n as f64
        }
    }
}

/// Renders Table 3 (the headline prevalence table).
pub fn table3(rows: &[Table3Row]) -> String {
    let mut t = TextTable::new(
        "Table 3: Pinning prevalence by method (dynamic vs static embedded certs vs NSC config)",
        &[
            "Dataset",
            "Platform",
            "Dynamic",
            "Static: embedded",
            "Static: config (*)",
        ],
    )
    .aligns(&[
        Align::Left,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for r in rows {
        t.row(&[
            format!("{} (n = {})", r.dataset, r.n),
            r.platform.to_string(),
            pct_count(r.pct(r.dynamic), r.dynamic),
            pct_count(r.pct(r.static_embedded), r.static_embedded),
            match r.nsc {
                Some(n) => pct_count(r.pct(n), n),
                None => "-".to_string(),
            },
        ]);
    }
    let mut s = t.render();
    s.push_str("(*) the technique used by prior work; unavailable on the study's iOS version\n");
    s
}

/// Renders Tables 4/5 (top pinning categories for one platform).
pub fn table_categories(platform: Platform, rows: &[CategoryRow]) -> String {
    let title = match platform {
        Platform::Android => "Table 4: Top categories of pinning apps, Android (all datasets)",
        Platform::Ios => "Table 5: Top categories of pinning apps, iOS (all datasets)",
    };
    let mut t = TextTable::new(title, &["Category (rank)", "Pinning %", "No. of Apps"]).aligns(&[
        Align::Left,
        Align::Right,
        Align::Right,
    ]);
    for r in rows {
        t.row(&[
            format!("{} ({})", r.category.label_on(platform), r.population_rank),
            format!("{:.2} %", r.pinning_pct),
            r.pinning_apps.to_string(),
        ]);
    }
    t.render()
}

/// One Table 6 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table6Row {
    /// Platform.
    pub platform: Platform,
    /// Pinned destinations on the default PKI.
    pub default_pki: usize,
    /// Pinned destinations on custom PKIs.
    pub custom_pki: usize,
    /// Destinations whose chains could not be retrieved.
    pub unavailable: usize,
}

/// Renders Table 6.
pub fn table6(rows: &[Table6Row]) -> String {
    let mut t = TextTable::new(
        "Table 6: PKI type used by pinned destinations",
        &["Platform", "Default PKI", "Custom PKI", "Data Unavailable"],
    )
    .aligns(&[Align::Left, Align::Right, Align::Right, Align::Right]);
    for r in rows {
        t.row(&[
            r.platform.to_string(),
            r.default_pki.to_string(),
            r.custom_pki.to_string(),
            r.unavailable.to_string(),
        ]);
    }
    t.render()
}

/// Renders Table 7 (top frameworks shipping certificates, per platform).
pub fn table7(android: &[FrameworkCount], ios: &[FrameworkCount], top_n: usize) -> String {
    let mut t = TextTable::new(
        "Table 7: Top third-party frameworks that include certificate/pin material",
        &["Platform", "Framework", "# apps"],
    )
    .aligns(&[Align::Left, Align::Left, Align::Right]);
    for f in android.iter().take(top_n) {
        t.row(&["Android", &f.framework, &f.apps.to_string()]);
    }
    for f in ios.iter().take(top_n) {
        t.row(&["iOS", &f.framework, &f.apps.to_string()]);
    }
    t.render()
}

/// One Table 8 row.
#[derive(Debug, Clone)]
pub struct Table8Row {
    /// Dataset family.
    pub dataset: DatasetKind,
    /// Platform.
    pub platform: Platform,
    /// Measured weak-cipher shares.
    pub row: WeakCipherRow,
}

/// Renders Table 8.
pub fn table8(rows: &[Table8Row]) -> String {
    let mut t = TextTable::new(
        "Table 8: Apps advertising weak ciphers (DES/3DES/RC4/EXPORT): overall vs pinned connections",
        &["Dataset", "Platform", "Overall", "Pinning apps"],
    )
    .aligns(&[Align::Left, Align::Left, Align::Right, Align::Right]);
    for r in rows {
        t.row(&[
            r.dataset.to_string(),
            r.platform.to_string(),
            format!("{:.2}%", r.row.overall_pct),
            format!("{:.2}%", r.row.pinning_pct),
        ]);
    }
    t.render()
}

/// Renders Table 9 (PII in pinned vs non-pinned traffic, with the
/// chi-square significance markers).
pub fn table9(per_platform: &[(Platform, PiiComparison)]) -> String {
    let mut t = TextTable::new(
        "Table 9: PII in pinned vs non-pinned decrypted traffic ((*) = significant, chi-square p<0.05)",
        &["Platform", "PII", "Pinned", "Non-Pinned"],
    )
    .aligns(&[Align::Left, Align::Left, Align::Right, Align::Right]);
    for (platform, cmp) in per_platform {
        for pii in PiiType::ALL {
            let Some(c) = cmp.tables.get(&pii) else {
                continue;
            };
            // The paper prints only the PII rows it searched for; rows that
            // never occur on either side are elided for readability.
            if c.pinned_with == 0 && c.unpinned_with == 0 {
                continue;
            }
            let star = if c.significant() { "*" } else { "" };
            t.row(&[
                platform.to_string(),
                format!("{pii}{star}"),
                format!("{:.2} %", c.pinned_pct()),
                format!("{:.2} %", c.unpinned_pct()),
            ]);
        }
    }
    t.render()
}

/// One per-dataset row of the CT pin-resolution table (§4.1.3): how many
/// of the dataset's unique well-formed pins resolve through the log union.
#[derive(Debug, Clone)]
pub struct CtCoverageRow {
    /// Dataset family.
    pub dataset: DatasetKind,
    /// Platform.
    pub platform: Platform,
    /// Unique pins that resolved to at least one logged certificate.
    pub resolved: usize,
    /// Unique well-formed pins in the dataset.
    pub total: usize,
}

/// One per-shard row of the log-coverage table.
#[derive(Debug, Clone)]
pub struct CtShardRow {
    /// Shard name, e.g. `"argon-legacy"`.
    pub shard: String,
    /// Operator running the shard.
    pub operator: String,
    /// Entries the shard accepted.
    pub entries: usize,
}

/// Renders the "CT resolution & log coverage" section: per-dataset
/// resolved/unresolved pin counts, per-shard entry counts, the resolver's
/// cache hit rate, and the auditor's findings (pre-rendered one-liners;
/// an empty slice prints a clean bill of health).
pub fn table_ct(
    datasets: &[CtCoverageRow],
    shards: &[CtShardRow],
    cache_hit_rate: f64,
    findings: &[String],
) -> String {
    let mut t = TextTable::new(
        "CT resolution & log coverage (crt.sh substitute, §4.1.3)",
        &["Dataset", "Platform", "Resolved", "Unresolved", "Rate"],
    )
    .aligns(&[
        Align::Left,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for r in datasets {
        let rate = if r.total == 0 {
            0.0
        } else {
            100.0 * r.resolved as f64 / r.total as f64
        };
        t.row(&[
            r.dataset.to_string(),
            r.platform.to_string(),
            r.resolved.to_string(),
            (r.total - r.resolved).to_string(),
            format!("{rate:.1}%"),
        ]);
    }
    let mut out = t.render();
    let mut s = TextTable::new("  Log shards", &["Shard", "Operator", "Entries"]).aligns(&[
        Align::Left,
        Align::Left,
        Align::Right,
    ]);
    for r in shards {
        s.row(&[&r.shard, &r.operator, &r.entries.to_string()]);
    }
    out.push_str(&s.render());
    out.push_str(&format!(
        "  resolver cache hit rate: {:.1}%\n",
        100.0 * cache_hit_rate
    ));
    if findings.is_empty() {
        out.push_str("  auditor: all shards consistent, no mis-issuance\n");
    } else {
        out.push_str(&format!("  auditor: {} finding(s)\n", findings.len()));
        for f in findings {
            out.push_str(&format!("    {f}\n"));
        }
    }
    out
}

/// Supervision telemetry for one study run (the "Run health" table).
///
/// Kept separate from the deterministic report tables: a resumed run
/// legitimately differs here (resumed vs fresh counts) while every Table
/// 1–9 byte stays identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunHealthReport {
    /// Worker panics converted into degraded records.
    pub panics_recovered: u32,
    /// Circuit-breaker trips summed over all apps.
    pub breaker_trips: u32,
    /// Apps whose wall-clock measurement exceeded the watchdog deadline.
    pub watchdog_breaches: u32,
    /// Journals that lost records to corruption during resume.
    pub journal_truncations: u32,
    /// Bytes quarantined by the journal scrubber (damaged spans, torn
    /// tails, dropped duplicates).
    pub quarantined_bytes: u64,
    /// Whole records destroyed by mid-journal damage.
    pub quarantined_records: u32,
    /// Journal self-heals: resyncs past damage plus dropped duplicate
    /// segments.
    pub journal_repairs: u32,
    /// Checkpoint loads that fell back past a damaged slot.
    pub checkpoints_recovered: u32,
    /// Apps recovered from the journal instead of re-measured.
    pub resumed_apps: usize,
    /// Apps measured by this process.
    pub fresh_apps: usize,
    /// Epoch engine: apps whose verdict was replayed from the prior epoch
    /// because their fingerprint was clean (0 outside epoch runs).
    pub replayed_prior_epoch: usize,
    /// Epoch engine: apps re-measured because an epoch event dirtied
    /// their fingerprint (0 outside epoch runs).
    pub reanalyzed_dirty: usize,
    /// Per-cache hit/miss activity during this run (empty when the caching
    /// layer was disabled).
    pub cache_rows: Vec<CacheRow>,
    /// Peak resident-set size of the process, KiB (`None` when the
    /// platform exposes no high-water mark). The streaming engine uses
    /// this row to make memory flatness observable per run.
    pub peak_rss_kib: Option<u64>,
    /// Measured throughput, apps per second of wall-clock study time
    /// (`None` for runs that did not time themselves).
    pub apps_per_sec: Option<f64>,
}

/// One derived-value cache's activity for the run-health table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheRow {
    /// Cache name (e.g. `"cert-fingerprint"`).
    pub name: String,
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that computed and stored a fresh value.
    pub misses: u64,
}

/// Renders the "Run health" table: what the supervision layer absorbed so
/// the study could finish.
pub fn table_run_health(r: &RunHealthReport) -> String {
    let mut t = TextTable::new(
        "Run health (supervision & journal telemetry)",
        &["Event", "Count"],
    )
    .aligns(&[Align::Left, Align::Right]);
    t.row(&["worker panics recovered", &r.panics_recovered.to_string()]);
    t.row(&["circuit-breaker trips", &r.breaker_trips.to_string()]);
    t.row(&["watchdog breaches", &r.watchdog_breaches.to_string()]);
    t.row(&["journal truncations", &r.journal_truncations.to_string()]);
    t.row(&["quarantined bytes", &r.quarantined_bytes.to_string()]);
    t.row(&["quarantined records", &r.quarantined_records.to_string()]);
    t.row(&["journal repairs", &r.journal_repairs.to_string()]);
    t.row(&[
        "checkpoints recovered",
        &r.checkpoints_recovered.to_string(),
    ]);
    t.row(&["apps resumed from journal", &r.resumed_apps.to_string()]);
    t.row(&["apps measured fresh", &r.fresh_apps.to_string()]);
    t.row(&[
        "apps replayed from prior epoch",
        &r.replayed_prior_epoch.to_string(),
    ]);
    t.row(&["apps reanalyzed (dirty)", &r.reanalyzed_dirty.to_string()]);
    t.row(&[
        "peak RSS (KiB)",
        &r.peak_rss_kib
            .map_or_else(|| "—".to_string(), |k| k.to_string()),
    ]);
    t.row(&[
        "throughput (apps/sec)",
        &r.apps_per_sec
            .map_or_else(|| "—".to_string(), |v| format!("{v:.1}")),
    ]);
    for c in &r.cache_rows {
        let total = c.hits + c.misses;
        let rate = if total == 0 {
            0.0
        } else {
            100.0 * c.hits as f64 / total as f64
        };
        t.row(&[
            &format!("cache {} (hit/miss)", c.name),
            &format!("{}/{} ({rate:.1}%)", c.hits, c.misses),
        ]);
    }
    t.render()
}

/// One decode layer's row in the "Malformed-input resilience" table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceRow {
    /// Decode layer label (e.g. `"der"`, `"nsc"`, `"chain"`).
    pub layer: &'static str,
    /// Apps rejected at this layer with a structured `MalformedInput`.
    pub rejected: usize,
    /// Of those, rejections caused by a parse-budget limit trip rather
    /// than a structural defect.
    pub budget_trips: usize,
}

/// Renders the "Malformed-input resilience" table: per-layer structured
/// rejection counts for the adversarial cohort, how many rejections were
/// budget trips, and the zero-crash attestation (worker panics observed
/// while the hostile apps were being measured).
pub fn table_resilience(rows: &[ResilienceRow], hostile_apps: usize, panics: u32) -> String {
    let mut t = TextTable::new(
        "Malformed-input resilience (adversarial cohort)",
        &["Layer", "Rejected", "Budget trips"],
    )
    .aligns(&[Align::Left, Align::Right, Align::Right]);
    let (mut rejected, mut trips) = (0usize, 0usize);
    for r in rows {
        t.row(&[
            r.layer,
            &r.rejected.to_string(),
            &r.budget_trips.to_string(),
        ]);
        rejected += r.rejected;
        trips += r.budget_trips;
    }
    t.row(&["total", &rejected.to_string(), &trips.to_string()]);
    let mut out = t.render();
    out.push_str(&format!(
        "  hostile apps planted: {hostile_apps}, rejected with structured errors: {rejected}\n"
    ));
    out.push_str(&format!(
        "  crashes (worker panics) during the run: {panics}{}\n",
        if panics == 0 {
            " — zero-crash attestation holds"
        } else {
            " — ATTESTATION VIOLATED"
        }
    ));
    out
}

/// A quick textual share bar used in several summaries.
pub fn share_bar(label: &str, num: usize, den: usize, width: usize) -> String {
    let p = if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    };
    format!(
        "{label:<28} {} {num}/{den} ({:.1}%)",
        bar((p * width as f64).round() as usize, width),
        p * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_contains_prior_and_ours() {
        let ours = vec![PriorWorkRow {
            study: "This work (NSC)".into(),
            year: 2022,
            prevalence: "1.8%".into(),
            analysis: "Static".into(),
            dataset_size: "1,000".into(),
            source: "Popular Android".into(),
        }];
        let s = table2(&ours);
        assert!(s.contains("Fahl"));
        assert!(s.contains("This work (NSC)"));
        assert!(s.contains("0.67%"));
    }

    #[test]
    fn table3_renders_ios_nsc_as_dash() {
        let rows = vec![Table3Row {
            dataset: DatasetKind::Popular,
            platform: Platform::Ios,
            n: 1000,
            dynamic: 114,
            static_embedded: 334,
            nsc: None,
        }];
        let s = table3(&rows);
        assert!(s.contains("11.40% (114)"));
        assert!(s.contains("33.40% (334)"));
        assert!(s.lines().any(|l| l.trim_end().ends_with('-')));
    }

    #[test]
    fn table_ct_renders_coverage_shards_and_findings() {
        let datasets = vec![CtCoverageRow {
            dataset: DatasetKind::Popular,
            platform: Platform::Android,
            resolved: 3,
            total: 7,
        }];
        let shards = vec![CtShardRow {
            shard: "argon-legacy".into(),
            operator: "argon CT".into(),
            entries: 42,
        }];
        let clean = table_ct(&datasets, &shards, 0.8, &[]);
        assert!(clean.contains("CT resolution & log coverage"));
        assert!(clean.contains("42.9%"), "3/7 resolved:\n{clean}");
        assert!(clean.contains("argon-legacy"));
        assert!(clean.contains("cache hit rate: 80.0%"));
        assert!(clean.contains("no mis-issuance"));
        let dirty = table_ct(&datasets, &shards, 0.8, &["mis-issuance of x".into()]);
        assert!(dirty.contains("1 finding(s)"));
        assert!(dirty.contains("mis-issuance of x"));
    }

    #[test]
    fn table6_renders_counts() {
        let s = table6(&[Table6Row {
            platform: Platform::Android,
            default_pki: 163,
            custom_pki: 4,
            unavailable: 11,
        }]);
        assert!(s.contains("163"));
        assert!(s.contains("Android"));
    }

    #[test]
    fn table9_marks_significance() {
        use pinning_analysis::pii::Contingency;
        let mut cmp = PiiComparison::default();
        cmp.tables.insert(
            PiiType::AdvertisingId,
            Contingency {
                pinned_with: 200,
                pinned_without: 600,
                unpinned_with: 300,
                unpinned_without: 1900,
            },
        );
        let s = table9(&[(Platform::Ios, cmp)]);
        assert!(s.contains("Ad. ID*"), "{s}");
    }

    #[test]
    fn table1_renders_top10_only() {
        let rows: Vec<(String, f64)> = (0..15)
            .map(|i| (format!("Cat{i}"), 15.0 - i as f64))
            .collect();
        let t = Table1 {
            columns: vec![("Android / Popular".into(), rows)],
        };
        let s = table1(&t);
        assert!(s.contains("Cat0"));
        assert!(s.contains("Cat9"));
        assert!(!s.contains("Cat10"), "top-10 truncation");
    }

    #[test]
    fn table7_truncates_and_labels_platforms() {
        let android: Vec<FrameworkCount> = (0..8)
            .map(|i| FrameworkCount {
                framework: format!("A{i}"),
                apps: 20 - i,
            })
            .collect();
        let ios = vec![FrameworkCount {
            framework: "Amplitude".into(),
            apps: 45,
        }];
        let s = table7(&android, &ios, 5);
        assert!(s.contains("A4"));
        assert!(!s.contains("A5"), "top-5 truncation");
        assert!(s.contains("Amplitude"));
        assert!(s.contains("iOS"));
    }

    #[test]
    fn table8_formats_percentages() {
        let s = table8(&[Table8Row {
            dataset: DatasetKind::Common,
            platform: Platform::Android,
            row: WeakCipherRow {
                overall_pct: 8.35,
                pinning_pct: 23.4,
                total_apps: 575,
                pinning_apps: 47,
            },
        }]);
        assert!(s.contains("8.35%"));
        assert!(s.contains("23.40%"));
    }

    #[test]
    fn categories_table_renders_platform_labels() {
        use pinning_analysis::categories::CategoryRow;
        use pinning_app::category::Category;
        let rows = vec![CategoryRow {
            category: Category::Tools,
            population_rank: 15,
            pinning_apps: 3,
            total_apps: 55,
            pinning_pct: 5.45,
        }];
        let s = table_categories(Platform::Ios, &rows);
        assert!(
            s.contains("Utilities (15)"),
            "iOS label for Tools is Utilities: {s}"
        );
        let s = table_categories(Platform::Android, &rows);
        assert!(s.contains("Tools (15)"));
    }

    #[test]
    fn run_health_renders_every_counter() {
        let s = table_run_health(&RunHealthReport {
            panics_recovered: 1,
            breaker_trips: 7,
            watchdog_breaches: 0,
            journal_truncations: 1,
            quarantined_bytes: 58,
            quarantined_records: 2,
            journal_repairs: 3,
            checkpoints_recovered: 1,
            resumed_apps: 4,
            fresh_apps: 46,
            replayed_prior_epoch: 39,
            reanalyzed_dirty: 11,
            cache_rows: vec![CacheRow {
                name: "cert-fingerprint".into(),
                hits: 900,
                misses: 100,
            }],
            peak_rss_kib: Some(123_456),
            apps_per_sec: Some(87.5),
        });
        assert!(s.contains("Run health"));
        assert!(s.contains("worker panics recovered"));
        assert!(s.contains("circuit-breaker trips"));
        assert!(s.contains("apps replayed from prior epoch"));
        assert!(s.contains("apps reanalyzed (dirty)"));
        assert!(s.contains("quarantined records"));
        assert!(s.contains("journal repairs"));
        assert!(s.contains("checkpoints recovered"));
        for n in ["1", "7", "58", "4", "46", "39", "11"] {
            assert!(s.contains(n), "missing {n} in:\n{s}");
        }
        assert!(s.contains("cache cert-fingerprint (hit/miss)"));
        assert!(s.contains("900/100 (90.0%)"));
        assert!(s.contains("peak RSS (KiB)"));
        assert!(s.contains("123456"));
        assert!(s.contains("throughput (apps/sec)"));
        assert!(s.contains("87.5"));
        // Untimed runs render a dash, not a bogus zero.
        let dashes = table_run_health(&RunHealthReport::default());
        assert!(dashes.contains("—"));
    }

    #[test]
    fn share_bar_shape() {
        let s = share_bar("circumvented", 1, 2, 10);
        assert!(s.contains("1/2"));
        assert!(s.contains("50.0%"));
    }
}
