//! `paper_study`: the in-memory `Study` over a world of the paper's
//! shape, then the full paper-table render — the run `full_study`
//! performs, with the store and datasets scaled down so that one
//! repetition fits many times into a run.

use crate::trace::{self, Tracer};
use crate::{layer_metrics, sha256_hex, AppCounts, Rep, Workload, THREADS};
use pinning_analysis::circumvent::circumvent_app;
use pinning_analysis::dynamics::pipeline::{try_analyze_app, DynamicEnv};
use pinning_analysis::statics::analyze_package_cached;
use pinning_app::platform::Platform;
use pinning_core::journal::{AppOutcome, JournalEntry, ResultJournal};
use pinning_core::{AppRecord, RunHealth, Study, StudyConfig, StudyOutcome, StudyResults};
use pinning_report::{figures, tables};
use pinning_store::config::WorldConfig;
use pinning_store::datasets::{build_datasets, collision_report};
use pinning_store::world::World;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

pub const WORKLOAD: Workload = Workload {
    name: "paper_study",
    untraced,
    traced,
};

/// `StudyConfig::paper_scale` with a smaller store and datasets; every
/// rate and probability stays at paper scale.
fn config(seed: u64) -> StudyConfig {
    let mut config = StudyConfig::paper_scale(seed);
    config.world = WorldConfig {
        store_size: 2_000,
        n_cross_products: 160,
        common_size: 115,
        popular_size: 200,
        random_size: 200,
        ..WorldConfig::paper_scale(seed)
    };
    config.threads = THREADS;
    config
}

fn untraced(seed: u64, deep: bool) -> Rep {
    let config = config(seed);
    let t = Instant::now();
    let world = World::generate(config.world.clone());
    black_box(build_datasets(&world));
    let setup_s = t.elapsed().as_secs_f64();

    let fingerprint = config.fingerprint();
    let journal = config.journal();
    let t = Instant::now();
    let outcome = Study::new(config).run_on_world(world, journal, fingerprint);
    let results = match outcome {
        Ok(StudyOutcome::Completed(results)) => *results,
        Ok(StudyOutcome::Interrupted { .. }) => unreachable!("no kill hook is set"),
        Err(e) => unreachable!("a fresh journal matches its own config: {e}"),
    };
    let report = results.render_all();
    let run_s = t.elapsed().as_secs_f64();

    check(setup_s, run_s, &results, &report, deep)
}

/// Checks a finished study outside the timed regions.
fn check(setup_s: f64, run_s: f64, results: &StudyResults, report: &str, deep: bool) -> Rep {
    let records = &results.records;
    let mut rep = Rep::new(
        setup_s,
        run_s,
        records.len() as u64,
        sha256_hex(report.as_bytes()),
    );
    let failed = records.values().filter(|r| r.error.is_some()).count() as u64;
    rep.failed = failed;
    rep.ok = rep.items - failed;
    rep.check(failed == 0, || format!("{failed} apps failed to measure"));
    rep.records = sha256_hex(format!("{records:?}").as_bytes());
    if deep {
        // Dynamic precision is 1.0 on a clean run: every app called
        // pinned is a planted runtime pinner, and every destination it
        // was called pinned on is one it really pins.
        let world = &results.world;
        let truth: BTreeSet<usize> = Platform::BOTH
            .iter()
            .flat_map(|&p| world.truth_runtime_pinners(p))
            .collect();
        let false_positives: Vec<String> = records
            .values()
            .filter(|r| !r.pinned_destinations.is_empty())
            .filter(|r| {
                let pins: BTreeSet<&str> = world.apps[r.app_index]
                    .runtime_pinned_domains()
                    .into_iter()
                    .collect();
                !truth.contains(&r.app_index)
                    || r.pinned_destinations
                        .iter()
                        .any(|d| !pins.contains(d.as_str()))
            })
            .map(|r| r.id.to_string())
            .collect();
        rep.check(false_positives.is_empty(), || {
            format!("dynamic precision below 1.0: {false_positives:?}")
        });
    }
    rep
}

/// Re-drives `Study::run_on_world` and `render_all` with the same public
/// calls the engine makes, one span around each.
fn traced(seed: u64) -> (Rep, Vec<trace::Span>) {
    let config = config(seed);
    let tracer = Tracer::new();
    let t = Instant::now();
    let world = tracer.span("store.world_generate", || {
        World::generate(config.world.clone())
    });
    let datasets = tracer.span("store.datasets", || build_datasets(&world));
    let setup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let from_ns = tracer.mark();
    let collisions = tracer.span("store.collisions", || collision_report(&datasets));
    let unique: Vec<usize> = datasets
        .iter()
        .flat_map(|d| d.app_indices.iter().copied())
        .chain(world.hostile_apps.iter().copied())
        .collect::<BTreeSet<usize>>()
        .into_iter()
        .collect();
    let env = tracer.span("analysis.env", || {
        let mut env = DynamicEnv::new(
            &world.network,
            world.universe.aosp_oem.clone(),
            world.universe.ios.clone(),
            world.now,
            config.world.seed,
        )
        .with_faults(config.faults)
        .with_retry(config.retry);
        if let Some(b) = config.breaker {
            env = env.with_breaker(b);
        }
        env
    });
    let fingerprint = config.fingerprint();
    let queue: Mutex<VecDeque<usize>> = Mutex::new(unique.iter().copied().collect());
    let journal = Mutex::new(ResultJournal::create(fingerprint));
    let counts = Mutex::new(AppCounts::default());
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                let mut c = AppCounts::default();
                loop {
                    let Some(i) = queue.lock().expect("queue lock").pop_front() else {
                        break;
                    };
                    tracer.keyed("core.measure_app", i as u64, || {
                        let app = &world.apps[i];
                        let outcome = match tracer
                            .span("analysis.dynamic_pair", || try_analyze_app(&env, app))
                        {
                            Ok(dynamic) => {
                                c.settle_reruns += u64::from(dynamic.settled_rerun);
                                let pinned = dynamic.pinned_destinations();
                                let circ = (!pinned.is_empty()).then(|| {
                                    tracer.span("analysis.circumvent", || {
                                        circumvent_app(&env, app, &pinned)
                                    })
                                });
                                if let Some(circ) = &circ {
                                    c.circ_attempted += circ.attempted() as u64;
                                    c.circ_succeeded += circ.succeeded() as u64;
                                }
                                let record = tracer.span("core.assemble", || {
                                    AppRecord::assemble(
                                        i,
                                        app.id.clone(),
                                        Default::default(),
                                        &dynamic,
                                        circ.as_ref(),
                                    )
                                });
                                c.handshakes += record.n_handshakes_baseline as u64;
                                AppOutcome::Measured(Box::new(record.to_measured()))
                            }
                            Err(error) => {
                                c.dynamic_failed += 1;
                                AppOutcome::Failed(error)
                            }
                        };
                        let entry = JournalEntry {
                            app_index: i as u64,
                            outcome,
                        };
                        tracer.span("core.journal_append", || {
                            journal.lock().expect("journal lock").append(&entry)
                        });
                    });
                }
                counts.lock().expect("counts lock").add(&c);
            });
        }
    });
    let journal = journal.into_inner().expect("journal lock");
    let replay = tracer
        .span("core.journal_open", || {
            ResultJournal::open(journal.as_bytes())
        })
        .expect("journal written by this process is intact");
    let decrypt_key = config.world.ios_encryption_seed;
    let mut records: BTreeMap<usize, AppRecord> = BTreeMap::new();
    for entry in &replay.entries {
        let i = entry.app_index as usize;
        let app = &world.apps[i];
        let record = tracer.keyed("core.materialize", i as u64, || {
            let statics = tracer.span("analysis.static_scan", || {
                analyze_package_cached(
                    &app.package,
                    (app.id.platform == Platform::Ios).then_some(decrypt_key),
                )
            });
            match &entry.outcome {
                AppOutcome::Measured(m) => AppRecord::from_measured(i, app.id.clone(), statics, m),
                AppOutcome::Failed(e) => AppRecord::failed(i, app.id.clone(), statics, *e),
            }
        });
        records.insert(i, record);
    }
    let identity = env.identity.clone();
    drop(env);
    let results = StudyResults {
        world,
        datasets,
        collisions,
        records,
        identity,
        health: RunHealth::default(),
    };
    let report = tracer.span("report.render_all", || render_all(&results, &tracer));
    let run_s = t.elapsed().as_secs_f64();
    let to_ns = tracer.mark();

    let mut rep = check(setup_s, run_s, &results, &report, false);
    let spans = tracer.into_spans();
    layer_metrics(&mut rep, &spans, from_ns, to_ns);
    counts
        .into_inner()
        .expect("counts lock")
        .insert_into(&mut rep.layer);
    rep.layer
        .insert("core.journal_bytes".into(), journal.as_bytes().len() as f64);
    (rep, spans)
}

/// `StudyResults::render_all`, section by section through the same public
/// renderers, with a span around each section worth attributing.
fn render_all(r: &StudyResults, tracer: &Tracer) -> String {
    let mut out = String::new();
    out.push_str(&figures::figure1_ascii());
    out.push('\n');
    let mut sections = vec![
        tracer.span("report.table1", || r.render_table1()),
        tracer.span("report.table2", || r.render_table2()),
        tracer.span("report.table3", || r.render_table3()),
        tracer.span("report.table4", || {
            r.render_table_categories(Platform::Android)
        }),
        tracer.span("report.table5", || r.render_table_categories(Platform::Ios)),
        tracer.span("report.table6", || r.render_table6()),
        tracer.span("report.table7", || r.render_table7()),
        tracer.span("report.table8", || r.render_table8()),
        tracer.span("report.table9", || r.render_table9()),
    ];
    sections.extend(tracer.span("report.figures", || {
        [
            r.render_figure2(),
            r.render_figure3(),
            r.render_figure4(),
            r.render_figure5(Platform::Android),
            r.render_figure5(Platform::Ios),
        ]
    }));
    for section in sections {
        out.push_str(&section);
        out.push('\n');
    }
    tracer.span("report.extras", || {
        let (sa, aa) = r.circumvention_rate(Platform::Android);
        let (si, ai) = r.circumvention_rate(Platform::Ios);
        out.push_str(&tables::share_bar("circumvented (Android)", sa, aa, 20));
        out.push('\n');
        out.push_str(&tables::share_bar("circumvented (iOS)", si, ai, 20));
        out.push('\n');
        let pl = r.pin_level();
        out.push_str(&format!(
            "pin level: {} CA vs {} leaf (matched apps: {}/{})\n",
            pl.ca, pl.leaf, pl.apps_matched, pl.pinning_apps
        ));
        let sr = r.spki_vs_raw();
        out.push_str(&format!(
            "leaf pins: {} via SPKI, {} raw ({} raw survive key-reusing renewal)\n",
            sr.leaf_via_spki, sr.leaf_via_raw, sr.raw_surviving_renewal
        ));
        let (resolved, total) = r.ct_resolution();
        out.push_str(&tables::share_bar(
            "pins resolved via CT",
            resolved,
            total,
            20,
        ));
        out.push('\n');
    });
    out.push_str(&tracer.span("report.ct", || r.render_ct()));
    out.push_str(&format!(
        "dataset collisions: Common∩Popular = {:?}, unique apps = {} (Android) + {} (iOS) = {}\n",
        r.collisions.common_popular,
        r.collisions.unique_android,
        r.collisions.unique_ios,
        r.collisions.total_unique,
    ));
    out.push('\n');
    out.push_str(&tracer.span("report.degraded", || r.render_degraded()));
    out.push('\n');
    out.push_str(&tracer.span("report.resilience", || r.render_resilience()));
    out.push('\n');
    out.push_str(&tracer.span("report.summary", || r.summary()));
    out.push('\n');
    out
}
