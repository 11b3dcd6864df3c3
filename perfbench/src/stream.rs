//! `stream_scale`: the `StreamEngine` over a streamed world, shard by
//! shard, then the streamed report.

use crate::trace::{self, Tracer};
use crate::{layer_metrics, median, sha256_hex, world_seeds, AppCounts, Rep, Workload, THREADS};
use pinning_analysis::circumvent::circumvent_app;
use pinning_analysis::dynamics::pipeline::{try_analyze_app, DynamicEnv};
use pinning_analysis::statics::analyze_package;
use pinning_app::platform::Platform;
use pinning_core::stream::StreamJournal;
use pinning_core::{AppRecord, StreamAccum, StreamConfig, StreamEngine, StreamOutcome};
use pinning_pki::validate::clear_validation_cache;
use pinning_store::config::WorldConfig;
use pinning_store::shard::StreamWorld;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

pub const WORKLOAD: Workload = Workload {
    name: "stream_scale",
    untraced,
    traced,
};

/// Products per shard, as in the million-app runs.
const SHARD_SIZE: usize = 500;

/// Streamed worlds per repetition, each of about 2 × `STORE_SIZE` apps.
/// Together they are large enough that measuring shards, not building the
/// PKI universe, dominates a run. Part of the per-app cost is set by the
/// seed's world (per-seed medians kept their order across sweeps), so a
/// repetition measures two worlds, one after another, and sums the times.
const WORLDS: usize = 2;
const STORE_SIZE: usize = 1_250;

fn config(seed: u64) -> StreamConfig {
    StreamConfig {
        world: WorldConfig {
            store_size: STORE_SIZE,
            n_cross_products: STORE_SIZE / 12,
            ..WorldConfig::paper_scale(seed)
        },
        shard_size: SHARD_SIZE,
        threads: THREADS,
        max_inflight_shards: 2,
        kill_after_shards: None,
    }
}

/// Set-up takes milliseconds, so each repetition times it this many
/// times and keeps the median.
const SETUP_SAMPLES: usize = 5;

fn untraced(seed: u64, _deep: bool) -> Rep {
    let mut out = Outputs::new();
    for world_seed in world_seeds(seed, WORLDS) {
        let config = config(world_seed);
        let mut samples: Vec<f64> = (0..SETUP_SAMPLES)
            .map(|_| {
                let t = Instant::now();
                black_box(StreamWorld::new(config.world.clone(), config.shard_size));
                black_box(StreamEngine::new(config.clone()));
                t.elapsed().as_secs_f64()
            })
            .collect();
        let setup_s = median(&mut samples);
        let engine = StreamEngine::new(config);

        let t = Instant::now();
        let results = match engine.run() {
            StreamOutcome::Completed(results) => *results,
            StreamOutcome::Interrupted { .. } => unreachable!("no kill hook is set"),
        };
        let report = results.render_report();
        let run_s = t.elapsed().as_secs_f64();
        out.add_world(setup_s, run_s, &results.accum, &report);
    }
    out.finish()
}

/// A repetition's results, world by world.
struct Outputs {
    rep: Rep,
    reports: String,
    accums: String,
}

impl Outputs {
    fn new() -> Outputs {
        Outputs {
            rep: Rep::new(0.0, 0.0, 0, String::new()),
            reports: String::new(),
            accums: String::new(),
        }
    }

    fn add_world(&mut self, setup_s: f64, run_s: f64, accum: &StreamAccum, report: &str) {
        let rep = &mut self.rep;
        rep.setup_s += setup_s;
        rep.run_s += run_s;
        let failed: u64 = accum.platform.iter().map(|p| p.degraded).sum();
        rep.items += accum.apps;
        rep.failed += failed;
        rep.ok += accum.apps - failed;
        rep.check(failed == 0, || format!("{failed} apps failed to measure"));
        rep.check(accum.apps > 0, || {
            "a streamed world measured no apps".into()
        });
        self.reports.push_str(report);
        self.accums.push_str(&format!("{accum:?}"));
    }

    fn finish(self) -> Rep {
        let mut rep = self.rep;
        rep.digest = sha256_hex(self.reports.as_bytes());
        rep.records = sha256_hex(self.accums.as_bytes());
        rep
    }
}

/// Re-drives `StreamEngine::run` on each world with the same public calls
/// its workers make, one span around each.
fn traced(seed: u64) -> (Rep, Vec<trace::Span>) {
    let tracer = Tracer::new();
    let counts = Mutex::new(AppCounts::default());
    let mut out = Outputs::new();
    let mut problems = Vec::new();
    let mut journal_bytes = 0;
    for world_seed in world_seeds(seed, WORLDS) {
        journal_bytes += traced_world(world_seed, &tracer, &counts, &mut out, &mut problems);
    }
    let mut rep = out.finish();
    rep.problems.extend(problems);
    let spans = tracer.into_spans();
    let (from_ns, to_ns) = trace::extent(&spans);
    layer_metrics(&mut rep, &spans, from_ns, to_ns);
    counts
        .into_inner()
        .expect("counts lock")
        .insert_into(&mut rep.layer);
    rep.layer
        .insert("core.stream_journal_bytes".into(), journal_bytes as f64);
    (rep, spans)
}

/// One world of a traced repetition; then reads its shard journal back.
/// Returns the journal's size in bytes.
fn traced_world(
    seed: u64,
    tracer: &Tracer,
    counts: &Mutex<AppCounts>,
    out: &mut Outputs,
    problems: &mut Vec<String>,
) -> usize {
    let config = config(seed);
    let t = Instant::now();
    let world = tracer.span("store.stream_world", || {
        StreamWorld::new(config.world.clone(), config.shard_size)
    });
    let setup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let universe = world.universe();
    let decrypt_key = config.world.ios_encryption_seed;
    // Each worker holds at most one shard, so no more than THREADS
    // (≤ `max_inflight_shards`) shards exist at once, as in the engine.
    let queue: Mutex<VecDeque<usize>> = Mutex::new((0..world.n_shards()).collect());
    let journal = Mutex::new(StreamJournal::create(config.fingerprint()));
    let partials: Mutex<Vec<StreamAccum>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                let mut partial = StreamAccum::default();
                let mut c = AppCounts::default();
                loop {
                    // Pop on its own statement so the queue lock is not
                    // held while the shard is measured.
                    let next = queue.lock().expect("queue lock").pop_front();
                    let Some(k) = next else { break };
                    tracer.keyed("core.shard", k as u64, || {
                        let shard = tracer.span("store.shard_generate", || world.generate_shard(k));
                        let env = tracer.span("analysis.env", || {
                            DynamicEnv::new(
                                &shard.network,
                                universe.aosp_oem.clone(),
                                universe.ios.clone(),
                                shard.now,
                                config.world.seed,
                            )
                        });
                        let mut acc = StreamAccum {
                            shards: 1,
                            ..Default::default()
                        };
                        for (n, sa) in shard.apps.iter().enumerate() {
                            let app = &sa.app;
                            tracer.keyed("core.measure_app", ((k as u64) << 20) | n as u64, || {
                                let ios = app.id.platform == Platform::Ios;
                                let statics = tracer.span("analysis.static_scan", || {
                                    analyze_package(&app.package, ios.then_some(decrypt_key))
                                });
                                let record = match tracer
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
                                        tracer.span("core.assemble", || {
                                            AppRecord::assemble(
                                                sa.product_index,
                                                app.id.clone(),
                                                statics,
                                                &dynamic,
                                                circ.as_ref(),
                                            )
                                        })
                                    }
                                    Err(error) => {
                                        c.dynamic_failed += 1;
                                        AppRecord::failed(
                                            sa.product_index,
                                            app.id.clone(),
                                            statics,
                                            error,
                                        )
                                    }
                                };
                                c.handshakes += record.n_handshakes_baseline as u64;
                                tracer.span("core.accum", || {
                                    acc.add_app(
                                        &sa.datasets,
                                        app.category.label_on(app.id.platform),
                                        &record,
                                        &env.identity,
                                    )
                                });
                            });
                        }
                        tracer.span("core.stream_journal_append", || {
                            journal
                                .lock()
                                .expect("journal lock")
                                .append_shard(k as u64, &acc)
                        });
                        tracer.span("core.accum", || partial.merge(&acc));
                        tracer.span("pki.clear_validation_cache", clear_validation_cache);
                    });
                }
                partials.lock().expect("partials lock").push(partial);
                counts.lock().expect("counts lock").add(&c);
            });
        }
    });
    let accum = tracer.span("core.accum", || {
        let mut accum = StreamAccum::default();
        for partial in partials.into_inner().expect("partials lock").iter() {
            accum.merge(partial);
        }
        accum
    });
    let report = tracer.span("report.stream_report", || accum.render());
    let run_s = t.elapsed().as_secs_f64();
    out.add_world(setup_s, run_s, &accum, &report);

    // After the timed run: the shard journal must read back, through the
    // scrubbing reader, to the same report.
    let journal = journal.into_inner().expect("journal lock");
    let replay = tracer.span("resilience.scrub", || {
        StreamJournal::open(journal.as_bytes())
    });
    match replay {
        Ok(replay) => {
            let mut replayed = StreamAccum::default();
            for shard in replay.shards.values() {
                replayed.merge(shard);
            }
            if replayed.render() != report {
                problems.push("a shard journal replays to a different report".into());
            }
        }
        Err(e) => problems.push(format!("a shard journal does not open: {e}")),
    }
    journal.as_bytes().len()
}
