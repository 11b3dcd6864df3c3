//! `epoch_replay`: the incremental `Evolution` engine over several
//! epochs of store evolution.

use crate::trace::{self, Tracer};
use crate::{layer_metrics, sha256_hex, Rep, Workload, THREADS};
use pinning_epoch::{EpochConfig, Evolution};
use pinning_resilience::recovery::CheckpointStore;
use pinning_store::config::WorldConfig;
use pinning_store::world::World;
use std::time::Instant;

pub const WORKLOAD: Workload = Workload {
    name: "epoch_replay",
    untraced,
    traced,
};

/// The epoch bench's full-mode shape: five evolution epochs over a
/// mid-size store.
fn config(seed: u64) -> EpochConfig {
    EpochConfig {
        world: WorldConfig {
            store_size: 400,
            n_cross_products: 60,
            common_size: 40,
            popular_size: 80,
            random_size: 80,
            ..WorldConfig::paper_scale(seed)
        },
        epochs: 5,
        seed: seed ^ 0xE70C,
        days_per_epoch: 14,
        app_events_per_epoch: 6,
        threads: THREADS,
    }
}

fn untraced(seed: u64, deep: bool) -> Rep {
    let config = config(seed);
    let t = Instant::now();
    let mut engine = Evolution::new(config.clone(), true);
    engine.next_epoch().expect("baseline epoch");
    let setup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut report = String::new();
    while engine.completed() < engine.epochs_total() {
        engine.next_epoch().expect("incremental epoch");
        report = engine.full_report();
    }
    let run_s = t.elapsed().as_secs_f64();
    let mut rep = check(setup_s, run_s, &engine, &report);
    // The cold evolution holds a world of its own: drop this one first so
    // the check does not raise the run's peak RSS.
    drop(engine);
    if deep {
        let mut cold = Evolution::new(config, false);
        while cold.completed() < cold.epochs_total() {
            cold.next_epoch().expect("cold epoch");
        }
        rep.check(cold.full_report() == report, || {
            "the incremental final report differs from a cold evolution's".into()
        });
    }
    rep
}

fn check(setup_s: f64, run_s: f64, engine: &Evolution, report: &str) -> Rep {
    // The run's work: every app of every incremental epoch, replayed or
    // re-analysed.
    let runs = &engine.costs()[1..];
    let replayed: usize = runs.iter().map(|c| c.replayed).sum();
    let reanalyzed: usize = runs.iter().map(|c| c.reanalyzed).sum();
    let mut rep = Rep::new(
        setup_s,
        run_s,
        (replayed + reanalyzed) as u64,
        sha256_hex(report.as_bytes()),
    );
    rep.check(replayed > 0, || {
        "no app was replayed from a prior epoch".into()
    });
    let layer = &mut rep.layer;
    layer.insert("epoch.replayed".into(), replayed as f64);
    layer.insert("epoch.reanalyzed".into(), reanalyzed as f64);
    layer.insert(
        "epoch.replay_ratio".into(),
        replayed as f64 / (replayed + reanalyzed).max(1) as f64,
    );
    rep
}

/// The same run with a span around each epoch and report. The baseline
/// epoch generates its world inside the engine, so the traced set-up
/// times the same `World::generate` call on its own first.
fn traced(seed: u64) -> (Rep, Vec<trace::Span>) {
    let config = config(seed);
    let tracer = Tracer::new();
    tracer.span("store.world_generate", || {
        World::generate(config.world.clone())
    });
    let t = Instant::now();
    let mut engine = tracer.span("epoch.new", || Evolution::new(config.clone(), true));
    tracer
        .span("epoch.baseline_epoch", || engine.next_epoch())
        .expect("baseline epoch");
    let setup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let from_ns = tracer.mark();
    let mut report = String::new();
    while engine.completed() < engine.epochs_total() {
        let k = engine.completed() as u64;
        tracer
            .keyed("epoch.next_epoch", k, || engine.next_epoch())
            .expect("incremental epoch");
        report = tracer.keyed("epoch.full_report", k, || engine.full_report());
    }
    let run_s = t.elapsed().as_secs_f64();
    let to_ns = tracer.mark();

    let state = tracer.span("epoch.state_bytes", || engine.state_bytes());
    let mut store = CheckpointStore::in_memory();
    tracer
        .span("epoch.checkpoint", || engine.checkpoint(&mut store))
        .expect("in-memory checkpoint");
    let mut rep = check(setup_s, run_s, &engine, &report);
    let spans = tracer.into_spans();
    layer_metrics(&mut rep, &spans, from_ns, to_ns);
    rep.layer
        .insert("epoch.state_bytes".into(), state.len() as f64);
    (rep, spans)
}
