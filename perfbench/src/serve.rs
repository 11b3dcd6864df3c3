//! `serve_overload`: the `PinService` over the seeded Zipf / burst /
//! hostile overload trace, from cold memos, on each of several worlds.

use crate::trace::{self, Tracer};
use crate::{layer_metrics, sha256_hex, world_seeds, Rep, Workload};
use pinning_bench::load::{generate_load, LoadConfig};
use pinning_pki::validate::{validate_chain, RevocationList, ValidationOptions};
use pinning_pki::Certificate;
use pinning_serve::{
    Backend, Outcome, Payload, PinService, RequestBody, Response, ServeConfig, ServeRequest,
    ServeSummary,
};
use pinning_store::config::WorldConfig;
use pinning_store::world::World;
use std::time::Instant;

pub const WORKLOAD: Workload = Workload {
    name: "serve_overload",
    untraced,
    traced,
};

/// Worlds per repetition. The service's run time depends on which apps
/// and chains a world makes popular: with one world, per-seed medians
/// differed by up to 40% and kept their order across sweeps. A
/// repetition therefore serves one trace on each of several seeded
/// worlds, one after another, and sums the times.
const WORLDS: usize = 4;

/// The world the service validates against (the serving bench's shape).
fn world_config(seed: u64) -> WorldConfig {
    WorldConfig {
        store_size: 1200,
        n_cross_products: 200,
        common_size: 140,
        popular_size: 250,
        random_size: 250,
        ..WorldConfig::paper_scale(seed)
    }
}

/// Two virtual workers, a 32-deep queue with brownout at the bound, and
/// a backend that faults on 30% of attempts: the serving bench's tuning.
fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        workers: 2,
        queue_capacity: 32,
        brownout_high: 32,
        brownout_low: 8,
        backend_flakiness: 0.3,
        ..ServeConfig::default()
    }
}

fn backend(world: &World) -> Backend<'_> {
    Backend {
        roots: &world.universe.aosp_oem,
        logs: &world.ctlog,
        crl: RevocationList::empty(),
        options: ValidationOptions::default(),
        now: world.now,
    }
}

fn untraced(seed: u64, deep: bool) -> Rep {
    repetition(seed, deep, None)
}

/// The same run with a span around each call into a layer. The service is
/// a single discrete-event simulation, so its run is one span per world;
/// its per-layer split comes from its own counters.
fn traced(seed: u64) -> (Rep, Vec<trace::Span>) {
    let tracer = Tracer::new();
    let mut rep = repetition(seed, false, Some(&tracer));
    let spans = tracer.into_spans();
    let (from_ns, to_ns) = trace::extent(&spans);
    layer_metrics(&mut rep, &spans, from_ns, to_ns);
    (rep, spans)
}

/// Set-up and run on each of the repetition's worlds in turn; only one
/// world is alive at a time.
fn repetition(seed: u64, deep: bool, tracer: Option<&Tracer>) -> Rep {
    let mut rep = Rep::new(0.0, 0.0, 0, String::new());
    let mut digests = String::new();
    let mut totals = ServeSummary::default();
    for world_seed in world_seeds(seed, WORLDS) {
        let t = Instant::now();
        let world = span(tracer, "store.world_generate", || {
            World::generate(world_config(world_seed))
        });
        let load = span(tracer, "load.generate", || {
            generate_load(&world, &LoadConfig::overload(world_seed))
        });
        rep.setup_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut service = span(tracer, "serve.new", || {
            PinService::new(serve_config(world_seed), backend(&world))
        });
        let responses = span(tracer, "serve.run", || service.run(&load.requests));
        rep.run_s += t.elapsed().as_secs_f64();

        let summary = service.summary(&responses);
        let requests = &load.requests;
        digests.push_str(&sha256_hex(format!("{responses:?}").as_bytes()));
        rep.items += requests.len() as u64;
        rep.ok += summary.served_ok + summary.degraded;
        rep.check(responses.len() == requests.len(), || {
            format!(
                "{} responses for {} requests",
                responses.len(),
                requests.len()
            )
        });
        let capacity = serve_config(0).queue_capacity as u64;
        rep.check(summary.peak_queue_depth <= capacity, || {
            format!(
                "queue depth {} exceeded its bound {capacity}",
                summary.peak_queue_depth
            )
        });
        if deep {
            let wrong = wrong_verdicts(&world, requests, &responses);
            rep.failed += wrong.len() as u64;
            rep.check(wrong.is_empty(), || {
                format!("fresh verdicts differ from offline: {wrong:?}")
            });
        }
        add_summary(&mut totals, &summary);
    }
    rep.digest = sha256_hex(digests.as_bytes());
    let layer = &mut rep.layer;
    for (name, value) in [
        ("served_ok", totals.served_ok),
        ("degraded", totals.degraded),
        ("shed", totals.shed_total()),
        ("timed_out", totals.timed_out),
        ("backend_failed", totals.backend_failed),
        ("retries", totals.retries),
        ("breaker_trips", totals.breaker_trips),
        ("brownout_entries", totals.brownout_entries),
        ("peak_queue_depth", totals.peak_queue_depth),
        ("p50_ticks", totals.p50),
        ("p99_ticks", totals.p99),
    ] {
        layer.insert(format!("serve.{name}"), value as f64);
    }
    layer.insert("serve.cache_hit_ratio".into(), totals.cache_hit_rate());
    rep
}

/// Folds one world's summary into the repetition's: counts add up; the
/// queue peak and the latency percentiles keep the worst world's.
fn add_summary(total: &mut ServeSummary, s: &ServeSummary) {
    total.served_ok += s.served_ok;
    total.degraded += s.degraded;
    total.shed_queue_full += s.shed_queue_full;
    total.shed_breaker_open += s.shed_breaker_open;
    total.shed_degraded += s.shed_degraded;
    total.timed_out += s.timed_out;
    total.backend_failed += s.backend_failed;
    total.retries += s.retries;
    total.breaker_trips += s.breaker_trips;
    total.brownout_entries += s.brownout_entries;
    total.cache_hits += s.cache_hits;
    total.cache_misses += s.cache_misses;
    total.peak_queue_depth = total.peak_queue_depth.max(s.peak_queue_depth);
    total.p50 = total.p50.max(s.p50);
    total.p99 = total.p99.max(s.p99);
}

/// Runs `f` inside a span when tracing.
fn span<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(tracer) => tracer.span(name, f),
        None => f(),
    }
}

/// Ids of fresh chain verdicts that differ from the offline library's
/// `validate_chain` for the same chain, hostname and options.
fn wrong_verdicts(world: &World, requests: &[ServeRequest], responses: &[Response]) -> Vec<u64> {
    let mut wrong = Vec::new();
    for (req, resp) in requests.iter().zip(responses) {
        let Outcome::Ok(Payload::ChainVerdict(served)) = &resp.outcome else {
            continue;
        };
        let offline = match &req.body {
            RequestBody::ValidateChain {
                hostname,
                chain_der,
            } if req.id == resp.id => chain_der
                .iter()
                .map(|der| Certificate::from_der(der))
                .collect::<Result<Vec<_>, _>>()
                .map(|chain| {
                    validate_chain(
                        &chain,
                        &world.universe.aosp_oem,
                        hostname,
                        world.now,
                        &RevocationList::empty(),
                        &ValidationOptions::default(),
                    )
                })
                .ok(),
            _ => None,
        };
        if offline.as_ref() != Some(served) {
            wrong.push(resp.id);
        }
    }
    wrong
}
