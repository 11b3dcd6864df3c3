//! Ablation benches for the design choices DESIGN.md §5 calls out, plus the
//! §4.2.1 sleep-time sweep and interaction experiment.

use pinning_analysis::dynamics::calibration::sleep_time_sweep;
use pinning_analysis::dynamics::interaction::interaction_experiment;
use pinning_analysis::dynamics::pipeline::DynamicEnv;
use pinning_bench::{print_once, shared_world, time_bench};
use pinning_core::ablation;
use std::hint::black_box;

fn main() {
    let world = shared_world();
    const ITERS: u32 = 10;

    print_once("ablation: naive vs differential", || {
        let (diff, naive) = ablation::naive_vs_differential(world);
        format!(
            "differential: precision {:.2} recall {:.2} ({diff:?})\n\
             naive alerts: precision {:.2} recall {:.2} ({naive:?})",
            diff.precision(),
            diff.recall(),
            naive.precision(),
            naive.recall()
        )
    });
    time_bench("ablation_naive_vs_differential", ITERS, || {
        black_box(ablation::naive_vs_differential(world));
    });

    print_once("ablation: TLS 1.3 heuristic vs oracle", || {
        let (agree, disagree) = ablation::tls13_heuristic_vs_oracle(world);
        format!(
            "agreement {agree}/{} ({:.2}%)",
            agree + disagree,
            100.0 * agree as f64 / (agree + disagree).max(1) as f64
        )
    });
    time_bench("ablation_tls13_heuristic", ITERS, || {
        black_box(ablation::tls13_heuristic_vs_oracle(world));
    });

    print_once("ablation: iOS associated-domain exclusion", || {
        let (without, with) = ablation::associated_domain_exclusion(world);
        format!("false positives without exclusion: {without}; with exclusion: {with}")
    });
    time_bench("ablation_associated_domains", ITERS, || {
        black_box(ablation::associated_domain_exclusion(world));
    });

    print_once("ablation: NSC-only vs full static vs dynamic", || {
        ablation::static_breadth(world)
            .into_iter()
            .map(|(p, nsc, full, dynamic)| {
                format!("{p}: NSC-only {nsc}, full static {full}, dynamic {dynamic}\n")
            })
            .collect()
    });
    time_bench("ablation_static_breadth", ITERS, || {
        black_box(ablation::static_breadth(world));
    });

    print_once("related work: Stone et al. coverage bound", || {
        let (ca, leaf) = ablation::stone_etal_coverage(world);
        format!(
            "CA-pinned destinations (their upper bound): {ca}; leaf-pinned (missed): {leaf} — {:.0}% coverage",
            100.0 * ca as f64 / (ca + leaf).max(1) as f64
        )
    });
    time_bench("ablation_stone_coverage", ITERS, || {
        black_box(ablation::stone_etal_coverage(world));
    });

    // §4.2.1 sleep-time calibration sweep (runs the device pipeline inside
    // the loop, so keep the sample small).
    let env = DynamicEnv::new(
        &world.network,
        world.universe.aosp_oem.clone(),
        world.universe.ios.clone(),
        world.now,
        7,
    );
    let apps: Vec<_> = world.apps.iter().take(10).collect();
    print_once("§4.2.1 sleep sweep", || {
        let sweep = sleep_time_sweep(&env, &apps, &[15, 30, 60]);
        format!(
            "windows {:?} → mean handshakes {:?} (paper: 20.78 / 23.5 / 24.62)",
            sweep.windows, sweep.mean_handshakes
        )
    });
    time_bench("calibration_sleep_time", ITERS, || {
        black_box(sleep_time_sweep(&env, &apps, &[15, 30, 60]));
    });

    let env = DynamicEnv::new(
        &world.network,
        world.universe.aosp_oem.clone(),
        world.universe.ios.clone(),
        world.now,
        11,
    );
    let apps: Vec<_> = world.apps.iter().take(20).collect();
    print_once("§4.2.1 interaction experiment", || {
        let r = interaction_experiment(&env, &apps);
        format!(
            "mean distinct destinations: launch-only {:.2}, random-UI {:.2}, login {:.2} (uplift {:.1}%, significant: {})",
            r.mean_domains_none,
            r.mean_domains_random,
            r.mean_domains_login,
            r.random_ui_uplift() * 100.0,
            r.random_ui_significant()
        )
    });
    time_bench("interaction_experiment", ITERS, || {
        black_box(interaction_experiment(&env, &apps));
    });
}
