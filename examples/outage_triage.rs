//! Outage triage: "does an outage impact any users?" — the paper's
//! opening motivation (§1).
//!
//! A simulated outage takes down a handful of announced blocks. An
//! operator holding only the *public* activity map (the cache-probing
//! active set) triages which outage-affected prefixes actually host
//! clients — and we score that triage against ground truth.
//!
//! ```sh
//! cargo run --release --example outage_triage [seed]
//! ```

use clientmap::{PipelineConfig, SweepSession};
use clientmap::{Prefix, SeedMixer};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7u64);

    eprintln!("building world and running cache probing (seed {seed})…");
    let mut config = PipelineConfig::tiny(seed);
    config.probe.calibration_sample = 300;
    let out = SweepSession::new(config)
        .sweep(None)
        .expect("healthy sweep");
    let active = out.cache_probe.active_set();

    // A deterministic "outage": 12 random routed blocks go dark.
    let world = out.sim.world();
    let mut rng = SeedMixer::new(seed).mix_str("outage").finish();
    let routed: Vec<Prefix> = world
        .blocks
        .iter()
        .filter(|b| b.routed)
        .map(|b| b.prefix)
        .collect();
    let mut outage: Vec<Prefix> = Vec::new();
    while outage.len() < 12 && outage.len() < routed.len() {
        rng = clientmap::splitmix64(rng);
        let p = routed[(rng as usize) % routed.len()];
        if !outage.contains(&p) {
            outage.push(p);
        }
    }

    println!("outage-affected blocks and triage verdicts:");
    println!(
        "{:<20} {:>9} {:>12} {:>14}",
        "block", "/24s", "map verdict", "truth (users)"
    );
    let mut correct = 0usize;
    for block in &outage {
        let detected = active.intersects(*block);
        let true_users: f64 = block
            .slash24s()
            .filter_map(|p| world.slash24(p))
            .map(|s| s.users + s.machines)
            .sum();
        let truth = true_users > 0.0;
        if detected == truth {
            correct += 1;
        }
        println!(
            "{:<20} {:>9} {:>12} {:>14.0}",
            block.to_string(),
            block.num_slash24s(),
            if detected {
                "USERS LIKELY"
            } else {
                "likely dark"
            },
            true_users,
        );
    }
    println!(
        "\ntriage agreement with ground truth: {}/{} blocks",
        correct,
        outage.len()
    );
    println!(
        "(activity map: {} active /24s over {} routed)",
        active.num_slash24s(),
        world.routed_slash24s()
    );
}
