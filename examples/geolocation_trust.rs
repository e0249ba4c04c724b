//! Geolocation trust: "can a geolocation database known to be good at
//! locating users and bad at infrastructure be trusted for a
//! particular prefix?" (paper §1).
//!
//! Geolocation databases are accurate for eyeball space and poor for
//! infrastructure. Knowing *which prefixes have clients* therefore
//! tells you which database entries to trust. This example scores the
//! database's true placement error (vs simulation ground truth) for
//! prefixes the cache-probing map marks active vs the rest.
//!
//! ```sh
//! cargo run --release --example geolocation_trust [seed]
//! ```

use clientmap::{PipelineConfig, SweepSession};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(11u64);

    eprintln!("building world and running cache probing (seed {seed})…");
    let mut config = PipelineConfig::tiny(seed);
    config.probe.calibration_sample = 300;
    let out = SweepSession::new(config)
        .sweep(None)
        .expect("healthy sweep");
    let active = out.cache_probe.active_set();

    // Score geo-DB placement error against ground truth, split by the
    // *public* activity verdict.
    let world = out.sim.world();
    let mut err_active: Vec<f64> = Vec::new();
    let mut err_rest: Vec<f64> = Vec::new();
    for s in &world.slash24s {
        let Some(entry) = world.geodb.lookup(s.prefix) else {
            continue;
        };
        let err = s.coord.distance_km(&entry.coord);
        if active.contains_slash24(s.prefix) {
            err_active.push(err);
        } else {
            err_rest.push(err);
        }
    }
    let stats = |v: &mut Vec<f64>| -> (usize, f64, f64) {
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return (0, 0.0, 0.0);
        }
        (n, v[n / 2], v[(n as f64 * 0.95) as usize % n])
    };
    let (na, med_a, p95_a) = stats(&mut err_active);
    let (nr, med_r, p95_r) = stats(&mut err_rest);

    println!("geolocation placement error vs ground truth, split by activity map:");
    println!(
        "{:<28} {:>8} {:>12} {:>12}",
        "prefix class", "/24s", "median km", "p95 km"
    );
    println!(
        "{:<28} {:>8} {:>12.1} {:>12.1}",
        "marked ACTIVE (trust geo)", na, med_a, p95_a
    );
    println!(
        "{:<28} {:>8} {:>12.1} {:>12.1}",
        "not marked (geo suspect)", nr, med_r, p95_r
    );
    println!(
        "\nverdict: prefixes the public activity map marks active are geolocated \
         {:.1}x more tightly at the median.",
        if med_a > 0.0 {
            med_r / med_a
        } else {
            f64::INFINITY
        }
    );
}
