//! One warm-up, many measured legs: the `csd-exp` experiment layer in
//! miniature. Builds a typed spec mixing a base leg, a stealth watchdog
//! sweep, and a devectorization-policy leg, runs it through the plan
//! executor (warm once → snapshot → fork every leg), and prints the
//! spec as JSON followed by per-leg metrics.
//!
//! ```sh
//! cargo run --release --example experiment_plan
//! ```

use csd_repro::exp::{run_plan, ExperimentSpec, Leg, LegMode, NoCache};
use csd_repro::telemetry::ToJson;

fn main() {
    let spec = ExperimentSpec {
        victim: "aes-enc".to_string(),
        pipeline: "opt".to_string(),
        seed: 0xC5D,
        blocks: 4,
        legs: vec![
            Leg::new(LegMode::Base),
            Leg::new(LegMode::Stealth { watchdog: 1000 }),
            Leg::new(LegMode::Stealth { watchdog: 4000 }),
            Leg::new(LegMode::Devec {
                policy: "csd-devec".to_string(),
            }),
        ],
    };
    println!("spec:");
    println!("{}\n", spec.to_json().pretty());

    // Legs are independent after the shared fork, so let two run at once.
    let result = run_plan(&spec, &NoCache, 2).expect("static spec resolves");

    let base_cycles = result.legs[0].metrics.cycles as f64;
    println!(
        "{:<18} {:>10} {:>9} {:>8} {:>9}",
        "leg", "cycles", "uops", "decoys", "slowdown"
    );
    for leg in &result.legs {
        let label = match &leg.mode {
            LegMode::Base => "base".to_string(),
            LegMode::Stealth { watchdog } => format!("stealth wd={watchdog}"),
            LegMode::Devec { policy } => format!("devec {policy}"),
        };
        let m = leg.metrics;
        println!(
            "{:<18} {:>10} {:>9} {:>8} {:>8.3}x",
            label,
            m.cycles,
            m.uops,
            m.decoy_uops,
            m.cycles as f64 / base_cycles
        );
    }
    println!("\nall four legs forked one warmed checkpoint: the base leg");
    println!("is untouched by its siblings' stealth windows and VPU policy.");
}
