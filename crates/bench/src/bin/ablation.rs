//! Ablations called out in DESIGN.md: (1) criticality-threshold sweep
//! (motivated by the paper's namd observation); (2) µop-cache
//! window-constraint relaxation.

use csd::DevecThresholds;
use csd::VpuPolicy;
use csd_bench::{row, run_devec, DEFAULT_WATCHDOG};
use csd_exp::{run_plan_with, ExperimentSpec, LegMode, NoCache};
use csd_pipeline::CoreConfig;
use csd_workloads::Workload;

fn main() {
    println!("== Ablation 1: devectorization threshold sweep (namd) ==\n");
    let w = Workload::with_scale(
        csd_workloads::specs()
            .into_iter()
            .find(|s| s.name == "namd")
            .unwrap(),
        0.3,
    );
    let widths = [16, 10, 12, 12];
    println!(
        "{}",
        row(
            &["low/high", "cycles", "energy(uJ)", "gated"].map(String::from),
            &widths
        )
    );
    for (low, high) in [(1, 8), (4, 24), (8, 48), (16, 96)] {
        let r = run_devec(
            &w,
            VpuPolicy::CsdDevec(DevecThresholds {
                window: 256,
                low,
                high,
            }),
        );
        println!(
            "{}",
            row(
                &[
                    format!("{low}/{high}"),
                    r.stats.cycles.to_string(),
                    format!("{:.2}", r.total_energy() / 1e6),
                    format!("{:.1}%", 100.0 * r.gate.gated_fraction()),
                ],
                &widths
            )
        );
    }

    println!("\n== Ablation 2: µop-cache 3-lines-per-window constraint ==\n");
    for max_lines in [3usize, 8] {
        let cfg = CoreConfig {
            uop_cache_max_lines_per_window: max_lines,
            ..CoreConfig::opt()
        };
        let spec = ExperimentSpec::single(
            "aes-enc",
            "opt",
            0xBEEF ^ 6,
            6,
            LegMode::Stealth {
                watchdog: DEFAULT_WATCHDOG,
            },
        );
        let m = run_plan_with(&spec, cfg, &NoCache, 1)
            .expect("static victim grid resolves")
            .legs[0]
            .metrics;
        println!(
            "max {} lines/window: uop$ hit rate {:.1}%  cycles {}",
            max_lines,
            100.0 * m.uop_cache_hit_rate,
            m.cycles
        );
    }
}
