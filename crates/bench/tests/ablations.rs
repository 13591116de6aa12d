//! The two design ablations DESIGN.md names, as checked relations rather
//! than printed tables. Neither is a report entry: the figures stay the
//! paper's, and these pin what the ablations showed.
//!
//! - *Criticality thresholds.* The paper remarks that namd "would benefit
//!   from a more dynamic threshold". Raising the low/high thresholds
//!   gates the VPU more often, and every wake-up then costs cycles and
//!   energy, so on namd all three grow together (67,207 → 103,301 cycles,
//!   7.44 → 9.89 µJ, 18.7% → 59.4% gated from 1/8 to 16/96).
//! - *µop-cache window constraint.* The stealth AES loop fits the
//!   3-lines-per-32-byte-window limit, so relaxing it to 8 lines changes
//!   neither its µop-cache hit rate nor its cycles (99.9%, 4,569 cycles).

use csd::{DevecThresholds, VpuPolicy};
use csd_bench::run_devec;
use csd_exp::{run_plan_with, ExperimentSpec, LegMode, DEFAULT_WATCHDOG};
use csd_pipeline::CoreConfig;
use csd_workloads::{specs, Workload};

#[test]
fn raising_the_criticality_thresholds_gates_namd_more_at_a_cost() {
    let namd = specs()
        .into_iter()
        .find(|s| s.name == "namd")
        .expect("namd is a workload");
    let w = Workload::with_scale(namd, 0.3);
    let runs: Vec<_> = [(1, 8), (4, 24), (8, 48), (16, 96)]
        .into_iter()
        .map(|(low, high)| {
            let policy = VpuPolicy::CsdDevec(DevecThresholds {
                window: 256,
                low,
                high,
            });
            ((low, high), run_devec(&w, policy))
        })
        .collect();
    for pair in runs.windows(2) {
        let ((t0, a), (t1, b)) = (&pair[0], &pair[1]);
        assert!(
            a.stats.cycles < b.stats.cycles,
            "cycles {t0:?} -> {t1:?}: {} -> {}",
            a.stats.cycles,
            b.stats.cycles
        );
        assert!(
            a.total_energy() < b.total_energy(),
            "energy {t0:?} -> {t1:?}: {} -> {} pJ",
            a.total_energy(),
            b.total_energy()
        );
        assert!(
            a.gate.gated_fraction() < b.gate.gated_fraction(),
            "gated fraction {t0:?} -> {t1:?}: {} -> {}",
            a.gate.gated_fraction(),
            b.gate.gated_fraction()
        );
    }
}

#[test]
fn relaxing_the_uop_cache_window_limit_leaves_stealth_aes_unchanged() {
    let spec = ExperimentSpec::single(
        "aes-enc",
        "opt",
        0xBEEF ^ 6,
        6,
        LegMode::Stealth {
            watchdog: DEFAULT_WATCHDOG,
        },
    );
    let stealth_leg = |max_lines: usize| {
        let cfg = CoreConfig {
            uop_cache_max_lines_per_window: max_lines,
            ..CoreConfig::opt()
        };
        run_plan_with(&spec, cfg, 1)
            .expect("static victim grid resolves")
            .legs[0]
            .metrics
    };
    let (strict, relaxed) = (stealth_leg(3), stealth_leg(8));
    assert!(strict.uop_cache_hit_rate > 0.99, "{strict:?}");
    assert_eq!(strict.uop_cache_hit_rate, relaxed.uop_cache_hit_rate);
    assert_eq!(strict.cycles, relaxed.cycles);
}
