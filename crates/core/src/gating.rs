//! VPU power-gating controller and the three policies of the paper's
//! evaluation (Figures 12–16): Always-On, conventional idle-based gating,
//! and CSD-driven selective devectorization.

use crate::criticality::{CriticalityPredictor, CriticalitySignal, DevecThresholds};
use crate::mode::VectorExecClass;
use csd_power::GatingParams;
use csd_telemetry::{Json, ToJson};

/// The gating policy in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VpuPolicy {
    /// Never gate: every vector instruction executes on the (always
    /// powered) VPU.
    AlwaysOn,
    /// Conventional demand-driven gating: gate after the VPU has been idle
    /// for `idle_gate_cycles`; on vector demand while gated, stall the
    /// pipeline for the wake latency and then execute on the VPU.
    Conventional {
        /// Idle cycles before the unit is gated.
        idle_gate_cycles: u64,
    },
    /// CSD selective devectorization: the criticality predictor gates and
    /// wakes the unit; vector instructions arriving while the unit is
    /// gated or waking are scalarized by the decoder instead of stalling.
    CsdDevec(DevecThresholds),
}

impl Default for VpuPolicy {
    fn default() -> VpuPolicy {
        VpuPolicy::CsdDevec(DevecThresholds::default())
    }
}

/// Power state of the VPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VpuState {
    /// Powered and usable.
    On,
    /// Power-gated.
    Gated,
    /// Waking: usable after the counter reaches zero.
    Waking {
        /// Remaining wake cycles.
        remaining: u64,
    },
}

/// What the decoder should do with a vector instruction right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorDecision {
    /// Execute natively on the VPU.
    ExecuteOnVpu,
    /// Stall issue for the given cycles (conventional wake), then execute
    /// on the VPU.
    StallThenExecute(u64),
    /// Translate to scalar µops (CSD devectorization); the class records
    /// why, for the Figure 16 breakdown.
    Devectorize(VectorExecClass),
}

/// Cycle- and instruction-level statistics for Figures 13–16.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateStats {
    /// Cycles spent fully gated.
    pub gated_cycles: u64,
    /// Cycles spent waking.
    pub waking_cycles: u64,
    /// Cycles spent powered on.
    pub on_cycles: u64,
    /// Gate → (wake →) on round trips (energy overhead events).
    pub gate_transitions: u64,
    /// Cycles the pipeline stalled waiting for a conventional wake.
    pub wake_stall_cycles: u64,
    /// Vector instructions executed on the powered VPU.
    pub vec_on: u64,
    /// Vector instructions devectorized during wake.
    pub vec_powering_on: u64,
    /// Vector instructions devectorized while gated.
    pub vec_gated: u64,
}

impl GateStats {
    /// Total cycles observed.
    pub fn total_cycles(&self) -> u64 {
        self.gated_cycles + self.waking_cycles + self.on_cycles
    }

    /// Fraction of time the unit was gated (paper Figure 15).
    pub fn gated_fraction(&self) -> f64 {
        let t = self.total_cycles();
        if t == 0 {
            return 0.0;
        }
        self.gated_cycles as f64 / t as f64
    }

    /// Total vector instructions classified.
    pub fn vec_total(&self) -> u64 {
        self.vec_on + self.vec_powering_on + self.vec_gated
    }
}

impl ToJson for GateStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("gated_cycles", Json::from(self.gated_cycles)),
            ("waking_cycles", Json::from(self.waking_cycles)),
            ("on_cycles", Json::from(self.on_cycles)),
            ("gate_transitions", Json::from(self.gate_transitions)),
            ("wake_stall_cycles", Json::from(self.wake_stall_cycles)),
            ("vec_on", Json::from(self.vec_on)),
            ("vec_powering_on", Json::from(self.vec_powering_on)),
            ("vec_gated", Json::from(self.vec_gated)),
            ("gated_fraction", Json::from(self.gated_fraction())),
        ])
    }
}

/// The VPU power-gate controller.
///
/// Drive it with [`VpuGateController::tick`] once per simulated cycle (or
/// in batches) and [`VpuGateController::on_vector_inst`] at each decoded
/// vector macro-op; scalar macro-ops go through
/// [`VpuGateController::on_scalar_inst`] so the criticality window and the
/// conventional idle counter advance.
#[derive(Debug, Clone)]
pub struct VpuGateController {
    policy: VpuPolicy,
    state: VpuState,
    predictor: Option<CriticalityPredictor>,
    idle_cycles: u64,
    gating: GatingParams,
    stats: GateStats,
}

impl VpuGateController {
    /// A controller with the given policy and gating-cost parameters.
    pub fn new(policy: VpuPolicy, gating: GatingParams) -> VpuGateController {
        let predictor = match policy {
            VpuPolicy::CsdDevec(t) => Some(CriticalityPredictor::new(t)),
            _ => None,
        };
        VpuGateController {
            policy,
            state: VpuState::On,
            predictor,
            idle_cycles: 0,
            gating,
            stats: GateStats::default(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> VpuPolicy {
        self.policy
    }

    /// Replaces the policy, restarting the controller (state, predictor,
    /// and statistics) under the same gating-cost parameters — exactly a
    /// fresh [`VpuGateController::new`] with the new policy.
    pub fn set_policy(&mut self, policy: VpuPolicy) {
        *self = VpuGateController::new(policy, self.gating);
    }

    /// Current power state.
    pub fn state(&self) -> VpuState {
        self.state
    }

    /// Whether the VPU can execute a vector µop this cycle.
    pub fn vpu_available(&self) -> bool {
        self.state == VpuState::On
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &GateStats {
        &self.stats
    }

    /// Advances `n` cycles: accounts state residency, counts down wakes,
    /// and applies conventional idle-gating decisions.
    #[inline]
    pub fn tick(&mut self, n: u64) {
        let mut left = n;
        while left > 0 {
            match self.state {
                VpuState::On => {
                    // Conventional policy gates on idleness.
                    if let VpuPolicy::Conventional { idle_gate_cycles } = self.policy {
                        let until_gate = idle_gate_cycles.saturating_sub(self.idle_cycles);
                        if until_gate == 0 {
                            self.state = VpuState::Gated;
                            continue;
                        }
                        let step = left.min(until_gate);
                        self.stats.on_cycles += step;
                        self.idle_cycles += step;
                        left -= step;
                    } else {
                        self.stats.on_cycles += left;
                        left = 0;
                    }
                }
                VpuState::Gated => {
                    self.stats.gated_cycles += left;
                    left = 0;
                }
                VpuState::Waking { remaining } => {
                    let step = left.min(remaining);
                    self.stats.waking_cycles += step;
                    left -= step;
                    let remaining = remaining - step;
                    if remaining == 0 {
                        self.state = VpuState::On;
                        self.stats.gate_transitions += 1;
                        self.idle_cycles = 0;
                    } else {
                        self.state = VpuState::Waking { remaining };
                    }
                }
            }
        }
    }

    /// Records a decoded scalar instruction (feeds the criticality window).
    pub fn on_scalar_inst(&mut self) {
        if let Some(p) = &mut self.predictor {
            let signal = p.observe(0);
            self.apply_signal(signal);
        }
    }

    /// How many scalar decodes from now leave the power state alone, so
    /// that they may be recorded at once ([`VpuGateController::on_scalar_insts`])
    /// and the cycles they take ticked as one batch. Without a predictor a
    /// scalar decode changes nothing. With one, a gated unit stays gated
    /// (a scalar window can only ask to gate), and otherwise the window
    /// must not close: its gate signal would split the batch's ticks
    /// between two states.
    pub fn quiet_scalar_insts(&self) -> u64 {
        match &self.predictor {
            Some(p) if self.state != VpuState::Gated => p.until_boundary(),
            _ => u64::MAX,
        }
    }

    /// The cycles from now whose tick is the first to change the power
    /// state, so a batch of ticks must end there: a conventional idle
    /// timer's expiry while the unit is on, or 1 while a wake counts down
    /// (each count is a new state); unbounded in every other state.
    pub fn quiet_cycles(&self) -> u64 {
        match (self.state, self.policy) {
            (VpuState::On, VpuPolicy::Conventional { idle_gate_cycles }) => idle_gate_cycles
                .saturating_sub(self.idle_cycles)
                .saturating_add(1),
            (VpuState::Waking { .. }, _) => 1,
            _ => u64::MAX,
        }
    }

    /// Records `n` decoded scalar instructions, no more than
    /// [`VpuGateController::quiet_scalar_insts`] allows: what `n` calls of
    /// [`VpuGateController::on_scalar_inst`] do.
    pub fn on_scalar_insts(&mut self, n: u64) {
        debug_assert!(
            n <= self.quiet_scalar_insts(),
            "a batch past the quiet span"
        );
        if let Some(p) = &mut self.predictor {
            let signal = p.observe_scalar(n);
            self.apply_signal(signal);
        }
    }

    /// Records a decoded vector instruction of the given criticality
    /// `weight` and returns how it must execute.
    pub fn on_vector_inst(&mut self, weight: u32) -> VectorDecision {
        self.idle_cycles = 0;
        match self.policy {
            VpuPolicy::AlwaysOn => {
                self.stats.vec_on += 1;
                VectorDecision::ExecuteOnVpu
            }
            VpuPolicy::Conventional { .. } => match self.state {
                VpuState::On => {
                    self.stats.vec_on += 1;
                    VectorDecision::ExecuteOnVpu
                }
                VpuState::Gated => {
                    // Demand wake: stall for the full latency.
                    self.state = VpuState::Waking {
                        remaining: self.gating.wake_cycles,
                    };
                    self.stats.vec_on += 1;
                    self.stats.wake_stall_cycles += self.gating.wake_cycles;
                    VectorDecision::StallThenExecute(self.gating.wake_cycles)
                }
                VpuState::Waking { remaining } => {
                    self.stats.vec_on += 1;
                    self.stats.wake_stall_cycles += remaining;
                    VectorDecision::StallThenExecute(remaining)
                }
            },
            VpuPolicy::CsdDevec(_) => {
                let signal = self
                    .predictor
                    .as_mut()
                    .expect("CsdDevec controller always has a predictor")
                    .observe(weight);
                self.apply_signal(signal);
                match self.state {
                    VpuState::On => {
                        self.stats.vec_on += 1;
                        VectorDecision::ExecuteOnVpu
                    }
                    VpuState::Waking { .. } => {
                        self.stats.vec_powering_on += 1;
                        VectorDecision::Devectorize(VectorExecClass::PoweringOn)
                    }
                    VpuState::Gated => {
                        self.stats.vec_gated += 1;
                        VectorDecision::Devectorize(VectorExecClass::PowerGated)
                    }
                }
            }
        }
    }

    fn apply_signal(&mut self, signal: CriticalitySignal) {
        match signal {
            CriticalitySignal::None => {}
            CriticalitySignal::Gate => {
                if self.state == VpuState::On {
                    self.state = VpuState::Gated;
                }
            }
            CriticalitySignal::Wake => {
                if self.state == VpuState::Gated {
                    self.state = VpuState::Waking {
                        remaining: self.gating.wake_cycles,
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csd_ctl(window: u32, low: u32, high: u32) -> VpuGateController {
        VpuGateController::new(
            VpuPolicy::CsdDevec(DevecThresholds { window, low, high }),
            GatingParams::default(),
        )
    }

    #[test]
    fn always_on_never_gates() {
        let mut c = VpuGateController::new(VpuPolicy::AlwaysOn, GatingParams::default());
        c.tick(1000);
        assert_eq!(c.on_vector_inst(1), VectorDecision::ExecuteOnVpu);
        assert_eq!(c.stats().gated_cycles, 0);
        assert!(c.vpu_available());
    }

    #[test]
    fn conventional_gates_after_idle_and_stalls_on_demand() {
        let mut c = VpuGateController::new(
            VpuPolicy::Conventional {
                idle_gate_cycles: 100,
            },
            GatingParams::default(),
        );
        c.tick(99);
        assert_eq!(c.state(), VpuState::On);
        c.tick(50);
        assert_eq!(c.state(), VpuState::Gated);
        assert_eq!(c.stats().gated_cycles, 49);

        let d = c.on_vector_inst(1);
        assert_eq!(d, VectorDecision::StallThenExecute(30));
        c.tick(30);
        assert_eq!(c.state(), VpuState::On);
        assert_eq!(c.stats().gate_transitions, 1);
        assert_eq!(c.on_vector_inst(1), VectorDecision::ExecuteOnVpu);
    }

    #[test]
    fn vector_use_resets_conventional_idle_counter() {
        let mut c = VpuGateController::new(
            VpuPolicy::Conventional {
                idle_gate_cycles: 100,
            },
            GatingParams::default(),
        );
        c.tick(90);
        c.on_vector_inst(1);
        c.tick(90);
        assert_eq!(c.state(), VpuState::On, "idle counter was reset");
    }

    #[test]
    fn csd_gates_on_scalar_phase_and_devectorizes() {
        let mut c = csd_ctl(8, 1, 16);
        for _ in 0..8 {
            c.on_scalar_inst();
        }
        assert_eq!(c.state(), VpuState::Gated);
        let d = c.on_vector_inst(1);
        assert_eq!(d, VectorDecision::Devectorize(VectorExecClass::PowerGated));
        assert_eq!(c.stats().vec_gated, 1);
        assert_eq!(c.stats().wake_stall_cycles, 0, "CSD never stalls");
    }

    #[test]
    fn csd_wakes_on_burst_and_devectorizes_while_waking() {
        let mut c = csd_ctl(64, 1, 4);
        for _ in 0..64 {
            c.on_scalar_inst();
        }
        assert_eq!(c.state(), VpuState::Gated);
        // Burst of vector weight crosses high=4 on the 4th inst.
        for _ in 0..3 {
            let d = c.on_vector_inst(1);
            assert!(matches!(
                d,
                VectorDecision::Devectorize(VectorExecClass::PowerGated)
            ));
        }
        let d = c.on_vector_inst(1);
        assert_eq!(d, VectorDecision::Devectorize(VectorExecClass::PoweringOn));
        assert!(matches!(c.state(), VpuState::Waking { .. }));
        c.tick(30);
        assert_eq!(c.state(), VpuState::On);
        assert_eq!(c.on_vector_inst(1), VectorDecision::ExecuteOnVpu);
        assert_eq!(c.stats().vec_powering_on, 1);
    }

    /// Ticking one cycle at a time from `c` leaves its power state alone
    /// for `quiet_cycles() - 1` ticks and changes it on the next; an
    /// unbounded state holds over a long stretch.
    fn check_quiet_cycles(c: &VpuGateController, what: &str) {
        let bound = c.quiet_cycles();
        let (was, mut t) = (c.state(), c.clone());
        for n in 1..=bound.min(5_000) {
            t.tick(1);
            if n < bound {
                assert_eq!(t.state(), was, "{what}: tick {n} of {bound}");
            } else {
                assert_ne!(t.state(), was, "{what}: tick {n} is the bound");
            }
        }
    }

    #[test]
    fn quiet_cycles_is_where_ticking_first_changes_the_state() {
        let gating = GatingParams::default();
        for idle_gate_cycles in [0, 1, 7, 400] {
            let policy = VpuPolicy::Conventional { idle_gate_cycles };
            for idle in [0, 1, idle_gate_cycles / 2, idle_gate_cycles] {
                let mut c = VpuGateController::new(policy, gating);
                c.tick(idle.min(idle_gate_cycles));
                assert_eq!(c.state(), VpuState::On);
                check_quiet_cycles(&c, &format!("idle {idle} of {idle_gate_cycles}"));
            }
            let mut c = VpuGateController::new(policy, gating);
            c.tick(idle_gate_cycles + 1);
            assert_eq!(c.state(), VpuState::Gated);
            assert_eq!(c.quiet_cycles(), u64::MAX, "gated");
            check_quiet_cycles(&c, &format!("gated after {idle_gate_cycles}"));
            c.on_vector_inst(1);
            for k in 0..3 {
                assert!(matches!(c.state(), VpuState::Waking { .. }));
                check_quiet_cycles(&c, &format!("conventional waking {k}"));
                c.tick(1);
            }
        }
        let mut c = csd_ctl(8, 1, 4);
        for _ in 0..8 {
            c.on_scalar_inst();
        }
        assert_eq!(c.quiet_cycles(), u64::MAX, "gated by the predictor");
        check_quiet_cycles(&c, "csd gated");
        for _ in 0..4 {
            c.on_vector_inst(1);
        }
        assert!(matches!(c.state(), VpuState::Waking { .. }));
        check_quiet_cycles(&c, "csd waking");
        let on = VpuGateController::new(VpuPolicy::AlwaysOn, gating);
        assert_eq!(on.quiet_cycles(), u64::MAX, "always on");
        check_quiet_cycles(&on, "always on");
    }

    #[test]
    fn stats_residency_partitions_time() {
        let mut c = csd_ctl(4, 0, 8);
        for _ in 0..4 {
            c.on_scalar_inst();
        }
        c.tick(100);
        let s = c.stats();
        assert_eq!(s.total_cycles(), 100);
        assert_eq!(s.gated_cycles, 100);
        assert!((s.gated_fraction() - 1.0).abs() < 1e-12);
    }
}
