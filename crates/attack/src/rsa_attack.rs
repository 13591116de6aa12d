//! FLUSH+RELOAD / PRIME+PROBE trace attack on square-and-multiply RSA
//! (paper Figure 7b).
//!
//! The attacker samples the `multiply` routine's first I-cache line at a
//! fixed probe interval while the victim performs one modular
//! exponentiation. Every probe where the line was (re)fetched marks a
//! `multiply` invocation — i.e. a 1-bit of the private exponent. The
//! attacker calibrates the per-iteration costs offline on its *own* copy
//! of the code (as real F+R attacks do), then decodes the timestamp
//! sequence into exponent bits: the gap between consecutive multiply
//! invocations, divided by the square-iteration cost, counts the 0-bits
//! in between.
//!
//! Stealth-mode translation defeats the attack by periodically fetching
//! the monitored line via decoy micro-ops, making every probe interval
//! end in a perceived hit.

use crate::harness::{victim_core, Defense};
use crate::probe::{AttackMethod, FlushReload, PrimeProbe, ProbeKind};
use csd_crypto::{RsaVictim, Victim};
use csd_pipeline::{Core, SimMode, StepOutcome};

/// One probe-interval observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSample {
    /// Victim cycle count at the probe.
    pub cycle: u64,
    /// Probe latency (the y-axis of the paper's Figure 7b).
    pub latency: u64,
    /// Whether the monitored `multiply` line was touched this interval.
    pub multiply_touched: bool,
}

/// The full probe trace for one exponentiation.
#[derive(Debug, Clone, Default)]
pub struct RsaTrace {
    /// Samples in probe order.
    pub samples: Vec<TraceSample>,
    /// Cycle count when the victim started.
    pub start_cycle: u64,
    /// Cycle count when the victim halted.
    pub end_cycle: u64,
}

impl RsaTrace {
    /// Timestamps of distinct multiply invocations (touch runs merged
    /// when closer than `merge_gap` cycles).
    pub fn multiply_events(&self, merge_gap: u64) -> Vec<u64> {
        let mut events = Vec::new();
        let mut last: Option<u64> = None;
        for s in self.samples.iter().filter(|s| s.multiply_touched) {
            match last {
                Some(t) if s.cycle.saturating_sub(t) < merge_gap => {}
                _ => events.push(s.cycle),
            }
            last = Some(s.cycle);
        }
        events
    }
}

/// Attack parameters.
#[derive(Debug, Clone, Copy)]
pub struct RsaAttackConfig {
    /// Technique.
    pub method: AttackMethod,
    /// Probe interval in victim cycles (`None`: a third of the calibrated
    /// square-iteration cost).
    pub probe_interval: Option<u64>,
    /// Defense deployed on the victim.
    pub defense: Defense,
}

impl Default for RsaAttackConfig {
    fn default() -> RsaAttackConfig {
        RsaAttackConfig {
            method: AttackMethod::FlushReload,
            probe_interval: None,
            defense: Defense::None,
        }
    }
}

/// The attack's result.
#[derive(Debug, Clone)]
pub struct RsaAttackOutcome {
    /// The probe trace (Figure 7b's series).
    pub trace: RsaTrace,
    /// Recovered exponent bits, MSB first (64 entries).
    pub recovered: Vec<bool>,
    /// Ground-truth bits, MSB first.
    pub truth: Vec<bool>,
    /// Calibrated square-iteration cycles.
    pub ts: u64,
    /// Calibrated extra cycles for a multiply iteration.
    pub tm: u64,
}

impl RsaAttackOutcome {
    /// Number of correctly recovered bits (of 64).
    pub fn correct_bits(&self) -> usize {
        self.recovered
            .iter()
            .zip(&self.truth)
            .filter(|(a, b)| a == b)
            .count()
    }
}

/// Calibrates per-iteration costs on the attacker's own copy of the code:
/// an all-zero exponent isolates `square`, an all-ones exponent adds one
/// `multiply` per bit. Returns `(ts, tm)`.
pub fn calibrate(modulus: u64) -> (u64, u64) {
    let run_cycles = |exp: u64| -> u64 {
        let v = RsaVictim::new(exp, modulus);
        let mut core = victim_core(&v, SimMode::Functional, Defense::None);
        let start = core.cycles();
        v.run_once(&mut core, &2u64.to_le_bytes());
        core.cycles() - start
    };
    let zeros = run_cycles(0);
    let ones = run_cycles(u64::MAX);
    let ts = zeros / 64;
    let tm = (ones.saturating_sub(zeros)) / 64;
    (ts, tm.max(1))
}

/// Runs the trace attack against one exponentiation of `victim`.
pub fn rsa_attack(victim: &RsaVictim, cfg: &RsaAttackConfig) -> RsaAttackOutcome {
    let (ts, tm) = calibrate(1_000_003);
    let interval = cfg.probe_interval.unwrap_or((ts / 3).max(8));

    let mut core = victim_core(victim, SimMode::Functional, cfg.defense);
    let target = victim.multiply_range().start;
    let trace = match cfg.method {
        AttackMethod::FlushReload => {
            let fr = FlushReload::new(target, ProbeKind::Inst, core.hierarchy());
            run_trace(
                victim,
                &mut core,
                interval,
                |h| fr.reset(h),
                |h| fr.probe(h),
            )
        }
        AttackMethod::PrimeProbe => {
            let pp = PrimeProbe::new(target, ProbeKind::Inst, core.hierarchy());
            run_trace(
                victim,
                &mut core,
                interval,
                |h| pp.reset(h),
                |h| pp.probe(h),
            )
        }
    };

    let recovered = decode_bits(&trace, ts, tm);
    let truth: Vec<bool> = (0..64)
        .rev()
        .map(|b| (victim.exponent() >> b) & 1 == 1)
        .collect();
    RsaAttackOutcome {
        trace,
        recovered,
        truth,
        ts,
        tm,
    }
}

fn run_trace(
    victim: &RsaVictim,
    core: &mut Core,
    interval: u64,
    reset: impl Fn(&mut csd_cache::Hierarchy),
    probe: impl Fn(&mut csd_cache::Hierarchy) -> crate::probe::ProbeOutcome,
) -> RsaTrace {
    victim.prepare(core, &2u64.to_le_bytes());
    reset(core.hierarchy_mut());
    let start_cycle = core.cycles();
    let mut samples = Vec::new();
    loop {
        let out = core.run_cycles(interval);
        let p = probe(core.hierarchy_mut());
        samples.push(TraceSample {
            cycle: core.cycles(),
            latency: p.latency,
            multiply_touched: p.victim_touched,
        });
        reset(core.hierarchy_mut());
        match out {
            StepOutcome::Running => {}
            StepOutcome::Halted => break,
            StepOutcome::Fault(pc) => panic!("victim faulted at {pc:#x}"),
        }
    }
    RsaTrace {
        samples,
        start_cycle,
        end_cycle: core.cycles(),
    }
}

/// Decodes multiply-invocation timestamps into exponent bits.
fn decode_bits(trace: &RsaTrace, ts: u64, tm: u64) -> Vec<bool> {
    let iter1 = ts + tm; // cycles of a 1-bit iteration
    let events = trace.multiply_events(iter1 / 2);
    let mut bits = Vec::with_capacity(64);
    let round_div = |num: u64, den: u64| -> u64 { (num + den / 2) / den };

    if events.is_empty() {
        return vec![false; 64];
    }
    // Leading zeros before the first multiply.
    let lead = events[0]
        .saturating_sub(trace.start_cycle)
        .saturating_sub(iter1);
    bits.extend(std::iter::repeat_n(false, round_div(lead, ts) as usize));
    bits.push(true);
    for w in events.windows(2) {
        let gap = w[1] - w[0];
        let zeros = round_div(gap.saturating_sub(iter1), ts);
        bits.extend(std::iter::repeat_n(false, zeros as usize));
        bits.push(true);
    }
    // Trailing zeros after the last multiply.
    let tail = trace
        .end_cycle
        .saturating_sub(*events.last().expect("non-empty"));
    bits.extend(std::iter::repeat_n(
        false,
        round_div(tail.saturating_sub(ts / 2), ts) as usize,
    ));
    bits.resize(64, false);
    bits.truncate(64);
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXP: u64 = 0xB7E1_5163_0000_F36D; // mixed runs of 0s and 1s
    const MODULUS: u64 = 1_000_003;

    #[test]
    fn flush_reload_recovers_the_exponent() {
        let v = RsaVictim::new(EXP, MODULUS);
        let out = rsa_attack(&v, &RsaAttackConfig::default());
        assert!(
            out.correct_bits() >= 60,
            "F+R should recover nearly all bits, got {}/64 (ts={}, tm={})",
            out.correct_bits(),
            out.ts,
            out.tm
        );
    }

    #[test]
    fn prime_probe_recovers_the_exponent() {
        let v = RsaVictim::new(EXP, MODULUS);
        let cfg = RsaAttackConfig {
            method: AttackMethod::PrimeProbe,
            ..Default::default()
        };
        let out = rsa_attack(&v, &cfg);
        assert!(
            out.correct_bits() >= 60,
            "P+P should recover nearly all bits, got {}/64",
            out.correct_bits()
        );
    }

    #[test]
    fn stealth_mode_obfuscates_the_trace() {
        let v = RsaVictim::new(EXP, MODULUS);
        // Watchdog below the probe interval, per the paper's guidance that
        // the period be "smaller than the attacker's best possible probe
        // interval". Decoy sweeps fire at the tainted exponent-bit branch
        // of every iteration, so a probe cadence of one iteration sees a
        // perceived hit at the end of every interval.
        let (ts, tm) = calibrate(MODULUS);
        let interval = ts + tm / 2;
        for method in [AttackMethod::FlushReload, AttackMethod::PrimeProbe] {
            let cfg = RsaAttackConfig {
                method,
                probe_interval: Some(interval),
                defense: Defense::Stealth {
                    watchdog_period: interval / 2,
                },
            };
            let out = rsa_attack(&v, &cfg);
            let touched = out
                .trace
                .samples
                .iter()
                .filter(|s| s.multiply_touched)
                .count();
            let rate = touched as f64 / out.trace.samples.len() as f64;
            assert!(
                rate > 0.9,
                "{method:?}: decoys must make nearly every probe interval 'touched', got {rate}"
            );
            assert!(
                out.correct_bits() < 48,
                "{method:?}: recovery must collapse toward chance, got {}/64",
                out.correct_bits()
            );
        }
    }

    #[test]
    fn all_zero_exponent_produces_an_empty_event_stream() {
        let v = RsaVictim::new(0, MODULUS);
        let out = rsa_attack(&v, &RsaAttackConfig::default());
        assert!(out.trace.multiply_events(100).is_empty());
        assert_eq!(out.correct_bits(), 64, "all-zeros is trivially recovered");
    }

    #[test]
    fn calibration_is_sane() {
        let (ts, tm) = calibrate(MODULUS);
        assert!(ts > 20, "square+reduce is a long flow: {ts}");
        assert!(tm > 20, "multiply+reduce is a long flow: {tm}");
    }
}
