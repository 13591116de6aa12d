//! Units of fixed work, their output checks, and the round-robin timer.

use crate::stats::MIN_REPS;
use crate::trace::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Checks a unit's first output.
type Check = Box<dyn Fn(&str) -> Result<(), String>>;

/// One unit of deterministic work: a call into the simulator's public
/// API whose result is rendered to canonical bytes.
pub struct Unit {
    /// Stable name, e.g. `sec/opt/aes-enc`.
    pub label: String,
    run: Box<dyn Fn() -> String>,
    check: Check,
}

impl Unit {
    /// A unit whose first output must pass `check`; every later output
    /// must equal the first byte for byte.
    pub fn new(
        label: String,
        run: impl Fn() -> String + 'static,
        check: impl Fn(&str) -> Result<(), String> + 'static,
    ) -> Unit {
        Unit {
            label,
            run: Box::new(run),
            check: Box::new(check),
        }
    }
}

/// The traced twin of a [`Unit`]: the same work rebuilt from the layers'
/// public pieces with spans around each call. Its output must equal
/// `expected`, the untraced result it claims to reproduce.
pub struct TracedUnit {
    /// Stable name.
    pub label: String,
    /// Group the unit's time is reported under.
    pub family: &'static str,
    run: Box<dyn Fn(&mut Tracer) -> String>,
    expected: Box<dyn Fn() -> String>,
}

impl TracedUnit {
    /// A traced unit and the untraced computation it must reproduce.
    pub fn new(
        label: String,
        family: &'static str,
        run: impl Fn(&mut Tracer) -> String + 'static,
        expected: impl Fn() -> String + 'static,
    ) -> TracedUnit {
        TracedUnit {
            label,
            family,
            run: Box::new(run),
            expected: Box::new(expected),
        }
    }
}

/// Operations attempted and failed, plus each unit's reference output.
/// A wrong output or a panic counts as one failed operation; it never
/// stops the run.
#[derive(Default)]
pub struct Ledger {
    /// Unit executions so far.
    pub attempted: u64,
    /// Executions whose output was wrong (or that panicked).
    pub failed: u64,
    reference: Vec<Option<(String, bool)>>,
    reported: usize,
}

impl Ledger {
    /// Runs untraced unit `i` once and returns its host time in seconds.
    pub fn run(&mut self, i: usize, unit: &Unit) -> f64 {
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| (unit.run)())).ok();
        let dt = t.elapsed().as_secs_f64();
        self.judge(i, &unit.label, out, &*unit.check);
        dt
    }

    /// Computes traced unit `i`'s expected output (untimed), so that
    /// every traced execution is checked against it.
    pub fn expect(&mut self, i: usize, unit: &TracedUnit) {
        match catch_unwind(AssertUnwindSafe(|| (unit.expected)())) {
            Ok(s) => *self.slot(i) = Some((s, true)),
            Err(_) => self.complain(&unit.label, "expected output panicked".into()),
        }
    }

    /// Runs traced unit `i` once under `tracer`; returns host seconds.
    pub fn run_traced(&mut self, i: usize, unit: &TracedUnit, tracer: &mut Tracer) -> f64 {
        tracer.start_unit(&unit.label);
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| (unit.run)(tracer))).ok();
        let dt = t.elapsed().as_secs_f64();
        let fallback = |_: &str| Err("no expected output".to_string());
        self.judge(i, &unit.label, out, &fallback);
        dt
    }

    fn judge(
        &mut self,
        i: usize,
        label: &str,
        out: Option<String>,
        check: &dyn Fn(&str) -> Result<(), String>,
    ) {
        self.attempted += 1;
        let Some(out) = out else {
            self.failed += 1;
            self.complain(label, "panicked".into());
            return;
        };
        let why = match self.slot(i) {
            None => {
                let verdict = check(&out);
                *self.slot(i) = Some((out, verdict.is_ok()));
                verdict.err()
            }
            Some((_, false)) => Some("first output failed its check".to_string()),
            Some((first, true)) => {
                (*first != out).then(|| "output differs from the first run".to_string())
            }
        };
        if let Some(why) = why {
            self.failed += 1;
            self.complain(label, why);
        }
    }

    fn slot(&mut self, i: usize) -> &mut Option<(String, bool)> {
        if self.reference.len() <= i {
            self.reference.resize(i + 1, None);
        }
        &mut self.reference[i]
    }

    fn complain(&mut self, label: &str, why: String) {
        if self.reported < 8 {
            eprintln!("perfbench: failed operation {label}: {why}");
        }
        self.reported += 1;
    }
}

/// Runs `n` units round-robin, pass after pass, until at least
/// `seconds` have elapsed and every unit has run [`MIN_REPS`] times.
/// `exec(i)` runs unit `i` and returns its time. `at(k)` is called once
/// for each `k < checkpoints`, after the first pass that ends past
/// `(k + 1) / (checkpoints + 1)` of the time (at the end for any not yet
/// reached). Returns per-unit times.
pub fn timed_passes(
    n: usize,
    seconds: f64,
    checkpoints: usize,
    mut exec: impl FnMut(usize) -> f64,
    mut at: impl FnMut(usize),
) -> Vec<Vec<f64>> {
    let start = Instant::now();
    let mut times = vec![Vec::new(); n];
    let mut passes = 0;
    let mut next = 0;
    while passes < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        for (i, t) in times.iter_mut().enumerate() {
            t.push(exec(i));
        }
        passes += 1;
        let done = start.elapsed().as_secs_f64() / seconds;
        while next < checkpoints && done >= (next + 1) as f64 / (checkpoints + 1) as f64 {
            at(next);
            next += 1;
        }
    }
    for k in next..checkpoints {
        at(k);
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant(label: &str, out: &'static str, want: &'static str) -> Unit {
        Unit::new(
            label.to_string(),
            move || out.to_string(),
            move |s| {
                if s == want {
                    Ok(())
                } else {
                    Err(format!("got {s}, want {want}"))
                }
            },
        )
    }

    #[test]
    fn corrupted_expected_output_is_a_counted_failure() {
        let good = constant("good", "42", "42");
        let bad = constant("bad", "42", "43");
        let mut ledger = Ledger::default();
        for _ in 0..3 {
            ledger.run(0, &good);
            ledger.run(1, &bad);
        }
        assert_eq!(ledger.attempted, 6);
        assert_eq!(ledger.failed, 3, "every run of the bad unit fails");
    }

    #[test]
    fn a_panicking_or_drifting_unit_is_a_counted_failure() {
        let boom = Unit::new("boom".into(), || panic!("unit bug"), |_| Ok(()));
        let n = std::cell::Cell::new(0);
        let drift = Unit::new(
            "drift".into(),
            move || {
                n.set(n.get() + 1);
                n.get().to_string()
            },
            |_| Ok(()),
        );
        let mut ledger = Ledger::default();
        for _ in 0..2 {
            ledger.run(0, &boom);
            ledger.run(1, &drift);
        }
        assert_eq!(ledger.attempted, 4);
        assert_eq!(ledger.failed, 3, "two panics and one non-repeating output");
    }

    #[test]
    fn traced_output_is_checked_against_the_untraced_one() {
        let same = TracedUnit::new("same".into(), "t", |_| "x".into(), || "x".into());
        let other = TracedUnit::new("other".into(), "t", |_| "y".into(), || "x".into());
        let mut ledger = Ledger::default();
        ledger.expect(0, &same);
        ledger.expect(1, &other);
        let mut tracer = Tracer::default();
        ledger.run_traced(0, &same, &mut tracer);
        ledger.run_traced(1, &other, &mut tracer);
        assert_eq!((ledger.attempted, ledger.failed), (2, 1));
    }

    #[test]
    fn timed_passes_run_every_unit_at_least_min_reps_times() {
        let mut calls = 0;
        let mut checkpoints = Vec::new();
        let times = timed_passes(
            3,
            0.0,
            4,
            |_| {
                calls += 1;
                1.0
            },
            |k| checkpoints.push(k),
        );
        assert_eq!(calls, 3 * MIN_REPS);
        assert!(times.iter().all(|t| t.len() == MIN_REPS));
        assert_eq!(
            checkpoints,
            [0, 1, 2, 3],
            "every checkpoint, once, in order"
        );
    }
}
