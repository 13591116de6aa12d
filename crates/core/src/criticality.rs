//! The unit criticality predictor (paper Figure 5).
//!
//! "We employ nothing more than a simple counter that tracks a window of
//! instructions, counting up one for simple vector instructions and more
//! than one for more complex vector instructions (higher micro-op count).
//! When it goes below a threshold, it turns on devectorization and powers
//! off the entire vector unit, and when it goes above a (higher) threshold,
//! it turns the vector unit back on."

/// Thresholds and window length of the criticality counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DevecThresholds {
    /// Window length in decoded instructions.
    pub window: u32,
    /// Gate the VPU when the windowed vector weight ends at or below this.
    pub low: u32,
    /// Wake the VPU as soon as the running weight reaches this.
    pub high: u32,
}

impl Default for DevecThresholds {
    fn default() -> DevecThresholds {
        DevecThresholds {
            window: 128,
            low: 1,
            high: 8,
        }
    }
}

/// What the predictor wants the gating controller to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CriticalitySignal {
    /// No change requested.
    None,
    /// Vector activity is below the low-water mark: gate the VPU.
    Gate,
    /// Vector activity crossed the high-water mark: wake the VPU.
    Wake,
}

/// Windowed vector-weight counter with low/high hysteresis.
#[derive(Debug, Clone)]
pub struct CriticalityPredictor {
    thresholds: DevecThresholds,
    insts_in_window: u32,
    weight: u32,
    woke_this_window: bool,
}

impl CriticalityPredictor {
    /// A predictor with the given thresholds.
    ///
    /// # Panics
    ///
    /// Panics unless `low < high` and `window > 0`.
    pub fn new(thresholds: DevecThresholds) -> CriticalityPredictor {
        assert!(
            thresholds.low < thresholds.high,
            "hysteresis requires low < high"
        );
        assert!(thresholds.window > 0, "window must be non-empty");
        CriticalityPredictor {
            thresholds,
            insts_in_window: 0,
            weight: 0,
            woke_this_window: false,
        }
    }

    /// The configured thresholds.
    pub fn thresholds(&self) -> DevecThresholds {
        self.thresholds
    }

    /// Records one decoded instruction. `vector_weight` is zero for scalar
    /// instructions, one for simple vector instructions, and the µop count
    /// for complex ones.
    ///
    /// Returns a wake signal immediately when the running weight crosses
    /// the high threshold, and a gate signal at window boundaries whose
    /// total weight is at or below the low threshold.
    pub fn observe(&mut self, vector_weight: u32) -> CriticalitySignal {
        self.insts_in_window += 1;
        self.weight += vector_weight;

        let mut signal = CriticalitySignal::None;
        if self.weight >= self.thresholds.high && !self.woke_this_window {
            self.woke_this_window = true;
            signal = CriticalitySignal::Wake;
        }
        if self.insts_in_window >= self.thresholds.window {
            if self.weight <= self.thresholds.low {
                signal = CriticalitySignal::Gate;
            }
            self.insts_in_window = 0;
            self.weight = 0;
            self.woke_this_window = false;
        }
        signal
    }

    /// Records `n` scalar instructions at once: what `n` calls of
    /// `observe(0)` do to the window. Returns the gate signal the last
    /// window boundary crossed raised, if any; a scalar instruction never
    /// raises a wake (a weight at or above `high` woke on the observation
    /// that reached it).
    pub fn observe_scalar(&mut self, n: u64) -> CriticalitySignal {
        let window = u64::from(self.thresholds.window);
        let total = u64::from(self.insts_in_window) + n;
        if total < window {
            self.insts_in_window = total as u32;
            return CriticalitySignal::None;
        }
        // The first boundary closes the current window; any later one
        // closes an empty window, whose zero weight is at or below `low`.
        let gate = self.weight <= self.thresholds.low || total >= 2 * window;
        self.insts_in_window = (total % window) as u32;
        self.weight = 0;
        self.woke_this_window = false;
        if gate {
            CriticalitySignal::Gate
        } else {
            CriticalitySignal::None
        }
    }

    /// How many more instructions the current window takes before the
    /// one that closes it.
    pub fn until_boundary(&self) -> u64 {
        u64::from(self.thresholds.window - 1 - self.insts_in_window)
    }

    /// Resets window state.
    pub fn reset(&mut self) {
        self.insts_in_window = 0;
        self.weight = 0;
        self.woke_this_window = false;
    }
}

impl Default for CriticalityPredictor {
    fn default() -> CriticalityPredictor {
        CriticalityPredictor::new(DevecThresholds::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(p: &mut CriticalityPredictor, weights: &[u32]) -> Vec<CriticalitySignal> {
        weights.iter().map(|&w| p.observe(w)).collect()
    }

    #[test]
    fn scalar_phase_requests_gating_at_window_end() {
        let mut p = CriticalityPredictor::new(DevecThresholds {
            window: 8,
            low: 1,
            high: 4,
        });
        let signals = run(&mut p, &[0; 8]);
        assert_eq!(signals[7], CriticalitySignal::Gate);
        assert!(signals[..7].iter().all(|&s| s == CriticalitySignal::None));
    }

    #[test]
    fn vector_burst_wakes_immediately() {
        let mut p = CriticalityPredictor::new(DevecThresholds {
            window: 100,
            low: 1,
            high: 4,
        });
        let signals = run(&mut p, &[0, 2, 2, 0]);
        assert_eq!(
            signals[2],
            CriticalitySignal::Wake,
            "crossed high mid-window"
        );
    }

    #[test]
    fn wake_fires_once_per_window() {
        let mut p = CriticalityPredictor::new(DevecThresholds {
            window: 100,
            low: 1,
            high: 2,
        });
        let signals = run(&mut p, &[2, 2, 2]);
        assert_eq!(
            signals,
            vec![
                CriticalitySignal::Wake,
                CriticalitySignal::None,
                CriticalitySignal::None
            ]
        );
    }

    #[test]
    fn moderate_activity_requests_nothing() {
        let mut p = CriticalityPredictor::new(DevecThresholds {
            window: 8,
            low: 1,
            high: 10,
        });
        // weight 2 per window: above low, below high.
        let signals = run(&mut p, &[1, 0, 0, 1, 0, 0, 0, 0]);
        assert!(signals.iter().all(|&s| s == CriticalitySignal::None));
    }

    #[test]
    fn window_resets_after_boundary() {
        let mut p = CriticalityPredictor::new(DevecThresholds {
            window: 4,
            low: 0,
            high: 3,
        });
        run(&mut p, &[1, 1, 0, 0]); // weight 2: no gate (low=0), no wake
                                    // New window: weight crosses high again → a fresh wake is allowed.
        let signals = run(&mut p, &[3, 0]);
        assert_eq!(signals[0], CriticalitySignal::Wake);
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn rejects_inverted_thresholds() {
        let _ = CriticalityPredictor::new(DevecThresholds {
            window: 4,
            low: 5,
            high: 5,
        });
    }

    #[test]
    fn observe_scalar_is_repeated_scalar_observation() {
        let t = DevecThresholds {
            window: 8,
            low: 1,
            high: 4,
        };
        for prefix in [&[][..], &[2, 0, 0], &[0, 1, 0, 0, 0], &[5, 0]] {
            for n in 0..30 {
                let mut one = CriticalityPredictor::new(t);
                run(&mut one, prefix);
                let mut batch = one.clone();
                let until = one.until_boundary();
                let signals = run(&mut one, &vec![0; n as usize]);
                let gate = signals.contains(&CriticalitySignal::Gate);
                assert!(!signals.contains(&CriticalitySignal::Wake));
                if n <= until {
                    assert!(!gate, "{prefix:?} + {n}: no window closed");
                }
                let want = if gate {
                    CriticalitySignal::Gate
                } else {
                    CriticalitySignal::None
                };
                assert_eq!(batch.observe_scalar(n), want, "{prefix:?} + {n}");
                assert_eq!(format!("{batch:?}"), format!("{one:?}"), "{prefix:?} + {n}");
            }
        }
    }
}
