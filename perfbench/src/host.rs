//! Host diagnostics that use no simulator code.

use crate::stats::{fast_decile, median};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Times a fixed reference kernel (xorshift fill and sort of 2^18 words),
/// returning the median of five runs in milliseconds. Taken at the start,
/// middle and end of a run, it tells a slow host from a slow program.
pub fn ref_kernel_ms() -> f64 {
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            let mut v: Vec<u64> = (0..1 << 18)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                })
                .collect();
            v.sort_unstable();
            black_box(&v);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&runs).expect("five runs")
}

/// Host-speed probe: a fixed batch of random read-modify-writes into a
/// 2^20-key `HashMap` (≈ 32 MiB), sampled once before every timed unit.
///
/// Host speed on the benchmark VM drifts in phases, and the simulator
/// slows down with cache and memory contention from neighbours much more
/// than with a busy ALU. Of the kernels tried (sort, ALU chains, array
/// and pointer-chasing walks, hash tables of 2^16 to 2^22 keys), this one
/// tracks the simulator's slowdowns most closely, so its fast decile is
/// the yardstick that host times are scaled by. It uses no simulator
/// code, so no change to the simulator can move it.
pub struct Probe {
    table: HashMap<u64, u64>,
    x: u64,
    samples: Vec<f64>,
    resident_mb: f64,
}

/// Keys in the probe's table.
const PROBE_KEYS: u64 = 1 << 20;
/// Updates per probe sample.
const PROBE_UPDATES: u64 = 10_000;

/// The probe's fast-decile time on the reference host (a 2-vCPU Xeon VM
/// at 2.0 GHz in a quiet phase). Host times are reported scaled to it.
pub const PROBE_REF_MS: f64 = 1.4;

impl Probe {
    /// Builds the probe's table and records how much resident memory it
    /// took, so that it can be left out of the program's peak.
    ///
    /// # Errors
    ///
    /// When `/proc/self/status` cannot be read.
    pub fn new() -> Result<Probe, String> {
        let before = status_mb("VmRSS:")?;
        let mut table = HashMap::with_capacity(PROBE_KEYS as usize);
        for k in 0..PROBE_KEYS {
            table.insert(k, k);
        }
        Ok(Probe {
            table,
            x: 0x9E37_79B9_7F4A_7C15,
            samples: Vec::new(),
            resident_mb: status_mb("VmRSS:")? - before,
        })
    }

    /// Times one batch of updates.
    pub fn sample(&mut self) {
        let t = Instant::now();
        for i in 0..PROBE_UPDATES {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            if let Some(v) = self.table.get_mut(&(self.x % PROBE_KEYS)) {
                *v = v.wrapping_add(i);
            }
        }
        black_box(&self.table);
        self.samples.push(t.elapsed().as_secs_f64() * 1e3);
    }

    /// Fast decile of the samples so far, in milliseconds.
    ///
    /// # Errors
    ///
    /// With fewer than ten samples.
    pub fn fast_decile_ms(&self) -> Result<f64, String> {
        fast_decile(&self.samples)
    }

    /// The factor that scales a host time measured now to the reference
    /// host: `PROBE_REF_MS / fast decile`.
    ///
    /// # Errors
    ///
    /// With fewer than ten samples.
    pub fn scale(&self) -> Result<f64, String> {
        Ok(PROBE_REF_MS / self.fast_decile_ms()?)
    }

    /// Peak resident memory of the process without the probe's table, in
    /// MiB. The table lives for the whole run, so it adds a constant to
    /// the peak.
    ///
    /// # Errors
    ///
    /// When `/proc/self/status` cannot be read.
    pub fn program_peak_rss_mb(&self) -> Result<f64, String> {
        Ok(status_mb("VmHWM:")? - self.resident_mb)
    }
}

/// A `kB` field of `/proc/self/status` (`VmRSS:`, `VmHWM:`) in MiB.
fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostics_are_positive() {
        assert!(ref_kernel_ms() > 0.0);
        let mut probe = Probe::new().unwrap();
        assert!(probe.resident_mb > 16.0, "the table is resident");
        assert!(probe.program_peak_rss_mb().unwrap() > 0.0);
        assert!(probe.scale().is_err(), "needs ten samples");
        for _ in 0..10 {
            probe.sample();
        }
        assert!(probe.scale().unwrap() > 0.0);
    }
}
