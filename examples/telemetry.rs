//! Telemetry: attach an event sink to a running core, then dump the full
//! nested counter report as JSON.
//!
//! ```sh
//! cargo run --release --example telemetry
//! ```

use csd_repro::core::{msr, CsdConfig};
use csd_repro::isa::{AddrRange, AluOp, Assembler, Cc, Gpr, MemRef, Scale, Width};
use csd_repro::pipeline::{Core, CoreConfig, SimMode, StepOutcome};
use csd_repro::telemetry::{DecodeEvent, EventSink, RetireEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared counters the sink writes and `main` reads back.
#[derive(Default)]
struct Counts {
    decodes: AtomicU64,
    decoy_uops: AtomicU64,
    retires: AtomicU64,
    stealth_windows: AtomicU64,
}

struct Tracer(Arc<Counts>);

impl EventSink for Tracer {
    fn on_decode(&mut self, e: &DecodeEvent) {
        self.0.decodes.fetch_add(1, Ordering::Relaxed);
        self.0
            .decoy_uops
            .fetch_add(u64::from(e.decoy_uops), Ordering::Relaxed);
        // A stealth window is a stealth-context decode that carries decoys.
        if e.stealth_window().is_some() {
            self.0.stealth_windows.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn on_retire(&mut self, _e: &RetireEvent) {
        self.0.retires.fetch_add(1, Ordering::Relaxed);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The quickstart's secret-dependent table-lookup loop.
    let mut a = Assembler::new(0x1000);
    let top = a.fresh_label();
    a.mov_ri(Gpr::Rbx, 0x8000);
    a.load(Gpr::Rdi, MemRef::abs(0x7000));
    a.mov_ri(Gpr::Rcx, 100);
    a.mov_ri(Gpr::Rax, 0);
    a.bind(top)?;
    a.mov_rr(Gpr::Rdx, Gpr::Rcx);
    a.alu_rr(AluOp::Add, Gpr::Rdx, Gpr::Rdi);
    a.alu_ri(AluOp::And, Gpr::Rdx, 15);
    a.alu_load(
        AluOp::Add,
        Gpr::Rax,
        MemRef::base_index(Gpr::Rbx, Gpr::Rdx, Scale::S8),
        Width::B8,
    );
    a.alu_ri(AluOp::Sub, Gpr::Rcx, 1);
    a.jcc(Cc::Ne, top);
    a.halt();
    let program = a.finish()?;

    let cfg = CoreConfig {
        dift_enabled: true,
        ..CoreConfig::default()
    };
    let mut core = Core::new(cfg, CsdConfig::default(), program, SimMode::Cycle);
    core.mem_mut().write_le(0x7000, 8, 5);
    for i in 0..16u64 {
        core.mem_mut().write_le(0x8000 + 8 * i, 8, i * i);
    }
    core.dift_mut().taint_memory(AddrRange::new(0x7000, 0x7008));

    // Attach the sink *before* running: it sees the core's retire events
    // and the CSD engine's decode, gate and context-change events as one
    // stream.
    let counts = Arc::new(Counts::default());
    core.set_event_sink(Box::new(Tracer(Arc::clone(&counts))));

    // Enable stealth mode so decoy events fire too.
    let e = core.engine_mut();
    e.write_msr(msr::MSR_DATA_RANGE_BASE, 0x8000);
    e.write_msr(msr::MSR_DATA_RANGE_BASE + 1, 0x8080);
    e.write_msr(msr::MSR_WATCHDOG_PERIOD, 1000);
    e.write_msr(msr::MSR_CSD_CTL, msr::CTL_STEALTH | msr::CTL_DIFT_TRIGGER);

    assert_eq!(core.run(10_000), StepOutcome::Halted);

    println!(
        "events observed: {} decodes, {} retires, {} stealth windows, {} decoy uops\n",
        counts.decodes.load(Ordering::Relaxed),
        counts.retires.load(Ordering::Relaxed),
        counts.stealth_windows.load(Ordering::Relaxed),
        counts.decoy_uops.load(Ordering::Relaxed),
    );
    println!(
        "full telemetry report:\n{}",
        core.telemetry_report().pretty()
    );
    Ok(())
}
