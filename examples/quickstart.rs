//! Quickstart: assemble a small mx86 program, run it on the cycle-level
//! core, and watch context-sensitive decoding transform it on the fly.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use csd_repro::core::{msr, CsdConfig};
use csd_repro::isa::{AddrRange, AluOp, Assembler, Cc, Gpr, MemRef, Scale, Width};
use csd_repro::pipeline::{Core, CoreConfig, SimMode, StepOutcome};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A tiny secret-dependent table-lookup loop: sums
    // table[(i + secret) & 15] over 100 iterations — the same shape as a
    // cipher's key-dependent S-box lookup.
    let mut a = Assembler::new(0x1000);
    let top = a.fresh_label();
    a.mov_ri(Gpr::Rbx, 0x8000); // table base
    a.load(Gpr::Rdi, MemRef::abs(0x7000)); // the secret (tainted)
    a.mov_ri(Gpr::Rcx, 100); // trip count
    a.mov_ri(Gpr::Rax, 0); // accumulator
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

    println!("program ({} instructions):", program.len());
    for placed in program.iter().take(6) {
        println!("  {:#06x}: {}", placed.addr, placed.inst);
    }
    println!("  ...\n");

    // Run natively on the cycle-accurate core.
    let cfg = CoreConfig {
        dift_enabled: true,
        ..CoreConfig::default()
    };
    let mut core = Core::new(
        cfg.clone(),
        CsdConfig::default(),
        program.clone(),
        SimMode::Cycle,
    );
    core.mem_mut().write_le(0x7000, 8, 5); // the secret
    for i in 0..16u64 {
        core.mem_mut().write_le(0x8000 + 8 * i, 8, i * i);
    }
    assert_eq!(core.run(10_000), StepOutcome::Halted);
    println!(
        "native run:  sum={}  cycles={}  uops={}  IPC={:.2}  uop$ hit rate={:.0}%",
        core.state().gpr(Gpr::Rax),
        core.stats().cycles,
        core.stats().uops,
        core.stats().ipc(),
        100.0 * core.uop_cache_stats().hit_rate().unwrap_or(0.0),
    );

    // Same program, but now the table is marked sensitive: mark it tainted,
    // program the decoy range registers, and enable stealth mode. The
    // decoder now sweeps every table line at each (watchdog-gated) tainted
    // lookup — the attacker-visible access pattern is fully obfuscated,
    // and the architectural result is bit-identical.
    let mut secure = Core::new(cfg, CsdConfig::default(), program, SimMode::Cycle);
    secure.mem_mut().write_le(0x7000, 8, 5); // the secret
    for i in 0..16u64 {
        secure.mem_mut().write_le(0x8000 + 8 * i, 8, i * i);
    }
    secure
        .dift_mut()
        .taint_memory(AddrRange::new(0x7000, 0x7008));
    let e = secure.engine_mut();
    e.write_msr(msr::MSR_DATA_RANGE_BASE, 0x8000);
    e.write_msr(msr::MSR_DATA_RANGE_BASE + 1, 0x8080);
    e.write_msr(msr::MSR_WATCHDOG_PERIOD, 1000);
    e.write_msr(msr::MSR_CSD_CTL, msr::CTL_STEALTH | msr::CTL_DIFT_TRIGGER);

    assert_eq!(secure.run(10_000), StepOutcome::Halted);
    println!(
        "stealth run: sum={}  cycles={}  uops={} ({} decoys)  sweeps={}",
        secure.state().gpr(Gpr::Rax),
        secure.stats().cycles,
        secure.stats().uops,
        secure.stats().decoy_uops,
        secure.engine().stealth().stats().sweeps,
    );
    println!("\nsame architectural result, obfuscated microarchitectural footprint.");
    Ok(())
}
