//! Inspect CSD translations: dump a victim's first N macro-ops with their
//! µop flows under the native and stealth contexts.
//!
//! ```sh
//! cargo run --release -p csd-bench --bin decode_trace [n]
//! ```

use csd::{msr, CsdConfig, CsdEngine};
use csd_crypto::{AesKeySize, AesVictim, CipherDir, Victim};

fn main() {
    let n: usize = std::env::args()
        .filter_map(|a| a.parse().ok())
        .next()
        .unwrap_or(12);
    let key: Vec<u8> = (0..16).collect();
    let v = AesVictim::new(AesKeySize::K128, CipherDir::Encrypt, &key);

    let mut engine = CsdEngine::new(CsdConfig::default());
    engine.write_msr(msr::MSR_DATA_RANGE_BASE, v.layout().tables);
    engine.write_msr(msr::MSR_DATA_RANGE_BASE + 1, v.layout().tables + 2 * 64);
    engine.write_msr(msr::MSR_CSD_CTL, msr::CTL_STEALTH | msr::CTL_DIFT_TRIGGER);

    println!("decode trace: AES victim, stealth armed, 2-line decoy range\n");
    for placed in v.program().iter().take(n) {
        // Pretend the table lookups (index register-based loads) are
        // tainted, as DIFT would flag them.
        let tainted = placed.inst.is_load()
            && matches!(placed.inst, mx86_isa::Inst::Load { mem, .. } if mem.index.is_some());
        let out = engine.decode(placed, tainted);
        println!("{:#06x}: {}   [{}]", placed.addr, placed.inst, out.context);
        for u in out.flow.uops() {
            println!("          {u}");
        }
        engine.tick(2000); // keep the watchdog re-arming between insts
    }
}
