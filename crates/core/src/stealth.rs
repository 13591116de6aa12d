//! Stealth-mode translation: decoy micro-op injection (paper §IV).
//!
//! When triggered (by a DIFT taint event or an antivirus-marked PC), the
//! context-sensitive decoder appends a *decoy micro-loop* to the µop flow
//! of the intercepted load/store/branch. The loop (paper Figure 4c):
//!
//! ```text
//!     mov   t0, Range.Size            ; initialize t0
//! top: ld/sub t1,[t0+Range.Start], t0,CBS   (fused pair)
//!     br_ge top                       ; iterate over all cache blocks
//! ```
//!
//! touches **every** cache block of the configured decoy ranges, so the
//! attacker perceives all sensitive lines as accessed regardless of the
//! victim's actual key-dependent behavior. Decoys write only
//! decoder-internal temporaries: architectural state is untouched.
//!
//! Stealth translation disarms itself once all ranges have been swept and
//! re-arms when the hardware watchdog fires (§IV-B), so the steady-state
//! cost is one sweep per watchdog period.

use crate::msr::MsrFile;
use csd_uops::{
    fusion, DecoyTarget, Flow, FlowFacts, FlowRef, Src, Translation, UMem, UReg, Uop, UopKind,
};
use mx86_isa::{AddrRange, AluOp, Cc, Inst, Placed, Width};
use std::sync::Arc;

/// Static configuration of the stealth translator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealthConfig {
    /// Cache block size swept by decoy loads.
    pub line_bytes: u64,
    /// Default watchdog period (cycles) when the MSR leaves it unset.
    pub default_watchdog_period: u64,
}

impl Default for StealthConfig {
    fn default() -> StealthConfig {
        StealthConfig {
            line_bytes: 64,
            default_watchdog_period: 1000,
        }
    }
}

/// Counters for the stealth mechanism.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealthStats {
    /// Instructions whose translation was augmented with decoys.
    pub triggers: u64,
    /// Total decoy µops injected.
    pub decoy_uops: u64,
    /// Completed range sweeps.
    pub sweeps: u64,
    /// Watchdog expirations (re-arms).
    pub watchdog_fires: u64,
}

impl csd_telemetry::ToJson for StealthStats {
    fn to_json(&self) -> csd_telemetry::Json {
        csd_telemetry::Json::obj([
            ("triggers", csd_telemetry::Json::from(self.triggers)),
            ("decoy_uops", csd_telemetry::Json::from(self.decoy_uops)),
            ("sweeps", csd_telemetry::Json::from(self.sweeps)),
            (
                "watchdog_fires",
                csd_telemetry::Json::from(self.watchdog_fires),
            ),
        ])
    }
}

/// The stealth-mode custom decoder.
#[derive(Debug, Clone)]
pub struct StealthTranslator {
    cfg: StealthConfig,
    enabled: bool,
    dift_trigger: bool,
    data_ranges: Vec<AddrRange>,
    inst_ranges: Vec<AddrRange>,
    /// The decoy µops sweeping every range, in injection order, built by
    /// the first injection under the current ranges and shared by every
    /// later one: the sweep depends on the ranges alone.
    sweep: Option<Arc<Flow>>,
    scratchpad_pcs: Vec<u64>,
    armed: bool,
    watchdog_period: u64,
    watchdog_remaining: u64,
    stats: StealthStats,
}

impl StealthTranslator {
    /// A disabled translator; call [`StealthTranslator::configure`] with
    /// the MSR file to activate it.
    pub fn new(cfg: StealthConfig) -> StealthTranslator {
        StealthTranslator {
            cfg,
            enabled: false,
            dift_trigger: false,
            data_ranges: Vec::new(),
            inst_ranges: Vec::new(),
            sweep: None,
            scratchpad_pcs: Vec::new(),
            armed: false,
            watchdog_period: cfg.default_watchdog_period,
            watchdog_remaining: 0,
            stats: StealthStats::default(),
        }
    }

    /// Snapshots the decoy address-range registers, scratchpad PCs, and
    /// watchdog period from the MSR file into the decoder's internal
    /// registers ("as soon as stealth-mode translation is triggered, these
    /// decoy address ranges are copied to the context-sensitive decoder's
    /// internal registers"). A change to the decoy ranges drops the
    /// stored sweep, so the next injection sweeps the new ranges.
    pub fn configure(&mut self, msrs: &MsrFile) {
        self.enabled = msrs.stealth_enabled();
        self.dift_trigger = msrs.dift_trigger_enabled();
        let (data, inst) = (msrs.data_ranges(), msrs.inst_ranges());
        if data != self.data_ranges || inst != self.inst_ranges {
            self.sweep = None;
        }
        self.data_ranges = data;
        self.inst_ranges = inst;
        self.scratchpad_pcs = msrs.scratchpad_pcs();
        let p = msrs.watchdog_period();
        self.watchdog_period = if p == 0 {
            self.cfg.default_watchdog_period
        } else {
            p
        };
        self.armed = self.enabled;
        self.watchdog_remaining = 0;
    }

    /// Whether stealth mode is enabled at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether the next intercepted sensitive instruction will get decoys.
    pub fn armed(&self) -> bool {
        self.enabled && self.armed
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &StealthStats {
        &self.stats
    }

    /// Advances the watchdog by `cycles`; when it expires while disarmed,
    /// stealth re-arms so the next sensitive instruction sweeps again.
    pub fn tick(&mut self, cycles: u64) {
        if !self.enabled || self.armed || self.watchdog_period == 0 {
            return;
        }
        if self.watchdog_remaining > cycles {
            self.watchdog_remaining -= cycles;
        } else {
            self.armed = true;
            self.watchdog_remaining = 0;
            self.stats.watchdog_fires += 1;
        }
    }

    /// How many cycles may elapse with nothing for the translator to do
    /// but count down: `None` while armed (the next sensitive decode may
    /// inject), the watchdog's remaining count while it runs, and
    /// unbounded when no watchdog can fire. Decodes stay uninterrupted up
    /// to and including the retire whose tick reaches the count, since
    /// that tick is what re-arms.
    pub fn quiet_cycles(&self) -> Option<u64> {
        if self.armed() {
            return None;
        }
        Some(if self.enabled && self.watchdog_period != 0 {
            self.watchdog_remaining
        } else {
            u64::MAX
        })
    }

    /// Whether `placed` is an instruction stealth mode intercepts:
    /// a load/store/branch that is tainted (DIFT trigger) or whose PC is
    /// marked in a scratchpad register (antivirus trigger).
    pub fn should_intercept(&self, placed: &Placed, tainted: bool) -> bool {
        if !self.armed() {
            return false;
        }
        let sensitive_kind =
            placed.inst.is_load() || placed.inst.is_store() || placed.inst.is_branch();
        if !sensitive_kind {
            return false;
        }
        let marked = self.scratchpad_pcs.contains(&placed.addr);
        (self.dift_trigger && tainted) || marked
    }

    /// Intercepts a decode of `base`: returns the augmented flow, or
    /// `None` if stealth does not apply to this instruction right now.
    ///
    /// On injection the translator disarms and starts the watchdog; all
    /// configured ranges are swept in this one flow (the paper's
    /// "deployed at the first decoded tainted load or branch
    /// encountered"). The sweep is built by the first injection under
    /// the current ranges and spliced into every later one.
    pub fn on_decode(
        &mut self,
        placed: &Placed,
        base: &FlowRef<'_>,
        tainted: bool,
    ) -> Option<Flow> {
        if !self.should_intercept(placed, tainted) {
            return None;
        }
        if self.sweep.is_none() {
            self.sweep = Some(Arc::new(self.build_sweep()));
        }
        let sweep = self.sweep.as_deref()?;
        if sweep.uops.is_empty() {
            // No ranges configured: nothing to obfuscate.
            return None;
        }
        let flow = inject(base, sweep);
        self.stats.triggers += 1;
        self.stats.decoy_uops += u64::from(sweep.facts.uops);
        self.stats.sweeps += 1;
        self.armed = false;
        self.watchdog_remaining = self.watchdog_period;
        Some(flow)
    }

    /// The decoy micro-loops sweeping every data range, then every
    /// instruction range. Its static µops are what an injection adds to
    /// the µop-cache footprint: one loop body (mov + fused ld/sub + br).
    fn build_sweep(&self) -> Flow {
        let mut sweep = Vec::new();
        for &r in &self.data_ranges {
            self.emit_sweep(&mut sweep, r, DecoyTarget::Data);
        }
        for &r in &self.inst_ranges {
            self.emit_sweep(&mut sweep, r, DecoyTarget::Inst);
        }
        Flow::new(Translation {
            uops: sweep,
            static_uops: 4,
            cacheable: false,
            from_msrom: true,
        })
    }

    /// Emits the unrolled decoy micro-loop sweeping `range`.
    fn emit_sweep(&self, out: &mut Vec<Uop>, range: AddrRange, target: DecoyTarget) {
        let line = self.cfg.line_bytes;
        let first = range.start & !(line - 1);
        let blocks = range.blocks(line).count() as u64;
        if blocks == 0 {
            return;
        }
        let t0 = UReg::Tmp(0);
        let t1 = UReg::Tmp(1);
        let mark = |kind| Uop {
            kind,
            decoy: Some(target),
        };

        // mov t0, Range.Size - CBS  (byte offset of the last block)
        out.push(mark(UopKind::MovImm {
            dst: t0,
            imm: ((blocks - 1) * line) as i64,
        }));
        for _ in 0..blocks {
            // ld t1, [t0 + Range.Start]  (fuses with the following sub)
            out.push(mark(UopKind::Ld {
                dst: t1,
                mem: UMem::base_disp(t0, first as i64, Width::B1),
            }));
            // sub t0, CBS
            out.push(mark(UopKind::Alu {
                op: AluOp::Sub,
                dst: Some(t0),
                a: t0,
                b: Src::Imm(line as i64),
                flags: true,
            }));
            // br_ge top (micro-loop back edge; unrolled here, so the
            // executor treats decoy branches as sequencing no-ops)
            out.push(mark(UopKind::Br {
                cc: Cc::Ge,
                target: 0,
            }));
        }
    }

    /// The instruction kinds stealth mode redirects to the custom decoder
    /// (diagnostic helper mirroring the dispatch predicate).
    pub fn redirects(inst: &Inst) -> bool {
        inst.is_load() || inst.is_store() || inst.is_branch()
    }
}

/// `base` with `sweep` injected *before* its first control-transfer
/// µop: a taken branch ends the flow, and the decoys must execute
/// regardless of the (secret-dependent) branch direction. For load/store
/// flows the sweep follows the real access (paper Figure 4c's ordering).
///
/// The static µop-cache footprint grows only by the loop body (mov +
/// fused ld/sub + br), but the flow as a whole exceeds the six-fused-µop
/// line limit, so it is not cacheable. Its fused slots are those of its
/// three parts: only a load fuses with the µop after it, and the sweep
/// starts with a `mov` and ends with a branch, so no pair fuses across a
/// seam.
fn inject(base: &FlowRef<'_>, sweep: &Flow) -> Flow {
    let b = base.uops();
    let (head, tail) = b.split_at(b.iter().position(|u| u.kind.is_branch()).unwrap_or(b.len()));
    let mut uops = Vec::with_capacity(b.len() + sweep.uops.len());
    uops.extend_from_slice(head);
    uops.extend_from_slice(&sweep.uops);
    uops.extend_from_slice(tail);
    let fused = fusion::fused_len(head) + sweep.facts.fused as usize + fusion::fused_len(tail);
    let facts = base.facts();
    Flow {
        facts: FlowFacts {
            uops: uops.len() as u32,
            decoys: facts.decoys + sweep.facts.decoys,
            fused: fused as u32,
            static_uops: facts.static_uops + sweep.facts.static_uops,
            cacheable: fused <= 6,
            from_msrom: true,
        },
        uops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msr::{
        CTL_DIFT_TRIGGER, CTL_STEALTH, MSR_CSD_CTL, MSR_DATA_RANGE_BASE, MSR_INST_RANGE_BASE,
        MSR_SCRATCHPAD_PC_BASE,
    };
    use csd_uops::translate;
    use mx86_isa::{Gpr, MemRef};

    fn configured(data: &[AddrRange], inst_r: &[AddrRange]) -> StealthTranslator {
        let mut msrs = MsrFile::new();
        msrs.write(MSR_CSD_CTL, CTL_STEALTH | CTL_DIFT_TRIGGER);
        for (base, ranges) in [(MSR_DATA_RANGE_BASE, data), (MSR_INST_RANGE_BASE, inst_r)] {
            for (i, r) in (0..).zip(ranges) {
                msrs.write(base + 2 * i, r.start);
                msrs.write(base + 2 * i + 1, r.end);
            }
        }
        let mut s = StealthTranslator::new(StealthConfig::default());
        s.configure(&msrs);
        s
    }

    fn native(p: &Placed) -> FlowRef<'static> {
        FlowRef::Fresh(Flow::new(translate(&p.inst, p.next_addr())))
    }

    fn tainted_load() -> Placed {
        Placed {
            addr: 0x1000,
            inst: Inst::Load {
                dst: Gpr::Rax,
                mem: MemRef::base(Gpr::Rbx),
                width: Width::B4,
            },
        }
    }

    #[test]
    fn sweep_covers_every_block_once() {
        let range = AddrRange::new(0x8000, 0x8000 + 4 * 64);
        let mut s = configured(&[range], &[]);
        let p = tainted_load();
        let native = native(&p);
        let t = s.on_decode(&p, &native, true).expect("must inject");
        let decoys: Vec<_> = t.uops.iter().filter(|u| u.is_decoy()).collect();
        // 1 mov + 4 blocks * (ld + sub + br)
        assert_eq!(decoys.len(), 1 + 4 * 3);
        let loads = decoys.iter().filter(|u| u.kind.is_load()).count();
        assert_eq!(loads, 4);
        assert!(
            !t.facts.cacheable,
            "expanded flow exceeds the µop-cache line limit"
        );
        assert_eq!(t.facts.static_uops, native.facts().static_uops + 4);
    }

    /// Every sensitive kind's injected flow is the flow built whole:
    /// the native µops with the sweep spliced in before the first branch
    /// µop, its facts counted afresh. Each second injection reuses the
    /// stored sweep.
    #[test]
    fn spliced_flows_equal_flows_built_whole() {
        let data = [AddrRange::new(0x8000, 0x8000 + 3 * 64)];
        let code = [AddrRange::new(0x4000, 0x4000 + 2 * 64)];
        let mem = MemRef::base(Gpr::Rbx).with_disp(16);
        let insts = [
            tainted_load().inst,
            Inst::Store {
                mem,
                src: Gpr::Rax,
                width: Width::B8,
            },
            Inst::AluLoad {
                op: AluOp::Add,
                dst: Gpr::Rcx,
                mem,
                width: Width::B4,
            },
            Inst::AluStore {
                op: AluOp::Sub,
                mem,
                src: mx86_isa::RegImm::Imm(3),
                width: Width::B2,
            },
            Inst::Jcc {
                cc: Cc::Ne,
                target: 0x2000,
            },
            Inst::Jmp { target: 0x2000 },
            Inst::JmpInd { reg: Gpr::Rdx },
            Inst::Call { target: 0x2000 },
            Inst::Ret,
            Inst::Push { src: Gpr::Rsi },
            Inst::Pop { dst: Gpr::Rdi },
        ];
        let mut s = configured(&data, &code);
        for inst in insts {
            let p = Placed { addr: 0x1000, inst };
            let base = native(&p);
            let mut sweep = Vec::new();
            s.emit_sweep(&mut sweep, data[0], DecoyTarget::Data);
            s.emit_sweep(&mut sweep, code[0], DecoyTarget::Inst);
            let mut uops = base.uops().to_vec();
            let at = uops
                .iter()
                .position(|u| u.kind.is_branch())
                .unwrap_or(uops.len());
            uops.splice(at..at, sweep);
            let whole = Flow::new(Translation {
                cacheable: fusion::fused_len(&uops) <= 6,
                uops,
                static_uops: base.facts().static_uops as usize + 4,
                from_msrom: true,
            });
            for _ in 0..2 {
                s.armed = true;
                let got = s.on_decode(&p, &base, true).expect("a sensitive kind");
                assert_eq!(got, whole, "{inst:?}");
            }
        }
        assert_eq!(s.stats().triggers, 2 * insts.len() as u64);
    }

    /// A configuration that changes the ranges drops the stored sweep;
    /// one that keeps them keeps it.
    #[test]
    fn a_range_change_rebuilds_the_sweep() {
        let p = tainted_load();
        let base = native(&p);
        let mut msrs = MsrFile::new();
        msrs.write(MSR_CSD_CTL, CTL_STEALTH | CTL_DIFT_TRIGGER);
        msrs.write(MSR_DATA_RANGE_BASE, 0x8000);
        msrs.write(MSR_DATA_RANGE_BASE + 1, 0x8000 + 64);
        let mut s = StealthTranslator::new(StealthConfig::default());
        let mut decoys = Vec::new();
        for end in [64, 64, 3 * 64, 2 * 64] {
            msrs.write(MSR_DATA_RANGE_BASE + 1, 0x8000 + end);
            s.configure(&msrs);
            let f = s.on_decode(&p, &base, true).expect("armed by the write");
            decoys.push(f.facts.decoys);
        }
        assert_eq!(decoys, [4, 4, 10, 7], "1 + 3 per block");
    }

    #[test]
    fn decoys_validate_and_use_only_temps() {
        let range = AddrRange::new(0x8000, 0x8040);
        let mut s = configured(&[range], &[]);
        let p = tainted_load();
        let native = native(&p);
        let t = s.on_decode(&p, &native, true).unwrap();
        for u in t.uops.iter().filter(|u| u.is_decoy()) {
            u.validate().unwrap();
        }
    }

    #[test]
    fn inst_ranges_produce_icache_decoys() {
        let range = AddrRange::new(0x4000, 0x4000 + 2 * 64);
        let mut s = configured(&[], &[range]);
        let p = tainted_load();
        let native = native(&p);
        let t = s.on_decode(&p, &native, true).unwrap();
        let iloads = t
            .uops
            .iter()
            .filter(|u| u.decoy == Some(DecoyTarget::Inst) && u.kind.is_load())
            .count();
        assert_eq!(iloads, 2);
    }

    #[test]
    fn disarms_after_sweep_and_rearms_on_watchdog() {
        let range = AddrRange::new(0x8000, 0x8040);
        let mut s = configured(&[range], &[]);
        let p = tainted_load();
        let native = native(&p);
        assert!(s.on_decode(&p, &native, true).is_some());
        assert!(!s.armed(), "auto-off after all ranges swept");
        assert!(s.on_decode(&p, &native, true).is_none());

        s.tick(999);
        assert!(!s.armed());
        s.tick(1);
        assert!(s.armed(), "watchdog re-arms at the configured period");
        assert!(s.on_decode(&p, &native, true).is_some());
        assert_eq!(s.stats().watchdog_fires, 1);
        assert_eq!(s.stats().sweeps, 2);
    }

    #[test]
    fn untainted_instructions_pass_through() {
        let range = AddrRange::new(0x8000, 0x8040);
        let mut s = configured(&[range], &[]);
        let p = tainted_load();
        let native = native(&p);
        assert!(s.on_decode(&p, &native, false).is_none());
    }

    #[test]
    fn non_memory_instructions_pass_through() {
        let range = AddrRange::new(0x8000, 0x8040);
        let mut s = configured(&[range], &[]);
        let p = Placed {
            addr: 0x1000,
            inst: Inst::MovRI {
                dst: Gpr::Rax,
                imm: 3,
            },
        };
        let native = native(&p);
        assert!(s.on_decode(&p, &native, true).is_none());
    }

    #[test]
    fn scratchpad_pc_triggers_without_taint() {
        let range = AddrRange::new(0x8000, 0x8040);
        let mut msrs = MsrFile::new();
        msrs.write(MSR_CSD_CTL, CTL_STEALTH); // no DIFT trigger
        msrs.write(MSR_DATA_RANGE_BASE, range.start);
        msrs.write(MSR_DATA_RANGE_BASE + 1, range.end);
        msrs.write(MSR_SCRATCHPAD_PC_BASE, 0x1000);
        let mut s = StealthTranslator::new(StealthConfig::default());
        s.configure(&msrs);

        let p = tainted_load(); // at 0x1000
        let native = native(&p);
        assert!(
            s.on_decode(&p, &native, false).is_some(),
            "PC-marked trigger"
        );
    }

    #[test]
    fn dift_taint_ignored_when_trigger_disabled() {
        let range = AddrRange::new(0x8000, 0x8040);
        let mut msrs = MsrFile::new();
        msrs.write(MSR_CSD_CTL, CTL_STEALTH); // stealth on, DIFT trigger off
        msrs.write(MSR_DATA_RANGE_BASE, range.start);
        msrs.write(MSR_DATA_RANGE_BASE + 1, range.end);
        let mut s = StealthTranslator::new(StealthConfig::default());
        s.configure(&msrs);
        let p = tainted_load();
        let native = native(&p);
        assert!(s.on_decode(&p, &native, true).is_none());
    }

    #[test]
    fn no_ranges_means_no_injection() {
        let mut s = configured(&[], &[]);
        let p = tainted_load();
        let native = native(&p);
        assert!(s.on_decode(&p, &native, true).is_none());
        assert_eq!(s.stats().triggers, 0);
    }

    #[test]
    fn decoy_ld_sub_pairs_fuse() {
        let range = AddrRange::new(0x8000, 0x8000 + 3 * 64);
        let mut s = configured(&[range], &[]);
        let p = tainted_load();
        let native = native(&p);
        let t = s.on_decode(&p, &native, true).unwrap();
        // unfused: 1 native + 1 mov + 3*(ld+sub+br) = 11
        // fused:   1 native + 1 mov + 3*(ld/sub + br) = 8
        assert_eq!(t.uops.len(), 11);
        assert_eq!(fusion::fused_len(&t.uops), 8);
    }
}
