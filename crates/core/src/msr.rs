//! Model-specific registers controlling context-sensitive decoding.
//!
//! The paper triggers custom translation modes by "simply configuring a set
//! of model-specific registers". The *decoy address-range registers* mirror
//! x86's Memory Type Range Registers in spirit: trusted software (an
//! antivirus, the OS) marks sensitive data and instruction ranges, and the
//! decoder snapshots them into its internal registers when stealth mode is
//! triggered. Five *scratchpad PC registers* hold the addresses of
//! potentially tainted instructions for the antivirus-driven trigger
//! (paper §VI-A).

use mx86_isa::AddrRange;
use std::collections::HashMap;

/// Number of decoy data-address ranges.
pub const DATA_RANGE_COUNT: usize = 4;
/// Number of decoy instruction-address ranges.
pub const INST_RANGE_COUNT: usize = 4;
/// Number of scratchpad tainted-PC registers (paper §VI-A uses five).
pub const SCRATCHPAD_PC_COUNT: usize = 5;

/// `CSD_CTL` — master control. Bit 0: stealth enable; bit 2: DIFT
/// trigger enable. Selective devectorization follows the VPU policy, not
/// an MSR bit.
pub const MSR_CSD_CTL: u32 = 0x0C50;
/// Watchdog timer period in cycles (0 disables the watchdog).
pub const MSR_WATCHDOG_PERIOD: u32 = 0x0C51;
/// First decoy *data* range register; range `i` occupies
/// `MSR_DATA_RANGE_BASE + 2*i` (start) and `+ 2*i + 1` (end, exclusive).
pub const MSR_DATA_RANGE_BASE: u32 = 0x0C60;
/// First decoy *instruction* range register; layout as for data ranges.
pub const MSR_INST_RANGE_BASE: u32 = 0x0C70;
/// First scratchpad tainted-PC register (five consecutive MSRs).
pub const MSR_SCRATCHPAD_PC_BASE: u32 = 0x0C80;

/// `CSD_CTL` bit 0: enable stealth-mode translation.
pub const CTL_STEALTH: u64 = 1 << 0;
/// `CSD_CTL` bit 2: honor DIFT taint events as stealth triggers.
pub const CTL_DIFT_TRIGGER: u64 = 1 << 2;

/// The architectural MSR file (raw values, as software sees them).
#[derive(Debug, Clone, Default)]
pub struct MsrFile {
    values: HashMap<u32, u64>,
}

impl MsrFile {
    /// An empty MSR file (all registers read as zero).
    pub fn new() -> MsrFile {
        MsrFile::default()
    }

    /// Reads an MSR (unwritten MSRs read as zero).
    pub fn read(&self, msr: u32) -> u64 {
        self.values.get(&msr).copied().unwrap_or(0)
    }

    /// Writes an MSR.
    pub fn write(&mut self, msr: u32, value: u64) {
        self.values.insert(msr, value);
    }

    /// Whether stealth mode is enabled in `CSD_CTL`.
    pub fn stealth_enabled(&self) -> bool {
        self.read(MSR_CSD_CTL) & CTL_STEALTH != 0
    }

    /// Whether DIFT events may trigger stealth mode.
    pub fn dift_trigger_enabled(&self) -> bool {
        self.read(MSR_CSD_CTL) & CTL_DIFT_TRIGGER != 0
    }

    /// The configured watchdog period (cycles); zero disables it.
    pub fn watchdog_period(&self) -> u64 {
        self.read(MSR_WATCHDOG_PERIOD)
    }

    /// Decoy data range `i`, if configured non-empty.
    pub fn data_range(&self, i: usize) -> Option<AddrRange> {
        assert!(i < DATA_RANGE_COUNT, "data range index out of bounds");
        self.range_at(MSR_DATA_RANGE_BASE + 2 * i as u32)
    }

    /// Decoy instruction range `i`, if configured non-empty.
    pub fn inst_range(&self, i: usize) -> Option<AddrRange> {
        assert!(i < INST_RANGE_COUNT, "inst range index out of bounds");
        self.range_at(MSR_INST_RANGE_BASE + 2 * i as u32)
    }

    fn range_at(&self, base: u32) -> Option<AddrRange> {
        let start = self.read(base);
        let end = self.read(base + 1);
        (end > start).then(|| AddrRange::new(start, end))
    }

    /// All configured decoy data ranges.
    pub fn data_ranges(&self) -> Vec<AddrRange> {
        (0..DATA_RANGE_COUNT)
            .filter_map(|i| self.data_range(i))
            .collect()
    }

    /// All configured decoy instruction ranges.
    pub fn inst_ranges(&self) -> Vec<AddrRange> {
        (0..INST_RANGE_COUNT)
            .filter_map(|i| self.inst_range(i))
            .collect()
    }

    /// All configured scratchpad PCs (non-zero entries).
    pub fn scratchpad_pcs(&self) -> Vec<u64> {
        (0..SCRATCHPAD_PC_COUNT as u32)
            .map(|i| self.read(MSR_SCRATCHPAD_PC_BASE + i))
            .filter(|&pc| pc != 0)
            .collect()
    }

    /// Whether `msr` belongs to the CSD register block (used by the
    /// decoder's register-tracking optimization to notice mode changes).
    pub fn is_csd_msr(msr: u32) -> bool {
        (0x0C50..=0x0C8F).contains(&msr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_msrs_read_zero() {
        let f = MsrFile::new();
        assert_eq!(f.read(MSR_CSD_CTL), 0);
        assert!(!f.stealth_enabled());
        assert!(f.data_ranges().is_empty());
    }

    #[test]
    fn ctl_bits_decode() {
        let mut f = MsrFile::new();
        f.write(MSR_CSD_CTL, CTL_STEALTH | CTL_DIFT_TRIGGER);
        assert!(f.stealth_enabled());
        assert!(f.dift_trigger_enabled());
    }

    #[test]
    fn ranges_roundtrip() {
        let mut f = MsrFile::new();
        f.write(MSR_DATA_RANGE_BASE, 0x8000);
        f.write(MSR_DATA_RANGE_BASE + 1, 0x9000);
        f.write(MSR_INST_RANGE_BASE + 4, 0x1000);
        f.write(MSR_INST_RANGE_BASE + 5, 0x1400);
        assert_eq!(f.data_range(0), Some(AddrRange::new(0x8000, 0x9000)));
        assert_eq!(f.data_range(1), None);
        assert_eq!(f.inst_ranges(), vec![AddrRange::new(0x1000, 0x1400)]);
    }

    #[test]
    fn empty_or_inverted_range_is_none() {
        let mut f = MsrFile::new();
        f.write(MSR_DATA_RANGE_BASE, 0x100);
        f.write(MSR_DATA_RANGE_BASE + 1, 0x100);
        assert_eq!(f.data_range(0), None);
        f.write(MSR_DATA_RANGE_BASE + 1, 0x80);
        assert_eq!(f.data_range(0), None, "inverted range must not panic");
    }

    #[test]
    fn scratchpad_pcs_skip_zero() {
        let mut f = MsrFile::new();
        f.write(MSR_SCRATCHPAD_PC_BASE, 0x4000);
        f.write(MSR_SCRATCHPAD_PC_BASE + 3, 0x5000);
        assert_eq!(f.scratchpad_pcs(), vec![0x4000, 0x5000]);
    }

    #[test]
    fn csd_msr_block_detection() {
        assert!(MsrFile::is_csd_msr(MSR_CSD_CTL));
        assert!(MsrFile::is_csd_msr(MSR_SCRATCHPAD_PC_BASE + 4));
        assert!(!MsrFile::is_csd_msr(0x10));
    }
}
