//! Core configuration — the paper's Table I analogue.

use csd_cache::HierarchyConfig;

/// Front-end, back-end, and memory parameters of the modeled core
/// (Sandy-Bridge-flavoured, matching the paper's baseline).
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Fetch-buffer width in bytes per cycle.
    pub fetch_bytes: u64,
    /// Macro-op queue entries (predecode → decode).
    pub macro_op_queue: usize,
    /// Legacy decoders (one complex + the rest simple).
    pub decoders: usize,
    /// Unfused µops the legacy decoders deliver per cycle.
    pub decode_width_uops: u64,
    /// µops the MSROM sequencer delivers per cycle (exclusive of decoders).
    pub msrom_width_uops: u64,
    /// Extra cycles charged when delivery switches between the µop cache
    /// and the legacy pipeline (the Intel manual's switch penalty).
    pub uop_cache_switch_penalty: f64,
    /// Fused µops streamed from the µop cache per cycle.
    pub uop_cache_width: u64,
    /// Rename/dispatch width in fused µops per cycle.
    pub dispatch_width: u64,
    /// Reorder-buffer capacity (in-flight unfused µops).
    pub rob_entries: usize,
    /// Scalar ALU units.
    pub alu_units: usize,
    /// Load ports.
    pub load_units: usize,
    /// Store ports.
    pub store_units: usize,
    /// Vector execution units (usable only while the VPU is powered).
    pub vector_units: usize,
    /// Commit width (unfused µops per cycle).
    pub commit_width: u64,
    /// Branch mispredict redirect penalty in cycles.
    pub mispredict_penalty: u64,
    /// Scalar ALU latency.
    pub alu_latency: u64,
    /// Multiply latency.
    pub mul_latency: u64,
    /// Divide latency (unpipelined).
    pub div_latency: u64,
    /// Vector ALU latency.
    pub vec_latency: u64,
    /// Vector multiply/float latency.
    pub vec_mul_latency: u64,
    /// Scalar float latency.
    pub falu_latency: u64,
    /// Memory hierarchy geometry and latencies.
    pub hierarchy: HierarchyConfig,
    /// Whether hardware DIFT is active (adds the L2-tag penalty to loads).
    pub dift_enabled: bool,
    /// Micro-op cache capacity in µops.
    pub uop_cache_uops: usize,
    /// Micro-op cache associativity.
    pub uop_cache_ways: usize,
    /// Fused µops per µop-cache line.
    pub uop_cache_line_uops: usize,
    /// Maximum lines a 32-byte code window may occupy.
    pub uop_cache_max_lines_per_window: usize,
    /// Whether the µop cache is modeled at all (`NoOpt` configurations).
    pub uop_cache_enabled: bool,
    /// Whether micro-op fusion is modeled.
    pub fusion_enabled: bool,
    /// Whether the simulation kernel serves decodes from the
    /// per-instruction flow table ([`csd_uops::FlowTable`]), which builds
    /// each instruction's flows on its first decode and is never
    /// invalidated. Semantically transparent — purely a simulator speedup,
    /// not part of the modeled machine — and can also be force-disabled
    /// at runtime with `CSD_DECODE_MEMO=0`.
    pub decode_memo_enabled: bool,
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig {
            fetch_bytes: 16,
            macro_op_queue: 18,
            decoders: 4,
            decode_width_uops: 4,
            msrom_width_uops: 4,
            uop_cache_switch_penalty: 1.0,
            uop_cache_width: 6,
            dispatch_width: 4,
            rob_entries: 168,
            alu_units: 3,
            load_units: 2,
            store_units: 1,
            vector_units: 2,
            commit_width: 4,
            mispredict_penalty: 14,
            alu_latency: 1,
            mul_latency: 3,
            div_latency: 22,
            vec_latency: 1,
            vec_mul_latency: 5,
            falu_latency: 4,
            hierarchy: HierarchyConfig::default(),
            dift_enabled: false,
            uop_cache_uops: 1536,
            uop_cache_ways: 8,
            uop_cache_line_uops: 6,
            uop_cache_max_lines_per_window: 3,
            uop_cache_enabled: true,
            fusion_enabled: true,
            decode_memo_enabled: true,
        }
    }
}

impl CoreConfig {
    /// The paper's `NoOpt` configuration: µop cache and fusion disabled.
    pub fn no_opt() -> CoreConfig {
        CoreConfig {
            uop_cache_enabled: false,
            fusion_enabled: false,
            ..CoreConfig::default()
        }
    }

    /// The paper's `Opt` configuration (the default): µop cache and fusion
    /// enabled.
    pub fn opt() -> CoreConfig {
        CoreConfig::default()
    }

    /// Number of µop-cache sets implied by the geometry.
    pub fn uop_cache_sets(&self) -> usize {
        self.uop_cache_uops / (self.uop_cache_ways * self.uop_cache_line_uops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_baseline() {
        let c = CoreConfig::default();
        assert_eq!(c.fetch_bytes, 16);
        assert_eq!(c.macro_op_queue, 18);
        assert_eq!(c.decoders, 4);
        assert_eq!(c.uop_cache_uops, 1536);
        assert_eq!(c.uop_cache_sets(), 32);
        assert!(c.uop_cache_enabled && c.fusion_enabled);
    }

    #[test]
    fn no_opt_disables_front_end_optimizations() {
        let c = CoreConfig::no_opt();
        assert!(!c.uop_cache_enabled);
        assert!(!c.fusion_enabled);
    }
}
