//! Translation contexts (modes) and micro-op-cache context tags.

use std::fmt;

/// A translation context identifier.
///
/// The paper extends the micro-op cache's tag bits with *context bits* —
/// one per custom translation mode — associating each cached way with the
/// decoder that produced it. A cached translation may only be streamed when
/// the front end is in the same context that created it; otherwise the
/// access is a (context) miss and the legacy pipeline re-translates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ContextId {
    /// Native, unmodified translation (the four legacy decoders).
    #[default]
    Native,
    /// Stealth-mode translation (decoy micro-op injection).
    Stealth,
    /// Selective devectorization (vector ops scalarized).
    Devectorize,
    /// A custom translation installed via microcode update.
    Custom(u8),
}

impl ContextId {
    /// The context's bit position in the micro-op cache tag extension.
    pub const fn bit(self) -> u8 {
        match self {
            ContextId::Native => 0,
            ContextId::Stealth => 1,
            ContextId::Devectorize => 2,
            ContextId::Custom(n) => 3 + (n % 5),
        }
    }
}

impl fmt::Display for ContextId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContextId::Native => write!(f, "native"),
            ContextId::Stealth => write!(f, "stealth"),
            ContextId::Devectorize => write!(f, "devec"),
            ContextId::Custom(n) => write!(f, "custom{n}"),
        }
    }
}

/// How a vector macro-op was ultimately executed, for the paper's Figure 16
/// breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VectorExecClass {
    /// Executed on the powered-on VPU.
    PoweredOn,
    /// Devectorized while the VPU was powering on (wake in progress).
    PoweringOn,
    /// Devectorized while the VPU was power-gated.
    PowerGated,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_bits_are_distinct_for_base_modes() {
        let bits = [
            ContextId::Native.bit(),
            ContextId::Stealth.bit(),
            ContextId::Devectorize.bit(),
            ContextId::Custom(0).bit(),
        ];
        let mut uniq = bits.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), bits.len());
    }

    #[test]
    fn display() {
        assert_eq!(ContextId::Stealth.to_string(), "stealth");
        assert_eq!(ContextId::Custom(2).to_string(), "custom2");
    }
}
