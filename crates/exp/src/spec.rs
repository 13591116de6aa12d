//! Typed, JSON-round-trippable experiment descriptions.
//!
//! An [`ExperimentSpec`] names everything the warm state depends on
//! (victim, pipeline, input-stream seed) plus a list of [`Leg`]s that
//! differ only in decode context — stealth on/off, watchdog period,
//! VPU policy — and fork from one shared checkpoint when the plan
//! executor runs them. Specs serialize to JSON for display; a [`Leg`]
//! also parses back, because difftest corpus metadata stores its mode
//! matrix as leg documents: `Leg::from_json(&leg.to_json()) == Ok(leg)`.

use crate::measure::DEFAULT_WATCHDOG;
use csd_telemetry::{Json, ToJson};

/// What one measured leg does to the decode context before measuring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LegMode {
    /// Measure with the warmed configuration untouched.
    Base,
    /// Arm stealth mode for the victim's sensitive ranges.
    Stealth {
        /// Stealth watchdog period in cycles.
        watchdog: u64,
    },
    /// Replace the VPU gating policy for the measured region.
    Devec {
        /// Policy name from [`crate::policies`].
        policy: String,
    },
}

impl LegMode {
    /// The stable mode tag used in the JSON grammar.
    pub fn tag(&self) -> &'static str {
        match self {
            LegMode::Base => "base",
            LegMode::Stealth { .. } => "stealth",
            LegMode::Devec { .. } => "devec",
        }
    }
}

/// One measured leg of an experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Leg {
    /// Decode-context change applied at fork time.
    pub mode: LegMode,
    /// Measured operations, overriding the spec-level default.
    pub blocks: Option<usize>,
}

impl Leg {
    /// A leg with no per-leg overrides.
    pub fn new(mode: LegMode) -> Leg {
        Leg { mode, blocks: None }
    }

    /// Parses one leg from its JSON grammar (the objects inside an
    /// experiment's `"legs"` array). The difftest corpus records its mode
    /// matrix as typed leg documents and checks them with this parser.
    ///
    /// # Errors
    ///
    /// Reports the first grammar violation (missing/unknown mode tag,
    /// non-integer watchdog or blocks, devec leg without a policy name).
    pub fn from_json(j: &Json) -> Result<Leg, String> {
        let mode = match j.get("mode").and_then(Json::as_str) {
            Some("base") => LegMode::Base,
            Some("stealth") => LegMode::Stealth {
                watchdog: match j.get("watchdog") {
                    None => DEFAULT_WATCHDOG,
                    Some(v) => v
                        .as_u64()
                        .ok_or("leg.watchdog must be a non-negative integer")?,
                },
            },
            Some("devec") => LegMode::Devec {
                policy: j
                    .get("policy")
                    .and_then(Json::as_str)
                    .ok_or("devec leg requires a policy name")?
                    .to_string(),
            },
            Some(other) => return Err(format!("unknown leg mode {other:?} (base/stealth/devec)")),
            None => return Err("leg.mode must be a string".to_string()),
        };
        let blocks = match j.get("blocks") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or("leg.blocks must be a non-negative integer")? as usize,
            ),
        };
        Ok(Leg { mode, blocks })
    }
}

impl ToJson for Leg {
    fn to_json(&self) -> Json {
        let mut members: Vec<(&str, Json)> = vec![("mode", Json::from(self.mode.tag()))];
        match &self.mode {
            LegMode::Base => {}
            LegMode::Stealth { watchdog } => members.push(("watchdog", Json::from(*watchdog))),
            LegMode::Devec { policy } => members.push(("policy", Json::from(policy.as_str()))),
        }
        if let Some(b) = self.blocks {
            members.push(("blocks", Json::from(b as u64)));
        }
        Json::obj(members)
    }
}

/// A complete experiment description: the warm state (victim, pipeline,
/// seed), defaults for the measured region, and the legs to fork.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentSpec {
    /// Victim benchmark name.
    pub victim: String,
    /// Pipeline configuration name (`opt` / `noopt`).
    pub pipeline: String,
    /// Input-stream seed.
    pub seed: u64,
    /// Default measured operations per leg.
    pub blocks: usize,
    /// The measured legs, in result order.
    pub legs: Vec<Leg>,
}

impl ExperimentSpec {
    /// A one-leg spec.
    pub fn single(victim: &str, pipeline: &str, seed: u64, blocks: usize, mode: LegMode) -> Self {
        ExperimentSpec {
            victim: victim.to_string(),
            pipeline: pipeline.to_string(),
            seed,
            blocks,
            legs: vec![Leg::new(mode)],
        }
    }

    /// The Figure 8/9/10 shape: a base leg plus a stealth leg, forked
    /// from one warmed checkpoint.
    pub fn pair(victim: &str, pipeline: &str, seed: u64, blocks: usize, watchdog: u64) -> Self {
        ExperimentSpec {
            victim: victim.to_string(),
            pipeline: pipeline.to_string(),
            seed,
            blocks,
            legs: vec![
                Leg::new(LegMode::Base),
                Leg::new(LegMode::Stealth { watchdog }),
            ],
        }
    }

    /// The Figure 11 shape: a base leg plus one stealth leg per watchdog
    /// period, all forked from one warmed checkpoint.
    pub fn watchdog_sweep(
        victim: &str,
        pipeline: &str,
        seed: u64,
        blocks: usize,
        periods: &[u64],
    ) -> Self {
        let mut legs = vec![Leg::new(LegMode::Base)];
        legs.extend(
            periods
                .iter()
                .map(|&watchdog| Leg::new(LegMode::Stealth { watchdog })),
        );
        ExperimentSpec {
            victim: victim.to_string(),
            pipeline: pipeline.to_string(),
            seed,
            blocks,
            legs,
        }
    }
}

impl ToJson for ExperimentSpec {
    fn to_json(&self) -> Json {
        let legs: Vec<Json> = self.legs.iter().map(Leg::to_json).collect();
        Json::obj([
            ("victim", Json::from(self.victim.as_str())),
            ("pipeline", Json::from(self.pipeline.as_str())),
            ("seed", Json::from(self.seed)),
            ("blocks", Json::from(self.blocks as u64)),
            ("legs", Json::Arr(legs)),
        ])
    }
}
