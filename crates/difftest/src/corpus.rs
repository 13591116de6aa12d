//! Persistent regression corpus.
//!
//! Every interesting fuzz input — one that diverged, or one that covered
//! a structural-coverage bin no earlier input reached — is persisted
//! under a corpus directory as a *pair* of files:
//!
//! - `<name>.asm` — the program as reassemblable assembly
//!   ([`GenProgram::to_asm`] output, parsed back by
//!   [`crate::asm::parse_asm`]);
//! - `<name>.json` — metadata: origin, the mode-matrix legs the input
//!   runs under, the same legs as typed `csd-exp` leg specs (validated
//!   through `csd_exp::Leg::from_json`, the leg grammar's one parser),
//!   and the divergence classes it reproduces (empty for coverage-only
//!   entries).
//!
//! Names are content-addressed (FNV-1a over the assembly text), so the
//! same discovery never produces two entries and corpus merges are
//! conflict-free. The committed corpus under `tests/corpus/` is replayed
//! by a tier-1 test on every `cargo test`.

use crate::asm::parse_asm;
use crate::generator::GenProgram;
use crate::harness::{cosim, mode_matrix, ModeLeg};
use csd_telemetry::{write_atomic, Json, ToJson};
use std::fs;
use std::path::{Path, PathBuf};

/// Schema tag of corpus metadata files.
pub const CORPUS_SCHEMA: &str = "csd-corpus/1";

/// The committed corpus directory (`tests/corpus/` at the repo root).
pub fn default_corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

pub use csd_telemetry::fnv1a64;

/// One corpus entry: a program plus the metadata needed to replay it.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Content-addressed entry name (file stem of the on-disk pair).
    pub name: String,
    /// Human-readable provenance (seed/iteration, or "hand-written").
    pub origin: String,
    /// The mode-matrix legs this entry runs under.
    pub legs: Vec<ModeLeg>,
    /// Divergence classes the entry reproduces; empty = coverage-only.
    pub divergence: Vec<String>,
    /// The program itself.
    pub program: GenProgram,
}

impl CorpusEntry {
    /// Builds an entry, deriving its content-addressed name: `div-` +
    /// first divergence class for reproducers, `cov-` for coverage-only
    /// entries, then the FNV-1a hash of the assembly text.
    pub fn new(
        program: GenProgram,
        legs: Vec<ModeLeg>,
        divergence: Vec<String>,
        origin: String,
    ) -> CorpusEntry {
        let asm = program.to_asm();
        let hash = fnv1a64(asm.as_bytes());
        let name = match divergence.first() {
            Some(class) => format!("div-{class}-{hash:016x}"),
            None => format!("cov-{hash:016x}"),
        };
        CorpusEntry {
            name,
            origin,
            legs,
            divergence,
            program,
        }
    }

    /// The metadata document persisted next to the assembly.
    pub fn metadata(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(CORPUS_SCHEMA.into())),
            ("name", Json::Str(self.name.clone())),
            ("origin", Json::Str(self.origin.clone())),
            (
                "legs",
                Json::arr(self.legs.iter().map(|l| Json::Str(l.name()))),
            ),
            (
                "exp_legs",
                Json::arr(
                    self.legs
                        .iter()
                        .map(|l| Json::arr(l.exp_legs().iter().map(ToJson::to_json))),
                ),
            ),
            (
                "divergence",
                Json::arr(self.divergence.iter().map(|c| Json::Str(c.clone()))),
            ),
        ])
    }

    /// Writes the `.asm`/`.json` pair into `dir`. Both files land via
    /// temp-file + rename ([`csd_telemetry::write_atomic`]), so a crash
    /// mid-save never leaves a half-written corpus entry — at worst the
    /// pair is missing one file, which `load_corpus` reports rather than
    /// silently mis-replays.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors as strings.
    pub fn save(&self, dir: &Path) -> Result<(), String> {
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let asm_path = dir.join(format!("{}.asm", self.name));
        let asm = format!("# {}\n{}", self.origin, self.program.to_asm());
        write_atomic(&asm_path, asm.as_bytes()).map_err(|e| e.to_string())?;
        let json_path = dir.join(format!("{}.json", self.name));
        let mut text = self.metadata().pretty();
        text.push('\n');
        write_atomic(&json_path, text.as_bytes()).map_err(|e| e.to_string())
    }

    /// Reassembles and cosimulates the entry, checking it still behaves
    /// exactly as recorded: coverage-only entries must agree on every
    /// leg; reproducer entries must produce *the same set* of divergence
    /// classes (a new class, or a vanished one, is a real change in
    /// behavior either way).
    ///
    /// # Errors
    ///
    /// A human-readable report including the reassemblable assembly.
    pub fn replay(&self) -> Result<(), String> {
        let p = self.program.assemble().map_err(|e| {
            format!(
                "{}: assembly failed: {e:?}\n{}",
                self.name,
                self.program.to_asm()
            )
        })?;
        let result = cosim(&p, &self.legs, None);
        let mut observed: Vec<String> = result.classes().iter().map(|s| s.to_string()).collect();
        observed.sort();
        let mut expected = self.divergence.clone();
        expected.sort();
        expected.dedup();
        if observed != expected {
            let detail: Vec<String> = result
                .divergences
                .iter()
                .take(4)
                .map(|d| format!("  [{}] {}: {}", d.leg, d.class.name(), d.detail))
                .collect();
            return Err(format!(
                "{}: expected divergence classes {:?}, observed {:?}\n{}\nreassemblable input:\n{}",
                self.name,
                expected,
                observed,
                detail.join("\n"),
                self.program.to_asm()
            ));
        }
        Ok(())
    }
}

/// Maps persisted leg names back onto the live mode matrix.
fn leg_by_name(name: &str) -> Option<ModeLeg> {
    mode_matrix().into_iter().find(|l| l.name() == name)
}

/// Loads one entry from its metadata path (the `.asm` sits next to it).
fn load_entry(json_path: &Path) -> Result<CorpusEntry, String> {
    let ctx = |e: String| format!("{}: {e}", json_path.display());
    let text = fs::read_to_string(json_path).map_err(|e| ctx(e.to_string()))?;
    let j = Json::parse(&text).map_err(|e| ctx(format!("{e:?}")))?;
    let schema = j.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != CORPUS_SCHEMA {
        return Err(ctx(format!("unknown schema {schema:?}")));
    }
    let name = j
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| ctx("missing name".into()))?
        .to_string();
    let origin = j
        .get("origin")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string();
    let legs: Vec<ModeLeg> = j
        .get("legs")
        .and_then(Json::as_arr)
        .ok_or_else(|| ctx("missing legs".into()))?
        .iter()
        .map(|l| {
            let n = l
                .as_str()
                .ok_or_else(|| ctx("leg name must be a string".into()))?;
            leg_by_name(n).ok_or_else(|| ctx(format!("unknown leg {n:?}")))
        })
        .collect::<Result<_, _>>()?;
    if legs.is_empty() {
        return Err(ctx("entry must name at least one leg".into()));
    }
    // Cross-validate the typed csd-exp leg specs through the leg
    // grammar's parser: corpus metadata must stay loadable as plan legs.
    if let Some(exp) = j.get("exp_legs").and_then(Json::as_arr) {
        for per_leg in exp {
            for spec in per_leg.as_arr().unwrap_or(&[]) {
                csd_exp::Leg::from_json(spec).map_err(|e| ctx(format!("bad exp leg: {e}")))?;
            }
        }
    }
    let divergence = j
        .get("divergence")
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    let asm_path = json_path.with_extension("asm");
    let asm = fs::read_to_string(&asm_path).map_err(|e| format!("{}: {e}", asm_path.display()))?;
    let program = parse_asm(&asm).map_err(|e| format!("{}: {e}", asm_path.display()))?;
    Ok(CorpusEntry {
        name,
        origin,
        legs,
        divergence,
        program,
    })
}

/// Loads every entry under `dir`, sorted by name (deterministic
/// iteration regardless of directory order). A missing directory is an
/// empty corpus, not an error.
///
/// # Errors
///
/// Reports the first malformed entry.
pub fn load_corpus(dir: &Path) -> Result<Vec<CorpusEntry>, String> {
    let mut paths = Vec::new();
    match fs::read_dir(dir) {
        Ok(rd) => {
            for e in rd {
                let path = e.map_err(|e| format!("{}: {e}", dir.display()))?.path();
                if path.extension().is_some_and(|x| x == "json")
                    && path.file_stem().is_some_and(|s| s != "coverage-baseline")
                {
                    paths.push(path);
                }
            }
        }
        Err(_) => return Ok(Vec::new()),
    }
    paths.sort();
    paths.iter().map(|p| load_entry(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::Generator;

    #[test]
    fn committed_corpus_names_are_fnv1a_of_their_assembly() {
        // Known answers from disk: every committed file stem ends in the
        // FNV-1a hash of its program text, so a hash change would orphan
        // the corpus.
        let entries = load_corpus(&default_corpus_dir()).unwrap();
        assert!(!entries.is_empty(), "the committed corpus is not empty");
        for e in &entries {
            let hash = format!("{:016x}", fnv1a64(e.program.to_asm().as_bytes()));
            assert!(e.name.ends_with(&hash), "{} != …{hash}", e.name);
        }
    }

    #[test]
    fn entry_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join(format!(
            "csd-corpus-test-{}-{:x}",
            std::process::id(),
            fnv1a64(b"roundtrip")
        ));
        let _ = fs::remove_dir_all(&dir);
        let gp = Generator::new(77).program();
        let legs = vec![mode_matrix()[0], mode_matrix()[5]];
        let entry = CorpusEntry::new(gp.clone(), legs.clone(), Vec::new(), "test".into());
        entry.save(&dir).unwrap();
        let loaded = load_corpus(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].name, entry.name);
        assert_eq!(loaded[0].program, gp);
        assert_eq!(loaded[0].legs, legs);
        assert!(loaded[0].divergence.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn names_are_content_addressed() {
        let gp = Generator::new(3).program();
        let a = CorpusEntry::new(gp.clone(), vec![mode_matrix()[0]], Vec::new(), "x".into());
        let b = CorpusEntry::new(gp, vec![mode_matrix()[1]], Vec::new(), "y".into());
        assert_eq!(a.name, b.name, "same program must hash to the same name");
        assert!(a.name.starts_with("cov-"));
        let c = CorpusEntry::new(
            Generator::new(4).program(),
            vec![mode_matrix()[0]],
            vec!["flags".into()],
            "z".into(),
        );
        assert!(c.name.starts_with("div-flags-"));
    }

    #[test]
    fn missing_corpus_dir_is_empty() {
        let entries = load_corpus(Path::new("/nonexistent/csd-corpus")).unwrap();
        assert!(entries.is_empty());
    }

    #[test]
    fn coverage_only_entry_replays_clean() {
        let gp = Generator::new(12).program();
        let entry = CorpusEntry::new(gp, vec![mode_matrix()[0]], Vec::new(), "test".into());
        entry.replay().unwrap();
    }
}
