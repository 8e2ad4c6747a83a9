//! On-disk cassettes: the durable form of a recorded LLM exchange.
//!
//! A [`Cassette`] is the persistent, *verifiable* record/replay format:
//! every entry carries
//!
//! * a **lane** — which search within a harness run produced it (e.g.
//!   `state/fcc/gpt-4`), so one cassette file can serve a whole
//!   multi-search harness;
//! * a **round** — the feedback-loop round index, so multi-round drivers
//!   that build one client per round replay the right slice;
//! * a **prompt fingerprint** — an FNV-1a hash of the exact prompt text
//!   the completion answered, so replaying against a different workload,
//!   seed code or feedback context fails loudly instead of silently
//!   feeding the wrong completion into a search.
//!
//! Cassettes serialize through the workspace serde shim's text codec —
//! the same bit-exact format session snapshots use — via `encode`/
//! `decode`, and `save` writes with the write-then-rename discipline so a
//! crash mid-save never corrupts a previous recording.

use crate::client::DesignKind;
use crate::prompt::Prompt;
use serde::value::{Error as CodecError, Value};
use std::fmt;
use std::path::Path;

/// Cassette format version; bumped on layout changes.
pub const CASSETTE_VERSION: u64 = 1;

/// FNV-1a fingerprint of everything that shapes a generation request: the
/// design kind and the fully rendered prompt text (which folds in the
/// workload schema, strategy toggles, seed code and any feedback section).
pub fn prompt_fingerprint(prompt: &Prompt) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        // Length-delimit segments so ("ab","c") and ("a","bc") differ.
        h ^= 0xFF;
        h = h.wrapping_mul(PRIME);
    };
    let kind = match prompt.kind {
        DesignKind::State => "state",
        DesignKind::Architecture => "architecture",
    };
    eat(kind.as_bytes());
    eat(prompt.render().as_bytes());
    h
}

/// One recorded completion with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct CassetteEntry {
    /// The model that produced this entry (cassette files can interleave
    /// lanes from different models, e.g. table2's gpt-3.5 + gpt-4 pools).
    pub model: String,
    /// Which search produced it (harness-chosen label).
    pub lane: String,
    /// Feedback-loop round index (0 for one-shot searches).
    pub round: u64,
    /// [`prompt_fingerprint`] of the prompt this completion answered.
    pub fingerprint: u64,
    /// The generated code block.
    pub code: String,
    /// Chain-of-thought text, when the model produced any.
    pub reasoning: Option<String>,
}

/// A recorded sequence of completions, serializable to disk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cassette {
    /// Display-level model label (the first recorder that created the
    /// file). Authoritative per-completion provenance is
    /// [`CassetteEntry::model`] — merged files interleave models.
    pub model: String,
    /// Entries in generation order.
    pub entries: Vec<CassetteEntry>,
}

/// Why a cassette could not be decoded or used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CassetteError(pub String);

impl fmt::Display for CassetteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cassette error: {}", self.0)
    }
}

impl std::error::Error for CassetteError {}

impl Cassette {
    /// An empty cassette for `model`.
    pub fn new(model: impl Into<String>) -> Self {
        Self {
            model: model.into(),
            entries: Vec::new(),
        }
    }

    /// Appends an entry.
    pub fn push(&mut self, entry: CassetteEntry) {
        self.entries.push(entry);
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The distinct `(lane, round)` pairs present, first-appearance order
    /// (used by error messages to say what a cassette *does* contain).
    pub fn lanes(&self) -> Vec<(String, u64)> {
        let mut lanes: Vec<(String, u64)> = Vec::new();
        for e in &self.entries {
            if !lanes.iter().any(|(l, r)| *l == e.lane && *r == e.round) {
                lanes.push((e.lane.clone(), e.round));
            }
        }
        lanes
    }

    /// Serializes to the serde-shim text form.
    pub fn encode(&self) -> String {
        serde::text::to_string(self)
    }

    /// Parses a cassette back from its text form.
    pub fn decode(s: &str) -> Result<Self, CassetteError> {
        serde::text::from_str(s).map_err(|e| CassetteError(e.to_string()))
    }

    /// Reads and decodes a cassette file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CassetteError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| CassetteError(format!("read {}: {e}", path.display())))?;
        Self::decode(&text)
    }

    /// Writes the cassette with write-then-rename, so a crash mid-write
    /// never corrupts an existing recording.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CassetteError> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.encode())
            .map_err(|e| CassetteError(format!("write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| CassetteError(format!("rename to {}: {e}", path.display())))?;
        Ok(())
    }

    /// [`Cassette::load`] through a process-wide parsed cache, keyed by
    /// path and invalidated on size/mtime change. Harnesses build one
    /// replay client per search (and multi-round drivers one per round)
    /// from the same file — decoding a paper-scale cassette once instead
    /// of once per client matters.
    pub fn load_cached(path: impl AsRef<Path>) -> Result<std::sync::Arc<Self>, CassetteError> {
        use std::sync::{Arc, Mutex, OnceLock};
        type Key = (std::path::PathBuf, u64, std::time::SystemTime);
        type Slot = (Key, Arc<Cassette>);
        static CACHE: OnceLock<Mutex<Vec<Slot>>> = OnceLock::new();

        let path = path.as_ref();
        let meta = std::fs::metadata(path)
            .map_err(|e| CassetteError(format!("read {}: {e}", path.display())))?;
        let stamp = meta
            .modified()
            .map_err(|e| CassetteError(format!("mtime {}: {e}", path.display())))?;
        let key: Key = (path.to_path_buf(), meta.len(), stamp);

        let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
        {
            let cache = cache.lock().expect("cassette cache lock");
            if let Some((_, cassette)) = cache.iter().find(|(k, _)| *k == key) {
                return Ok(Arc::clone(cassette));
            }
        }
        let loaded = Arc::new(Self::load(path)?);
        let mut cache = cache.lock().expect("cassette cache lock");
        // Drop stale generations of this path; keep other paths.
        cache.retain(|((p, _, _), _)| p != path);
        cache.push((key, Arc::clone(&loaded)));
        Ok(loaded)
    }
}

// ---- serde impls (hand-written against the shim, like nada-core's) ---------

impl serde::Serialize for CassetteEntry {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("model".into(), self.model.to_value()),
            ("lane".into(), self.lane.to_value()),
            ("round".into(), self.round.to_value()),
            ("fingerprint".into(), self.fingerprint.to_value()),
            ("code".into(), self.code.to_value()),
            ("reasoning".into(), self.reasoning.to_value()),
        ])
    }
}

impl serde::Deserialize for CassetteEntry {
    fn from_value(v: &Value) -> Result<Self, CodecError> {
        Ok(Self {
            model: String::from_value(v.field("model")?)?,
            lane: String::from_value(v.field("lane")?)?,
            round: u64::from_value(v.field("round")?)?,
            fingerprint: u64::from_value(v.field("fingerprint")?)?,
            code: String::from_value(v.field("code")?)?,
            reasoning: Option::from_value(v.field("reasoning")?)?,
        })
    }
}

impl serde::Serialize for Cassette {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("version".into(), CASSETTE_VERSION.to_value()),
            ("model".into(), self.model.to_value()),
            ("entries".into(), self.entries.to_value()),
        ])
    }
}

impl serde::Deserialize for Cassette {
    fn from_value(v: &Value) -> Result<Self, CodecError> {
        let version = u64::from_value(v.field("version")?)?;
        if version != CASSETTE_VERSION {
            return Err(CodecError::new(format!(
                "cassette version {version} unsupported (expected {CASSETTE_VERSION})"
            )));
        }
        Ok(Self {
            model: String::from_value(v.field("model")?)?,
            entries: Vec::from_value(v.field("entries")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Cassette {
        let mut c = Cassette::new("gpt-4");
        c.push(CassetteEntry {
            model: "gpt-4".into(),
            lane: "state/fcc/gpt-4".into(),
            round: 0,
            fingerprint: 0xDEAD_BEEF,
            code: "state s {\n  feature f = ema(x, 0.5); // \"quoted\"\n}\n".into(),
            reasoning: Some("idea one\nidea two".into()),
        });
        c.push(CassetteEntry {
            model: "gpt-4".into(),
            lane: "arch/fcc/gpt-4".into(),
            round: 3,
            fingerprint: u64::MAX,
            code: "network n { }\n".into(),
            reasoning: None,
        });
        c
    }

    #[test]
    fn encode_decode_round_trips() {
        let c = sample();
        assert_eq!(Cassette::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn save_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("nada-cassette-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.cassette");
        let c = sample();
        c.save(&path).unwrap();
        assert_eq!(Cassette::load(&path).unwrap(), c);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_or_versioned_out_cassettes_are_rejected() {
        let text = sample().encode();
        assert!(Cassette::decode(&text[..text.len() / 2]).is_err());
        assert!(Cassette::decode("{}").is_err());
        let bumped = text.replacen("version=u1", "version=u999", 1);
        assert!(Cassette::decode(&bumped).is_err());
    }

    #[test]
    fn fingerprints_distinguish_prompts() {
        let a = prompt_fingerprint(&Prompt::state("state s { feature f = 1.0; }"));
        let b = prompt_fingerprint(&Prompt::state("state s { feature f = 2.0; }"));
        let c = prompt_fingerprint(&Prompt::architecture("state s { feature f = 1.0; }"));
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Same prompt, same fingerprint — replay depends on it.
        assert_eq!(
            a,
            prompt_fingerprint(&Prompt::state("state s { feature f = 1.0; }"))
        );
    }

    #[test]
    fn lanes_lists_distinct_pairs_in_order() {
        let c = sample();
        assert_eq!(
            c.lanes(),
            vec![
                ("state/fcc/gpt-4".to_string(), 0),
                ("arch/fcc/gpt-4".to_string(), 3)
            ]
        );
    }
}
