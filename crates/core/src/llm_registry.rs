//! Runtime LLM-backend selection: name → [`LlmClient`] factory.
//!
//! Mirrors [`crate::registry::WorkloadRegistry`]: the *choice* of model
//! serving is a runtime value, so every bench harness selects a backend
//! with `--llm mock|replay|http` instead of a code change. Built-ins:
//!
//! * `mock` — the Table 2-calibrated [`MockLlm`] (model names `gpt-4`,
//!   `gpt-3.5`, `perfect`), deterministic in the spec's seed;
//! * `replay` — a verified [`ReplayClient`] over an on-disk cassette
//!   (`--cassette PATH` required), the offline-CI path;
//! * `http` — the real chat-completions backend over the process-wide
//!   connection pool ([`nada_llm_http::PooledClient`]): endpoint from
//!   `NADA_API_BASE`, key from `NADA_API_KEY` only, pool width from
//!   `NADA_LLM_CONNS` (default: the scheduler-lane count; `1` gives one
//!   connection, every request on the calling thread), all dispatch
//!   gated by the shared rate-limit governor.
//!
//! Any generating backend (`mock`, `http`) can be recorded by setting
//! `record` on the [`LlmSpec`]: the built client is wrapped in a
//! [`RecordingClient`] that appends the search's completions to the
//! cassette file, keyed by the request's *lane* (which search in the
//! harness run) and *round* (feedback-loop index). Replaying consumes the
//! same keys, which is what lets resumed multi-round runs rebuild round
//! `k`'s client and still replay bit-identically.

use nada_llm::{LlmClient, MockLlm, RecordingClient, ReplayClient};
use nada_llm_http::PooledClient;
use std::fmt;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Everything a harness knows about the LLM it wants, before lane/round
/// context is applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlmSpec {
    /// Registry name of the backend (`mock`, `replay`, `http`, or a
    /// custom registration).
    pub backend: String,
    /// Model identifier (mock profile name or hosted model id).
    pub model: String,
    /// Cassette file: the replay source, or the recording target.
    pub cassette: Option<PathBuf>,
    /// Wrap the built client in a recorder appending to `cassette`.
    pub record: bool,
    /// Seed for deterministic backends. Callers pass the final, fully
    /// mixed per-search seed; the registry never remixes it, so mock
    /// results are bit-identical to constructing [`MockLlm`] directly.
    pub seed: u64,
}

impl LlmSpec {
    /// A plain mock spec (the default backend).
    pub fn mock(model: impl Into<String>, seed: u64) -> Self {
        Self {
            backend: "mock".to_string(),
            model: model.into(),
            cassette: None,
            record: false,
            seed,
        }
    }
}

/// One concrete build request: the spec plus which search (lane) and
/// feedback round the client will serve.
#[derive(Debug, Clone)]
pub struct LlmRequest<'a> {
    /// The harness-level spec.
    pub spec: &'a LlmSpec,
    /// Stable label of the search this client drives (e.g.
    /// `state/fcc/gpt-4`); keys cassette slices.
    pub lane: &'a str,
    /// Feedback-round index (0 for one-shot searches).
    pub round: usize,
}

/// Why a backend could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlmBuildError(pub String);

impl fmt::Display for LlmBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "llm backend error: {}", self.0)
    }
}

impl std::error::Error for LlmBuildError {}

/// Constructor for a backend, given the full request.
type LlmFactory =
    Box<dyn Fn(&LlmRequest<'_>) -> Result<Box<dyn LlmClient>, LlmBuildError> + Send + Sync>;

/// A name → LLM-backend-constructor table.
pub struct LlmRegistry {
    entries: Vec<(String, LlmFactory)>,
}

impl LlmRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// The built-in backends: `mock`, `replay`, `http`.
    pub fn builtin() -> Self {
        let mut r = Self::empty();
        r.register("mock", |req| {
            let mock = mock_for(&req.spec.model, req.spec.seed)?;
            maybe_record(Box::new(mock), req)
        });
        r.register("replay", |req| {
            if req.spec.record {
                return Err(LlmBuildError(
                    "recording needs a generating backend (`mock` or `http`), \
                     not `replay`"
                        .to_string(),
                ));
            }
            let path = req.spec.cassette.as_ref().ok_or_else(|| {
                LlmBuildError("the `replay` backend needs a cassette (--cassette PATH)".into())
            })?;
            let client = ReplayClient::from_file(path, req.lane, req.round as u64)
                .map_err(|e| LlmBuildError(format!("{}: {e}", path.display())))?;
            Ok(Box::new(client) as Box<dyn LlmClient>)
        });
        r.register("http", |req| {
            let client = PooledClient::from_env(&req.spec.model)
                .map_err(|e| LlmBuildError(e.to_string()))?;
            maybe_record(Box::new(client), req)
        });
        r
    }

    /// The process-wide built-in registry. Daemon lanes and harness
    /// turns resolve backends through this one instance instead of
    /// rebuilding a registry per turn — the underlying connection pool
    /// and rate governor are process-global either way, but sharing the
    /// registry keeps custom registrations (tests, embedders) visible to
    /// every lane.
    pub fn shared() -> &'static LlmRegistry {
        static SHARED: OnceLock<LlmRegistry> = OnceLock::new();
        SHARED.get_or_init(LlmRegistry::builtin)
    }

    /// Registers a constructor under `name`. A later registration with the
    /// same name shadows the earlier one.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(&LlmRequest<'_>) -> Result<Box<dyn LlmClient>, LlmBuildError>
            + Send
            + Sync
            + 'static,
    ) {
        self.entries.push((name.into(), Box::new(factory)));
    }

    /// Builds the named backend for a request. Unknown names are an error
    /// listing what is registered.
    pub fn build(
        &self,
        name: &str,
        req: &LlmRequest<'_>,
    ) -> Result<Box<dyn LlmClient>, LlmBuildError> {
        let factory = self
            .entries
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, f)| f)
            .ok_or_else(|| {
                LlmBuildError(format!(
                    "unknown backend `{name}` (available: {})",
                    self.names().join(", ")
                ))
            })?;
        factory(req)
    }

    /// Registered names, first-registration order, shadowed duplicates
    /// omitted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for (n, _) in &self.entries {
            if !names.contains(&n.as_str()) {
                names.push(n);
            }
        }
        names
    }

    /// True when `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|(n, _)| n == name)
    }
}

impl Default for LlmRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

/// The calibrated mock for a model name.
fn mock_for(model: &str, seed: u64) -> Result<MockLlm, LlmBuildError> {
    match model {
        "gpt-4" => Ok(MockLlm::gpt4(seed)),
        "gpt-3.5" => Ok(MockLlm::gpt35(seed)),
        "perfect" => Ok(MockLlm::perfect(seed)),
        other => Err(LlmBuildError(format!(
            "unknown mock model `{other}` (available: gpt-4, gpt-3.5, perfect)"
        ))),
    }
}

/// Wraps a generating backend in a persisting recorder when asked.
fn maybe_record(
    inner: Box<dyn LlmClient>,
    req: &LlmRequest<'_>,
) -> Result<Box<dyn LlmClient>, LlmBuildError> {
    if !req.spec.record {
        return Ok(inner);
    }
    let path = req.spec.cassette.as_ref().ok_or_else(|| {
        LlmBuildError("recording needs a cassette target (--cassette PATH)".into())
    })?;
    let recorder = RecordingClient::new(inner)
        .with_lane(req.lane, req.round as u64)
        .persist_to(path)
        .map_err(|e| LlmBuildError(format!("{}: {e}", path.display())))?;
    Ok(Box::new(recorder))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nada_llm::{Cassette, Prompt};

    fn req<'a>(spec: &'a LlmSpec, lane: &'a str, round: usize) -> LlmRequest<'a> {
        LlmRequest { spec, lane, round }
    }

    /// `unwrap_err` needs `T: Debug`, which trait objects lack.
    fn build_err(r: &LlmRegistry, name: &str, rq: &LlmRequest<'_>) -> LlmBuildError {
        match r.build(name, rq) {
            Ok(_) => panic!("expected `{name}` to fail"),
            Err(e) => e,
        }
    }

    #[test]
    fn builtins_resolve_to_their_names() {
        let r = LlmRegistry::builtin();
        assert_eq!(r.names(), vec!["mock", "replay", "http"]);
        assert!(r.contains("mock"));
        let spec = LlmSpec::mock("gpt-4", 7);
        let err = build_err(&r, "claude", &req(&spec, "lane", 0));
        assert!(
            err.to_string().contains("(available: mock, replay, http)"),
            "{err}"
        );
    }

    #[test]
    fn shared_registry_is_one_instance() {
        let a = LlmRegistry::shared() as *const LlmRegistry;
        let b = LlmRegistry::shared() as *const LlmRegistry;
        assert_eq!(a, b);
        assert!(LlmRegistry::shared().contains("http"));
    }

    #[test]
    fn mock_backend_matches_direct_construction_bit_for_bit() {
        let r = LlmRegistry::builtin();
        let spec = LlmSpec::mock("gpt-4", 1234);
        let mut built = r.build("mock", &req(&spec, "lane", 0)).unwrap();
        let mut direct = MockLlm::gpt4(1234);
        let prompt =
            Prompt::state("state s { input buffer_s: scalar; feature f = buffer_s / 10.0; }");
        for _ in 0..8 {
            assert_eq!(built.generate(&prompt), direct.generate(&prompt));
        }
        // Unknown mock models are a clear error, not a silent default.
        let bad = LlmSpec::mock("gpt-9", 1);
        assert!(r.build("mock", &req(&bad, "lane", 0)).is_err());
    }

    #[test]
    fn record_then_replay_flows_through_the_registry() {
        let dir = std::env::temp_dir().join(format!("nada-llmreg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reg.cassette");
        let prompt =
            Prompt::state("state s { input buffer_s: scalar; feature f = buffer_s / 10.0; }");
        let r = LlmRegistry::builtin();

        let mut spec = LlmSpec::mock("perfect", 9);
        spec.record = true;
        spec.cassette = Some(path.clone());
        let recorded: Vec<_> = {
            let mut client = r.build("mock", &req(&spec, "reg-test", 2)).unwrap();
            (0..3).map(|_| client.generate(&prompt)).collect()
        }; // recorder drops → flushes

        let mut replay_spec = LlmSpec::mock("perfect", 9);
        replay_spec.backend = "replay".into();
        replay_spec.cassette = Some(path.clone());
        let mut replayed = r
            .build("replay", &req(&replay_spec, "reg-test", 2))
            .unwrap();
        for c in &recorded {
            assert_eq!(&replayed.generate(&prompt), c);
        }
        assert_eq!(Cassette::load(&path).unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn misconfigured_specs_error_clearly() {
        let r = LlmRegistry::builtin();
        // replay without a cassette
        let mut spec = LlmSpec::mock("gpt-4", 1);
        spec.backend = "replay".into();
        let err = build_err(&r, "replay", &req(&spec, "lane", 0));
        assert!(err.to_string().contains("--cassette"), "{err}");
        // record without a cassette target
        let mut spec = LlmSpec::mock("gpt-4", 1);
        spec.record = true;
        let err = build_err(&r, "mock", &req(&spec, "lane", 0));
        assert!(err.to_string().contains("--cassette"), "{err}");
        // record over replay is contradictory
        let mut spec = LlmSpec::mock("gpt-4", 1);
        spec.backend = "replay".into();
        spec.record = true;
        spec.cassette = Some(PathBuf::from("/tmp/x.cassette"));
        let err = build_err(&r, "replay", &req(&spec, "lane", 0));
        assert!(err.to_string().contains("generating backend"), "{err}");
    }

    #[test]
    fn custom_registrations_shadow_builtins() {
        let mut r = LlmRegistry::builtin();
        r.register("mock", |req| {
            Ok(Box::new(MockLlm::perfect(req.spec.seed)) as Box<dyn LlmClient>)
        });
        let spec = LlmSpec::mock("gpt-4", 5);
        let client = r.build("mock", &req(&spec, "lane", 0)).unwrap();
        assert_eq!(client.model_name(), "perfect");
        assert_eq!(r.names(), vec!["mock", "replay", "http"]);
    }
}
