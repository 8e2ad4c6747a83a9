//! Shared experiment plumbing.
//!
//! Every search an experiment runs goes through one funnel:
//! [`run_search`] builds a [`SearchSession`], attaches the live
//! [`ProgressObserver`] when the harness runs with `--progress`, and
//! drives it to completion. The workload itself is resolved at runtime
//! from [`WorkloadRegistry::builtin`] via `--workload`, so the same
//! harness binaries exercise ABR or congestion control without a code
//! change.

use crate::cli::HarnessOptions;
use crate::logjson::JsonlObserver;
use crate::progress::ProgressObserver;
use nada_core::metrics::MetricsObserver;
use nada_core::{
    Budget, DriverOutcome, JobSpec, LlmRegistry, LlmRequest, LlmSpec, Nada, NadaConfig,
    SearchDriver, SearchOutcome, SearchSession, Workload, WorkloadRegistry,
};
use nada_llm::{DesignKind, LlmClient};
use nada_traces::dataset::DatasetKind;
use std::sync::{Arc, OnceLock};

/// The one [`MetricsObserver`] every harness search attaches, so
/// `pipeline_*` metrics accumulate across a whole harness run.
/// Observational only — results are bit-identical with it attached
/// (pinned by `tests/obs_identity.rs`).
fn shared_metrics_observer() -> Arc<MetricsObserver> {
    static OBSERVER: OnceLock<Arc<MetricsObserver>> = OnceLock::new();
    OBSERVER
        .get_or_init(|| Arc::new(MetricsObserver::new()))
        .clone()
}

/// Attaches a JSONL sink for `--log-json`, failing loudly: a user
/// pointing telemetry at an unwritable path wants to know before the
/// search runs, not after.
fn jsonl_observer(path: &str, label: &str) -> JsonlObserver {
    JsonlObserver::attach(path, label)
        .unwrap_or_else(|e| panic!("cannot open --log-json `{path}`: {e}"))
}

/// The two models the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// GPT-3.5-calibrated mock.
    Gpt35,
    /// GPT-4-calibrated mock.
    Gpt4,
}

impl Model {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Model::Gpt35 => "w/ GPT-3.5",
            Model::Gpt4 => "w/ GPT-4",
        }
    }

    /// The registry model name of the calibrated mock.
    pub fn mock_name(&self) -> &'static str {
        match self {
            Model::Gpt35 => "gpt-3.5",
            Model::Gpt4 => "gpt-4",
        }
    }
}

/// Builds the LLM driving one search through [`LlmRegistry::builtin`]:
/// `--llm` picks the backend (mock by default — bit-identical to the old
/// direct construction), `--model` overrides the experiment's calibrated
/// profile, and `--cassette`/`--record` route completions to/from disk.
///
/// `lane` names the search within the harness run (e.g. `state/fcc`) and
/// `round` the feedback-loop index; together they key which cassette slice
/// a recording writes and a replay reads, so one cassette file serves a
/// whole multi-search (or multi-round) harness.
pub fn llm_for(
    model: Model,
    seed: u64,
    lane: &str,
    round: usize,
    opts: &HarnessOptions,
) -> Box<dyn LlmClient> {
    let spec = LlmSpec {
        backend: opts.llm.clone(),
        model: opts
            .model
            .clone()
            .unwrap_or_else(|| model.mock_name().to_string()),
        cassette: opts.cassette.clone().map(std::path::PathBuf::from),
        record: opts.record,
        seed,
    };
    // The shared registry, not a private instance: every lane built here
    // draws from one process-wide connection pool and rate governor when
    // the backend is `http`.
    LlmRegistry::shared()
        .build(
            &spec.backend,
            &LlmRequest {
                spec: &spec,
                lane,
                round,
            },
        )
        .unwrap_or_else(|e| panic!("cannot build LLM backend for `{lane}`: {e}"))
}

/// The spending limits the harness flags ask for.
fn budget_for(opts: &HarnessOptions) -> Budget {
    let mut budget = Budget::unlimited();
    if let Some(cap) = opts.max_tokens_cost {
        budget = budget.with_max_token_cost(cap);
    }
    budget
}

/// Resolves the harness's workload for a dataset through the registry.
pub fn workload_for(kind: DatasetKind, opts: &HarnessOptions) -> Box<dyn Workload> {
    WorkloadRegistry::builtin()
        .build(&opts.workload, kind)
        .unwrap_or_else(|| panic!("unknown workload `{}`", opts.workload))
}

/// Builds the pipeline for a dataset at the harness scale, running the
/// workload selected by `--workload`.
pub fn nada_for(kind: DatasetKind, opts: &HarnessOptions) -> Nada {
    let cfg = NadaConfig::new(kind, opts.scale, opts.seed);
    Nada::with_workload(cfg, workload_for(kind, opts))
}

/// Drives one search session to completion, with live progress when the
/// harness asked for it.
pub fn run_search(
    nada: &Nada,
    kind: DesignKind,
    llm: &mut dyn LlmClient,
    opts: &HarnessOptions,
    label: &str,
) -> SearchOutcome {
    // The multi-round flags only drive experiments routed through
    // `run_driver` (the `iterate` harness). Searches funneled here are
    // one-shot by design — say so loudly instead of silently ignoring a
    // flag the user is counting on to protect a long run.
    static WARNED: std::sync::Once = std::sync::Once::new();
    if opts.rounds > 1 || opts.checkpoint.is_some() || opts.resume.is_some() {
        WARNED.call_once(|| {
            eprintln!(
                "warning: --rounds/--checkpoint/--resume apply to the `iterate` \
                 harness; this experiment's searches are one-shot and ignore them"
            );
        });
    }
    let mut session = SearchSession::new(nada, kind).with_budget(budget_for(opts));
    let tag = format!("{label}/{}", nada.workload().name());
    if opts.progress {
        session.observe(ProgressObserver::new(tag.clone()));
    }
    if let Some(path) = &opts.log_json {
        session.observe(jsonl_observer(path, &tag));
    }
    session.observe(shared_metrics_observer());
    session
        .run(llm)
        .expect("a fresh session runs every stage exactly once")
}

/// The job identity of one multi-round harness run — the same record the
/// serve daemon uses, so harness checkpoints and daemon checkpoints are
/// mutually intelligible.
pub fn harness_job_spec(nada: &Nada, opts: &HarnessOptions) -> JobSpec {
    let cfg = nada.config();
    let mut spec = JobSpec::new(nada.workload().name(), cfg.dataset.name(), cfg.seed);
    spec.scale = cfg.scale.name().to_string();
    spec.llm_backend = opts.llm.clone();
    spec.llm_model = opts.model.clone().unwrap_or_else(|| "gpt-4".to_string());
    spec.rounds = opts.rounds;
    spec
}

/// Drives a multi-round feedback search through one funnel: `--rounds`
/// picks the round count, `--resume PATH` restarts a killed run from its
/// checkpoint, `--checkpoint PATH` persists one after every round
/// (defaulting to the `--resume` path, so a resumed run stays
/// protected), and `--progress` attaches the live observer. `make_llm`
/// builds each round's client from the round index, so resumed runs
/// reproduce bit-identically.
pub fn run_driver(
    nada: &Nada,
    kind: DesignKind,
    make_llm: &mut dyn FnMut(usize) -> Box<dyn LlmClient>,
    opts: &HarnessOptions,
    label: &str,
) -> DriverOutcome {
    // What this harness invocation believes the job is. Fresh runs embed
    // it in every checkpoint; resumed runs are verified against it, so a
    // checkpoint from a different workload/llm/seed fails loudly instead
    // of silently continuing the wrong search.
    let expected = harness_job_spec(nada, opts);
    let mut driver = match &opts.resume {
        Some(path) => {
            let resumed = SearchDriver::resume_from_file(nada, path)
                .unwrap_or_else(|e| panic!("cannot resume from `{path}`: {e}"));
            assert_eq!(
                resumed.kind(),
                kind,
                "checkpoint `{path}` searches {} designs, this harness runs {}",
                resumed.kind().name(),
                kind.name()
            );
            if let Some(spec) = resumed.job_spec() {
                if let Some(diff) = spec.mismatch(&expected) {
                    panic!("checkpoint `{path}` belongs to a different job ({diff})");
                }
            }
            let resumed = resumed.with_rounds(opts.rounds);
            // Re-applying the flag tightens (or keeps) the allowance; a
            // run resumed without it keeps the checkpoint's budget.
            match opts.max_tokens_cost {
                Some(_) => resumed.with_budget(budget_for(opts)),
                None => resumed,
            }
        }
        None => SearchDriver::new(nada, kind)
            .with_rounds(opts.rounds)
            .with_budget(budget_for(opts))
            .with_job_spec(expected),
    };
    // `--resume` without `--checkpoint` keeps checkpointing to the file
    // it resumed from — a user protecting a long run clearly wants the
    // remaining rounds protected too.
    if let Some(path) = opts.checkpoint.as_ref().or(opts.resume.as_ref()) {
        driver = driver.with_checkpoint_path(path);
    }
    let tag = format!("{label}/{}", nada.workload().name());
    if opts.progress {
        driver.observe(ProgressObserver::new(tag.clone()));
    }
    if let Some(path) = &opts.log_json {
        driver.observe(jsonl_observer(path, &tag));
    }
    driver.observe(shared_metrics_observer());
    driver
        .run(make_llm)
        .unwrap_or_else(|e| panic!("multi-round search failed: {e}"))
}

/// Runs a state search for `(dataset, model)`.
pub fn search_states(kind: DatasetKind, model: Model, opts: &HarnessOptions) -> SearchOutcome {
    let nada = nada_for(kind, opts);
    let lane = format!("state/{}/{}", kind.name(), model.mock_name());
    let mut llm = llm_for(model, opts.seed ^ kind as u64 ^ 0x57A7, &lane, 0, opts);
    run_search(
        &nada,
        DesignKind::State,
        llm.as_mut(),
        opts,
        &format!("state/{}", kind.name()),
    )
}

/// Runs an architecture search for `(dataset, model)`.
pub fn search_archs(kind: DatasetKind, model: Model, opts: &HarnessOptions) -> SearchOutcome {
    let nada = nada_for(kind, opts);
    let lane = format!("arch/{}/{}", kind.name(), model.mock_name());
    let mut llm = llm_for(model, opts.seed ^ kind as u64 ^ 0xA4C4, &lane, 0, opts);
    run_search(
        &nada,
        DesignKind::Architecture,
        llm.as_mut(),
        opts,
        &format!("arch/{}", kind.name()),
    )
}

/// Generates `n` candidates of a kind from a model without evaluation
/// (Table 2 / ablation workloads). Prompts follow the harness's workload.
pub fn generate_pool(
    model: Model,
    kind: nada_llm::DesignKind,
    n: usize,
    seed: u64,
    opts: &HarnessOptions,
) -> Vec<nada_core::Candidate> {
    let workload = workload_for(DatasetKind::Fcc, opts);
    let lane = format!("pool/{}/{}", kind.name(), model.mock_name());
    let mut llm = llm_for(model, seed, &lane, 0, opts);
    let prompt = match kind {
        nada_llm::DesignKind::State => {
            nada_llm::Prompt::state_for(workload.task(), workload.seed_state_source())
        }
        nada_llm::DesignKind::Architecture => {
            nada_llm::Prompt::architecture_for(workload.task(), workload.seed_arch_source())
        }
    };
    llm.generate_batch(&prompt, n)
        .into_iter()
        .enumerate()
        .map(|(id, c)| nada_core::Candidate {
            id,
            kind,
            code: c.code,
            reasoning: c.reasoning,
        })
        .collect()
}
