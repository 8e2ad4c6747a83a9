//! The NADA orchestrator (paper Figure 1).
//!
//! End-to-end flow for one dataset:
//!
//! 1. **Generate** a candidate pool from an [`LlmClient`] (state or
//!    architecture code blocks);
//! 2. **Pre-check** every candidate (compilation + normalization, §2.2);
//! 3. **Probe**: fully train a small prefix of survivors to fit the
//!    early-stopping model (the paper trains its classifier on designs with
//!    known outcomes from earlier runs);
//! 4. **Early-stopped batch training**: every remaining survivor trains for
//!    the first `K` epochs; the Reward-Only 1D-CNN decides who continues;
//! 5. **Full evaluation**: the top designs get the complete §3.1 protocol
//!    (multiple seeded sessions, checkpoint smoothing, median);
//! 6. **Rank** and report against the original design.
//!
//! The staged search itself lives in [`crate::session::SearchSession`] —
//! [`Nada::run_state_search`] and [`Nada::run_arch_search`] are thin
//! wrappers that drive a fresh session to completion. [`Nada`] keeps the
//! per-design building blocks (generation, pre-checks, training protocols)
//! the stages are made of.
//!
//! Training runs fan out across CPU cores; results are deterministic
//! because every session derives its own seed and aggregation order is
//! fixed by candidate id.

use crate::candidate::{Candidate, CompiledDesign, RejectReason};
use crate::config::NadaConfig;
use crate::eval::evaluate_policy_emu;
use crate::prechecks::precheck;
use crate::score::{final_test_score, median, smoothed_score};
use crate::score_cache::{full_key, probe_key, CacheView};
use crate::session::SearchSession;
use crate::snapshot::config_fingerprint;
use crate::train::{train_design, DesignTrainer, TrainOutcome, TrainRunConfig};
use crate::workload::{AbrWorkload, Workload};
use nada_dsl::CompiledState;
use nada_llm::{DesignKind, LlmClient, Prompt};
use nada_nn::ArchConfig;
use nada_traces::dataset::TraceDataset;
use std::sync::Arc;

// The pipeline stages fan out through `nada-exec`'s process-wide worker
// pool (shared with the bench harnesses), so concurrent stages and nested
// fan-outs share cores (override the width with `NADA_WORKERS`).
pub use nada_exec::{pool_map, pool_map_indexed};

/// Table 2 row: pre-check pass counts for one candidate pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PrecheckStats {
    /// Candidates generated.
    pub total: usize,
    /// Candidates passing the compilation check.
    pub compilable: usize,
    /// Candidates passing both checks (equals `compilable` for
    /// architecture pools, where the normalization check does not apply).
    pub normalized: usize,
}

impl PrecheckStats {
    /// Records one pre-check verdict. The single source of truth for how
    /// verdicts map to Table 2 counters — `precheck_all` and the session's
    /// pool construction must agree, or a resumed session would reject its
    /// own snapshot's statistics.
    pub fn record(&mut self, result: &Result<CompiledDesign, RejectReason>) {
        match result {
            Ok(_) => {
                self.compilable += 1;
                self.normalized += 1;
            }
            Err(RejectReason::Unnormalized { .. }) | Err(RejectReason::FuzzEvalError(_)) => {
                self.compilable += 1;
            }
            Err(RejectReason::CompileError(_)) => {}
        }
    }

    /// Compilable percentage.
    pub fn compilable_pct(&self) -> f64 {
        100.0 * self.compilable as f64 / self.total.max(1) as f64
    }

    /// Both-checks percentage.
    pub fn normalized_pct(&self) -> f64 {
        100.0 * self.normalized as f64 / self.total.max(1) as f64
    }
}

/// A fully evaluated design.
#[derive(Debug, Clone)]
pub struct DesignResult {
    /// The candidate (None for the original seed design).
    pub candidate: Option<Candidate>,
    /// The design's code block.
    pub code: String,
    /// Per-seed training sessions.
    pub sessions: Vec<TrainOutcome>,
    /// §3.1 final test score.
    pub test_score: f64,
}

/// Early-stopping and spend bookkeeping for one search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Designs stopped at the early-phase boundary.
    pub early_stopped: usize,
    /// Designs trained to completion (probes + survivors).
    pub fully_trained: usize,
    /// Designs that errored mid-training.
    pub failed: usize,
    /// Work items (designs or finalist evaluations) skipped because the
    /// session's [`crate::budget::Budget`] ran out.
    pub skipped: usize,
    /// Total training epochs actually spent.
    pub epochs_spent: usize,
    /// Epochs avoided thanks to early stopping.
    pub epochs_saved: usize,
    /// Billed LLM tokens (prompt + completion) spent by generation, as
    /// reported by the backend's `usage` field. Zero for offline backends.
    pub llm_tokens_spent: u64,
}

/// Everything a search produces (feeds Tables 3–5 and Figures 3–4).
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Which component was searched.
    pub kind: DesignKind,
    /// Pre-check statistics (Table 2).
    pub precheck: PrecheckStats,
    /// The original design under the same protocol.
    pub original: DesignResult,
    /// The best generated design.
    pub best: DesignResult,
    /// Every finalist evaluated under the full §3.1 protocol, in
    /// screening-rank order (`best` is the highest-scoring of these, or
    /// the original when none evaluated).
    pub finalists: Vec<DesignResult>,
    /// Survivor scores from the screening phase `(candidate id, score)`,
    /// best first.
    pub ranked: Vec<(usize, f64)>,
    /// Early-stopping bookkeeping.
    pub stats: SearchStats,
}

impl SearchOutcome {
    /// Percent improvement of the best design over the original
    /// (sign-safe: improvements of negative baselines are still positive).
    pub fn improvement_pct(&self) -> f64 {
        improvement_pct(self.original.test_score, self.best.test_score)
    }
}

/// Percent improvement with the paper's convention.
pub fn improvement_pct(original: f64, new: f64) -> f64 {
    100.0 * (new - original) / original.abs().max(1e-9)
}

/// The NADA pipeline bound to one workload and one dataset.
pub struct Nada {
    cfg: NadaConfig,
    dataset: TraceDataset,
    workload: Box<dyn Workload>,
    score_cache: Option<Arc<CacheView>>,
}

impl Nada {
    /// Creates an ABR pipeline (the paper's case study), synthesizing the
    /// dataset for `cfg`.
    pub fn new(cfg: NadaConfig) -> Self {
        let workload = Box::new(AbrWorkload::for_dataset(cfg.dataset));
        Self::with_workload(cfg, workload)
    }

    /// Creates an ABR pipeline over externally provided traces. The
    /// workload (ladder, action space, reward scale) follows the *traces'*
    /// kind, which may differ from `cfg.dataset`'s registry slot.
    pub fn with_dataset(cfg: NadaConfig, dataset: TraceDataset) -> Self {
        let workload = Box::new(AbrWorkload::for_dataset(dataset.kind));
        Self::with_workload_and_dataset(cfg, workload, dataset)
    }

    /// Creates a pipeline for an arbitrary workload, synthesizing the
    /// dataset for `cfg`.
    pub fn with_workload(cfg: NadaConfig, workload: Box<dyn Workload>) -> Self {
        let dataset = TraceDataset::synthesize(cfg.dataset, cfg.dataset_scale(), cfg.seed);
        Self::with_workload_and_dataset(cfg, workload, dataset)
    }

    /// Creates a pipeline for an arbitrary workload over provided traces.
    pub fn with_workload_and_dataset(
        cfg: NadaConfig,
        workload: Box<dyn Workload>,
        dataset: TraceDataset,
    ) -> Self {
        // A hard assert, not a debug_assert: binding is purely positional,
        // so a schema/field divergence would train on silently scrambled
        // inputs — fail fast even (especially) in release harness runs.
        if let Some(mismatch) =
            crate::workload::schema_matches_fields(workload.schema(), workload.observation_fields())
        {
            panic!(
                "workload `{}`: schema must mirror its environment's declared fields: {mismatch}",
                workload.name()
            );
        }
        Self {
            cfg,
            dataset,
            workload,
            score_cache: None,
        }
    }

    /// Attaches a [`CacheView`] so deterministic evaluations (finalists,
    /// the original baseline, probes) are deduplicated through the shared
    /// [`crate::score_cache::ScoreCache`]. Cached results are replayed
    /// bit-identically; only the view's hit/miss counters observe the
    /// difference.
    pub fn with_score_cache(mut self, view: Arc<CacheView>) -> Self {
        self.score_cache = Some(view);
        self
    }

    /// The attached score-cache view, if any.
    pub fn score_cache(&self) -> Option<&Arc<CacheView>> {
        self.score_cache.as_ref()
    }

    /// The run configuration.
    pub fn config(&self) -> &NadaConfig {
        &self.cfg
    }

    /// The bound dataset.
    pub fn dataset(&self) -> &TraceDataset {
        &self.dataset
    }

    /// The bound workload.
    pub fn workload(&self) -> &dyn Workload {
        self.workload.as_ref()
    }

    /// The §2.1 prompt for a design kind, parameterized by the workload's
    /// task.
    pub fn prompt_for(&self, kind: DesignKind) -> Prompt {
        match kind {
            DesignKind::State => {
                Prompt::state_for(self.workload.task(), self.workload.seed_state_source())
            }
            DesignKind::Architecture => {
                Prompt::architecture_for(self.workload.task(), self.workload.seed_arch_source())
            }
        }
    }

    /// Asks the LLM for `n_candidates` designs of `kind` (§2.1 prompts,
    /// parameterized by the workload's task).
    pub fn generate_candidates(&self, llm: &mut dyn LlmClient, kind: DesignKind) -> Vec<Candidate> {
        let prompt = self.prompt_for(kind);
        llm.generate_batch(&prompt, self.cfg.n_candidates)
            .into_iter()
            .enumerate()
            .map(|(id, c)| Candidate {
                id,
                kind,
                code: c.code,
                reasoning: c.reasoning,
            })
            .collect()
    }

    /// Runs both pre-checks over every candidate **in parallel**, returning
    /// one verdict per candidate, input order preserved. Paper-scale pools
    /// are 3 000 designs, and the compile+fuzz checks are independent, so
    /// they fan out across cores like the training stages do — over
    /// borrowed candidates (the indexed map makes cloning the pool
    /// unnecessary).
    pub fn precheck_each(
        &self,
        candidates: &[Candidate],
    ) -> Vec<Result<CompiledDesign, RejectReason>> {
        pool_map_indexed(candidates.len(), |i| {
            precheck(&candidates[i], &self.cfg.fuzz, self.workload.schema())
        })
    }

    /// Runs both pre-checks over a pool, returning survivors and Table 2
    /// statistics.
    pub fn precheck_all(
        &self,
        candidates: &[Candidate],
    ) -> (Vec<(Candidate, CompiledDesign)>, PrecheckStats) {
        let mut stats = PrecheckStats {
            total: candidates.len(),
            compilable: 0,
            normalized: 0,
        };
        let mut accepted = Vec::new();
        for (cand, result) in candidates.iter().zip(self.precheck_each(candidates)) {
            stats.record(&result);
            if let Ok(design) = result {
                accepted.push((cand.clone(), design));
            }
        }
        (accepted, stats)
    }

    /// Trains one design with the full §3.1 protocol (`n_seeds` sessions in
    /// parallel) and returns the sessions plus the final test score.
    pub fn evaluate_design_full(
        &self,
        state: &CompiledState,
        arch: &ArchConfig,
    ) -> Result<(Vec<TrainOutcome>, f64), crate::train::TrainError> {
        let run_cfg = TrainRunConfig::from(&self.cfg);
        let seeds: Vec<u64> = (0..self.cfg.n_seeds)
            .map(|i| self.cfg.seed.wrapping_add(1000 + i as u64))
            .collect();
        let sessions: Result<Vec<TrainOutcome>, _> = pool_map(seeds, &|seed| {
            train_design(
                self.workload.as_ref(),
                state,
                arch,
                &self.dataset,
                &run_cfg,
                seed,
            )
        })
        .into_iter()
        .collect();
        let sessions = sessions?;
        let score = final_test_score(&sessions);
        Ok((sessions, score))
    }

    /// [`Nada::evaluate_design_full`] with score-cache dedup.
    ///
    /// `state_identity` is the design's source text — the state program for
    /// state candidates, the workload's seed state for architecture
    /// candidates — which together with the architecture's canonical
    /// `Debug` form and the config fingerprint uniquely determines the
    /// training result (the full protocol's seeds derive from the config
    /// alone). Without an attached cache this is exactly
    /// `evaluate_design_full`.
    pub fn evaluate_design_full_keyed(
        &self,
        state_identity: &str,
        state: &CompiledState,
        arch: &ArchConfig,
    ) -> Result<(Vec<TrainOutcome>, f64), crate::train::TrainError> {
        let Some(view) = &self.score_cache else {
            return self.evaluate_design_full(state, arch);
        };
        let key = full_key(
            config_fingerprint(self),
            state_identity,
            &format!("{arch:?}"),
        );
        if let Some(hit) = view.lookup_full(&key) {
            return Ok(hit);
        }
        let out = self.evaluate_design_full(state, arch)?;
        view.insert_full(key, out.clone());
        Ok(out)
    }

    /// One probe training run (`train_design`) with score-cache dedup.
    /// Probe seeds are candidate-dependent, so the seed joins the key; the
    /// run configuration derives deterministically from the config, which
    /// the fingerprint already covers. Errors are not cached (they are
    /// deterministic too, but rare enough not to be worth a tier).
    pub fn train_design_probe(
        &self,
        state_identity: &str,
        state: &CompiledState,
        arch: &ArchConfig,
        run_cfg: &TrainRunConfig,
        seed: u64,
    ) -> Result<TrainOutcome, crate::train::TrainError> {
        let train = || {
            train_design(
                self.workload.as_ref(),
                state,
                arch,
                &self.dataset,
                run_cfg,
                seed,
            )
        };
        let Some(view) = &self.score_cache else {
            return train();
        };
        let key = probe_key(
            config_fingerprint(self),
            state_identity,
            &format!("{arch:?}"),
            seed,
        );
        if let Some(hit) = view.lookup_probe(&key) {
            return Ok(hit);
        }
        let out = train()?;
        view.insert_probe(key, out.clone());
        Ok(out)
    }

    /// The workload's original (seed) design under the full protocol.
    pub fn train_original(&self) -> DesignResult {
        let state = self.workload.seed_state();
        let arch = self.workload.seed_arch();
        let (sessions, test_score) = self
            .evaluate_design_full_keyed(self.workload.seed_state_source(), &state, &arch)
            .expect("the seed design must train cleanly");
        DesignResult {
            candidate: None,
            code: self.workload.seed_state_source().to_string(),
            sessions,
            test_score,
        }
    }

    /// Full state search: generate → filter → early-stopped screening →
    /// full evaluation of the finalists (original architecture throughout).
    ///
    /// Thin wrapper over [`SearchSession`]; use the session directly for
    /// observation, budgets, or snapshot/resume.
    pub fn run_state_search(&self, llm: &mut dyn LlmClient) -> SearchOutcome {
        SearchSession::new(self, DesignKind::State)
            .run(llm)
            .expect("a fresh session runs every stage exactly once")
    }

    /// Full architecture search (original state throughout). Per §3.3 the
    /// normalization check does not apply to architecture pools.
    ///
    /// Thin wrapper over [`SearchSession`]; use the session directly for
    /// observation, budgets, or snapshot/resume.
    pub fn run_arch_search(&self, llm: &mut dyn LlmClient) -> SearchOutcome {
        SearchSession::new(self, DesignKind::Architecture)
            .run(llm)
            .expect("a fresh session runs every stage exactly once")
    }

    /// Table 5: cross-combine top states with top architectures, screen
    /// each pair with one session, and run the full protocol on the best.
    pub fn evaluate_combinations(
        &self,
        states: &[(usize, CompiledState)],
        archs: &[(usize, ArchConfig)],
    ) -> Option<(usize, usize, f64)> {
        let run_cfg = TrainRunConfig::from(&self.cfg);
        let pairs: Vec<(usize, usize, CompiledState, ArchConfig)> = states
            .iter()
            .flat_map(|(sid, s)| {
                archs
                    .iter()
                    .map(move |(aid, a)| (*sid, *aid, s.clone(), a.clone()))
            })
            .collect();
        let scored: Vec<Option<(usize, usize, f64)>> =
            pool_map(pairs, &|(sid, aid, state, arch)| {
                let out = train_design(
                    self.workload.as_ref(),
                    &state,
                    &arch,
                    &self.dataset,
                    &run_cfg,
                    self.cfg.seed.wrapping_add(9000 + (sid * 37 + aid) as u64),
                )
                .ok()?;
                Some((sid, aid, smoothed_score(&out.checkpoints)))
            });
        let (sid, aid, _) = scored
            .into_iter()
            .flatten()
            .max_by(|a, b| a.2.partial_cmp(&b.2).expect("finite scores"))?;
        // Full protocol on the winning pair.
        let state = states.iter().find(|(i, _)| *i == sid)?.1.clone();
        let arch = archs.iter().find(|(i, _)| *i == aid)?.1.clone();
        let (_, score) = self.evaluate_design_full(&state, &arch).ok()?;
        Some((sid, aid, score))
    }

    /// Table 4: trains a design in simulation (multi-seed) and evaluates
    /// the resulting policies in the HTTP/TCP emulator, returning the
    /// median emulation score.
    pub fn emulation_score(
        &self,
        state: &CompiledState,
        arch: &ArchConfig,
    ) -> Result<f64, crate::train::TrainError> {
        let run_cfg = TrainRunConfig::from(&self.cfg);
        let seeds: Vec<u64> = (0..self.cfg.n_seeds)
            .map(|i| self.cfg.seed.wrapping_add(1000 + i as u64))
            .collect();
        let scores: Result<Vec<f64>, _> = pool_map(seeds, &|seed| {
            let mut session = DesignTrainer::new(
                self.workload.as_ref(),
                state,
                arch,
                &self.dataset,
                run_cfg,
                seed,
            );
            session.run_until(run_cfg.train_epochs)?;
            let n_eval = run_cfg.eval_traces;
            let test = &self.dataset.test;
            evaluate_policy_emu(
                session.policy_mut(),
                state,
                self.workload.as_ref(),
                test,
                n_eval,
            )
        })
        .into_iter()
        .collect();
        Ok(median(&scores?))
    }

    /// Trains a design in simulation (multi-seed) and scores the
    /// resulting policies across the perturbation presets
    /// ([`nada_traces::PerturbConfig::presets`]), returning the
    /// per-seed-median [`crate::eval::StressScore`]: mean/worst are
    /// medians over seeds, per-preset entries are per-preset medians.
    pub fn stress_score(
        &self,
        state: &CompiledState,
        arch: &ArchConfig,
        variants: usize,
    ) -> Result<crate::eval::StressScore, crate::train::TrainError> {
        let run_cfg = TrainRunConfig::from(&self.cfg);
        let seeds: Vec<u64> = (0..self.cfg.n_seeds)
            .map(|i| self.cfg.seed.wrapping_add(2000 + i as u64))
            .collect();
        let stress_seed = self.cfg.seed ^ 0x57E5_5000_0000_0003;
        let per_seed: Result<Vec<crate::eval::StressScore>, _> = pool_map(seeds, &|seed| {
            let mut session = DesignTrainer::new(
                self.workload.as_ref(),
                state,
                arch,
                &self.dataset,
                run_cfg,
                seed,
            );
            session.run_until(run_cfg.train_epochs)?;
            crate::eval::evaluate_policy_stressed(
                session.policy_mut(),
                state,
                self.workload.as_ref(),
                &self.dataset.test,
                run_cfg.eval_traces,
                variants,
                stress_seed,
            )
        })
        .into_iter()
        .collect();
        let per_seed = per_seed?;
        let means: Vec<f64> = per_seed.iter().map(|s| s.mean).collect();
        let worsts: Vec<f64> = per_seed.iter().map(|s| s.worst).collect();
        let presets = &per_seed[0].per_preset;
        let per_preset = presets
            .iter()
            .enumerate()
            .map(|(i, (name, _))| {
                let xs: Vec<f64> = per_seed.iter().map(|s| s.per_preset[i].1).collect();
                (*name, median(&xs))
            })
            .collect();
        Ok(crate::eval::StressScore {
            mean: median(&means),
            worst: median(&worsts),
            per_preset,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunScale;
    use nada_llm::MockLlm;
    use nada_traces::dataset::DatasetKind;

    fn tiny_nada(seed: u64) -> Nada {
        Nada::new(NadaConfig::new(DatasetKind::Fcc, RunScale::Tiny, seed))
    }

    #[test]
    fn precheck_all_matches_manual_counts() {
        let nada = tiny_nada(1);
        let mut llm = MockLlm::gpt35(1);
        let candidates = nada.generate_candidates(&mut llm, DesignKind::State);
        assert_eq!(candidates.len(), nada.config().n_candidates);
        let (accepted, stats) = nada.precheck_all(&candidates);
        assert_eq!(stats.total, candidates.len());
        assert!(stats.compilable >= stats.normalized);
        assert_eq!(accepted.len(), stats.normalized);
    }

    #[test]
    fn original_design_trains_under_full_protocol() {
        let nada = tiny_nada(2);
        let original = nada.train_original();
        assert_eq!(original.sessions.len(), nada.config().n_seeds);
        assert!(original.test_score.is_finite());
    }

    #[test]
    fn state_search_completes_and_ranks() {
        let nada = tiny_nada(3);
        let mut llm = MockLlm::perfect(3);
        let outcome = nada.run_state_search(&mut llm);
        assert_eq!(outcome.kind, DesignKind::State);
        assert_eq!(outcome.precheck.total, nada.config().n_candidates);
        assert!(!outcome.ranked.is_empty());
        assert!(outcome.best.test_score.is_finite());
        assert!(outcome.stats.fully_trained > 0);
    }

    #[test]
    fn arch_search_completes() {
        let nada = tiny_nada(4);
        let mut llm = MockLlm::perfect(4);
        let outcome = nada.run_arch_search(&mut llm);
        assert_eq!(outcome.kind, DesignKind::Architecture);
        // Architecture pools skip the normalization check, so both counts
        // match.
        assert_eq!(outcome.precheck.compilable, outcome.precheck.normalized);
        assert!(outcome.best.test_score.is_finite());
    }

    #[test]
    fn improvement_pct_is_sign_safe() {
        assert!((improvement_pct(0.308, 0.472) - 53.2467).abs() < 0.01);
        // Negative baseline (Table 4 Starlink): improvement is positive.
        assert!(improvement_pct(-0.0482, 0.0899) > 0.0);
    }

    #[test]
    fn combinations_pick_a_pair() {
        let nada = tiny_nada(5);
        let state = nada_dsl::seeds::pensieve_state();
        let arch = nada_dsl::seeds::pensieve_arch();
        let result = nada.evaluate_combinations(&[(0, state.clone()), (1, state)], &[(0, arch)]);
        let (sid, aid, score) = result.expect("a pair must win");
        assert!(sid < 2 && aid == 0);
        assert!(score.is_finite());
    }

    fn tiny_cc_nada(seed: u64) -> Nada {
        let cfg = NadaConfig::new(DatasetKind::Fcc, RunScale::Tiny, seed);
        Nada::with_workload(
            cfg,
            Box::new(crate::workload::CcWorkload::for_dataset(DatasetKind::Fcc)),
        )
    }

    #[test]
    fn cc_state_search_completes_through_the_same_pipeline() {
        let nada = tiny_cc_nada(6);
        assert_eq!(nada.workload().name(), "cc");
        let mut llm = MockLlm::perfect(6);
        let outcome = nada.run_state_search(&mut llm);
        assert_eq!(outcome.kind, DesignKind::State);
        assert_eq!(outcome.precheck.total, nada.config().n_candidates);
        assert!(!outcome.ranked.is_empty());
        assert!(outcome.original.test_score.is_finite());
        assert!(outcome.best.test_score.is_finite());
        assert!(outcome.stats.fully_trained > 0);
        // The winning design must be a CC program, not an ABR one.
        assert!(outcome.best.code.contains("cwnd") || outcome.best.code.contains("rtt"));
    }

    #[test]
    fn cc_search_is_deterministic_per_seed() {
        let run = || {
            let nada = tiny_cc_nada(7);
            let mut llm = MockLlm::gpt4(7);
            let o = nada.run_state_search(&mut llm);
            (o.ranked.clone(), o.best.test_score)
        };
        assert_eq!(run(), run());
    }
}
