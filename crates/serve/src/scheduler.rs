//! The fair round-robin job scheduler.
//!
//! Jobs sit in a ready queue; each scheduler *lane* (thread) pops the
//! front job, runs **one** feedback round, re-spools the checkpoint, and
//! pushes the job to the back. One round per turn is what makes the
//! multiplexing fair — a 10-round job cannot starve a 1-round job — and
//! what makes the daemon crash-safe: every unit of work ends at a round
//! boundary, which is exactly what [`DriverCheckpoint`] captures.
//!
//! Each turn builds a fresh [`SearchDriver`] by *resuming from the job's
//! latest checkpoint* — the same code path a post-crash restart takes, so
//! the recovery path is exercised on every single round, not just in
//! disaster drills. Determinism falls out of the round-seeded LLM factory
//! plus the driver's bit-exact checkpoint round-trips; the shared
//! [`ScoreCache`] only short-circuits evaluations whose results are pure
//! functions of their key, so warm-cache runs stay bit-identical to cold
//! ones.
//!
//! Lane count comes from [`nada_exec::scheduler_lanes`]: `NADA_WORKERS=0`
//! or `1` degrades to a single lane (fully sequential, like `pool_map`).

use nada_core::driver::SearchDriver;
use nada_core::feedback::{DriverCheckpoint, RoundSummary};
use nada_core::jobspec::JobSpec;
use nada_core::llm_registry::{LlmRegistry, LlmRequest, LlmSpec};
use nada_core::metrics::MetricsObserver;
use nada_core::pipeline::Nada;
use nada_core::registry::WorkloadRegistry;
use nada_core::score_cache::{CacheView, ScoreCache};
use nada_core::{NadaConfig, RunScale};
use nada_llm::DesignKind;
use nada_traces::dataset::DatasetKind;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::proto::{JobResult, JobStatus};
use crate::spool::Spool;

/// The one [`MetricsObserver`] every scheduler turn attaches: rounds run
/// in the daemon land in the same `pipeline_*` metrics a local harness
/// records, and sharing one instance keeps per-call-site registration
/// off the round hot path. Observational only — attaching it never
/// changes a job's result bits (pinned by the daemon e2e tests).
fn shared_metrics_observer() -> Arc<MetricsObserver> {
    static OBSERVER: OnceLock<Arc<MetricsObserver>> = OnceLock::new();
    OBSERVER
        .get_or_init(|| Arc::new(MetricsObserver::new()))
        .clone()
}

/// Scheduler-level telemetry handles, resolved once.
struct SchedMetrics {
    submitted: Arc<nada_obs::Counter>,
    turns: Arc<nada_obs::Counter>,
    round_duration: Arc<nada_obs::Histogram>,
}

fn sched_metrics() -> &'static SchedMetrics {
    static METRICS: OnceLock<SchedMetrics> = OnceLock::new();
    METRICS.get_or_init(|| SchedMetrics {
        submitted: nada_obs::counter("serve_jobs_submitted_total"),
        turns: nada_obs::counter("serve_turns_total"),
        round_duration: nada_obs::latency_histogram("serve_round_duration_ns"),
    })
}

/// Per-round seed mix for a job's LLM: the same splitmix-style constant
/// the bench harnesses use, plus a serve-specific tweak so daemon jobs
/// never alias a local harness run on the same master seed.
pub fn job_round_seed(spec: &JobSpec, round: usize) -> u64 {
    spec.seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5E27E
}

/// Where one job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobState {
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Terminal states never change again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

struct Job {
    spec: JobSpec,
    /// The job's pipeline; `None` once the job can never run again
    /// (recovered as done/failed — no point synthesizing its dataset).
    nada: Option<Arc<Nada>>,
    view: Arc<CacheView>,
    state: JobState,
    cancel_requested: bool,
    checkpoint: Option<DriverCheckpoint>,
    result: Option<Arc<JobResult>>,
    error: Option<String>,
}

#[derive(Default)]
struct SchedState {
    jobs: HashMap<u64, Job>,
    ready: VecDeque<u64>,
    next_id: u64,
}

struct Inner {
    spool: Spool,
    cache: Arc<ScoreCache>,
    /// Workloads this scheduler can build jobs for. Defaults to
    /// [`WorkloadRegistry::builtin`]; daemons may register their own.
    registry: Arc<WorkloadRegistry>,
    state: Mutex<SchedState>,
    /// Woken on new work *and* on any job state change.
    cv: Condvar,
    /// Drain: lanes finish (and checkpoint) their current round, then exit.
    draining: AtomicBool,
    /// Crash simulation: lanes discard their in-flight round *without*
    /// spooling it and exit immediately — the observable effect of
    /// `kill -9` between a round's completion and its checkpoint write.
    halted: AtomicBool,
}

/// A multi-tenant search scheduler over one spool directory.
pub struct Scheduler {
    inner: Arc<Inner>,
    lanes: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Opens `spool`, recovers every job found there (finished jobs load
    /// as done; unfinished ones re-enqueue from their last checkpoint),
    /// and starts `lanes` worker lanes. `lanes == 0` starts no lanes —
    /// jobs queue but nothing executes (used by latency benches and
    /// tests that drive turns manually via restart).
    ///
    /// Jobs can name any workload in [`WorkloadRegistry::builtin`]; use
    /// [`Scheduler::with_registry`] to serve custom-registered workloads.
    pub fn new(spool: Spool, lanes: usize) -> io::Result<Self> {
        Self::with_registry(spool, lanes, Arc::new(WorkloadRegistry::builtin()))
    }

    /// Like [`Scheduler::new`], but jobs (including those recovered from
    /// the spool) are built against the caller's `registry` instead of
    /// the builtin one, so custom-registered workloads are reachable
    /// over the wire.
    pub fn with_registry(
        spool: Spool,
        lanes: usize,
        registry: Arc<WorkloadRegistry>,
    ) -> io::Result<Self> {
        let cache = Arc::new(ScoreCache::new());
        let mut state = SchedState::default();
        for job in spool.scan()? {
            let view = Arc::new(CacheView::new(cache.clone()));
            let (jstate, result, error, nada) = match job.result {
                Some(result) => (JobState::Done, Some(Arc::new(result)), None, None),
                None => match build_nada_with(&registry, &job.spec, view.clone()) {
                    Ok(nada) => (JobState::Queued, None, None, Some(Arc::new(nada))),
                    Err(e) => (JobState::Failed, None, Some(e), None),
                },
            };
            // A checkpoint written by a different job spec means the spool
            // was tampered with or mixed up — fail that job loudly.
            let (jstate, error) = match &job.checkpoint {
                Some(ckpt) if jstate == JobState::Queued => match ckpt.verify_spec(&job.spec) {
                    Ok(()) => (jstate, error),
                    Err(e) => (JobState::Failed, Some(e)),
                },
                _ => (jstate, error),
            };
            if jstate == JobState::Queued {
                state.ready.push_back(job.id);
            }
            state.jobs.insert(
                job.id,
                Job {
                    spec: job.spec,
                    nada,
                    view,
                    state: jstate,
                    cancel_requested: false,
                    checkpoint: job.checkpoint,
                    result,
                    error,
                },
            );
        }
        state.next_id = state.jobs.keys().max().copied().unwrap_or(0) + 1;
        let inner = Arc::new(Inner {
            spool,
            cache,
            registry,
            state: Mutex::new(state),
            cv: Condvar::new(),
            draining: AtomicBool::new(false),
            halted: AtomicBool::new(false),
        });
        let scheduler = Self {
            inner: inner.clone(),
            lanes: Mutex::new(Vec::new()),
        };
        let mut handles = scheduler.lanes.lock().unwrap();
        for lane in 0..lanes {
            let inner = inner.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("nada-serve-lane-{lane}"))
                    .spawn(move || lane_loop(&inner, lane))
                    .expect("spawn scheduler lane"),
            );
        }
        drop(handles);
        Ok(scheduler)
    }

    /// The shared score cache (mostly for tests and metrics).
    pub fn cache(&self) -> &Arc<ScoreCache> {
        &self.inner.cache
    }

    /// Validates and enqueues a job, returning its id. The spec is
    /// spooled before the job becomes visible to any lane, so a crash
    /// right after the response can still recover the job.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, String> {
        if spec.rounds == 0 {
            return Err("a job needs at least one round".to_string());
        }
        if !LlmRegistry::shared()
            .names()
            .iter()
            .any(|n| *n == spec.llm_backend)
        {
            return Err(format!("unknown llm backend `{}`", spec.llm_backend));
        }
        let view = Arc::new(CacheView::new(self.inner.cache.clone()));
        let nada = Arc::new(build_nada_with(&self.inner.registry, &spec, view.clone())?);
        let mut state = self.inner.state.lock().unwrap();
        let id = state.next_id;
        state.next_id += 1;
        self.inner
            .spool
            .write_spec(id, &spec)
            .map_err(|e| format!("spool write failed: {e}"))?;
        state.jobs.insert(
            id,
            Job {
                spec,
                nada: Some(nada),
                view,
                state: JobState::Queued,
                cancel_requested: false,
                checkpoint: None,
                result: None,
                error: None,
            },
        );
        state.ready.push_back(id);
        drop(state);
        sched_metrics().submitted.inc();
        self.inner.cv.notify_all();
        Ok(id)
    }

    /// Current status of one job.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        let state = self.inner.state.lock().unwrap();
        state.jobs.get(&id).map(|job| job_status(id, job))
    }

    /// The finished result of one job, if it is done.
    pub fn result(&self, id: u64) -> Option<Arc<JobResult>> {
        let state = self.inner.state.lock().unwrap();
        state.jobs.get(&id).and_then(|job| job.result.clone())
    }

    /// Status plus the per-round summaries completed so far (from the
    /// live checkpoint while running, from the result once done) — what
    /// a `Subscribe` stream replays and extends. `None` for unknown ids.
    pub fn progress(&self, id: u64) -> Option<(JobStatus, Vec<RoundSummary>)> {
        let state = self.inner.state.lock().unwrap();
        state.jobs.get(&id).map(|job| job_progress(id, job))
    }

    /// Blocks until job `id` has more than `seen` completed rounds, is
    /// terminal, or `timeout` passes — then returns its progress. The
    /// scheduler's condvar fires on every round boundary, so subscribers
    /// ride state changes instead of polling. `None` for unknown ids.
    pub fn wait_progress(
        &self,
        id: u64,
        seen: usize,
        timeout: Duration,
    ) -> Option<(JobStatus, Vec<RoundSummary>)> {
        let deadline = Instant::now() + timeout;
        let mut state = self.inner.state.lock().unwrap();
        loop {
            let job = state.jobs.get(&id)?;
            let (status, summaries) = job_progress(id, job);
            if summaries.len() > seen || job.state.is_terminal() {
                return Some((status, summaries));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Some((status, summaries));
            }
            let (guard, _) = self.inner.cv.wait_timeout(state, left).unwrap();
            state = guard;
        }
    }

    /// How many jobs are in each lifecycle state:
    /// `(queued, running, done, failed, cancelled)`.
    pub fn job_counts(&self) -> (usize, usize, usize, usize, usize) {
        let state = self.inner.state.lock().unwrap();
        let mut counts = (0, 0, 0, 0, 0);
        for job in state.jobs.values() {
            match job.state {
                JobState::Queued => counts.0 += 1,
                JobState::Running => counts.1 += 1,
                JobState::Done => counts.2 += 1,
                JobState::Failed => counts.3 += 1,
                JobState::Cancelled => counts.4 += 1,
            }
        }
        counts
    }

    /// Requests cancellation. Queued jobs cancel immediately; running
    /// jobs cancel at their current round boundary. Errors for unknown or
    /// already-terminal jobs.
    pub fn cancel(&self, id: u64) -> Result<(), String> {
        let mut state = self.inner.state.lock().unwrap();
        let job = state
            .jobs
            .get_mut(&id)
            .ok_or_else(|| format!("no such job {id}"))?;
        match job.state {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                job.cancel_requested = true;
                job.nada = None;
                let _ = self.inner.spool.remove_job(id);
                state.ready.retain(|&q| q != id);
                drop(state);
                self.inner.cv.notify_all();
                Ok(())
            }
            JobState::Running => {
                job.cancel_requested = true;
                Ok(())
            }
            terminal => Err(format!("job {id} is already {}", terminal.name())),
        }
    }

    /// Blocks until `id` reaches a terminal state (or `timeout` passes),
    /// returning its final status.
    pub fn wait_terminal(&self, id: u64, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        let mut state = self.inner.state.lock().unwrap();
        loop {
            match state.jobs.get(&id) {
                None => return None,
                Some(job) if job.state.is_terminal() => return Some(job_status(id, job)),
                Some(_) => {}
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return state.jobs.get(&id).map(|job| job_status(id, job));
            }
            let (guard, _) = self.inner.cv.wait_timeout(state, left).unwrap();
            state = guard;
        }
    }

    /// Graceful drain: lanes finish (and spool) the round they are on,
    /// then exit; queued jobs stay checkpointed on disk for the next
    /// process. Blocks until every lane has exited.
    pub fn shutdown(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.cv.notify_all();
        self.join_lanes();
    }

    /// Crash simulation for tests: lanes abandon their in-flight round
    /// without spooling it and exit. The spool is left exactly as a
    /// `kill -9` would leave it; a new [`Scheduler`] on the same spool
    /// must finish every job bit-identically.
    pub fn simulate_crash(&self) {
        self.inner.halted.store(true, Ordering::SeqCst);
        self.inner.cv.notify_all();
        self.join_lanes();
    }

    fn join_lanes(&self) {
        let handles: Vec<_> = self.lanes.lock().unwrap().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn job_status(id: u64, job: &Job) -> JobStatus {
    let (next_round, best_so_far) = match (&job.checkpoint, &job.result) {
        (Some(ckpt), _) => (
            ckpt.next_round,
            ckpt.summaries.last().map(|s| s.best_so_far),
        ),
        // Recovered finished jobs have a result but no checkpoint (the
        // spool drops it once the result lands).
        (None, Some(result)) => (
            result.rounds.len(),
            result.rounds.last().map(|s| s.best_so_far),
        ),
        (None, None) => (0, None),
    };
    // Jobs recovered from the spool as done get a fresh (empty) cache
    // view, but the persisted result still holds the real counters —
    // prefer those whenever a result exists.
    let (cache_hits, cache_misses) = match &job.result {
        Some(result) => (result.cache_hits, result.cache_misses),
        None => (job.view.hits(), job.view.misses()),
    };
    JobStatus {
        id,
        state: job.state.name().to_string(),
        error: job.error.clone(),
        next_round,
        rounds: job.spec.rounds,
        cache_hits,
        cache_misses,
        best_so_far,
    }
}

/// Status plus the completed-round summaries backing it: the live
/// checkpoint's while the job is in flight, the result's once done.
fn job_progress(id: u64, job: &Job) -> (JobStatus, Vec<RoundSummary>) {
    let summaries = match (&job.checkpoint, &job.result) {
        (Some(ckpt), _) => ckpt.summaries.clone(),
        (None, Some(result)) => result.rounds.clone(),
        (None, None) => Vec::new(),
    };
    (job_status(id, job), summaries)
}

/// Builds the pipeline a job spec describes against the builtin
/// workload registry, with its cache view attached. Public so tests
/// and benches can construct the exact pipeline a default daemon job
/// would run outside the daemon.
pub fn build_nada(spec: &JobSpec, view: Arc<CacheView>) -> Result<Nada, String> {
    build_nada_with(&WorkloadRegistry::builtin(), spec, view)
}

/// [`build_nada`] against a caller-supplied workload registry — the
/// form every scheduler path (submit and spool recovery) actually uses.
pub fn build_nada_with(
    registry: &WorkloadRegistry,
    spec: &JobSpec,
    view: Arc<CacheView>,
) -> Result<Nada, String> {
    let dataset = DatasetKind::from_name(&spec.dataset)
        .ok_or_else(|| format!("unknown dataset `{}`", spec.dataset))?;
    let scale = RunScale::from_name(&spec.scale)
        .ok_or_else(|| format!("unknown scale `{}`", spec.scale))?;
    let workload = registry
        .build(&spec.workload, dataset)
        .ok_or_else(|| format!("unknown workload `{}`", spec.workload))?;
    Ok(
        Nada::with_workload(NadaConfig::new(dataset, scale, spec.seed), workload)
            .with_score_cache(view),
    )
}

/// One completed scheduler turn.
struct RoundStep {
    checkpoint: DriverCheckpoint,
    finished: bool,
}

/// Runs exactly one round of `spec`'s job, resuming from `ckpt` (or
/// starting fresh), and reports the new round boundary.
fn run_one_round(
    spec: &JobSpec,
    nada: &Nada,
    ckpt: Option<DriverCheckpoint>,
) -> Result<RoundStep, String> {
    let mut driver = match ckpt {
        Some(ckpt) => {
            ckpt.verify_spec(spec)?;
            SearchDriver::resume(nada, ckpt).map_err(|e| e.to_string())?
        }
        None => SearchDriver::new(nada, DesignKind::State)
            .with_rounds(spec.rounds)
            .with_budget(spec.budget)
            .with_job_spec(spec.clone()),
    };
    // Observational only: the metrics observer never changes result bits.
    driver.observe(shared_metrics_observer());
    if !step_finished(&driver, spec) {
        let round = driver.next_round();
        let llm_spec = LlmSpec {
            backend: spec.llm_backend.clone(),
            model: spec.llm_model.clone(),
            cassette: None,
            record: false,
            seed: job_round_seed(spec, round),
        };
        let lane = format!("serve/{}/{}", spec.workload, spec.dataset);
        // The shared registry gives every lane the same pooled HTTP
        // factories, so concurrent lanes reuse one connection pool and
        // one rate governor instead of building private clients.
        let mut llm = LlmRegistry::shared()
            .build(
                &llm_spec.backend,
                &LlmRequest {
                    spec: &llm_spec,
                    lane: &lane,
                    round,
                },
            )
            .map_err(|e| e.to_string())?;
        driver.run_round(llm.as_mut()).map_err(|e| e.to_string())?;
    }
    let finished = step_finished(&driver, spec);
    Ok(RoundStep {
        checkpoint: driver.checkpoint(),
        finished,
    })
}

/// The driver's own stop rule: all rounds run, or the cumulative epoch
/// allowance is spent after round 0.
fn step_finished(driver: &SearchDriver<'_>, spec: &JobSpec) -> bool {
    driver.next_round() >= driver.rounds()
        || (driver.next_round() > 0 && spec.budget.epochs_exhausted(driver.stats().epochs_spent))
}

fn lane_loop(inner: &Inner, lane: usize) {
    let lane_turns = nada_obs::counter(&format!("serve_lane_{lane}_turns_total"));
    let mut state = inner.state.lock().unwrap();
    loop {
        if inner.draining.load(Ordering::SeqCst) || inner.halted.load(Ordering::SeqCst) {
            return;
        }
        let Some(id) = state.ready.pop_front() else {
            let (guard, _) = inner
                .cv
                .wait_timeout(state, Duration::from_millis(100))
                .unwrap();
            state = guard;
            continue;
        };
        let (spec, nada, ckpt) = {
            let job = state.jobs.get_mut(&id).expect("queued job exists");
            if job.state != JobState::Queued {
                // Cancelled while queued (defensive; cancel also purges
                // the ready queue).
                continue;
            }
            job.state = JobState::Running;
            (
                job.spec.clone(),
                job.nada.clone().expect("queued jobs have a pipeline"),
                job.checkpoint.clone(),
            )
        };
        drop(state);

        let metrics = sched_metrics();
        metrics.turns.inc();
        lane_turns.inc();
        let step = {
            let _span = metrics.round_duration.start_span();
            catch_unwind(AssertUnwindSafe(|| run_one_round(&spec, &nada, ckpt)))
        };

        state = inner.state.lock().unwrap();
        if inner.halted.load(Ordering::SeqCst) {
            // Simulated kill -9: the round's work is discarded, nothing
            // is spooled, and recovery must redo it from the last
            // checkpoint on disk.
            return;
        }
        let job = state.jobs.get_mut(&id).expect("running job exists");
        match step {
            Err(panic) => {
                job.state = JobState::Failed;
                job.error = Some(panic_message(panic));
            }
            Ok(Err(msg)) => {
                job.state = JobState::Failed;
                job.error = Some(msg);
            }
            Ok(Ok(_)) if job.cancel_requested => {
                job.state = JobState::Cancelled;
                let _ = inner.spool.remove_job(id);
            }
            Ok(Ok(step)) => {
                if let Err(e) = inner.spool.write_checkpoint(id, &step.checkpoint) {
                    job.state = JobState::Failed;
                    job.error = Some(format!("spool write failed: {e}"));
                } else if step.finished {
                    let result = JobResult {
                        spec: job.spec.clone(),
                        rounds: step.checkpoint.summaries.clone(),
                        hall: step.checkpoint.hall.clone(),
                        stats: step.checkpoint.stats,
                        cache_hits: job.view.hits(),
                        cache_misses: job.view.misses(),
                    };
                    match inner.spool.write_result(id, &result) {
                        Ok(()) => {
                            // The result carries the final checkpoint's
                            // summaries and hall: keep only it, as a job
                            // recovered from the spool does.
                            job.checkpoint = None;
                            job.result = Some(Arc::new(result));
                            job.state = JobState::Done;
                        }
                        Err(e) => {
                            job.state = JobState::Failed;
                            job.error = Some(format!("spool write failed: {e}"));
                        }
                    }
                } else {
                    job.checkpoint = Some(step.checkpoint);
                    job.state = JobState::Queued;
                    state.ready.push_back(id);
                }
            }
        }
        let job = state.jobs.get_mut(&id).expect("running job exists");
        if job.state.is_terminal() {
            // Never runs again: free its pipeline and dataset.
            job.nada = None;
        }
        inner.cv.notify_all();
    }
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("job panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("job panicked: {s}")
    } else {
        "job panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job_fields(sched: &Scheduler, id: u64) -> (bool, bool) {
        let state = sched.inner.state.lock().unwrap();
        let job = &state.jobs[&id];
        (job.nada.is_some(), job.checkpoint.is_some())
    }

    #[test]
    fn terminal_jobs_keep_only_what_recovery_would_load() {
        let root =
            std::env::temp_dir().join(format!("nada-serve-unit-terminal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let spool = Spool::open(root.clone()).unwrap();

        let sched = Scheduler::new(spool.clone(), 1).unwrap();
        let mut spec = JobSpec::new("abr", "FCC", 5);
        spec.rounds = 2;
        let done = sched.submit(spec).unwrap();
        let status = sched.wait_terminal(done, Duration::from_secs(300)).unwrap();
        assert_eq!(status.state, "done", "{:?}", status.error);
        assert_eq!(job_fields(&sched, done), (false, false));
        let live = (sched.status(done), sched.progress(done));
        sched.shutdown();

        // A job cancelled while queued never runs again either.
        let idle = Scheduler::new(spool.clone(), 0).unwrap();
        let cancelled = idle.submit(JobSpec::new("cc", "FCC", 6)).unwrap();
        assert_eq!(job_fields(&idle, cancelled), (true, false));
        idle.cancel(cancelled).unwrap();
        assert_eq!(job_fields(&idle, cancelled), (false, false));
        idle.shutdown();

        // The done job, recovered from the spool, reads the same.
        let recovered = Scheduler::new(spool, 0).unwrap();
        assert_eq!(job_fields(&recovered, done), (false, false));
        assert_eq!((recovered.status(done), recovered.progress(done)), live);
        assert_eq!(live.1.unwrap().1.len(), 2);
        recovered.shutdown();
        let _ = std::fs::remove_dir_all(root);
    }
}
