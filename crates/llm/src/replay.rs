//! Record/replay clients.
//!
//! A [`RecordingClient`] wraps any [`LlmClient`] and captures its
//! completions — prompt-fingerprinted — into a [`Cassette`]; a
//! [`ReplayClient`] plays a cassette back. This keeps the
//! expensive/generative part swappable: a cassette recorded against a
//! hosted GPT endpoint drives the whole pipeline deterministically
//! offline, and the fingerprints guarantee the replayed completions
//! answer the *same prompts* the original run asked.

use crate::cassette::{prompt_fingerprint, Cassette, CassetteEntry, CassetteError};
use crate::client::{Completion, LlmClient};
use crate::prompt::Prompt;
use std::path::{Path, PathBuf};

/// Replays one `(lane, round)` slice of a cassette
/// ([`ReplayClient::from_cassette`] / [`ReplayClient::from_file`]),
/// sequentially and *verified*: every [`generate`](LlmClient::generate)
/// checks the recorded prompt fingerprint against the live prompt and
/// panics with a diagnostic on mismatch or exhaustion, so a cassette
/// recorded for a different workload/seed/round can never silently feed
/// wrong completions into a search.
#[derive(Debug, Clone)]
pub struct ReplayClient {
    name: String,
    /// `(expected fingerprint, completion)`.
    entries: Vec<(u64, Completion)>,
    cursor: usize,
    /// Which cassette slice this client plays, for diagnostics.
    lane: String,
    round: u64,
}

impl ReplayClient {
    /// Creates a verified replay of one `(lane, round)` slice of a
    /// cassette. Errors when the cassette holds no entries for that slice
    /// (naming the slices it *does* hold).
    pub fn from_cassette(
        cassette: &Cassette,
        lane: &str,
        round: u64,
    ) -> Result<Self, CassetteError> {
        let entries: Vec<(u64, Completion)> = cassette
            .entries
            .iter()
            .filter(|e| e.lane == lane && e.round == round)
            .map(|e| {
                (
                    e.fingerprint,
                    Completion {
                        code: e.code.clone(),
                        reasoning: e.reasoning.clone(),
                    },
                )
            })
            .collect();
        if entries.is_empty() {
            let lanes = cassette
                .lanes()
                .into_iter()
                .map(|(l, r)| format!("`{l}` round {r}"))
                .collect::<Vec<_>>()
                .join(", ");
            return Err(CassetteError(format!(
                "no entries for lane `{lane}` round {round} (cassette holds: {})",
                if lanes.is_empty() { "nothing" } else { &lanes }
            )));
        }
        // Per-entry provenance: merged cassettes interleave models, so
        // the slice's own recorder — not the file-level label — names
        // the replayed model.
        let name = cassette
            .entries
            .iter()
            .find(|e| e.lane == lane && e.round == round)
            .map(|e| e.model.clone())
            .unwrap_or_else(|| cassette.model.clone());
        Ok(Self {
            name,
            entries,
            cursor: 0,
            lane: lane.to_string(),
            round,
        })
    }

    /// Loads a cassette file (through the process-wide parsed cache —
    /// harnesses build many clients from one file) and replays one
    /// `(lane, round)` slice.
    pub fn from_file(
        path: impl AsRef<Path>,
        lane: &str,
        round: u64,
    ) -> Result<Self, CassetteError> {
        let cassette = Cassette::load_cached(path)?;
        Self::from_cassette(cassette.as_ref(), lane, round)
    }

    /// Completions remaining before this replay is exhausted.
    pub fn remaining(&self) -> usize {
        self.entries.len().saturating_sub(self.cursor)
    }
}

impl LlmClient for ReplayClient {
    fn model_name(&self) -> &str {
        &self.name
    }

    fn generate(&mut self, prompt: &Prompt) -> Completion {
        assert!(
            self.cursor < self.entries.len(),
            "cassette exhausted: lane `{}` round {} holds {} completions but a {}th \
             was requested — was the cassette recorded at a smaller scale or with a \
             tighter budget?",
            self.lane,
            self.round,
            self.entries.len(),
            self.cursor + 1,
        );
        let (expected, completion) = &self.entries[self.cursor];
        let live = prompt_fingerprint(prompt);
        assert!(
            *expected == live,
            "cassette prompt mismatch at lane `{}` round {} entry {}: recorded \
             fingerprint {expected:#x}, live prompt is {live:#x} — the cassette was \
             recorded against a different workload, seed code, prompt options or \
             feedback context than this search is running",
            self.lane,
            self.round,
            self.cursor,
        );
        self.cursor += 1;
        completion.clone()
    }
}

/// Wraps a client and records everything it generates into a [`Cassette`],
/// optionally persisting to disk.
///
/// Entries are tagged with a `(lane, round)` ([`RecordingClient::with_lane`])
/// so one cassette file can carry every search of a harness run.
/// [`RecordingClient::persist_to`] enables **merge-on-flush** persistence:
/// every flush re-reads the file and appends only this recorder's
/// not-yet-written entries, so several recorders with overlapping
/// lifetimes (a harness keeps one search's client alive while building
/// another's) never clobber each other's recordings. Flushing also runs
/// on drop, so a recording survives even when the surrounding search
/// panics.
#[derive(Debug)]
pub struct RecordingClient<C: LlmClient> {
    inner: C,
    model: String,
    /// Entries captured by *this* recorder (never entries read from disk).
    recorded: Vec<CassetteEntry>,
    lane: String,
    round: u64,
    persist: Option<PathBuf>,
    /// How many of `recorded` have already been merged into the file.
    flushed: usize,
}

impl<C: LlmClient> RecordingClient<C> {
    /// Starts recording around `inner` (lane `default`, round 0).
    pub fn new(inner: C) -> Self {
        let model = inner.model_name().to_string();
        Self {
            inner,
            model,
            recorded: Vec::new(),
            lane: "default".to_string(),
            round: 0,
            persist: None,
            flushed: 0,
        }
    }

    /// Tags subsequent entries with a lane and round (builder style).
    pub fn with_lane(mut self, lane: impl Into<String>, round: u64) -> Self {
        self.lane = lane.into();
        self.round = round;
        self
    }

    /// Persists to `path` (builder style). An existing cassette there is
    /// validated now (a corrupt target fails before any search runs); a
    /// missing one is created now (an unwritable target must fail before
    /// an expensive recorded search runs, not in the drop-time flush).
    /// Every flush *merges into* the file, so recorders with overlapping
    /// lifetimes *in one process* compose — their flushes are sequential.
    /// Two processes recording to one path are not synchronized: their
    /// load-append-save cycles can race and the last writer wins.
    pub fn persist_to(mut self, path: impl Into<PathBuf>) -> Result<Self, CassetteError> {
        let path = path.into();
        if path.exists() {
            Cassette::load(&path)?;
        } else {
            Cassette::new(self.model.clone()).save(&path)?;
        }
        self.persist = Some(path);
        Ok(self)
    }

    /// The entries captured by this recorder so far, as a cassette.
    pub fn cassette(&self) -> Cassette {
        Cassette {
            model: self.model.clone(),
            entries: self.recorded.clone(),
        }
    }

    /// Merges this recorder's unwritten entries into the persistence
    /// path, if one is set: the file is re-read (another recorder may
    /// have flushed since) and only `recorded[flushed..]` is appended.
    /// The first flush *replaces* any existing entries for this
    /// recorder's `(lane, round)` — re-running a record command (or
    /// resuming after a crash that persisted a partial slice) supersedes
    /// the stale recording instead of leaving it to replay first.
    pub fn flush(&mut self) -> Result<(), CassetteError> {
        let Some(path) = &self.persist else {
            return Ok(());
        };
        if self.flushed == self.recorded.len() {
            return Ok(());
        }
        let mut on_disk = if path.exists() {
            Cassette::load(path)?
        } else {
            Cassette::new(self.model.clone())
        };
        if self.flushed == 0 {
            on_disk
                .entries
                .retain(|e| !(e.lane == self.lane && e.round == self.round));
        }
        on_disk
            .entries
            .extend(self.recorded[self.flushed..].iter().cloned());
        on_disk.save(path)?;
        self.flushed = self.recorded.len();
        Ok(())
    }

    /// Stops recording and returns this recorder's cassette (flushing
    /// first).
    pub fn into_cassette(mut self) -> Cassette {
        let _ = self.flush();
        Cassette {
            model: self.model.clone(),
            // Emptying `recorded` (with `flushed` reset) makes the drop
            // flush a no-op, so the file is never touched twice.
            entries: {
                self.flushed = 0;
                std::mem::take(&mut self.recorded)
            },
        }
    }

    /// Appends one completion to the in-memory recording.
    fn record(&mut self, prompt: &Prompt, c: &Completion) {
        self.recorded.push(CassetteEntry {
            model: self.model.clone(),
            lane: self.lane.clone(),
            round: self.round,
            fingerprint: prompt_fingerprint(prompt),
            code: c.code.clone(),
            reasoning: c.reasoning.clone(),
        });
    }
}

impl<C: LlmClient> Drop for RecordingClient<C> {
    fn drop(&mut self) {
        // Best-effort: a panic mid-search should still leave the completed
        // part of the recording on disk. A drop can't propagate the error,
        // but losing a paid recording silently is worse than noise on
        // stderr.
        if let Err(e) = self.flush() {
            eprintln!(
                "warning: failed to persist {} recorded completions (lane `{}` round {}): {e}",
                self.recorded.len() - self.flushed,
                self.lane,
                self.round
            );
        }
    }
}

impl<C: LlmClient> LlmClient for RecordingClient<C> {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn generate(&mut self, prompt: &Prompt) -> Completion {
        let c = self.inner.generate(prompt);
        self.record(prompt, &c);
        c
    }

    // Recording must not serialize a pooled backend: the wave fans out
    // through the inner client's own dispatch, and the completions —
    // already landed in submission-order slots — are recorded in that
    // order. A cassette recorded through a pool therefore replays in
    // exactly the order a serial recording would have produced.
    fn wave_size(&self) -> usize {
        self.inner.wave_size()
    }

    fn generate_wave(&mut self, prompt: &Prompt, count: usize) -> Vec<Completion> {
        let completions = self.inner.generate_wave(prompt, count);
        for c in &completions {
            self.record(prompt, c);
        }
        completions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::MockLlm;
    use nada_dsl::seeds::PENSIEVE_STATE_SOURCE;

    #[test]
    fn record_then_replay_through_a_cassette_verifies_prompts() {
        let prompt = Prompt::state(PENSIEVE_STATE_SOURCE);
        let mut rec = RecordingClient::new(MockLlm::perfect(2)).with_lane("test-lane", 4);
        let originals: Vec<Completion> = (0..3).map(|_| rec.generate(&prompt)).collect();
        let cassette = rec.into_cassette();
        assert_eq!(cassette.model, "perfect");
        let mut replay = ReplayClient::from_cassette(&cassette, "test-lane", 4).unwrap();
        assert_eq!(replay.model_name(), "perfect");
        for orig in &originals {
            assert_eq!(&replay.generate(&prompt), orig);
        }
        assert_eq!(replay.remaining(), 0);
    }

    #[test]
    fn cassette_replay_rejects_a_different_prompt() {
        let prompt = Prompt::state(PENSIEVE_STATE_SOURCE);
        let mut rec = RecordingClient::new(MockLlm::perfect(3));
        rec.generate(&prompt);
        let cassette = rec.into_cassette();
        let mut replay = ReplayClient::from_cassette(&cassette, "default", 0).unwrap();
        let other = Prompt::state("state different { feature f = 0.5; }");
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| replay.generate(&other)))
                .expect_err("a mismatched prompt must not replay silently");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("prompt mismatch"), "{msg}");
    }

    #[test]
    fn cassette_replay_reports_exhaustion() {
        let prompt = Prompt::state(PENSIEVE_STATE_SOURCE);
        let mut rec = RecordingClient::new(MockLlm::perfect(4));
        rec.generate(&prompt);
        let cassette = rec.into_cassette();
        let mut replay = ReplayClient::from_cassette(&cassette, "default", 0).unwrap();
        replay.generate(&prompt);
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| replay.generate(&prompt)))
                .expect_err("an exhausted cassette must not cycle silently");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("exhausted"), "{msg}");
    }

    #[test]
    fn missing_lane_errors_with_the_available_slices() {
        let prompt = Prompt::state(PENSIEVE_STATE_SOURCE);
        let mut rec = RecordingClient::new(MockLlm::perfect(5)).with_lane("state/fcc", 1);
        rec.generate(&prompt);
        let cassette = rec.into_cassette();
        let err = ReplayClient::from_cassette(&cassette, "arch/fcc", 0).unwrap_err();
        assert!(err.to_string().contains("arch/fcc"), "{err}");
        assert!(err.to_string().contains("state/fcc"), "{err}");
    }

    #[test]
    fn re_recording_a_slice_replaces_the_stale_entries() {
        // Regression: flush used to blindly append, so re-running a record
        // command (or resuming after a crash that persisted a partial
        // slice) left the stale (lane, round) entries to replay *first* —
        // a fingerprint panic at best, silently wrong completions at
        // worst. The first flush of a recorder now supersedes its slice.
        let dir = std::env::temp_dir().join(format!("nada-rerecord-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rerecord.cassette");
        let prompt = Prompt::state(PENSIEVE_STATE_SOURCE);

        // First (say, crashed-partway) recording: 1 entry.
        {
            let mut rec = RecordingClient::new(MockLlm::perfect(30))
                .with_lane("run", 0)
                .persist_to(&path)
                .unwrap();
            rec.generate(&prompt);
        }
        // Other lanes on the same file must survive the re-record.
        {
            let mut rec = RecordingClient::new(MockLlm::perfect(31))
                .with_lane("other", 0)
                .persist_to(&path)
                .unwrap();
            rec.generate(&prompt);
        }
        // Re-record the `run` slice with a different stream, 3 entries,
        // across two flushes (only the *first* purges).
        let fresh: Vec<Completion> = {
            let mut rec = RecordingClient::new(MockLlm::gpt4(32))
                .with_lane("run", 0)
                .persist_to(&path)
                .unwrap();
            let a = rec.generate(&prompt);
            rec.flush().unwrap();
            let b = rec.generate(&prompt);
            let c = rec.generate(&prompt);
            vec![a, b, c]
        };

        let cassette = Cassette::load(&path).unwrap();
        assert_eq!(cassette.len(), 4, "{:?}", cassette.lanes());
        let mut replay = ReplayClient::from_cassette(&cassette, "run", 0).unwrap();
        assert_eq!(replay.remaining(), 3);
        for expected in &fresh {
            assert_eq!(&replay.generate(&prompt), expected);
        }
        assert_eq!(
            ReplayClient::from_cassette(&cassette, "other", 0)
                .unwrap()
                .remaining(),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overlapping_recorders_on_one_path_compose() {
        // Regression: persist_to used to snapshot the file at build time
        // and flush() rewrote the whole file, so a recorder that outlived
        // another (table5 keeps one search's client alive while building
        // the resolve clients) clobbered the other's entries on drop.
        let dir = std::env::temp_dir().join(format!("nada-overlap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("overlap.cassette");
        let prompt = Prompt::state(PENSIEVE_STATE_SOURCE);

        let mut outer = RecordingClient::new(MockLlm::perfect(20))
            .with_lane("outer", 0)
            .persist_to(&path)
            .unwrap();
        outer.generate(&prompt);
        {
            // Built while `outer` is alive and unflushed.
            let mut inner = RecordingClient::new(MockLlm::gpt4(21))
                .with_lane("inner", 0)
                .persist_to(&path)
                .unwrap();
            inner.generate(&prompt);
            inner.generate(&prompt);
        } // inner drops → flushes its two entries
        outer.generate(&prompt);
        drop(outer); // outer drops last → must merge, not overwrite

        let cassette = Cassette::load(&path).unwrap();
        assert_eq!(cassette.len(), 4);
        assert_eq!(
            ReplayClient::from_cassette(&cassette, "inner", 0)
                .unwrap()
                .remaining(),
            2
        );
        let outer_replay = ReplayClient::from_cassette(&cassette, "outer", 0).unwrap();
        assert_eq!(outer_replay.remaining(), 2);
        // Per-entry provenance survives the merge.
        assert_eq!(outer_replay.model_name(), "perfect");
        assert_eq!(
            ReplayClient::from_cassette(&cassette, "inner", 0)
                .unwrap()
                .model_name(),
            "gpt-4"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persisted_recordings_append_across_clients() {
        let dir = std::env::temp_dir().join(format!("nada-rec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("multi.cassette");
        let prompt = Prompt::state(PENSIEVE_STATE_SOURCE);

        // Round 0 records and flushes on drop.
        {
            let mut rec = RecordingClient::new(MockLlm::perfect(6))
                .with_lane("iterate", 0)
                .persist_to(&path)
                .unwrap();
            rec.generate(&prompt);
        }
        // Round 1 appends to the same file.
        {
            let mut rec = RecordingClient::new(MockLlm::perfect(7))
                .with_lane("iterate", 1)
                .persist_to(&path)
                .unwrap();
            rec.generate(&prompt);
            rec.generate(&prompt);
        }
        let cassette = Cassette::load(&path).unwrap();
        assert_eq!(cassette.len(), 3);
        assert_eq!(
            cassette.lanes(),
            vec![("iterate".to_string(), 0), ("iterate".to_string(), 1)]
        );
        assert_eq!(
            ReplayClient::from_cassette(&cassette, "iterate", 1)
                .unwrap()
                .remaining(),
            2
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
