//! Point NADA at your own network environment.
//!
//! ```sh
//! cargo run --release --example custom_environment
//! ```
//!
//! The paper's pitch is tailoring algorithms to *new* environments. This
//! example builds a bespoke one — an elevator-heavy office building where
//! connectivity oscillates between good Wi-Fi and near-outage dead zones —
//! from raw cooked-trace text, then lets NADA customize the ABR state for
//! it. It also shows the record/replay client: the second search consumes
//! the first search's cassette without touching the generator.

use nada::core::{Nada, NadaConfig, RunScale};
use nada::llm::{DesignKind, LlmClient, MockLlm, RecordingClient, ReplayClient};
use nada::traces::dataset::{DatasetKind, TraceDataset};
use nada::traces::io::cooked::{read_cooked, write_cooked};
use nada::traces::{Trace, TracePoint};

/// Synthesizes an "office elevator" trace: 25 s of ~6 Mbps Wi-Fi, 8 s of
/// near-outage, repeating with drift.
fn office_trace(seed: u64, duration_s: f64) -> Trace {
    let mut points = Vec::new();
    let mut t = 0.0;
    let mut good = true;
    while t < duration_s {
        let span = if good { 25.0 } else { 8.0 };
        let steps = (span / 0.5) as usize;
        for i in 0..steps {
            let wobble = ((t + i as f64) * 0.7 + seed as f64).sin() * 0.4;
            let bw = if good { 6.0 + wobble } else { 0.15 };
            points.push(TracePoint::new(t + i as f64 * 0.5, bw.max(0.05)));
        }
        t += span;
        good = !good;
    }
    Trace::new(format!("office-{seed}"), points).expect("valid synthetic trace")
}

fn main() {
    // Round-trip through the cooked format, as real measurements would be.
    let train: Vec<Trace> = (0..6)
        .map(|s| {
            let text = write_cooked(&office_trace(s, 300.0));
            read_cooked(format!("office-train-{s}"), &text).expect("cooked round-trip")
        })
        .collect();
    let test: Vec<Trace> = (100..104).map(|s| office_trace(s, 300.0)).collect();
    // The broadband ladder suits a ~6 Mbps link; reuse the FCC registry slot.
    let dataset = TraceDataset::from_traces(DatasetKind::Fcc, train, test);

    let cfg = NadaConfig::new(DatasetKind::Fcc, RunScale::Quick, 11);
    let nada = Nada::with_dataset(cfg, dataset);

    // Record the generator while searching.
    let mut recorder = RecordingClient::new(MockLlm::gpt4(11));
    let outcome = nada.run_state_search(&mut recorder);
    println!(
        "office environment: original {:.3} -> best {:.3} ({:+.1}%)",
        outcome.original.test_score,
        outcome.best.test_score,
        outcome.improvement_pct()
    );

    // Replay the exact same candidate stream (e.g. to re-rank offline).
    // Replay is verified against the prompt the search sent.
    let cassette = recorder.into_cassette();
    println!(
        "recorded {} completions; replaying the first one:",
        cassette.len()
    );
    let mut replay =
        ReplayClient::from_cassette(&cassette, "default", 0).expect("the search recorded");
    let again = replay.generate(&nada.prompt_for(DesignKind::State));
    println!(
        "{}",
        again.code.lines().take(3).collect::<Vec<_>>().join("\n")
    );
}
