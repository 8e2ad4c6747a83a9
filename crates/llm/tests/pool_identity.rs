//! Bit-identity pins for the wave-dispatch path.
//!
//! The concurrent generation layer must not change what deterministic
//! backends produce: `generate_batch_while` now loops in waves of
//! `wave_size()`, and for every sequential backend (mock, replay —
//! `wave_size() == 1`) that loop must be byte-for-byte the historical
//! one-request-at-a-time path. These tests pin that identity for both
//! prompt workloads (state and architecture), and pin that cassettes
//! recorded *through* a wave-dispatching client replay in submission
//! order — existing fixtures stay valid under the pool.

use nada_dsl::seeds::{PENSIEVE_ARCH_SOURCE, PENSIEVE_STATE_SOURCE};
use nada_llm::{Completion, LlmClient, MockLlm, Prompt, RecordingClient, ReplayClient};

/// The historical serial reference: one `generate` per completion,
/// checking the budget hook before each.
fn serial_reference<C: LlmClient>(
    client: &mut C,
    prompt: &Prompt,
    n: usize,
    more: &mut dyn FnMut(usize) -> bool,
) -> Vec<Completion> {
    let mut out = Vec::new();
    while out.len() < n {
        if !more(out.len()) {
            break;
        }
        out.push(client.generate(prompt));
    }
    out
}

fn workloads() -> Vec<Prompt> {
    vec![
        Prompt::state(PENSIEVE_STATE_SOURCE),
        Prompt::architecture(PENSIEVE_ARCH_SOURCE),
    ]
}

#[test]
fn mock_batches_are_bit_identical_to_the_serial_path() {
    for (model, build) in [
        ("gpt35", MockLlm::gpt35 as fn(u64) -> MockLlm),
        ("gpt4", MockLlm::gpt4),
        ("perfect", MockLlm::perfect),
    ] {
        for prompt in workloads() {
            // Same seed, two clients: the wave loop vs the historical
            // loop must consume the mock's RNG stream identically.
            let via_batch = build(42).generate_batch(&prompt, 24);
            let reference = serial_reference(&mut build(42), &prompt, 24, &mut |_| true);
            assert_eq!(via_batch, reference, "model {model} diverged");

            // Budget-capped batches too (the hook fires mid-stream).
            let capped = build(7).generate_batch_while(&prompt, 24, &mut |made| made < 11);
            let capped_ref = serial_reference(&mut build(7), &prompt, 24, &mut |made| made < 11);
            assert_eq!(capped, capped_ref, "model {model} diverged under cap");
            assert_eq!(capped.len(), 11);
        }
    }
}

#[test]
fn replay_batches_are_bit_identical_to_the_serial_path() {
    for prompt in workloads() {
        let mut rec = RecordingClient::new(MockLlm::gpt4(9)).with_lane("identity", 0);
        let originals = rec.generate_batch(&prompt, 8);
        let cassette = rec.into_cassette();

        let via_batch = ReplayClient::from_cassette(&cassette, "identity", 0)
            .unwrap()
            .generate_batch(&prompt, 8);
        let reference = serial_reference(
            &mut ReplayClient::from_cassette(&cassette, "identity", 0).unwrap(),
            &prompt,
            8,
            &mut |_| true,
        );
        assert_eq!(via_batch, reference);
        assert_eq!(via_batch, originals);
    }
}

/// A deterministic client that pretends to be pooled: `wave_size()` > 1,
/// and waves *reverse* their completion order internally before the
/// dispatcher's submission-order contract puts them back — here we just
/// produce them in submission order, as the pooled HTTP client's work
/// pool guarantees, from a sequential counter.
struct WavedCounter {
    conns: usize,
    generated: usize,
}

impl LlmClient for WavedCounter {
    fn model_name(&self) -> &str {
        "waved-counter"
    }

    fn generate(&mut self, _prompt: &Prompt) -> Completion {
        self.generated += 1;
        Completion {
            code: format!("design {}\n", self.generated),
            reasoning: None,
        }
    }

    fn wave_size(&self) -> usize {
        self.conns
    }
}

#[test]
fn cassettes_recorded_through_a_wave_client_replay_in_submission_order() {
    let prompt = Prompt::state(PENSIEVE_STATE_SOURCE);
    // Record through a wave-dispatching inner client (wave_size 3).
    let mut rec = RecordingClient::new(WavedCounter {
        conns: 3,
        generated: 0,
    })
    .with_lane("pooled", 2);
    let originals = rec.generate_batch(&prompt, 7);
    assert_eq!(originals.len(), 7);
    let cassette = rec.into_cassette();

    // The cassette holds the completions in submission order under the
    // recorder's (lane, round), fingerprinted against the live prompt —
    // exactly what a serial recording would have written.
    assert_eq!(cassette.entries.len(), 7);
    for (i, entry) in cassette.entries.iter().enumerate() {
        assert_eq!(entry.lane, "pooled");
        assert_eq!(entry.round, 2);
        assert_eq!(entry.code, format!("design {}\n", i + 1));
    }

    // And a strict (fingerprint-verified) replay yields the same bytes
    // in the same order.
    let mut replay = ReplayClient::from_cassette(&cassette, "pooled", 2).unwrap();
    let replayed = replay.generate_batch(&prompt, 7);
    assert_eq!(replayed, originals);
}

#[test]
fn recording_preserves_the_inner_clients_wave_size() {
    // A recorder around a pooled client must not serialize it.
    let rec = RecordingClient::new(WavedCounter {
        conns: 4,
        generated: 0,
    });
    assert_eq!(rec.wave_size(), 4);
    let serial = RecordingClient::new(MockLlm::perfect(1));
    assert_eq!(serial.wave_size(), 1);
}
