//! LLM substrate for the NADA reproduction.
//!
//! The paper prompts GPT-3.5 and GPT-4 to rewrite two Pensieve code blocks —
//! the RL state function and the actor-critic network builder — and feeds
//! the returned code into its filtering pipeline. Hosted LLM endpoints are
//! not available to an offline Rust library, so this crate provides:
//!
//! * [`client::LlmClient`] — the provider-agnostic interface NADA consumes
//!   (a real HTTP client can implement it without touching the pipeline);
//! * [`prompt`] — the paper's §2.1 prompting strategies rendered as actual
//!   prompt text: chain-of-thought instructions, semantically renamed
//!   variables with explanatory comments, and the explicit normalization
//!   request for state prompts;
//! * [`mock::MockLlm`] — a grammar-based design sampler that mutates the
//!   seed code block with the motifs the paper reports (re-normalization,
//!   feature removal, smoothing, trend/prediction features, buffer-history
//!   features, architecture swaps) and injects syntax/normalization defects
//!   at per-model rates calibrated to Table 2;
//! * [`profile::ModelProfile`] — those calibrated rates for "GPT-3.5" and
//!   "GPT-4";
//! * [`replay`] — record/replay clients so real recordings can be swapped
//!   in deterministically;
//! * [`cassette`] — the on-disk, prompt-fingerprinted recording format
//!   those clients persist through the serde-shim text codec (the
//!   `nada-llm-http` crate provides the real HTTP backend they wrap).

pub mod cassette;
pub mod client;
pub mod mock;
pub mod profile;
pub mod prompt;
pub mod replay;

pub use cassette::{prompt_fingerprint, Cassette, CassetteEntry, CassetteError};
pub use client::{global_token_meter, Completion, DesignKind, LlmClient, TokenMeter, TokenUsage};
pub use mock::MockLlm;
pub use profile::ModelProfile;
pub use prompt::{FeedbackContext, FeedbackWinner, Prompt, PromptOptions, TaskContext};
pub use replay::{RecordingClient, ReplayClient};
