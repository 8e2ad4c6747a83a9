//! Real LLM serving for the NADA reproduction, with zero dependencies.
//!
//! The paper drives its pipeline with hosted GPT-3.5/GPT-4 endpoints
//! (Table 2); this crate is the production seam that lets the offline
//! reproduction do the same without pulling in a network stack:
//!
//! * [`json`] — a minimal hand-rolled JSON encoder/decoder covering the
//!   chat-completions wire format;
//! * [`http`] — a persistent keep-alive HTTP/1.1 connection over
//!   `std::net::TcpStream` ([`Transport`]: `Content-Length` and chunked
//!   bodies, timeouts, `http://` only);
//! * [`client`] — the OpenAI-style chat-completions request engine and
//!   its [`HttpConfig`], with retry/backoff (capped exponent, clamped
//!   delay), token-usage accounting, and the API key sourced from
//!   `NADA_API_KEY` alone;
//! * [`pool`] — [`ConnPool`] (N persistent connections, shared
//!   process-wide per endpoint) and [`PooledClient`], the
//!   [`nada_llm::LlmClient`] that fans `generate_wave` across the pool in
//!   submission-order slots (one connection: every request on the caller);
//! * [`governor`] — the process-wide [`RateGovernor`]: one 429 anywhere
//!   pauses every connection, with an optional `NADA_LLM_RPS` token
//!   bucket for proactive pacing;
//! * [`redact`](mod@redact) — secret hygiene: the key lives in an [`ApiKey`] wrapper
//!   and every outward-facing string is scrubbed;
//! * [`server`] — loopback scripted servers ([`TestServer`] sequential,
//!   [`PoolServer`] concurrent keep-alive) so HTTP behavior — happy path,
//!   500 retries, truncated bodies, 429 backoff, wave ordering, shared
//!   throttling — is integration-tested with no real network.
//!
//! Recording a search through `nada_llm::RecordingClient` while this
//! backend generates produces an on-disk cassette replayable by
//! `nada_llm::ReplayClient` — the offline-CI loop the registry in
//! `nada-core` wires together.

pub mod client;
pub mod governor;
pub mod http;
pub mod json;
pub mod pool;
pub mod redact;
pub mod server;

pub use client::{HttpConfig, API_BASE_ENV, API_KEY_ENV, MAX_BACKOFF, SLOT_HEADER};
pub use governor::{RateGovernor, RPS_ENV};
pub use http::{Endpoint, HttpError, Response, Transport};
pub use json::{Json, JsonError};
pub use pool::{configured_conns, ConnPool, PooledClient, CONNS_ENV};
pub use redact::{redact, ApiKey, REDACTED};
pub use server::{PoolArrival, PoolBehavior, PoolServer, Received, Scripted, TestServer};
