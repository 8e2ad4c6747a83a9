//! The OpenAI-style chat-completions request engine behind
//! [`crate::pool::PooledClient`].
//!
//! `generate_over` renders a [`Prompt`] to text, POSTs it to
//! `{base}/chat/completions` as a single-user-message chat request over a
//! persistent keep-alive [`Transport`], and parses
//! `choices[0].message.content` back into a [`Completion`] (fenced code
//! block → code, preceding prose → reasoning, mirroring the paper's
//! chain-of-thought responses). [`HttpConfig`] holds the endpoint, key
//! and retry knobs.
//!
//! Transient failures — 429 rate limits (honoring `Retry-After`), 5xx,
//! dropped or truncated connections — retry with exponential backoff
//! (exponent capped, delay clamped to [`MAX_BACKOFF`]). A 429 routes its
//! delay through the shared [`RateGovernor`] so *every* connection pauses,
//! not just the one that tripped the limit. Other 4xx statuses fail fast:
//! retrying a rejected request only burns quota. The API key is read from
//! `NADA_API_KEY` *only*, and every error message passes through
//! [`redact`] so the key cannot leak into logs, cassettes or panics.
//!
//! Responses carrying a chat-completions `usage` object feed the
//! process-wide token meter (`nada_llm::global_token_meter`) and the
//! `llm_tokens_prompt_total` / `llm_tokens_completion_total` counters —
//! the substrate `--max-tokens-cost` budgets are enforced against.

use crate::governor::RateGovernor;
use crate::http::{HttpError, Transport};
use crate::json::Json;
use crate::redact::{redact, ApiKey};
use nada_llm::{global_token_meter, Completion, Prompt, TokenUsage};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Process-wide LLM backend telemetry (`nada-obs`). Counts and timings
/// only — no request or response *content* ever reaches the registry, so
/// metrics cannot leak prompts or keys.
struct HttpMetrics {
    requests: Arc<nada_obs::Counter>,
    retries: Arc<nada_obs::Counter>,
    rate_limited: Arc<nada_obs::Counter>,
    server_errors: Arc<nada_obs::Counter>,
    request_bytes: Arc<nada_obs::Counter>,
    response_bytes: Arc<nada_obs::Counter>,
    conn_reuse: Arc<nada_obs::Counter>,
    tokens_prompt: Arc<nada_obs::Counter>,
    tokens_completion: Arc<nada_obs::Counter>,
    duration: Arc<nada_obs::Histogram>,
}

fn http_metrics() -> &'static HttpMetrics {
    static METRICS: OnceLock<HttpMetrics> = OnceLock::new();
    METRICS.get_or_init(|| HttpMetrics {
        requests: nada_obs::counter("llm_http_requests_total"),
        retries: nada_obs::counter("llm_http_retries_total"),
        rate_limited: nada_obs::counter("llm_http_rate_limited_total"),
        server_errors: nada_obs::counter("llm_http_server_errors_total"),
        request_bytes: nada_obs::counter("llm_http_request_bytes_total"),
        response_bytes: nada_obs::counter("llm_http_response_bytes_total"),
        conn_reuse: nada_obs::counter("llm_http_conn_reuse_total"),
        tokens_prompt: nada_obs::counter("llm_tokens_prompt_total"),
        tokens_completion: nada_obs::counter("llm_tokens_completion_total"),
        duration: nada_obs::latency_histogram("llm_http_request_duration_ns"),
    })
}

/// The only environment variable the API key is ever read from.
pub const API_KEY_ENV: &str = "NADA_API_KEY";

/// Environment variable naming the chat-completions base URL
/// (e.g. `http://127.0.0.1:8080/v1`).
pub const API_BASE_ENV: &str = "NADA_API_BASE";

/// Request header carrying the submission slot of a pooled wave, so
/// loopback servers (and debugging proxies) can observe dispatch order
/// even though every request in a wave has an identical body.
pub const SLOT_HEADER: &str = "X-NADA-Slot";

/// Longest delay the retry curve will ever sleep, whatever the attempt
/// count or configured base.
pub const MAX_BACKOFF: Duration = Duration::from_secs(60);

/// The exponential backoff delay for retry `attempt` (0-based), with the
/// exponent capped and the product clamped so large attempt counts can
/// neither overflow the multiplication nor sleep unboundedly.
fn backoff_delay(base: Duration, attempt: u32) -> Duration {
    let factor = 1u32 << attempt.min(10);
    base.checked_mul(factor)
        .map_or(MAX_BACKOFF, |d| d.min(MAX_BACKOFF))
}

/// Connection and retry knobs for the HTTP backend.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Base URL, `http://host[:port][/prefix]`.
    pub base: String,
    /// Model identifier sent in the request body.
    pub model: String,
    /// Bearer token for the `Authorization` header, if the endpoint needs
    /// one. Never printed; see [`ApiKey`].
    pub api_key: Option<ApiKey>,
    /// Retries after the first attempt (429/5xx/transport errors only).
    pub max_retries: u32,
    /// Initial backoff; doubles per retry up to [`MAX_BACKOFF`].
    /// `Retry-After` overrides it.
    pub backoff: Duration,
    /// Per-request read/write timeout.
    pub timeout: Duration,
}

impl HttpConfig {
    /// A config with production retry defaults.
    pub fn new(base: impl Into<String>, model: impl Into<String>) -> Self {
        Self {
            base: base.into(),
            model: model.into(),
            api_key: None,
            max_retries: 3,
            backoff: Duration::from_millis(500),
            timeout: Duration::from_secs(60),
        }
    }

    /// Builds a config from the environment: base URL from
    /// [`API_BASE_ENV`] (required), key from [`API_KEY_ENV`] (optional —
    /// local proxies often need none).
    pub fn from_env(model: &str) -> Result<Self, HttpError> {
        let base = std::env::var(API_BASE_ENV).map_err(|_| {
            HttpError::BadUrl(format!(
                "{API_BASE_ENV} is not set; the http backend needs a \
                 chat-completions endpoint (e.g. http://127.0.0.1:8080/v1)"
            ))
        })?;
        let mut cfg = HttpConfig::new(base, model);
        cfg.api_key = std::env::var(API_KEY_ENV).ok().map(ApiKey::new);
        Ok(cfg)
    }
}

/// Scrubs the API key (when one is configured) out of outward-facing text.
pub(crate) fn redact_text(key: Option<&ApiKey>, text: &str) -> String {
    match key {
        Some(key) => redact(text, key.expose()),
        None => text.to_string(),
    }
}

/// Applies [`redact_text`] to every string an error carries.
pub(crate) fn redact_http_err(key: Option<&ApiKey>, e: HttpError) -> HttpError {
    match e {
        HttpError::BadUrl(m) => HttpError::BadUrl(redact_text(key, &m)),
        HttpError::Connect(m) => HttpError::Connect(redact_text(key, &m)),
        HttpError::Io(m) => HttpError::Io(redact_text(key, &m)),
        HttpError::Malformed(m) => HttpError::Malformed(redact_text(key, &m)),
        HttpError::Status { code, body } => HttpError::Status {
            code,
            body: redact_text(key, &body),
        },
        other => other,
    }
}

/// One generation over one transport, with retry/backoff — the request
/// engine every pooled connection runs. `slot` (a wave's submission
/// index) is sent as [`SLOT_HEADER`] when present; `requests_sent` is
/// incremented once per wire attempt. Every returned error has already
/// been redacted.
pub(crate) fn generate_over(
    transport: &mut Transport,
    cfg: &HttpConfig,
    governor: &RateGovernor,
    prompt: &Prompt,
    slot: Option<usize>,
    requests_sent: &mut usize,
) -> Result<Completion, HttpError> {
    let body = request_body(&cfg.model, prompt);
    let mut headers = Vec::new();
    if let Some(key) = &cfg.api_key {
        headers.push((
            "Authorization".to_string(),
            format!("Bearer {}", key.expose()),
        ));
    }
    if let Some(slot) = slot {
        headers.push((SLOT_HEADER.to_string(), slot.to_string()));
    }
    let metrics = http_metrics();
    let key = cfg.api_key.as_ref();
    let mut attempt: u32 = 0;
    loop {
        // Wait out any shared pause (and pacing budget) before the wire.
        governor.acquire();
        *requests_sent += 1;
        metrics.requests.inc();
        metrics.request_bytes.add(body.len() as u64);
        let result = {
            let _span = metrics.duration.start_span();
            transport.post_json("/chat/completions", &headers, &body)
        };
        if let Ok(resp) = &result {
            metrics.response_bytes.add(resp.body.len() as u64);
            if transport.last_reused() {
                metrics.conn_reuse.inc();
            }
            if resp.status == 429 {
                metrics.rate_limited.inc();
            } else if (500..600).contains(&resp.status) {
                metrics.server_errors.inc();
            }
        }
        // `Retry-After` (seconds) on a 429 overrides the backoff curve.
        let mut rate_limited = false;
        let mut server_delay = None;
        let error = match result {
            Ok(resp) if resp.status == 200 => {
                // Redact the *whole* body before anything else touches
                // it: snippets could otherwise cut the key mid-string
                // (making `redact` miss it), and a completion echoing
                // the key must not carry it into cassettes.
                let (completion, usage) =
                    completion_from_response(&redact_text(key, &resp.body), prompt)
                        .map_err(|e| redact_http_err(key, e))?;
                global_token_meter().record(usage);
                metrics.tokens_prompt.add(usage.prompt_tokens);
                metrics.tokens_completion.add(usage.completion_tokens);
                return Ok(completion);
            }
            Ok(resp) if resp.status == 429 || (500..600).contains(&resp.status) => {
                if resp.status == 429 {
                    rate_limited = true;
                    server_delay = resp
                        .header("retry-after")
                        .and_then(|v| v.parse::<u64>().ok())
                        .map(Duration::from_secs);
                }
                HttpError::Status {
                    code: resp.status,
                    body: snippet(&redact_text(key, &resp.body)),
                }
            }
            Ok(resp) => {
                // Client errors (bad key, unknown model) are not
                // transient; retrying only burns quota.
                return Err(HttpError::Status {
                    code: resp.status,
                    body: snippet(&redact_text(key, &resp.body)),
                });
            }
            Err(e @ HttpError::BadUrl(_)) => return Err(redact_http_err(key, e)),
            Err(e) => e, // connect/io/truncated/malformed: transient
        };
        if attempt >= cfg.max_retries {
            return Err(redact_http_err(key, error));
        }
        let delay = server_delay.unwrap_or_else(|| backoff_delay(cfg.backoff, attempt));
        metrics.retries.inc();
        if rate_limited {
            // The backend limits per account, not per connection: pause
            // *all* dispatch, then wait the pause out like everyone else.
            governor.pause_for(delay);
        } else {
            std::thread::sleep(delay);
        }
        attempt += 1;
    }
}

/// The chat-completions request body for one prompt.
fn request_body(model: &str, prompt: &Prompt) -> String {
    Json::Obj(vec![
        ("model".into(), Json::Str(model.to_string())),
        (
            "messages".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("role".into(), Json::Str("user".into())),
                ("content".into(), Json::Str(prompt.render())),
            ])]),
        ),
    ])
    .render()
}

/// First few hundred chars of a body, for error diagnosis.
fn snippet(body: &str) -> String {
    let cut = body.char_indices().nth(200).map_or(body.len(), |(i, _)| i);
    body[..cut].to_string()
}

/// Extracts `choices[0].message.content` (split into a [`Completion`])
/// and the billed token counts from the optional `usage` object —
/// endpoints that omit `usage` bill zero, which keeps loopback fixtures
/// and token-less proxies working.
fn completion_from_response(
    body: &str,
    prompt: &Prompt,
) -> Result<(Completion, TokenUsage), HttpError> {
    let doc = Json::parse(body)
        .map_err(|e| HttpError::Malformed(format!("response body: {e} — {}", snippet(body))))?;
    let content = doc
        .get("choices")
        .and_then(|c| c.idx(0))
        .and_then(|c| c.get("message"))
        .and_then(|m| m.get("content"))
        .and_then(Json::str)
        .ok_or_else(|| {
            HttpError::Malformed(format!("no choices[0].message.content — {}", snippet(body)))
        })?;
    let usage = doc
        .get("usage")
        .map(|u| TokenUsage {
            prompt_tokens: u
                .get("prompt_tokens")
                .and_then(Json::num)
                .map_or(0, |n| n.max(0.0) as u64),
            completion_tokens: u
                .get("completion_tokens")
                .and_then(Json::num)
                .map_or(0, |n| n.max(0.0) as u64),
        })
        .unwrap_or_default();
    Ok((
        split_content(content, prompt.options.chain_of_thought),
        usage,
    ))
}

/// Splits assistant text into (reasoning, code): the first fenced block is
/// the code; prose before it is the chain-of-thought reasoning (kept only
/// when the prompt asked for it). Unfenced content is all code.
fn split_content(content: &str, chain_of_thought: bool) -> Completion {
    let (reasoning, code) = match content.find("```") {
        Some(open) => {
            let before = content[..open].trim();
            let after_fence = &content[open + 3..];
            // Skip the optional language tag on the fence line.
            let code_start = after_fence.find('\n').map_or(after_fence.len(), |i| i + 1);
            let block = &after_fence[code_start..];
            let code = match block.find("```") {
                Some(close) => &block[..close],
                None => block,
            };
            (
                (!before.is_empty() && chain_of_thought).then(|| before.to_string()),
                code.to_string(),
            )
        }
        None => (None, content.to_string()),
    };
    let mut code = code;
    if !code.ends_with('\n') {
        code.push('\n');
    }
    Completion { code, reasoning }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_prompt() -> Prompt {
        Prompt::state("state s { feature f = 1.0; }")
    }

    #[test]
    fn request_body_is_valid_json_with_the_rendered_prompt() {
        let body = request_body("gpt-4", &state_prompt());
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("model").and_then(Json::str), Some("gpt-4"));
        let content = doc
            .get("messages")
            .and_then(|m| m.idx(0))
            .and_then(|m| m.get("content"))
            .and_then(Json::str)
            .unwrap();
        assert!(content.contains("STATE REPRESENTATION"));
    }

    #[test]
    fn backoff_exponent_is_capped_and_delay_clamped() {
        let base = Duration::from_millis(500);
        assert_eq!(backoff_delay(base, 0), base);
        assert_eq!(backoff_delay(base, 1), base * 2);
        assert_eq!(backoff_delay(base, 2), base * 4);
        // Pre-fix, attempt 32 hit `2u32.pow(32)` — an overflow panic in
        // debug and a zero-delay hot loop in release. Now it clamps.
        for attempt in [7, 10, 11, 31, 32, 100, u32::MAX] {
            let d = backoff_delay(base, attempt);
            assert!(d <= MAX_BACKOFF, "attempt {attempt}: {d:?}");
            assert!(d >= base, "attempt {attempt}: {d:?}");
        }
        assert_eq!(backoff_delay(base, u32::MAX), MAX_BACKOFF);
        // A large base cannot multiply past the clamp either.
        assert_eq!(backoff_delay(Duration::from_secs(40), 5), MAX_BACKOFF);
    }

    #[test]
    fn splits_reasoning_and_fenced_code() {
        let c = split_content(
            "Idea: smooth the throughput.\n```\nstate s { feature f = 1.0; }\n```\nthanks!",
            true,
        );
        assert_eq!(c.reasoning.as_deref(), Some("Idea: smooth the throughput."));
        assert_eq!(c.code, "state s { feature f = 1.0; }\n");
        // Language tags on the fence are skipped.
        let tagged = split_content("```rust\ncode here\n```", true);
        assert_eq!(tagged.code, "code here\n");
        assert_eq!(tagged.reasoning, None);
    }

    #[test]
    fn unfenced_content_is_all_code() {
        let c = split_content("state s { feature f = 1.0; }", true);
        assert_eq!(c.code, "state s { feature f = 1.0; }\n");
        assert_eq!(c.reasoning, None);
    }

    #[test]
    fn reasoning_is_dropped_when_cot_is_off() {
        let c = split_content("thoughts\n```\ncode\n```", false);
        assert_eq!(c.reasoning, None);
        assert_eq!(c.code, "code\n");
    }

    #[test]
    fn completion_parses_from_chat_response() {
        let body = r#"{"choices":[{"index":0,"message":{"role":"assistant","content":"```\nstate x { feature f = 0.5; }\n```"}}]}"#;
        let (c, usage) = completion_from_response(body, &state_prompt()).unwrap();
        assert_eq!(c.code, "state x { feature f = 0.5; }\n");
        // No usage object: billed zero, not an error.
        assert_eq!(usage, TokenUsage::default());
    }

    #[test]
    fn usage_tokens_are_parsed_from_the_response() {
        let body = r#"{"choices":[{"index":0,"message":{"role":"assistant","content":"x"}}],"usage":{"prompt_tokens":321,"completion_tokens":45,"total_tokens":366}}"#;
        let (_, usage) = completion_from_response(body, &state_prompt()).unwrap();
        assert_eq!(usage.prompt_tokens, 321);
        assert_eq!(usage.completion_tokens, 45);
        assert_eq!(usage.total(), 366);
    }

    #[test]
    fn malformed_responses_are_errors_not_completions() {
        assert!(completion_from_response("{}", &state_prompt()).is_err());
        assert!(completion_from_response("not json", &state_prompt()).is_err());
    }

    #[test]
    fn debug_output_never_contains_the_key() {
        let mut cfg = HttpConfig::new("http://127.0.0.1:1/v1", "gpt-4");
        cfg.api_key = Some(ApiKey::new("sk-super-secret"));
        let endpoint = crate::http::Endpoint::parse(&cfg.base).unwrap();
        let pool = Arc::new(crate::pool::ConnPool::new(endpoint, cfg.timeout, 1));
        let client =
            crate::pool::PooledClient::with_parts(cfg, pool, Arc::new(RateGovernor::new(None)));
        let dbg = format!("{client:?}");
        assert!(!dbg.contains("sk-super-secret"), "{dbg}");
    }
}
