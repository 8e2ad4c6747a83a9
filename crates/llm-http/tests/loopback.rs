//! HTTP behavior against the loopback scripted servers — no real network.

use nada_llm::{LlmClient, Prompt};
use nada_llm_http::{
    ApiKey, ConnPool, Endpoint, HttpConfig, HttpError, PoolBehavior, PoolServer, PooledClient,
    RateGovernor, Scripted, TestServer, REDACTED,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CODE: &str = "state s { input buffer_s: scalar; feature b = buffer_s / 10.0; }";

fn fast_cfg(base: String) -> HttpConfig {
    let mut cfg = HttpConfig::new(base, "gpt-4-test");
    cfg.max_retries = 3;
    cfg.backoff = Duration::from_millis(1);
    cfg.timeout = Duration::from_secs(5);
    cfg
}

fn fenced(code: &str) -> String {
    format!("Here is an idea: smooth the features.\n```\n{code}\n```\n")
}

/// A pooled client of width `conns` over a *private* pool and governor,
/// so scripted 429s cannot pause other tests' dispatch.
fn pooled(cfg: HttpConfig, conns: usize) -> PooledClient {
    let endpoint = Endpoint::parse(&cfg.base).unwrap();
    let pool = Arc::new(ConnPool::new(endpoint, cfg.timeout, conns));
    PooledClient::with_parts(cfg, pool, Arc::new(RateGovernor::new(None)))
}

#[test]
fn happy_path_round_trips_a_completion() {
    let server = TestServer::start(vec![Scripted::Completion(fenced(CODE))]);
    let mut cfg = fast_cfg(server.base());
    cfg.api_key = Some(ApiKey::new("sk-test-key-123"));
    let mut client = pooled(cfg, 1);
    let completion = client.generate(&Prompt::state(CODE));
    assert_eq!(completion.code, format!("{CODE}\n"));
    assert_eq!(
        completion.reasoning.as_deref(),
        Some("Here is an idea: smooth the features.")
    );

    // The request reached the chat-completions route with auth attached.
    let reqs = server.requests();
    assert_eq!(reqs.len(), 1);
    assert_eq!(reqs[0].path, "/v1/chat/completions");
    assert_eq!(
        reqs[0].header("authorization"),
        Some("Bearer sk-test-key-123")
    );
    assert!(reqs[0].body.contains("gpt-4-test"));
    assert!(reqs[0].body.contains("STATE REPRESENTATION"));
}

#[test]
fn server_errors_are_retried_until_success() {
    // Telemetry counters are process-global and tests run concurrently,
    // so assert deltas are at least what this client contributes.
    let requests = nada_obs::counter("llm_http_requests_total");
    let retries = nada_obs::counter("llm_http_retries_total");
    let server_errors = nada_obs::counter("llm_http_server_errors_total");
    let duration = nada_obs::latency_histogram("llm_http_request_duration_ns");
    let (req0, retry0, err0, dur0) = (
        requests.get(),
        retries.get(),
        server_errors.get(),
        duration.count(),
    );
    let server = TestServer::start(vec![
        Scripted::Status(500, r#"{"error":{"message":"boom"}}"#.into()),
        Scripted::Status(503, "overloaded".into()),
        Scripted::Completion(fenced(CODE)),
    ]);
    let mut client = pooled(fast_cfg(server.base()), 1);
    let completion = client.try_generate(&Prompt::state(CODE)).unwrap();
    assert_eq!(completion.code, format!("{CODE}\n"));
    assert_eq!(client.requests_sent(), 3);
    assert!(requests.get() >= req0 + 3);
    assert!(retries.get() >= retry0 + 2);
    assert!(server_errors.get() >= err0 + 2);
    assert!(duration.count() >= dur0 + 3);
}

#[test]
fn persistent_server_errors_surface_the_status() {
    let script = vec![Scripted::Status(500, "down".into()); 4];
    let server = TestServer::start(script);
    let mut client = pooled(fast_cfg(server.base()), 1);
    let err = client.try_generate(&Prompt::state(CODE)).unwrap_err();
    assert!(matches!(err, HttpError::Status { code: 500, .. }), "{err}");
    // First attempt + max_retries.
    assert_eq!(client.requests_sent(), 4);
}

#[test]
fn truncated_bodies_are_retried() {
    let server = TestServer::start(vec![
        Scripted::Truncated(r#"{"choices":[{"mess"#.into()),
        Scripted::Completion(fenced(CODE)),
    ]);
    let mut cfg = fast_cfg(server.base());
    // The truncated connection closes early, so detection is immediate.
    cfg.timeout = Duration::from_secs(2);
    let mut client = pooled(cfg, 1);
    let completion = client.try_generate(&Prompt::state(CODE)).unwrap();
    assert_eq!(completion.code, format!("{CODE}\n"));
    assert_eq!(client.requests_sent(), 2);
}

#[test]
fn rate_limits_back_off_and_recover() {
    let server = TestServer::start(vec![
        Scripted::RateLimited(0),
        Scripted::RateLimited(0),
        Scripted::Completion(fenced(CODE)),
    ]);
    let mut client = pooled(fast_cfg(server.base()), 1);
    let completion = client.try_generate(&Prompt::state(CODE)).unwrap();
    assert_eq!(completion.code, format!("{CODE}\n"));
    assert_eq!(client.requests_sent(), 3);
}

#[test]
fn client_errors_fail_fast_without_retries() {
    let server = TestServer::start(vec![Scripted::Status(
        401,
        r#"{"error":{"message":"bad key"}}"#.into(),
    )]);
    let mut client = pooled(fast_cfg(server.base()), 1);
    let err = client.try_generate(&Prompt::state(CODE)).unwrap_err();
    assert!(matches!(err, HttpError::Status { code: 401, .. }), "{err}");
    assert_eq!(client.requests_sent(), 1);
}

#[test]
fn error_bodies_echoing_the_key_are_redacted() {
    // A hostile/buggy endpoint echoes the Authorization header back in its
    // error body; the surfaced error must not contain the key.
    let key = "sk-leaky-key-456";
    let server = TestServer::start(vec![Scripted::Status(
        400,
        format!(r#"{{"error":{{"message":"token Bearer {key} is malformed"}}}}"#),
    )]);
    let mut cfg = fast_cfg(server.base());
    cfg.api_key = Some(ApiKey::new(key));
    let mut client = pooled(cfg, 1);
    let err = client.try_generate(&Prompt::state(CODE)).unwrap_err();
    let msg = err.to_string();
    assert!(!msg.contains(key), "leaked: {msg}");
    assert!(msg.contains(REDACTED), "{msg}");
}

#[test]
fn keys_straddling_the_snippet_cut_are_still_redacted() {
    // Regression: error snippets used to truncate the body *before*
    // redaction, so a key crossing the 200-char boundary survived as a
    // partial leak (redact looks for the full secret).
    let key = "sk-straddle-key-0123456789abcdef";
    let padding = "x".repeat(190);
    let server = TestServer::start(vec![Scripted::Status(
        400,
        format!(r#"{{"error":{{"message":"{padding}{key} rejected"}}}}"#),
    )]);
    let mut cfg = fast_cfg(server.base());
    cfg.api_key = Some(ApiKey::new(key));
    let mut client = pooled(cfg, 1);
    let msg = client
        .try_generate(&Prompt::state(CODE))
        .unwrap_err()
        .to_string();
    assert!(!msg.contains("sk-straddle"), "partial key leaked: {msg}");
}

#[test]
fn generate_batch_while_caps_requests_at_the_source() {
    let server = TestServer::start(vec![
        Scripted::Completion(fenced(CODE)),
        Scripted::Completion(fenced(CODE)),
    ]);
    let mut client = pooled(fast_cfg(server.base()), 1);
    let out = client.generate_batch_while(&Prompt::state(CODE), 10, &mut |made| made < 2);
    assert_eq!(out.len(), 2);
    // Only the budgeted completions were ever requested over the wire.
    assert_eq!(client.requests_sent(), 2);
}

#[test]
fn unreachable_endpoints_error_after_retries() {
    // Port 1 on loopback: nothing listens there.
    let mut cfg = fast_cfg("http://127.0.0.1:1/v1".to_string());
    cfg.max_retries = 1;
    let mut client = pooled(cfg, 1);
    let err = client.try_generate(&Prompt::state(CODE)).unwrap_err();
    assert!(matches!(err, HttpError::Connect(_)), "{err}");
    assert_eq!(client.requests_sent(), 2);
}

// ---- wider pools against the concurrent keep-alive server -------------

#[test]
fn pooled_waves_put_multiple_requests_in_flight() {
    // The gate holds the first 2 responses until both requests have
    // arrived: a serial client would stall into the server's safety
    // timeout; the pool sails through because both are truly in flight.
    let server = PoolServer::start(PoolBehavior {
        content: "```\nslot {slot}\n```".into(),
        gate: Some(2),
        ..PoolBehavior::default()
    });
    let mut client = pooled(fast_cfg(server.base()), 2);
    assert_eq!(client.wave_size(), 2);
    let start = Instant::now();
    let out = client.generate_wave(&Prompt::state(CODE), 2);
    assert!(
        start.elapsed() < Duration::from_secs(4),
        "gate was never released — requests were not concurrent"
    );
    assert_eq!(server.max_in_flight(), 2, "both requests in flight at once");
    let codes: Vec<&str> = out.iter().map(|c| c.code.as_str()).collect();
    assert_eq!(codes, vec!["slot 0\n", "slot 1\n"]);
}

#[test]
fn out_of_order_completions_land_in_submission_order() {
    // All 4 responses are gated, then released latest-arrival-first: the
    // server completes the wave in reverse, but the client must still
    // return slot i's completion at position i.
    let server = PoolServer::start(PoolBehavior {
        content: "```\nslot {slot}\n```".into(),
        gate: Some(4),
        reverse_release: true,
        ..PoolBehavior::default()
    });
    let mut client = pooled(fast_cfg(server.base()), 4);
    let out = client.generate_wave(&Prompt::state(CODE), 4);
    let codes: Vec<&str> = out.iter().map(|c| c.code.as_str()).collect();
    assert_eq!(codes, vec!["slot 0\n", "slot 1\n", "slot 2\n", "slot 3\n"]);
    // Every submission slot reached the wire exactly once.
    let mut slots: Vec<usize> = server.arrivals().iter().filter_map(|a| a.slot).collect();
    slots.sort_unstable();
    assert_eq!(slots, vec![0, 1, 2, 3]);
}

#[test]
fn one_rate_limit_throttles_every_connection() {
    let throttled = nada_obs::counter("llm_pool_throttled_total");
    let throttled0 = throttled.get();
    // 8 completions over 4 connections; the very first arrival is 429'd
    // with Retry-After: 1. The in-service requests (100ms latency) ride
    // out, but everything dispatched *after* the 429 — the retry and the
    // whole second half of the batch, on every connection — must wait out
    // the shared pause.
    let server = PoolServer::start(PoolBehavior {
        latency: Duration::from_millis(100),
        content: "```\nslot {slot}\n```".into(),
        rate_limit_at: vec![0],
        retry_after: 1,
        ..PoolBehavior::default()
    });
    let mut client = pooled(fast_cfg(server.base()), 4);
    let out = client.generate_batch(&Prompt::state(CODE), 8);
    assert_eq!(out.len(), 8);
    // Slots are per-wave (two waves of 4), and the retry keeps its slot.
    let codes: Vec<String> = out.into_iter().map(|c| c.code).collect();
    let want: Vec<String> = (0..8).map(|i| format!("slot {}\n", i % 4)).collect();
    assert_eq!(codes, want, "retry kept its submission slot");

    assert!(
        throttled.get() > throttled0,
        "the shared governor never recorded a pause"
    );
    let arrivals = server.arrivals();
    assert_eq!(arrivals.len(), 9, "8 requests + 1 retry of the 429");
    let limited = arrivals
        .iter()
        .find(|a| a.status == 429)
        .expect("the injected 429");
    // Every request dispatched after the 429 honored the shared pause —
    // including ones on connections that never saw the 429 themselves.
    let after_pause: Vec<_> = arrivals.iter().filter(|a| a.index >= 4).collect();
    assert!(after_pause.len() >= 5);
    for a in &after_pause {
        let gap = a.at.duration_since(limited.at);
        assert!(
            gap >= Duration::from_millis(900),
            "arrival {} (slot {:?}) dispatched {}ms after the 429 — \
             the pause was not shared",
            a.index,
            a.slot,
            gap.as_millis()
        );
    }
}

#[test]
fn pooled_batches_reuse_their_connections_across_waves() {
    let server = PoolServer::start(PoolBehavior {
        content: "```\nslot {slot}\n```".into(),
        usage: Some((100, 20)),
        ..PoolBehavior::default()
    });
    let mut client = pooled(fast_cfg(server.base()), 2);
    let before = nada_llm::global_token_meter().snapshot();
    let out = client.generate_batch(&Prompt::state(CODE), 6);
    assert_eq!(out.len(), 6);
    assert_eq!(client.requests_sent(), 6);
    // 3 waves of 2 over the same two sockets: at least 4 requests rode an
    // already-open connection.
    assert!(
        client.pool().reuse_count() >= 4,
        "reuse_count = {}",
        client.pool().reuse_count()
    );
    // The scripted usage object fed the process-wide token meter.
    let spent = nada_llm::global_token_meter().snapshot();
    assert!(spent.prompt_tokens >= before.prompt_tokens + 600);
    assert!(spent.completion_tokens >= before.completion_tokens + 120);
}
