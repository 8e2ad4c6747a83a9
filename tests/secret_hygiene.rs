//! Secret hygiene end-to-end: drive a real (loopback) HTTP search with an
//! API key set, record it, checkpoint it, observe it — and assert the key
//! appears in none of the artifacts the run leaves behind: the on-disk
//! cassette, the driver checkpoint, the session snapshot, or the observer
//! event stream. The key's only legitimate exit is the `Authorization`
//! header, which the loopback server confirms receiving.

use nada::core::{CollectingObserver, Nada, NadaConfig, RunScale, SearchDriver, SearchSession};
use nada::llm::{DesignKind, LlmClient, RecordingClient};
use nada::llm_http::{
    ApiKey, ConnPool, Endpoint, HttpConfig, PooledClient, RateGovernor, Scripted, TestServer,
};
use nada::traces::dataset::DatasetKind;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const KEY: &str = "sk-nada-test-key-8f3a2b";

/// A valid, normalized ABR state design the server "generates".
const DESIGN: &str = "state served { input buffer_s: scalar; feature b = buffer_s / 60.0; }";

fn scratch_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nada-hygiene-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// A one-connection client over a private pool and governor.
fn http_client(base: String) -> PooledClient {
    let mut cfg = HttpConfig::new(base, "gpt-4-loopback");
    cfg.api_key = Some(ApiKey::new(KEY));
    cfg.backoff = Duration::from_millis(1);
    cfg.timeout = Duration::from_secs(5);
    let endpoint = Endpoint::parse(&cfg.base).expect("loopback endpoint parses");
    let pool = Arc::new(ConnPool::new(endpoint, cfg.timeout, 1));
    PooledClient::with_parts(cfg, pool, Arc::new(RateGovernor::new(None)))
}

#[test]
fn the_key_never_leaves_the_authorization_header() {
    let nada = Nada::new(NadaConfig::new(DatasetKind::Fcc, RunScale::Tiny, 71));
    let n = nada.config().n_candidates;

    // One transient 500 (whose body even echoes the key, as a hostile
    // endpoint might) followed by enough completions for the pool: the
    // retry path is part of the audited surface.
    let mut script = vec![Scripted::Status(
        500,
        format!(r#"{{"error":{{"message":"upstream rejected Bearer {KEY}"}}}}"#),
    )];
    script.extend((0..n).map(|_| Scripted::Completion(format!("An idea.\n```\n{DESIGN}\n```"))));
    let server = TestServer::start(script);

    let cassette_path = scratch_file("hygiene.cassette");
    let checkpoint_path = scratch_file("hygiene.ckpt");
    let collector = CollectingObserver::new();

    let snapshot_text = {
        let mut rec = RecordingClient::new(http_client(server.base()))
            .with_lane("hygiene", 0)
            .persist_to(&cassette_path)
            .expect("fresh cassette target");

        // A full driver round: session events, cassette writes, checkpoint.
        let mut driver =
            SearchDriver::new(&nada, DesignKind::State).with_checkpoint_path(&checkpoint_path);
        driver.observe(&collector);
        driver.run_round(&mut rec).expect("round completes");

        // Plus a session snapshot mid-search (taken after Generate, where
        // the LLM's output lives).
        let mut session = SearchSession::new(&nada, DesignKind::State);
        let mut replay = nada::llm::ReplayClient::from_cassette(&rec.cassette(), "hygiene", 0)
            .expect("cassette slice exists");
        session.generate(&mut replay).expect("generate runs");
        session.snapshot().encode()
    };

    // The server did receive the key — through the one sanctioned channel.
    let requests = server.requests();
    assert!(!requests.is_empty());
    assert!(requests
        .iter()
        .all(|r| r.header("authorization") == Some(&format!("Bearer {KEY}"))));

    // ...and nothing the run left behind contains it.
    let cassette_text = std::fs::read_to_string(&cassette_path).expect("cassette written");
    assert!(
        cassette_text.contains("served"),
        "cassette should hold the generated designs"
    );
    assert!(!cassette_text.contains(KEY), "key leaked into the cassette");

    let checkpoint_text = std::fs::read_to_string(&checkpoint_path).expect("checkpoint written");
    assert!(
        !checkpoint_text.contains(KEY),
        "key leaked into the checkpoint"
    );

    assert!(!snapshot_text.contains(KEY), "key leaked into the snapshot");

    let events_debug = format!("{:?}", collector.events());
    assert!(
        !events_debug.is_empty() && !events_debug.contains(KEY),
        "key leaked into observer events"
    );

    std::fs::remove_file(&cassette_path).ok();
    std::fs::remove_file(&checkpoint_path).ok();
}

/// The failure path leaks nothing either: when the backend exhausts its
/// retries, the panic message carries the (redacted) server body — never
/// the key.
#[test]
fn exhausted_retries_panic_with_a_redacted_message() {
    let script = vec![
        Scripted::Status(
            500,
            format!(r#"{{"error":{{"message":"Bearer {KEY} rejected"}}}}"#),
        );
        5
    ];
    let server = TestServer::start(script);
    let mut client = http_client(server.base());
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        client.generate(&nada::llm::Prompt::state(DESIGN))
    }))
    .expect_err("exhausted retries must abort");
    let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("http status 500"), "{msg}");
    assert!(!msg.contains(KEY), "key leaked into the panic: {msg}");
}
