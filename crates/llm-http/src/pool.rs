//! The connection pool and the pooled chat-completions client.
//!
//! A [`ConnPool`] holds N persistent keep-alive [`Transport`]s to one
//! endpoint and a [`WorkPool`] of the same width; a [`PooledClient`]
//! implements [`LlmClient`] on top of it, reporting `wave_size() == N` and
//! fanning each wave across the connections on that work pool —
//! completions land in submission-order slots, so pooled results are
//! order-stable no matter how the backend interleaves its responses.
//! Every request runs the same engine (`generate_over`: retry, redaction,
//! token accounting) and consults the same [`RateGovernor`], so one 429
//! pauses the whole pool. A width-1 pool spawns no thread: each request
//! runs on the caller.
//!
//! Pools are shared process-wide per endpoint ([`ConnPool::shared`]):
//! daemon lanes that resolve the same base URL reuse one set of sockets
//! instead of opening `lanes × N` of them. Pool width comes from
//! [`CONNS_ENV`], defaulting to `nada_exec::scheduler_lanes()` so LLM
//! concurrency scales with the same knob as everything else in the
//! process.

use crate::client::{generate_over, HttpConfig};
use crate::governor::RateGovernor;
use crate::http::{Endpoint, HttpError, Transport};
use nada_exec::WorkPool;
use nada_llm::{Completion, LlmClient, Prompt};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Environment variable fixing the pool width (number of persistent
/// connections / in-flight requests). Unset: `nada_exec::scheduler_lanes()`.
pub const CONNS_ENV: &str = "NADA_LLM_CONNS";

/// The configured pool width: [`CONNS_ENV`] when set to a positive
/// integer, else the process's scheduler-lane count.
pub fn configured_conns() -> usize {
    std::env::var(CONNS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|n| *n > 0)
        .unwrap_or_else(nada_exec::scheduler_lanes)
}

/// N persistent keep-alive connections to one endpoint. Each slot is a
/// [`Transport`] behind its own lock, so N requests proceed in parallel
/// on the pool's N-wide [`WorkPool`] while one request at a time drives
/// each connection.
#[derive(Debug)]
pub struct ConnPool {
    endpoint: Endpoint,
    slots: Vec<Mutex<Transport>>,
    workers: WorkPool,
}

impl ConnPool {
    /// A private pool of `conns` connections (connections open lazily on
    /// first use) and a work pool as wide, which keeps `conns - 1` threads.
    pub fn new(endpoint: Endpoint, timeout: Duration, conns: usize) -> Self {
        let conns = conns.max(1);
        Self {
            slots: (0..conns)
                .map(|_| Mutex::new(Transport::new(endpoint.clone(), timeout)))
                .collect(),
            endpoint,
            workers: WorkPool::new(conns),
        }
    }

    /// The process-wide pool for `endpoint`, created with `conns`
    /// connections on first request. Later callers share the existing
    /// pool whatever width they asked for — one endpoint, one socket set.
    pub fn shared(endpoint: &Endpoint, timeout: Duration, conns: usize) -> Arc<ConnPool> {
        static POOLS: OnceLock<Mutex<HashMap<String, Arc<ConnPool>>>> = OnceLock::new();
        let key = format!("{}:{}{}", endpoint.host, endpoint.port, endpoint.base_path);
        let mut pools = POOLS
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .expect("pool registry lock");
        Arc::clone(
            pools
                .entry(key)
                .or_insert_with(|| Arc::new(ConnPool::new(endpoint.clone(), timeout, conns))),
        )
    }

    /// Pool width (persistent connections).
    pub fn size(&self) -> usize {
        self.slots.len()
    }

    /// The endpoint all connections speak to.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Total requests that rode an already-open connection, across slots.
    pub fn reuse_count(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.lock().expect("conn slot lock").reuse_count())
            .sum()
    }
}

/// A chat-completions client that fans waves across a [`ConnPool`].
#[derive(Debug)]
pub struct PooledClient {
    cfg: HttpConfig,
    pool: Arc<ConnPool>,
    governor: Arc<RateGovernor>,
    requests_sent: AtomicUsize,
}

impl PooledClient {
    /// Builds a pooled client over the [shared](ConnPool::shared) pool
    /// for the config's endpoint ([`configured_conns`] wide) and the
    /// [global governor](RateGovernor::global).
    pub fn new(cfg: HttpConfig) -> Result<Self, HttpError> {
        let endpoint = Endpoint::parse(&cfg.base)?;
        let pool = ConnPool::shared(&endpoint, cfg.timeout, configured_conns());
        Ok(Self::with_parts(
            cfg,
            pool,
            Arc::clone(RateGovernor::global()),
        ))
    }

    /// Builds a pooled client from the environment (base URL from
    /// `NADA_API_BASE`, key from `NADA_API_KEY`).
    pub fn from_env(model: &str) -> Result<Self, HttpError> {
        Self::new(HttpConfig::from_env(model)?)
    }

    /// Builds a pooled client over an explicit pool and governor (tests
    /// inject private ones so scripted 429s cannot pause unrelated
    /// clients and pool width is under the test's control).
    pub fn with_parts(cfg: HttpConfig, pool: Arc<ConnPool>, governor: Arc<RateGovernor>) -> Self {
        Self {
            cfg,
            pool,
            governor,
            requests_sent: AtomicUsize::new(0),
        }
    }

    /// Requests actually sent (includes retries), across all connections.
    pub fn requests_sent(&self) -> usize {
        self.requests_sent.load(Ordering::Relaxed)
    }

    /// The pool this client dispatches over.
    pub fn pool(&self) -> &Arc<ConnPool> {
        &self.pool
    }

    /// One generation, with retry/backoff, on the first connection. Every
    /// returned error has already been redacted (wave dispatch goes
    /// through the infallible trait; see [`PooledClient::generate_wave`]).
    pub fn try_generate(&mut self, prompt: &Prompt) -> Result<Completion, HttpError> {
        self.generate_on(0, prompt, None)
    }

    /// One generation over connection `conn`; `slot` is the request's
    /// wave submission index, when it has one.
    fn generate_on(
        &self,
        conn: usize,
        prompt: &Prompt,
        slot: Option<usize>,
    ) -> Result<Completion, HttpError> {
        let mut sent = 0usize;
        let result = {
            let mut transport = self.pool.slots[conn].lock().expect("conn slot lock");
            generate_over(
                &mut transport,
                &self.cfg,
                &self.governor,
                prompt,
                slot,
                &mut sent,
            )
        };
        self.requests_sent.fetch_add(sent, Ordering::Relaxed);
        result
    }
}

/// The trait is infallible by design (mocks cannot fail); a hosted backend
/// that exhausted its retries has nothing sensible to return, so it
/// aborts the search loudly. The error was redacted by `generate_over`.
fn expect_completion(result: Result<Completion, HttpError>) -> Completion {
    result.unwrap_or_else(|e| panic!("http LLM backend failed after retries: {e}"))
}

impl LlmClient for PooledClient {
    fn model_name(&self) -> &str {
        &self.cfg.model
    }

    fn generate(&mut self, prompt: &Prompt) -> Completion {
        expect_completion(self.try_generate(prompt))
    }

    fn wave_size(&self) -> usize {
        self.pool.size()
    }

    /// Slot `i` of the wave runs on connection `i % width`; a failed slot
    /// panics, and the panic reaches the caller once the whole wave is
    /// accounted for.
    fn generate_wave(&mut self, prompt: &Prompt, count: usize) -> Vec<Completion> {
        let width = self.pool.size();
        self.pool.workers.map_indexed(count, |slot| {
            expect_completion(self.generate_on(slot % width, prompt, Some(slot)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_width_prefers_env_then_lanes() {
        // Cannot mutate the environment safely under the parallel test
        // runner; assert the fallback shape instead.
        let n = configured_conns();
        assert!(n >= 1);
        if std::env::var(CONNS_ENV).is_err() {
            assert_eq!(n, nada_exec::scheduler_lanes());
        }
    }

    #[test]
    fn pools_are_shared_per_endpoint() {
        let a = Endpoint::parse("http://127.0.0.1:39991/v1").unwrap();
        let b = Endpoint::parse("http://127.0.0.1:39992/v1").unwrap();
        let p1 = ConnPool::shared(&a, Duration::from_secs(1), 3);
        let p2 = ConnPool::shared(&a, Duration::from_secs(1), 7);
        let p3 = ConnPool::shared(&b, Duration::from_secs(1), 2);
        assert!(Arc::ptr_eq(&p1, &p2), "same endpoint shares one pool");
        assert_eq!(p2.size(), 3, "first creation fixes the width");
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(p3.size(), 2);
    }

    #[test]
    fn pool_width_has_a_floor_of_one() {
        let e = Endpoint::parse("http://127.0.0.1:39993/v1").unwrap();
        assert_eq!(ConnPool::new(e, Duration::from_secs(1), 0).size(), 1);
    }
}
