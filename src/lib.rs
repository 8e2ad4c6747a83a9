//! # NADA — Designing Network Algorithms via Large Language Models
//!
//! A full Rust reproduction of the HotNets 2024 paper *"Designing Network
//! Algorithms via Large Language Models"* (He et al., arXiv:2404.01617):
//! an autonomous pipeline that asks an LLM for alternative designs of a
//! network algorithm's components — here, the Pensieve ABR algorithm's RL
//! state representation and actor-critic architecture — then filters the
//! candidates cheaply (compilation check, fuzzing-based normalization
//! check, learned early stopping) and trains only the promising ones.
//!
//! The pipeline is **workload-generic**: the same loop that redesigns
//! Pensieve's state also redesigns a congestion-control (CWND) policy over
//! the same trace datasets (mirroring the authors' follow-up,
//! arXiv:2508.16074). See [`core`]'s `workload` module.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`traces`] | synthetic FCC/Starlink/4G/5G trace datasets + Mahimahi I/O |
//! | [`sim`] | environments behind the `NetEnv` trait: ABR simulator/emulator, congestion control, QoE, baselines |
//! | [`nn`] | from-scratch NN library (dense/conv1d/RNN/LSTM, Adam, A2C) |
//! | [`dsl`] | the design DSL: state & architecture "code blocks", per-workload schemas |
//! | [`llm`] | `LlmClient` trait, workload-parameterized §2.1 prompts, Table 2-calibrated `MockLlm`, on-disk cassettes |
//! | [`llm_http`] | dependency-free HTTP/1.1 chat-completions backend + loopback test server |
//! | [`earlystop`] | §2.2/§3.4 early-stopping classifiers |
//! | [`exec`] | the order-preserving work pool every fan-out runs on (`WorkPool`, `pool_map`) |
//! | [`obs`] | process-wide telemetry: atomic counters/gauges/histograms, span timers, Prometheus-style exposition |
//! | [`core`] | the NADA pipeline: `Workload` trait, generate → filter → train → rank |
//! | [`serve`] | multi-tenant search daemon: wire protocol, job scheduler, spool, cross-tenant score cache |
//!
//! ## Quickstart
//!
//! ```
//! use nada::core::{Nada, NadaConfig, RunScale};
//! use nada::llm::MockLlm;
//! use nada::traces::dataset::DatasetKind;
//!
//! // Tiny scale so this doc test stays fast; use RunScale::Quick for real runs.
//! let config = NadaConfig::new(DatasetKind::Starlink, RunScale::Tiny, 7);
//! let nada = Nada::new(config);
//! let mut llm = MockLlm::gpt4(7);
//! let outcome = nada.run_state_search(&mut llm);
//! println!(
//!     "original {:.3} -> best {:.3} ({:+.1}%)",
//!     outcome.original.test_score,
//!     outcome.best.test_score,
//!     outcome.improvement_pct()
//! );
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harnesses regenerating every table and figure of the paper.

pub use nada_core as core;
pub use nada_dsl as dsl;
pub use nada_earlystop as earlystop;
pub use nada_exec as exec;
pub use nada_llm as llm;
pub use nada_llm_http as llm_http;
pub use nada_nn as nn;
pub use nada_obs as obs;
pub use nada_serve as serve;
pub use nada_sim as sim;
pub use nada_traces as traces;
