//! The early-stopping model in isolation (paper §2.2, §3.4).
//!
//! ```sh
//! cargo run --release --example early_stopping_demo
//! ```
//!
//! Trains a pool of generated designs to completion on Starlink, fits the
//! Reward-Only 1D-CNN on their early reward curves with the paper's
//! label-smoothing protocol, and shows the FNR-0 threshold calibration in
//! action: how many unpromising designs would have been stopped, and
//! whether any top design would have been lost.

use nada::core::pipeline::pool_map;
use nada::core::score::smoothed_score;
use nada::core::{train_design, CompiledDesign, Nada, NadaConfig, RunScale, TrainRunConfig};
use nada::dsl::seeds;
use nada::earlystop::classifiers::{Classifier, DesignSample, FitConfig, RewardCnnClassifier};
use nada::earlystop::top_fraction_labels;
use nada::llm::{DesignKind, LlmClient, MockLlm, Prompt};
use nada::traces::dataset::DatasetKind;

fn main() {
    let cfg = NadaConfig::new(DatasetKind::Starlink, RunScale::Quick, 5);
    let early_epochs = cfg.early_epochs;
    let nada = Nada::new(cfg.clone());

    // Build a pool of accepted designs.
    let mut llm = MockLlm::gpt4(5);
    let prompt = Prompt::state(seeds::PENSIEVE_STATE_SOURCE);
    let candidates: Vec<nada::core::Candidate> = llm
        .generate_batch(&prompt, 72)
        .into_iter()
        .enumerate()
        .map(|(id, c)| nada::core::Candidate {
            id,
            kind: DesignKind::State,
            code: c.code,
            reasoning: c.reasoning,
        })
        .collect();
    let (accepted, stats) = nada.precheck_all(&candidates);
    println!(
        "pool: {} generated, {} accepted by the pre-checks",
        stats.total,
        accepted.len()
    );

    // Train every design fully (ground truth).
    let arch = seeds::pensieve_arch();
    let run_cfg = TrainRunConfig::from(&cfg);
    let dataset = nada.dataset();
    let workload = nada.workload();
    let results: Vec<Option<(String, nada::core::TrainOutcome)>> =
        pool_map(accepted, &|(cand, design)| {
            let CompiledDesign::State(state) = design else {
                return None;
            };
            let out = train_design(
                workload,
                &state,
                &arch,
                dataset,
                &run_cfg,
                5000 + cand.id as u64,
            )
            .ok()?;
            Some((cand.code, out))
        });
    let pool: Vec<(String, nada::core::TrainOutcome)> = results.into_iter().flatten().collect();
    println!(
        "trained {} designs to completion ({} epochs each)",
        pool.len(),
        cfg.train_epochs
    );

    // Fit the paper's Reward-Only classifier on early curves.
    let samples: Vec<DesignSample> = pool
        .iter()
        .map(|(code, out)| DesignSample {
            reward_curve: out.early_curve(early_epochs).to_vec(),
            code: code.clone(),
        })
        .collect();
    let finals: Vec<f64> = pool
        .iter()
        .map(|(_, o)| smoothed_score(&o.checkpoints))
        .collect();
    let fit = FitConfig {
        top_fraction: 0.05,
        ..FitConfig::default()
    };
    let mut clf = RewardCnnClassifier::new(&fit);
    clf.fit(&samples, &finals, &fit);

    // Replay the decision: who would have been stopped?
    let labels = top_fraction_labels(&finals, fit.top_fraction);
    let mut stopped = 0;
    let mut lost_top = 0;
    for (sample, &is_top) in samples.iter().zip(&labels) {
        let keep = clf.keep(sample);
        if !keep {
            stopped += 1;
            if is_top {
                lost_top += 1;
            }
        }
    }
    println!(
        "\nearly stopping at epoch {} would stop {}/{} designs; top designs lost: {}",
        early_epochs,
        stopped,
        samples.len(),
        lost_top
    );
    println!(
        "epochs saved: {} of {}",
        stopped * (cfg.train_epochs - early_epochs),
        samples.len() * cfg.train_epochs
    );
    println!(
        "(the paper stops 87% of unseen suboptimal designs without losing any of the top five)"
    );
}
