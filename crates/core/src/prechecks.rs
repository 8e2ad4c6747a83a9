//! The paper's two pre-checks (§2.2).
//!
//! 1. **Compilation check** — "a trial run of the LLM-generated code. Any
//!    code that triggers an exception is immediately excluded": here,
//!    lex/parse/type-check plus the interpreter's trial run.
//! 2. **Normalization check** — fuzz the state code with random inputs and
//!    reject if any feature exceeds `T = 100`. "This normalization check is
//!    applied only to state generation code, not the code that defines the
//!    neural network architecture."

use crate::candidate::{Candidate, CompiledDesign, RejectReason};
use nada_dsl::fuzz::NormCheckOutcome;
use nada_dsl::{
    compile_arch, compile_state_with_schema, normalization_check, FuzzConfig, InputSchema,
};
use nada_llm::DesignKind;

/// Runs both pre-checks on one candidate against a workload's schema.
pub fn precheck(
    candidate: &Candidate,
    fuzz: &FuzzConfig,
    schema: &InputSchema,
) -> Result<CompiledDesign, RejectReason> {
    match candidate.kind {
        DesignKind::State => {
            let compiled = compile_state_with_schema(&candidate.code, schema.clone())
                .map_err(RejectReason::CompileError)?;
            match normalization_check(&compiled, fuzz) {
                NormCheckOutcome::Pass => Ok(CompiledDesign::State(Box::new(compiled))),
                NormCheckOutcome::TooLarge { feature, value } => {
                    Err(RejectReason::Unnormalized { feature, value })
                }
                NormCheckOutcome::EvalError(e) => Err(RejectReason::FuzzEvalError(e)),
            }
        }
        DesignKind::Architecture => {
            let cfg = compile_arch(&candidate.code).map_err(RejectReason::CompileError)?;
            Ok(CompiledDesign::Arch(cfg))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nada_dsl::parser::MAX_EXPR_DEPTH;
    use nada_dsl::seeds::{CC_STATE_SOURCE, PENSIEVE_ARCH_SOURCE, PENSIEVE_STATE_SOURCE};
    use nada_dsl::{abr_schema, cc_schema};

    fn cand(kind: DesignKind, code: &str) -> Candidate {
        Candidate {
            id: 0,
            kind,
            code: code.into(),
            reasoning: None,
        }
    }

    #[test]
    fn seed_designs_pass_both_checks() {
        let fuzz = FuzzConfig::default();
        let abr = abr_schema();
        assert!(precheck(&cand(DesignKind::State, PENSIEVE_STATE_SOURCE), &fuzz, &abr).is_ok());
        assert!(precheck(
            &cand(DesignKind::Architecture, PENSIEVE_ARCH_SOURCE),
            &fuzz,
            &abr
        )
        .is_ok());
        assert!(precheck(
            &cand(DesignKind::State, CC_STATE_SOURCE),
            &fuzz,
            &cc_schema()
        )
        .is_ok());
    }

    #[test]
    fn syntax_errors_are_compile_rejects() {
        let fuzz = FuzzConfig::default();
        let r = precheck(
            &cand(DesignKind::State, "state x { feature f = ; }"),
            &fuzz,
            &abr_schema(),
        );
        assert!(matches!(r, Err(RejectReason::CompileError(_))));
    }

    #[test]
    fn unnormalized_states_are_fuzz_rejects() {
        let fuzz = FuzzConfig::default();
        let code = "state raw { input next_chunk_sizes_bytes: vec[6]; \
                    feature s = next_chunk_sizes_bytes; }";
        let r = precheck(&cand(DesignKind::State, code), &fuzz, &abr_schema());
        assert!(matches!(r, Err(RejectReason::Unnormalized { .. })));
    }

    #[test]
    fn unnormalized_cc_states_are_fuzz_rejects() {
        // Raw RTTs in milliseconds: the CC analogue of raw byte counts.
        let fuzz = FuzzConfig::default();
        let code = "state raw { input rtt_history_ms: vec[8]; feature r = rtt_history_ms; }";
        let r = precheck(&cand(DesignKind::State, code), &fuzz, &cc_schema());
        assert!(matches!(r, Err(RejectReason::Unnormalized { .. })));
    }

    #[test]
    fn states_do_not_compile_against_the_wrong_schema() {
        let fuzz = FuzzConfig::default();
        let r = precheck(
            &cand(DesignKind::State, CC_STATE_SOURCE),
            &fuzz,
            &abr_schema(),
        );
        assert!(matches!(r, Err(RejectReason::CompileError(_))));
    }

    /// Prechecks run on pool workers and daemon lanes with 2 MiB stacks.
    /// A pathologically deep feature must come back as a compile reject on
    /// such a thread; recursing through it there overflowed the stack and
    /// aborted the whole process. The deepest accepted form still fits.
    #[test]
    fn over_deep_features_are_compile_rejects_on_small_stacks() {
        // The leaf and the division are two levels; the calls make up the rest.
        let at_cap = MAX_EXPR_DEPTH - 2;
        let calls = format!(
            "state calls {{ input buffer_s: scalar; feature f = {}buffer_s / 100.0{}; }}",
            "abs(".repeat(at_cap),
            ")".repeat(at_cap)
        );
        let parens = format!(
            "state deep {{ feature f = {}1.0{}; }}",
            "(".repeat(3_000),
            ")".repeat(3_000)
        );
        let chain = format!(
            "state long {{ feature f = {}; }}",
            vec!["1.0"; 10_000].join("+")
        );
        for (code, too_deep) in [(calls, false), (parens, true), (chain, true)] {
            let rejected = std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || {
                    let r = precheck(
                        &cand(DesignKind::State, &code),
                        &FuzzConfig::default(),
                        &abr_schema(),
                    );
                    matches!(r, Err(RejectReason::CompileError(_)))
                })
                .unwrap()
                .join()
                .unwrap();
            assert_eq!(rejected, too_deep);
        }
    }

    #[test]
    fn architectures_skip_the_normalization_check() {
        // An arch candidate can't be "unnormalized" — only compile-rejected.
        let fuzz = FuzzConfig::default();
        let r = precheck(
            &cand(DesignKind::Architecture, "network n { garbage }"),
            &fuzz,
            &abr_schema(),
        );
        assert!(matches!(r, Err(RejectReason::CompileError(_))));
    }
}
