//! # gorder-bench — experiment harness
//!
//! One binary per table/figure of the evaluation (see DESIGN.md §5):
//!
//! | binary | reproduces | original-paper counterpart |
//! |---|---|---|
//! | `table1` | dataset features | Table 1 |
//! | `table2` | ordering computation time | Table 9 |
//! | `table3` | PR cache statistics per ordering | Tables 3–4 |
//! | `fig1` | CPU vs cache-stall split, Original vs Gorder | Figure 1 |
//! | `fig3` | simulated-annealing (S, k) sweep | (replication-only) |
//! | `fig4` | PR runtime vs Gorder window size | Figure 8 |
//! | `fig5` | relative runtimes, all orderings × algorithms × datasets | Figure 9 |
//! | `fig6` | ordering rank histogram | (aggregation of Figure 9) |
//! | `gate` | CI regression gate vs a committed baseline | (replication-only) |
//!
//! Every binary accepts `--scale <f>` (dataset size multiplier, default
//! 0.25), `--quick` (tiny sizes + fewer repetitions, for smoke runs) and
//! `--seed <n>`. `fig5` writes its grid to `results/fig5.csv` so `fig6`
//! can aggregate without re-running.

pub mod args;
pub mod experiment;
pub mod fmt;
pub mod gate;
pub mod ranking;
pub mod resume;
pub mod robust;
pub mod schema;
pub mod stats;
pub mod timing;
pub mod tracefile;

pub use args::HarnessArgs;
pub use experiment::{run_grid, CellResult, GridConfig};
pub use gate::{
    compare, parse_report, render_report, run_gate, GateComparison, GateConfig, GateDelta,
    GateMode, GateReport,
};
pub use ranking::{rank_counts, Ranking};
pub use resume::{RecoveredCell, ResumeState};
pub use robust::{
    abandoned_count, guarded_ordering, guarded_ordering_run, reap_abandoned, resolve_ordering,
    run_grid_robust, run_grid_robust_full, run_grid_robust_observed, run_grid_robust_resumed,
    run_grid_robust_with, run_grid_robust_with_observed, run_guarded, CellStatus, OrderHooks,
    RobustCell, SweepReport,
};
pub use stats::{paired_stats, sign_test_p, PairedStats, Verdict};
pub use tracefile::{expected_config_hash, SweepTrace};

/// Resolves a kernel name case-insensitively through the engine's name
/// tables — the rule `gorder-cli run` applies — or explains the miss with
/// a "did you mean" hint.
pub fn resolve_algo(name: &str) -> Result<&'static str, String> {
    gorder_engine::canonical_name(name).ok_or_else(|| {
        let known: Vec<&str> = gorder_engine::all_kernel_names().collect();
        let hint = gorder_orders::closest_name(name, &known)
            .map(|s| format!(" (did you mean {s:?}?)"))
            .unwrap_or_default();
        format!(
            "unknown algorithm {name:?}{hint}; known: {}",
            known.join(", ")
        )
    })
}

/// Validates an `--algos` filter before any work runs: every name must
/// resolve (see [`resolve_algo`]), and an extension kernel needs
/// `extended`, since without it the grid has no such cell. `None`
/// filters are trivially valid.
pub fn check_algo_filter(names: &Option<Vec<String>>, extended: bool) -> Result<(), String> {
    let Some(names) = names else { return Ok(()) };
    for name in names {
        let canonical = resolve_algo(name).map_err(|e| format!("--algos: {e}"))?;
        if !extended && gorder_engine::EXTENSION_KERNELS.contains(&canonical) {
            return Err(format!(
                "--algos: {canonical} is an extension kernel; add --extended to run it"
            ));
        }
    }
    Ok(())
}

/// Validates an `--orderings` filter against the extended registry
/// before any work runs, returning the offending name and a "did you
/// mean" suggestion when one is close enough. `None`/empty filters are
/// trivially valid.
pub fn check_ordering_filter(names: &Option<Vec<String>>) -> Result<(), String> {
    let Some(names) = names else { return Ok(()) };
    for name in names {
        if gorder_orders::by_name_extended(name, 0).is_none() {
            let hint = gorder_orders::suggest_name(name)
                .map(|s| format!(" (did you mean {s:?}?)"))
                .unwrap_or_default();
            return Err(format!(
                "--orderings: unknown ordering {name:?}{hint}; \
                 run `gorder-cli list-orderings` for the full set"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &[&str]) -> Option<Vec<String>> {
        Some(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn algo_filter_accepts_known_names_case_insensitively() {
        assert!(check_algo_filter(&None, false).is_ok());
        assert!(check_algo_filter(&names(&["bfs", "PR", "kcore"]), false).is_ok());
        assert!(check_algo_filter(&names(&["wcc", "BC"]), true).is_ok());
    }

    #[test]
    fn algo_filter_rejects_unknown_names_with_a_hint() {
        let err = check_algo_filter(&names(&["BFS", "NQX"]), false).unwrap_err();
        assert!(err.contains("unknown algorithm \"NQX\""), "{err}");
        assert!(err.contains("did you mean \"NQ\""), "{err}");
        let err = check_algo_filter(&names(&["zzzzzzzz"]), true).unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn algo_filter_rejects_extensions_without_extended() {
        let err = check_algo_filter(&names(&["WCC"]), false).unwrap_err();
        assert!(err.contains("WCC is an extension kernel"), "{err}");
        assert!(err.contains("--extended"), "{err}");
        let err = check_algo_filter(&names(&["tri"]), false).unwrap_err();
        assert!(err.contains("Tri is an extension kernel"), "{err}");
    }

    #[test]
    fn grid_filter_matches_case_insensitively() {
        let mut cfg = GridConfig::new(0.02, 1, 1, true);
        cfg.algos = names(&["bfs", "WCC"]);
        assert_eq!(cfg.algo_names(), ["BFS"]);
        cfg.extended = true;
        assert_eq!(cfg.algo_names(), ["BFS", "WCC"]);
        cfg.algos = None;
        assert_eq!(cfg.algo_names().len(), 13);
    }
}
