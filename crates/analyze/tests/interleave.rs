//! The interleaving checker's own contracts: the standard suite passes,
//! the explorer genuinely enumerates schedules, and the step-driven model
//! agrees with the real `hmmm_core::SharedTopK` on serial executions
//! (model faithfulness — a checker of a divergent model proves nothing).

use hmmm_analyze::mc::engine::{explore as explore_protocol, ExploreConfig, McReport};
use hmmm_analyze::mc::topk::{standard_scenarios, TopK};
use hmmm_core::SharedTopK;

/// Exhaustively explores every 2-thread schedule of one `SharedTopK`
/// scenario, rendering a violation as its message.
fn explore(k: usize, a: &[f64], b: &[f64]) -> Result<McReport, String> {
    let protocol = TopK::from_scores(k, [a, b])?;
    explore_protocol(&protocol, &ExploreConfig::exhaustive()).map_err(|cx| cx.to_string())
}

fn run_standard_suite() -> Vec<(String, McReport)> {
    standard_scenarios()
        .into_iter()
        .map(|(name, protocol)| {
            let report = explore_protocol(&protocol, &ExploreConfig::exhaustive())
                .unwrap_or_else(|cx| panic!("scenario {name}: {cx}"));
            (name, report)
        })
        .collect()
}

#[test]
fn standard_suite_upholds_all_invariants() {
    let reports = run_standard_suite();
    assert_eq!(reports.len(), 10);
    for (name, r) in &reports {
        assert!(r.states > 0, "{name}: no states explored");
        assert!(r.schedules >= 1, "{name}: no schedules counted");
        assert!(!r.truncated, "{name}: exhaustive run truncated");
    }
}

/// Regression gate on the model's step structure: every scenario's
/// state, transition, final-state and exact schedule count is pinned.
/// Identical verdicts are necessary but not sufficient — identical *path
/// counts* prove the explored graph is the same graph, i.e. a change
/// neither dropped interleavings nor invented states.
#[test]
fn scenario_counts_are_pinned() {
    const PINNED: &[(&str, usize, usize, usize, u128)] = &[
        ("k1_distinct", 65, 109, 1, 1061),
        ("k1_duplicate", 48, 82, 1, 610),
        ("k1_two_each", 229, 421, 1, 968_008),
        ("k2_basic_race", 392, 702, 2, 6_296_767),
        ("k2_duplicates", 207, 378, 1, 1_536_944),
        ("k2_descending", 733, 1364, 2, 217_633_681),
        ("k2_with_zero", 162, 279, 2, 70_900),
        ("k3_partial_fill", 165, 292, 2, 217_500),
        ("k3_overflow", 1583, 2938, 5, 3_381_075_517_743),
        ("k0_ignores_all", 4, 4, 1, 2),
    ];
    let reports = run_standard_suite();
    assert_eq!(reports.len(), PINNED.len());
    for ((name, r), &(pname, states, transitions, finals, schedules)) in
        reports.iter().zip(PINNED)
    {
        assert_eq!(name, pname, "scenario order changed");
        assert_eq!(r.states, states, "{name}: state count drifted");
        assert_eq!(r.transitions, transitions, "{name}: transition count drifted");
        assert_eq!(r.finals, finals, "{name}: final-state count drifted");
        assert_eq!(r.schedules, schedules, "{name}: schedule count drifted");
    }
    let total: u128 = reports.iter().map(|(_, r)| r.schedules).sum();
    assert_eq!(total, 3_381_302_243_216, "suite-wide schedule total drifted");
}

#[test]
fn schedule_count_matches_closed_form_for_tiny_case() {
    // k=1, one offer each. Per thread: Idle-start, scan slot0, CAS (or
    // raise), rescan, raise-load [, raise-CAS] — the DAG's path count is
    // fixed by the model, and a regression here means the step structure
    // changed (which would silently weaken the exhaustiveness claim).
    let r = explore(1, &[0.9], &[0.5]).unwrap();
    // Both threads together take a bounded number of steps; every
    // interleaving of two fixed sequences of lengths m and n is C(m+n, m).
    // The exact value is pinned as a golden number (verified once by
    // unmemoized enumeration): any drift flags a model change.
    assert_eq!(r.schedules, 1061);
    assert_eq!(r.finals, 1);
}

#[test]
fn zero_capacity_register_never_moves() {
    let r = explore(0, &[0.4], &[0.6]).unwrap();
    // Both offers hit the empty-slots fast path: two scheduling steps,
    // one final state, threshold pinned at +inf (checked inside explore).
    assert_eq!(r.finals, 1);
    assert_eq!(r.schedules, 2);
}

#[test]
fn rejects_invalid_scores() {
    assert!(explore(1, &[f64::NAN], &[]).is_err());
    assert!(explore(1, &[-1.0], &[]).is_err());
}

/// Serial replays: the model must agree with the real register when one
/// thread runs to completion before the other starts. (Concurrent
/// equivalence is exactly what the explorer proves *about the model*; this
/// pins the model to the implementation.)
#[test]
fn model_matches_real_register_serially() {
    let cases: Vec<(usize, Vec<f64>, Vec<f64>)> = vec![
        (1, vec![0.9], vec![0.5]),
        (2, vec![0.5, 0.9], vec![0.7]),
        (2, vec![0.5, 0.5], vec![0.5]),
        (3, vec![0.2, 0.9], vec![0.4, 0.6]),
        (3, vec![0.5], vec![0.7]),
        (2, vec![0.0, 0.8], vec![0.6, 0.0]),
        (4, vec![0.1, 0.2, 0.3], vec![0.9, 0.8]),
    ];
    for (k, a, b) in cases {
        let real = SharedTopK::new(k);
        for &s in a.iter().chain(b.iter()) {
            real.offer(s);
        }
        // The model's final threshold is checked against the exact k-th
        // best inside `explore` for *every* schedule — serial ones
        // included — so equality with the real register's serial result
        // follows if both match the same k-th best.
        let mut all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        all.sort_by(|x, y| hmmm_core::order::cmp_f64_desc(*x, *y));
        let expected = all.get(k.wrapping_sub(1)).copied().unwrap_or(0.0);
        assert_eq!(
            real.threshold(),
            expected,
            "real SharedTopK diverges from exact k-th best for k={k}"
        );
        explore(k, &a, &b).expect("model upholds invariants on the same scenario");
    }
}
