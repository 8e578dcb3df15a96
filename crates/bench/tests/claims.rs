//! The headline claims, asserted: the claims table evaluated over its
//! input experiments, computed through the experiment registry. Its own
//! test binary, so the seven experiments do not share the CPU with the
//! library's wall-clock tests.

use coyote_bench::claims::{self, claims, summary};
use coyote_bench::{experiment, ExperimentResult, Run};
use coyote_sim::par_map;
use std::sync::OnceLock;

/// The claims' input experiments, computed once for every test here.
fn inputs() -> &'static [ExperimentResult] {
    static INPUTS: OnceLock<Vec<ExperimentResult>> = OnceLock::new();
    INPUTS.get_or_init(|| {
        par_map(&claims::inputs(), |_, id| match experiment(id) {
            Some(Run::Alone(run)) => run(),
            _ => panic!("{id} is not an experiment that runs alone"),
        })
    })
}

fn repo_file(name: &str) -> String {
    format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn every_headline_claim_passes() {
    let result = claims(inputs());
    for row in &result.rows {
        assert_eq!(row.label, "PASS", "{}", row.note.as_deref().unwrap_or(""));
    }
    assert_eq!(result.verdict, "every headline claim reproduced");
}

#[test]
fn claims_json_matches_the_committed_result() {
    let result = claims(inputs());
    let committed = std::fs::read(repo_file("results/claims.json")).expect("results/claims.json");
    let fresh = serde_json::to_vec_pretty(&result).expect("serializable result");
    assert!(
        fresh == committed,
        "results/claims.json differs from the evaluated table:\n{}",
        String::from_utf8_lossy(&fresh)
    );
}

#[test]
fn experiments_md_holds_the_rendered_summary() {
    let doc = std::fs::read_to_string(repo_file("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let table = summary(inputs());
    assert!(
        doc.contains(&table),
        "EXPERIMENTS.md must hold the claims summary verbatim:\n{table}"
    );
}

/// The evaluation over `inputs()` with `edit` applied to experiment `id`.
fn claims_with(id: &str, edit: impl FnOnce(&mut ExperimentResult)) -> ExperimentResult {
    let mut results = inputs().to_vec();
    edit(
        results
            .iter_mut()
            .find(|r| r.id == id)
            .expect("input present"),
    );
    claims(&results)
}

fn assert_only_row_fails(result: &ExperimentResult, failing: usize) {
    let labels: Vec<&str> = result.rows.iter().map(|r| r.label.as_str()).collect();
    for (i, label) in labels.iter().enumerate() {
        let expected = if i == failing { "FAIL" } else { "PASS" };
        assert_eq!(*label, expected, "row {i} of {labels:?}");
    }
    assert_eq!(result.verdict, "AT LEAST ONE CLAIM FAILED");
}

#[test]
fn a_claim_fails_when_its_experiment_has_no_rows() {
    let result = claims_with("fig7b", |fig7b| fig7b.rows.clear());
    assert_only_row_fails(&result, 0);
}

#[test]
fn a_claim_fails_when_its_row_is_mislabelled() {
    // "132 KB" contains "32 KB": a substring match would still read it.
    let result = claims_with("fig10a", |fig10a| {
        let row = (fig10a.rows.iter_mut())
            .find(|r| r.label == "32 KB")
            .expect("the 32 KB row");
        row.label = "132 KB".into();
    });
    assert_only_row_fails(&result, 5);
}

#[test]
fn a_claim_fails_when_its_experiment_is_missing() {
    let results: Vec<ExperimentResult> = (inputs().iter())
        .filter(|r| r.id != "fig12")
        .cloned()
        .collect();
    assert_only_row_fails(&claims(&results), 8);
}
