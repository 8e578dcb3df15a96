//! The headline claims, asserted: the claims table evaluated over its
//! input experiments, computed through the experiment registry. Its own
//! test binary, so the eight experiments do not share the CPU with the
//! library's wall-clock tests. EXPERIMENTS.md's per-figure tables are
//! checked here too, cell by cell against the committed results.

use coyote_bench::claims::{self, claims, summary};
use coyote_bench::{experiment, ExperimentResult, Run};
use coyote_sim::par_map;
use std::collections::BTreeMap;
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

// --- EXPERIMENTS.md's per-figure tables ---------------------------------

/// A committed `results/<id>.json`, as far as the tables read it.
#[derive(Clone, serde::Deserialize)]
struct Committed {
    rows: Vec<CommittedRow>,
}

#[derive(Clone, serde::Deserialize)]
struct CommittedRow {
    label: String,
    measured: Vec<(String, f64)>,
}

/// Where a cell of a per-figure table reads from, given its row's first
/// cell and its column: a result row label and metric, or `None` for the
/// paper's values and prose.
type CellSource = fn(&str, usize) -> Option<(String, &'static str)>;

/// EXPERIMENTS.md's per-figure tables: the `##` heading each sits under,
/// the experiment it reports and where its measured cells read from.
const TABLES: &[(&str, &str, CellSource)] = &[
    ("Table 2 ", "table2", |row, col| {
        (col == 2).then(|| (row.to_string(), "MB/s"))
    }),
    ("Table 3 ", "table3", |row, col| {
        let label = [
            "#1 MMU 2MB -> 1GB pages",
            "#2 RDMA -> 2 numeric kernels",
            "#3 RDMA+sniffer -> RDMA",
        ]
        .into_iter()
        .find(|label| row.split(' ').next() == label.split(' ').next())?;
        let metric = match col {
            2 => "kernel ms",
            4 => "total ms",
            _ => return None,
        };
        Some((label.to_string(), metric))
    }),
    ("Fig. 7(a) ", "fig7a", |row, col| {
        (col == 1).then(|| (format!("{row} channels"), "GB/s"))
    }),
    ("Fig. 7(b) ", "fig7b", |row, col| {
        let metric = ["shell flow s", "app flow s", "saving %"].get(col.checked_sub(1)?)?;
        Some((row.to_string(), *metric))
    }),
    ("Fig. 8 ", "fig8", |row, col| {
        let metric = ["per-vFPGA GB/s", "cumulative GB/s"].get(col.checked_sub(1)?)?;
        Some((format!("{row} vFPGAs"), *metric))
    }),
    ("Fig. 10(a) ", "fig10a", |row, col| {
        let label = if row == "1 MB" { "1024 KB" } else { row };
        (col == 1).then(|| (label.to_string(), "MB/s"))
    }),
    ("Fig. 10(b) ", "fig10b", |row, col| {
        let metric = ["MB/s", "scaling x"].get(col.checked_sub(1)?)?;
        Some((format!("{row} cThreads"), *metric))
    }),
    ("Fig. 11 ", "fig11", |row, col| {
        let version = ["v2", "v1"].get(col.checked_sub(1)?)?;
        match row {
            "Throughput (GB/s)" => Some((format!("Coyote {version} throughput"), "GB/s")),
            "Utilization (% of U55C)" => {
                Some((format!("Coyote {version} utilization"), "% of U55C"))
            }
            "On-demand app load (ms)" if col == 1 => Some(("on-demand app load".into(), "ms")),
            _ => None,
        }
    }),
    ("Fig. 12 ", "fig12", |row, col| {
        let metric = ["Coyote v2 rows/s", "PYNQ rows/s", "speedup x"].get(col.checked_sub(1)?)?;
        Some((format!("batch {row}"), *metric))
    }),
];

/// One measured cell of a per-figure table.
#[derive(Debug)]
struct TableCell {
    id: &'static str,
    label: String,
    metric: &'static str,
    /// The number as the table shows it, thousands separators and unit
    /// suffix removed.
    shown: String,
}

impl TableCell {
    /// Decimal places the table shows.
    fn decimals(&self) -> usize {
        self.shown.split_once('.').map_or(0, |(_, frac)| frac.len())
    }
}

/// Every measured cell of the per-figure tables in `doc`. Panics on a
/// missing table, or on a table row none of whose cells is measured.
fn table_cells(doc: &str) -> Vec<TableCell> {
    let mut cells = Vec::new();
    for &(heading, id, source) in TABLES {
        let section = (doc.split("\n## "))
            .find(|s| s.starts_with(heading))
            .unwrap_or_else(|| panic!("EXPERIMENTS.md has no `## {heading}` section"));
        let rows: Vec<Vec<&str>> = (section.lines())
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .skip(2) // The header and its separator.
            .map(|l| l.trim_matches('|').split('|').map(str::trim).collect())
            .collect();
        assert!(!rows.is_empty(), "`{heading}` has no table rows");
        for row in rows {
            let before = cells.len();
            for (col, text) in row.iter().enumerate().skip(1) {
                if let Some((label, metric)) = source(row[0], col) {
                    let shown = text.trim_end_matches(['%', '×']).replace(',', "");
                    cells.push(TableCell {
                        id,
                        label,
                        metric,
                        shown,
                    });
                }
            }
            assert!(
                cells.len() > before,
                "`{heading}` row {row:?} reads no result"
            );
        }
    }
    cells
}

/// The cells whose committed value, rounded to the digits shown, is not
/// what the table shows.
fn table_mismatches(cells: &[TableCell], committed: &BTreeMap<&str, Committed>) -> Vec<String> {
    let value = |c: &TableCell| {
        let row = committed[c.id].rows.iter().find(|r| r.label == c.label)?;
        (row.measured.iter())
            .find(|(m, _)| m == c.metric)
            .map(|&(_, v)| v)
    };
    cells
        .iter()
        .filter_map(|c| match value(c) {
            Some(v) if format!("{v:.*}", c.decimals()) == c.shown => None,
            Some(v) => Some(format!(
                "{} `{}` {}: table {}, result {v}",
                c.id, c.label, c.metric, c.shown
            )),
            None => Some(format!("{} has no `{}` {}", c.id, c.label, c.metric)),
        })
        .collect()
}

fn committed_results() -> BTreeMap<&'static str, Committed> {
    (TABLES.iter())
        .map(|&(_, id, _)| {
            let path = repo_file(&format!("results/{id}.json"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let result = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e:?}"));
            (id, result)
        })
        .collect()
}

#[test]
fn experiments_md_tables_match_the_committed_results() {
    let doc = std::fs::read_to_string(repo_file("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let cells = table_cells(&doc);
    let mismatches = table_mismatches(&cells, &committed_results());
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn a_table_cell_fails_when_its_committed_value_moves() {
    let doc = std::fs::read_to_string(repo_file("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let cells = table_cells(&doc);
    let committed = committed_results();
    for cell in &cells {
        // One unit in the last digit the table shows.
        let step = 10f64.powi(-(cell.decimals() as i32));
        let mut edited = committed.clone();
        let row = (edited.get_mut(cell.id).unwrap().rows.iter_mut())
            .find(|r| r.label == cell.label)
            .unwrap();
        let (_, v) = (row.measured.iter_mut())
            .find(|(m, _)| m == cell.metric)
            .unwrap();
        *v += step;
        let mismatches = table_mismatches(&cells, &edited);
        assert_eq!(mismatches.len(), 1, "{cell:?}: {mismatches:?}");
    }
}
