//! The shell lint against the runtime it renders, end to end (tier-1).
//!
//! * The example shells are clean.
//! * The completion ring's one size is the bound the driver guard holds
//!   every batch to, and no spec can declare another.
//! * Over every spec in `examples/shells` and the lint fixtures,
//!   coyote-lint reports an error exactly when the runtime refuses the
//!   spec somewhere: `Platform::load`, `QpConfig::validate` or the build
//!   flow's fit check.

use coyote::build::check_service_fit;
use coyote::Platform;
use coyote_chaos::RetryPolicy;
use coyote_driver::{CoyoteDriver, ReconfigError, RING_SLOTS};
use coyote_fabric::{Bitstream, BitstreamKind, DeviceKind};
use coyote_lint::{lint_shell_spec, ShellSpec};
use coyote_sim::SimTime;
use std::path::PathBuf;

fn spec(text: &str) -> ShellSpec {
    ShellSpec::from_json(text).unwrap()
}

/// The top-level `.json` specs of `dir` (relative to the workspace root),
/// sorted.
fn specs_in(dir: &str) -> Vec<(PathBuf, ShellSpec)> {
    let dir = PathBuf::from(format!("{}/../../{dir}", env!("CARGO_MANIFEST_DIR")));
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).unwrap();
            (p, spec(&text))
        })
        .collect()
}

#[test]
fn current_example_shells_are_platform_clean() {
    let examples = specs_in("examples/shells");
    assert_eq!(examples.len(), 3);
    for (path, s) in examples {
        let r = lint_shell_spec(&s);
        assert!(r.is_clean(), "{}:\n{}", path.display(), r.render_human());
    }
}

// --- Static == dynamic ------------------------------------------------

/// One batched reconfiguration with the image split into `batch`
/// single-frame runs.
fn run_batched(batch: u64) -> Result<(), ReconfigError> {
    let mut drv = CoyoteDriver::new(DeviceKind::U55C);
    let shell = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, batch, 7);
    drv.reconfigure_batched(
        SimTime::ZERO,
        shell.bytes(),
        false,
        RetryPolicy::reconfig_default(),
        Some(1),
    )
    .map(|_| ())
}

#[test]
fn static_wait_for_matches_dynamic_ring_guard() {
    // The static bound is the one ring size: the driver refuses a batch
    // with `RingTooSmall` exactly when it has more runs than that.
    for batch in 1..=24u64 {
        let outcome = run_batched(batch);
        if batch as usize <= RING_SLOTS {
            outcome.unwrap();
        } else {
            assert_eq!(
                outcome.unwrap_err(),
                ReconfigError::RingTooSmall {
                    slots: RING_SLOTS,
                    batch: batch as usize
                }
            );
        }
    }

    // No spec moves that bound: one that sizes the ring is refused by name.
    let err = ShellSpec::from_json(
        r#"{
            "name": "prop", "device": "u55c", "n_vfpgas": 1,
            "memory_channels": 0, "networking": false, "sniffer": false,
            "n_host_streams": 4, "n_card_streams": 0, "node_id": 1,
            "reconfig": { "ring_slots": 4, "max_batch_runs": 8 }
        }"#,
    )
    .unwrap_err();
    assert!(err.contains("unknown key `reconfig`"), "{err}");
}

// --- The lint renders the runtime's refusals -----------------------------

/// Whether the runtime refuses `s` anywhere, and where.
fn runtime_refusals(s: &ShellSpec) -> Vec<String> {
    let Ok(cfg) = s.to_shell_config() else {
        return vec!["no ShellConfig".to_string()];
    };
    let mut refused = Vec::new();
    if let Err(e) = Platform::load(cfg.clone()) {
        refused.push(format!("Platform::load: {e}"));
    }
    if let Some(Err(e)) = s.qp.as_ref().map(|q| q.to_qp_config().validate()) {
        refused.push(format!("QpConfig::validate: {e}"));
    }
    if cfg.validate().is_ok() {
        if let Err(e) = check_service_fit(&cfg) {
            refused.push(format!("check_fit: {e}"));
        }
    }
    refused
}

#[test]
fn lint_errors_exactly_when_the_runtime_refuses() {
    let mut specs = specs_in("examples/shells");
    specs.extend(specs_in("crates/lint/fixtures"));
    let mut outcomes = (0, 0);
    for (path, s) in &specs {
        let report = lint_shell_spec(s);
        let refused = runtime_refusals(s);
        assert_eq!(
            report.has_errors(),
            !refused.is_empty(),
            "{}: runtime refusals {refused:?}, lint:\n{}",
            path.display(),
            report.render_human()
        );
        if refused.is_empty() {
            outcomes.0 += 1;
        } else {
            outcomes.1 += 1;
        }
    }
    // Clean examples and fixtures, and one seeded refusal per error rule.
    assert_eq!(outcomes, (6, 5), "(accepted, refused)");
}
