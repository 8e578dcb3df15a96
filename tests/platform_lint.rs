//! The shell lint against the runtime it renders, end to end (tier-1).
//!
//! * The batched-reconfiguration deadlock the driver shipped a fix for (a
//!   completion ring smaller than the batches in flight, once the pair
//!   check CF009) surfaces from the spec lint as WF001 with the full
//!   hold/wait chain, while the example shells are clean.
//! * WF001 and the driver guard agree: a spec WF001 passes completes
//!   `reconfigure_batched` without `RingTooSmall`, and a flagged one is
//!   refused (property-tested over ring/batch geometry).
//! * Over every spec in `examples/shells` and the lint fixtures,
//!   coyote-lint reports an error exactly when the runtime refuses the
//!   spec somewhere: `Platform::load`, `QpConfig::validate`,
//!   `reconfigure_batched` or the build flow's fit check.

use coyote::build::check_service_fit;
use coyote::Platform;
use coyote_chaos::RetryPolicy;
use coyote_driver::{CoyoteDriver, ReconfigError, RingWaitFacts};
use coyote_fabric::{Bitstream, BitstreamKind, DeviceKind};
use coyote_lint::{lint_shell_spec, ShellSpec};
use coyote_sim::SimTime;
use proptest::prelude::*;
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

// --- The historical deadlock, as a wait-for cycle ----------------------

#[test]
fn pre_pr7_ring_sizing_config_is_a_wait_for_cycle() {
    // The exact shape the retired CF009 was written for: a completion ring
    // smaller than the largest batch. Four parties: software waits on the
    // doorbell, the doorbell on the engine, the engine on ring space, and
    // ring space on software's reap.
    let s = spec(
        r#"{
            "name": "pre-pr7", "device": "u55c", "n_vfpgas": 1,
            "memory_channels": 0, "networking": false, "sniffer": false,
            "n_host_streams": 4, "n_card_streams": 0, "node_id": 1,
            "reconfig": { "ring_slots": 4, "max_batch_runs": 8 }
        }"#,
    );
    let r = lint_shell_spec(&s);
    let hits: Vec<_> = r.of_rule("WF001").collect();
    assert_eq!(hits.len(), 1, "{}", r.render_human());
    assert_eq!(hits[0].location.path, "reconfig.ring_slots");
    assert!(
        hits[0].message.contains(
            "software -> reconfig.doorbell -> reconfig.engine -> reconfig.ring -> software"
        ),
        "full chain missing:\n{}",
        hits[0].message
    );

    // The shipped fix — a ring at least one batch deep — breaks the cycle.
    let mut fixed = s.clone();
    fixed.reconfig.as_mut().unwrap().ring_slots = 8;
    assert!(lint_shell_spec(&fixed).of_rule("WF001").count() == 0);

    // But two concurrent batches re-create it: the bound is batch x
    // concurrency, not batch alone.
    let mut concurrent = fixed.clone();
    concurrent.reconfig.as_mut().unwrap().max_concurrent = Some(2);
    let r = lint_shell_spec(&concurrent);
    assert_eq!(r.of_rule("WF001").count(), 1, "{}", r.render_human());
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

/// One batched reconfiguration against a driver whose ring holds `slots`
/// records, with the image split into `batch` single-frame runs.
fn run_batched(slots: usize, batch: u64) -> Result<(), ReconfigError> {
    let mut drv = CoyoteDriver::new(DeviceKind::U55C);
    drv.set_reconfig_ring_slots(slots);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// WF001 agrees with the dynamic driver guard over the whole
    /// ring/batch plane: it fires exactly when `reconfigure_batched`
    /// refuses the batch with `RingTooSmall`.
    #[test]
    fn static_wait_for_matches_dynamic_ring_guard(
        slots in 1usize..=24,
        batch in 1u64..=24,
    ) {
        let facts = RingWaitFacts { slots, max_batch: batch as usize, concurrent: 1 };
        let s = spec(&format!(
            r#"{{
                "name": "prop", "device": "u55c", "n_vfpgas": 1,
                "memory_channels": 0, "networking": false, "sniffer": false,
                "n_host_streams": 4, "n_card_streams": 0, "node_id": 1,
                "reconfig": {{ "ring_slots": {slots}, "max_batch_runs": {batch} }}
            }}"#,
        ));
        let flagged = lint_shell_spec(&s).of_rule("WF001").count() == 1;
        prop_assert_eq!(flagged, facts.engine_waits_on_ring());

        match run_batched(slots, batch) {
            Err(ReconfigError::RingTooSmall { .. }) => prop_assert!(
                flagged,
                "driver refused a batch the static analysis called clean"
            ),
            Ok(()) => prop_assert!(
                !flagged,
                "static analysis flagged a batch the driver completed"
            ),
            Err(e) => prop_assert!(false, "unexpected reconfig error: {e:?}"),
        }
    }

    /// Concurrency scales the static bound exactly like the shell config's
    /// own fact bridge says it does.
    #[test]
    fn concurrency_multiplies_the_static_bound(
        slots in 1usize..=32,
        batch in 1usize..=8,
        concurrency in 1usize..=4,
    ) {
        let s = spec(&format!(
            r#"{{
                "name": "prop", "device": "u55c", "n_vfpgas": 1,
                "memory_channels": 0, "networking": false, "sniffer": false,
                "n_host_streams": 4, "n_card_streams": 0, "node_id": 1,
                "reconfig": {{ "ring_slots": {slots}, "max_batch_runs": {batch},
                               "max_concurrent": {concurrency} }}
            }}"#,
        ));
        let facts = s.ring_wait_facts();
        prop_assert_eq!(facts.required_slots(), batch * concurrency);
        let flagged = lint_shell_spec(&s).of_rule("WF001").count() == 1;
        prop_assert_eq!(flagged, facts.engine_waits_on_ring());
    }
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
    // Every batch that may be in flight at once completes into the one
    // ring, so they are submitted as one batch of that many runs.
    let facts = s.ring_wait_facts();
    if let Err(e) = run_batched(facts.slots, facts.required_slots() as u64) {
        refused.push(format!("reconfigure_batched: {e}"));
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
    assert_eq!(outcomes, (6, 6), "(accepted, refused)");
}
