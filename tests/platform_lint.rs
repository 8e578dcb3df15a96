//! Whole-platform static analysis, end to end (tier-1).
//!
//! The acceptance contract for the platform analyzer:
//!
//! * The two deadlock configurations this repo has historically shipped
//!   fixes for — the pre-window-fill-ACK RDMA starvation and the
//!   pre-ring-sizing batched-reconfiguration stall (once the pair checks
//!   CF001 and CF009) — must both surface from the spec lint as WF001
//!   *wait-for cycles* with the full hold/wait chain in the diagnostic,
//!   while the current example shells are clean.
//! * The static wait-for predicate and the dynamic driver guard must
//!   agree: a config the graph calls cycle-free completes
//!   `reconfigure_batched` without `RingTooSmall`, and a flagged config
//!   fails the guard (property-tested over ring/batch geometry).
//! * Scanning every example shell stays comfortably inside the
//!   interactive budget (<100 ms).

use coyote_chaos::RetryPolicy;
use coyote_driver::{CoyoteDriver, ReconfigError, RingWaitFacts};
use coyote_fabric::{Bitstream, BitstreamKind, DeviceKind};
use coyote_lint::platform::lint_platform;
use coyote_lint::{lint_shell_spec, ShellSpec};
use coyote_sim::SimTime;
use proptest::prelude::*;

fn spec(text: &str) -> ShellSpec {
    ShellSpec::from_json(text).unwrap()
}

fn example(name: &str) -> ShellSpec {
    let path = format!(
        "{}/../../examples/shells/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    spec(&std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}")))
}

// --- The historical deadlocks, as wait-for cycles ----------------------

#[test]
fn pre_pr2_ack_starvation_config_is_a_wait_for_cycle() {
    // The exact shape the retired CF001 was written for: end-of-message-only
    // ACKs and a message longer than window*MTU. The platform graph sees it as a
    // three-party cycle: the sender fills the window mid-message, window
    // slots wait on the ACK path, and the ACK path waits on the final
    // packet the stalled sender can never send.
    let s = spec(
        r#"{
            "name": "pre-pr2", "device": "u55c", "n_vfpgas": 1,
            "memory_channels": 0, "networking": true, "sniffer": false,
            "n_host_streams": 4, "n_card_streams": 0, "node_id": 1,
            "qp": { "mtu": 4096, "window": 64, "max_msg_bytes": 1048576,
                    "ack_on_window_fill": false }
        }"#,
    );
    let r = lint_shell_spec(&s);
    let hits: Vec<_> = r.of_rule("WF001").collect();
    assert_eq!(hits.len(), 1, "{}", r.render_human());
    assert_eq!(hits[0].location.path, "cycle(rdma.sender)");
    assert!(
        hits[0]
            .message
            .contains("rdma.sender -> rdma.window -> rdma.ack -> rdma.sender"),
        "full chain missing:\n{}",
        hits[0].message
    );

    // Flip the safeguard back on: the ack->sender edge disappears and the
    // cycle with it, exactly like the runtime fix.
    let mut fixed = s.clone();
    fixed.qp.as_mut().unwrap().ack_on_window_fill = true;
    assert!(
        lint_shell_spec(&fixed).of_rule("WF001").count() == 0,
        "window-fill ACK must break the cycle"
    );
}

#[test]
fn pre_pr7_ring_sizing_config_is_a_wait_for_cycle() {
    // The exact shape the retired CF009 was written for: a completion ring smaller
    // than the largest batch. Four parties: software waits on the
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
    assert_eq!(hits[0].location.path, "cycle(software)");
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
    for name in [
        "host_only.json",
        "host_memory.json",
        "host_memory_network.json",
    ] {
        let r = lint_shell_spec(&example(name));
        assert!(r.is_clean(), "{name}:\n{}", r.render_human());
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

    /// The static wait-for predicate agrees with the dynamic driver guard
    /// over the whole ring/batch plane: WF001 fires exactly when
    /// `reconfigure_batched` refuses the batch with `RingTooSmall`.
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

// --- Wall clock --------------------------------------------------------

#[test]
fn whole_platform_scan_stays_interactive() {
    let shells: Vec<ShellSpec> = [
        "host_only.json",
        "host_memory.json",
        "host_memory_network.json",
    ]
    .iter()
    .map(|n| example(n))
    .collect();
    #[expect(
        clippy::disallowed_methods,
        reason = "harness wall-clock budget, not model state"
    )]
    let start = std::time::Instant::now();
    for s in &shells {
        let r = lint_platform(s);
        assert!(r.is_clean(), "{}", r.render_human());
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_millis() < 100,
        "platform scan of {} shells took {elapsed:?} (budget 100ms)",
        shells.len()
    );
}
