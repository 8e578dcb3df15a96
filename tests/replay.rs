//! Tier-1 suite for the record/replay + divergence-bisection debugger
//! (`crates/replay`).
//!
//! Three pillars, mirroring the determinism contract it instruments:
//!
//! 1. **Round trip** — a platform-storm recording replays bit-identically
//!    and survives a serialize/decode cycle; the full platform storm is
//!    pinned by event count and trace hash.
//! 2. **Bisection** — a deliberately broken tie-break (the `perturb`
//!    config) produces a trace whose *exact* first divergent
//!    [`coyote_sim::EventKey`] from the clean run the bisector must name,
//!    with the DS001/DS002 tie-break rule family as suspects.
//! 3. **Fail closed** — truncated or corrupted `.cyt` files decode to
//!    typed errors, never to a plausible-but-wrong recording.
//!
//! The proptest block generalizes 1 and 2 over random ring topologies,
//! chaos seeds and perturbation indices.

use coyote_replay::{
    bisect, compare, run_storm, verify, Recording, ReplayError, StormConfig, VerifyOutcome,
};
use proptest::prelude::*;
use std::path::PathBuf;

/// A fresh temp-file path for fail-closed I/O tests.
fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("coyote-replay-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn platform_storm_records_and_replays_bit_identically() {
    let rec = Recording::record(StormConfig::platform(24, 10));
    assert!(
        verify(&rec).is_identical(),
        "platform storm must replay bit-identically"
    );
}

/// The full platform storm (192 seeds x 96 hops, `replay_overhead`'s full
/// size): a change to the engine that moves the execution order, the event
/// count or the trace encoding fails here.
#[test]
fn full_platform_storm_is_pinned() {
    let run = run_storm(&StormConfig::platform(192, 96));
    assert_eq!(run.events, 18_624, "192 seeds x 97 executions each");
    assert_eq!(run.trace.len(), 18_624);
    assert_eq!(
        format!("{:016x}", run.trace_hash),
        "c81998aff750c040",
        "platform storm trace hash moved"
    );
}

#[test]
fn recording_survives_the_wire_and_still_replays() {
    let rec = Recording::record(StormConfig::platform(16, 8).with_chaos(5));
    let path = temp_path("roundtrip.cyt");
    rec.write_to(&path).expect("write recording");
    let back = Recording::read_from(&path).expect("decode recording");
    assert_eq!(back, rec, "decode(encode(rec)) == rec");
    assert_eq!(back.fingerprint(), rec.fingerprint());
    assert!(verify(&back).is_identical());
}

#[test]
fn bisect_names_the_exact_first_divergent_event_key() {
    // The broken tie-break flips the priority of seed event 5. Seeds post
    // at distinct instants (seed s at s ns), so the first divergent
    // EventKey is exactly seed 5's: t = 5000 ps, same instant on both
    // sides, priorities differing by the flipped low bit.
    let cfg = StormConfig::platform(16, 8);
    let clean = Recording::record(cfg);
    let perturbed = Recording::record(cfg.with_perturb(5));
    let finding = bisect("replay-test", &clean, &perturbed).expect("perturbed traces must diverge");
    assert_eq!(finding.stream, "events");
    assert_eq!(finding.index, 5, "first divergence is seed event 5");
    assert_eq!(finding.at_ps, 5_000);
    let expected = finding.expected.expect("entry on the clean side");
    let actual = finding.actual.expect("entry on the perturbed side");
    assert_eq!(expected.at_ps, actual.at_ps, "same instant, different tag");
    assert_ne!(expected.priority, actual.priority, "the flipped tie-break");
    assert!(
        finding.suspects.contains(&"DS001") && finding.suspects.contains(&"DS002"),
        "tie-break divergence must suspect the ordering rule family, got {:?}",
        finding.suspects
    );
    // The rendered diagnosis goes through coyote-lint's DS007 rule.
    assert!(finding.report.render_human().contains("DS007"));
}

#[test]
fn identical_recordings_do_not_bisect() {
    let cfg = StormConfig::platform(12, 6);
    let a = Recording::record(cfg);
    let b = Recording::record(cfg);
    assert!(bisect("replay-test", &a, &b).is_none());
}

#[test]
fn truncated_recordings_fail_closed_with_typed_errors() {
    let rec = Recording::record(StormConfig::platform(8, 4));
    let bytes = rec.to_bytes();
    // Every proper prefix must be rejected — never a short-read panic,
    // never a silently partial recording.
    for cut in 0..bytes.len() {
        let err =
            Recording::from_bytes(&bytes[..cut]).expect_err("truncated image must not decode");
        assert!(
            matches!(
                err,
                ReplayError::Truncated
                    | ReplayError::BadMagic
                    | ReplayError::BadValue(_)
                    | ReplayError::FooterMismatch { .. }
            ),
            "cut at {cut}: unexpected error {err:?}"
        );
    }
}

#[test]
fn corrupted_recordings_fail_closed_from_disk() {
    let rec = Recording::record(StormConfig::platform(8, 4).with_chaos(1));
    let path = temp_path("corrupt.cyt");

    // Bad magic.
    let mut bytes = rec.to_bytes();
    bytes[0] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        Recording::read_from(&path),
        Err(ReplayError::BadMagic)
    ));

    // Flipped payload byte: the FNV footer must catch it (or the varint
    // grammar must reject it) — decoding to the original is the one
    // forbidden outcome.
    let bytes = rec.to_bytes();
    let mid = bytes.len() / 2;
    let mut bad = bytes.clone();
    bad[mid] ^= 0x01;
    std::fs::write(&path, &bad).unwrap();
    match Recording::read_from(&path) {
        Err(_) => {}
        Ok(decoded) => assert_ne!(decoded, rec, "corruption decoded back to the original"),
    }

    // Trailing garbage.
    let mut bytes = rec.to_bytes();
    bytes.push(0);
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        Recording::read_from(&path),
        Err(ReplayError::TrailingBytes)
    ));

    // Missing file.
    assert!(matches!(
        Recording::read_from(&temp_path("does-not-exist.cyt")),
        Err(ReplayError::Io(_))
    ));
}

#[test]
fn verify_reports_the_perturbed_event_not_a_neighbour() {
    // Recorded clean, re-run perturbed: the verifier (not just the
    // bisector) must point at the exact perturbed seed event.
    let cfg = StormConfig::platform(10, 6);
    let rec = Recording::record(cfg);
    assert!(verify(&rec).is_identical(), "clean replay matches");
    match compare(&rec, &run_storm(&cfg.with_perturb(3))) {
        VerifyOutcome::EventDivergence(d) => {
            assert_eq!(d.index, 3);
            let e = d.expected.expect("recorded entry");
            assert_eq!(e.at_ps, 3_000);
        }
        other => panic!("expected an event divergence, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `replay(record(run))` is the identity, for random small topologies
    /// and fault plans: replaying a recording reproduces the run bit for
    /// bit, fingerprint included.
    #[test]
    fn replay_of_record_is_identity(
        ring in 2usize..=6,
        seeds in 2u64..20,
        hops in 1u32..10,
        chaos_on in any::<bool>(),
        chaos_seed in any::<u64>(),
    ) {
        let mut cfg = StormConfig::ring(ring, seeds, hops);
        if chaos_on {
            cfg = cfg.with_chaos(chaos_seed);
        }
        let rec = Recording::record(cfg);
        prop_assert!(verify(&rec).is_identical());
        let back = Recording::from_bytes(&rec.to_bytes()).unwrap();
        prop_assert_eq!(back.fingerprint(), rec.fingerprint());
    }

    /// Two runs differing in exactly one injected event (the perturbed
    /// seed) bisect to exactly that event: same instant, flipped priority.
    #[test]
    fn bisect_pinpoints_a_single_injected_divergence(
        seeds in 2u64..24,
        hops in 1u32..8,
        idx in 0u64..24,
    ) {
        let idx = idx % seeds;
        let cfg = StormConfig::platform(seeds, hops);
        let clean = Recording::record(cfg);
        let perturbed = Recording::record(cfg.with_perturb(idx));
        let finding = bisect("replay-prop", &clean, &perturbed)
            .expect("perturbed runs must diverge");
        prop_assert_eq!(finding.stream, "events");
        prop_assert_eq!(finding.index as u64, idx);
        prop_assert_eq!(finding.at_ps, idx * 1_000);
        let e = finding.expected.expect("clean entry");
        let a = finding.actual.expect("perturbed entry");
        prop_assert_eq!(e.at_ps, a.at_ps);
        prop_assert_ne!(e.priority, a.priority);
    }
}
