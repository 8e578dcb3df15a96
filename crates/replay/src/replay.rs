//! The replayer: re-execute a recording and assert per-event identity.
//!
//! A recording pins *what happened*; the determinism contract says a
//! re-execution of the same [`crate::StormConfig`] must reproduce it bit for
//! bit. [`verify`] re-runs the storm and compares
//! event by event (full [`ShardTraceEntry`] identity, which subsumes the
//! [`coyote_sim::EventKey`]), then fault by fault, then the final worlds and
//! event count — reporting the *first* disagreement in each stream, which is
//! the only one worth debugging (everything after it executes in a diverged
//! world).

use crate::format::Recording;
use crate::scenario::{run_storm, StormRun};
use coyote_chaos::TraceEvent;
use coyote_sim::ShardTraceEntry;

/// The first disagreement between a recorded and a re-executed event trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// Index into the canonical trace.
    pub index: usize,
    /// The recorded entry (`None` when the re-run has extra events).
    pub expected: Option<ShardTraceEntry>,
    /// The re-executed entry (`None` when the re-run ran short).
    pub actual: Option<ShardTraceEntry>,
}

/// The outcome of replaying a recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// The re-execution reproduced the recording bit for bit.
    Identical,
    /// The event traces disagree.
    EventDivergence(Divergence),
    /// Event traces agree but the fault traces disagree.
    FaultDivergence {
        /// Index into the canonical fault trace.
        index: usize,
        /// The recorded fault event.
        expected: Option<TraceEvent>,
        /// The re-executed fault event.
        actual: Option<TraceEvent>,
    },
    /// Traces agree but a final world differs (should be impossible for a
    /// deterministic model — it means state escaped the event trace).
    WorldDivergence {
        /// Shard index.
        shard: usize,
        /// Recorded accumulator.
        expected: u64,
        /// Re-executed accumulator.
        actual: u64,
    },
    /// Traces and worlds agree but the executed-event counters differ.
    CountDivergence {
        /// Recorded count.
        expected: u64,
        /// Re-executed count.
        actual: u64,
    },
}

impl VerifyOutcome {
    /// True when the replay reproduced the recording exactly.
    pub fn is_identical(&self) -> bool {
        *self == VerifyOutcome::Identical
    }

    /// One-line human rendering.
    pub fn render(&self) -> String {
        match self {
            VerifyOutcome::Identical => "identical: replay reproduced the recording".into(),
            VerifyOutcome::EventDivergence(d) => {
                let at = d.expected.or(d.actual).map_or(0, |e| e.at_ps);
                format!(
                    "event divergence at event[{}] (t={at}ps): recorded {:?}, replayed {:?}",
                    d.index, d.expected, d.actual
                )
            }
            VerifyOutcome::FaultDivergence {
                index,
                expected,
                actual,
            } => format!(
                "fault divergence at fault[{index}]: recorded {expected:?}, replayed {actual:?}"
            ),
            VerifyOutcome::WorldDivergence {
                shard,
                expected,
                actual,
            } => format!(
                "world divergence on shard {shard}: recorded {expected:#018x}, \
                 replayed {actual:#018x}"
            ),
            VerifyOutcome::CountDivergence { expected, actual } => {
                format!("event-count divergence: recorded {expected}, replayed {actual}")
            }
        }
    }
}

/// First index where two event-entry slices disagree, if any (length
/// differences count as a disagreement at the shorter length).
fn first_event_diff(a: &[ShardTraceEntry], b: &[ShardTraceEntry]) -> Option<usize> {
    let n = a.len().min(b.len());
    (0..n).find(|&i| a[i] != b[i]).or({
        if a.len() != b.len() {
            Some(n)
        } else {
            None
        }
    })
}

/// Compare a recording against a fresh run of its config.
pub fn compare(rec: &Recording, run: &StormRun) -> VerifyOutcome {
    let recorded = rec.trace.entries();
    let replayed = run.trace.entries();
    if let Some(i) = first_event_diff(recorded, replayed) {
        return VerifyOutcome::EventDivergence(Divergence {
            index: i,
            expected: recorded.get(i).copied(),
            actual: replayed.get(i).copied(),
        });
    }
    let rec_faults = rec.faults.events();
    let run_faults = run.faults.events();
    let n = rec_faults.len().min(run_faults.len());
    let fault_diff = (0..n).find(|&i| rec_faults[i] != run_faults[i]).or({
        if rec_faults.len() != run_faults.len() {
            Some(n)
        } else {
            None
        }
    });
    if let Some(i) = fault_diff {
        return VerifyOutcome::FaultDivergence {
            index: i,
            expected: rec_faults.get(i).copied(),
            actual: run_faults.get(i).copied(),
        };
    }
    for (shard, (&e, &a)) in rec.worlds.iter().zip(&run.worlds).enumerate() {
        if e != a {
            return VerifyOutcome::WorldDivergence {
                shard,
                expected: e,
                actual: a,
            };
        }
    }
    if rec.events_executed != run.events {
        return VerifyOutcome::CountDivergence {
            expected: rec.events_executed,
            actual: run.events,
        };
    }
    VerifyOutcome::Identical
}

/// Re-execute the recording's config and compare. Returns the re-run
/// alongside the outcome so callers (the bisector, the CLI) can inspect the
/// diverged run without paying a second execution.
pub fn replay(rec: &Recording) -> (StormRun, VerifyOutcome) {
    let run = run_storm(&rec.config);
    let outcome = compare(rec, &run);
    (run, outcome)
}

/// [`replay`] without the run.
pub fn verify(rec: &Recording) -> VerifyOutcome {
    replay(rec).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::StormConfig;

    #[test]
    fn clean_recordings_verify_identical() {
        for cfg in [
            StormConfig::platform(12, 8),
            StormConfig::ring(4, 10, 6).with_chaos(3),
        ] {
            let rec = Recording::record(cfg);
            assert!(verify(&rec).is_identical(), "{cfg:?}");
        }
    }

    #[test]
    fn perturbed_run_diverges_from_the_clean_recording_at_the_perturbed_event() {
        // A perturbed recording replays identically against itself; a
        // perturbed run compared against the clean recording hits the
        // broken tie-break and must report the exact perturbed event.
        let cfg = StormConfig::platform(12, 8);
        let perturbed = cfg.with_perturb(7);
        assert!(verify(&Recording::record(perturbed)).is_identical());
        match compare(&Recording::record(cfg), &run_storm(&perturbed)) {
            VerifyOutcome::EventDivergence(d) => {
                let e = d.expected.unwrap();
                let a = d.actual.unwrap();
                assert_eq!(e.at_ps, 7_000, "the perturbed seed event (7 ns)");
                assert_eq!(e.at_ps, a.at_ps);
                assert_ne!(e.priority, a.priority);
            }
            other => panic!("expected an event divergence, got {other:?}"),
        }
    }
}
