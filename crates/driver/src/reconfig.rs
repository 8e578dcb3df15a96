//! Partial-reconfiguration flows (§5.3, §9.3 / Table 3).
//!
//! "Since the shell bitsream must be read from disk and copied into kernel
//! space, we report two latencies: the kernel latency, corresponding only
//! to the actual reconfiguration, and the total latency, which includes
//! reading from disk and copying the buffer into kernel space."
//!
//! The Vivado Hardware Manager baseline "also includes a PCIe hot-plug and
//! driver re-insertion".

use crate::driver::CoyoteDriver;
use crate::ring::{Completion, CompletionStatus, RING_SLOTS};
use coyote_chaos::{FaultKind, RetryPolicy};
use coyote_fabric::bitstream::{Bitstream, BitstreamError, BitstreamHeader, BitstreamKind};
use coyote_fabric::config::{ConfigError, ProgramError};
use coyote_fabric::floorplan::PartitionId;
use coyote_sim::{params, SimDuration, SimTime};

/// Timing decomposition of one partial reconfiguration.
#[derive(Debug, Clone, Copy)]
pub struct ReconfigTiming {
    /// When the bitstream file finished reading from disk.
    pub read_done: SimTime,
    /// When the user-to-kernel copy finished.
    pub copy_done: SimTime,
    /// When the ICAP finished programming (device reconfigured).
    pub program_done: SimTime,
    /// Kernel latency: driver setup + ICAP programming only.
    pub kernel_latency: SimDuration,
    /// Total latency: disk read + copy + kernel latency.
    pub total_latency: SimDuration,
}

/// Reconfiguration failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigError {
    /// The blob failed validation.
    Bitstream(BitstreamError),
    /// The device rejected it.
    Config(ConfigError),
    /// The retry budget ran out before a clean programming pass; the
    /// previously active image is still in place.
    RetriesExhausted {
        /// Attempts made (equals the policy's `max_attempts`).
        attempts: u32,
    },
    /// The batch holds more frame runs than the completion ring has slots:
    /// the engine would stall on writeback while software waits for the
    /// batch — deadlock by construction. The run count follows from the
    /// caller's `max_frames_per_run`, so a caller fixes it by splitting
    /// the image into fewer, longer runs.
    RingTooSmall {
        /// Completion-ring capacity.
        slots: usize,
        /// Frame runs in the refused batch.
        batch: usize,
    },
    /// An app deployment was handed an image that does not reconfigure the
    /// target vFPGA: a full or shell image, or an app image built for
    /// another region.
    WrongTarget {
        /// What the image reconfigures.
        image: BitstreamKind,
        /// The vFPGA the caller named.
        vfpga: u8,
    },
}

impl std::fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconfigError::Bitstream(e) => write!(f, "bitstream invalid: {e}"),
            ReconfigError::Config(e) => write!(f, "configuration rejected: {e}"),
            ReconfigError::RetriesExhausted { attempts } => {
                write!(f, "reconfiguration failed after {attempts} attempts")
            }
            ReconfigError::RingTooSmall { slots, batch } => {
                write!(
                    f,
                    "batch of {batch} frame runs cannot complete into a {slots}-slot ring"
                )
            }
            ReconfigError::WrongTarget { image, vfpga } => {
                let image = match image {
                    BitstreamKind::Full => "full-device".to_string(),
                    BitstreamKind::Shell => "shell".to_string(),
                    BitstreamKind::App { vfpga } => format!("vFPGA {vfpga} app"),
                };
                write!(f, "{image} image cannot reconfigure vFPGA {vfpga}")
            }
        }
    }
}

impl std::error::Error for ReconfigError {}

/// The outcome of one batched, ring-completed reconfiguration.
#[derive(Debug, Clone)]
pub struct BatchedReconfig {
    /// Timing of the overall submission (total latency from the original
    /// request, failed runs and backoff included).
    pub timing: ReconfigTiming,
    /// Frame runs in the batch.
    pub runs: u32,
    /// Run-programming attempts made, successful ones included.
    pub attempts: u32,
    /// Runs that had to be re-queued after a fault (only the failed run is
    /// re-copied and re-programmed, never the whole bitstream).
    pub retried_runs: u32,
    /// Attempts whose in-flight run copy was corrupted and caught by the
    /// per-run CRC.
    pub flips_detected: u32,
    /// Attempts the configuration port transiently rejected.
    pub rejects: u32,
    /// True when at least one run failed before the batch succeeded.
    pub recovered: bool,
    /// Every completion record the submission produced, reaped from the
    /// ring in writeback order.
    pub completions: Vec<Completion>,
}

impl CoyoteDriver {
    /// Load a partial bitstream.
    ///
    /// `from_disk` selects whether the disk-read stage is charged (the
    /// paper notes frequently used bitstreams can be kept in memory, which
    /// skips it).
    pub fn reconfigure(
        &mut self,
        now: SimTime,
        blob: &[u8],
        from_disk: bool,
    ) -> Result<ReconfigTiming, ReconfigError> {
        let header = Bitstream::validate(blob).map_err(ReconfigError::Bitstream)?;
        self.reconfigure_parsed(now, &header, from_disk)
    }

    /// Load an already-validated bitstream, given its header. Callers that
    /// validated the blob themselves (e.g. to look up its digest) use this
    /// to skip a second hash over a multi-megabyte image; the modeled
    /// latencies are identical to [`CoyoteDriver::reconfigure`], which
    /// depend only on the image's length.
    pub fn reconfigure_parsed(
        &mut self,
        now: SimTime,
        header: &BitstreamHeader,
        from_disk: bool,
    ) -> Result<ReconfigTiming, ReconfigError> {
        // Stage 1: read from disk.
        let len = header.blob_len();
        let read_done = if from_disk {
            now + params::BITSTREAM_DISK_BW.time_for(len)
        } else {
            now
        };
        // Stage 2: copy into kernel space.
        let copy_done = read_done + params::KERNEL_COPY_BW.time_for(len);
        // Stage 3: program through the ICAP via a dedicated XDMA channel.
        let program_start = copy_done + params::RECONFIG_SETUP;
        let (icap, state) = self.icap_and_state();
        let xfer = icap
            .program(program_start, header, state)
            .map_err(ReconfigError::Config)?;
        let program_done = xfer.done;
        Ok(ReconfigTiming {
            read_done,
            copy_done,
            program_done,
            kernel_latency: program_done.since(copy_done),
            total_latency: program_done.since(now),
        })
    }

    /// Load a partial bitstream through the batched control plane: split
    /// the (pre-validated) image into contiguous frame runs, submit the
    /// batch with one doorbell ring, stream each run through the ICAP with
    /// one address setup + CRC check per run, and reap per-run completion
    /// records from the writeback ring instead of blocking per op. For a
    /// resident image (see [`coyote_fabric::BitstreamCache`]) validation,
    /// the split and every unflipped run's check are memoized, so the call
    /// costs O(runs), not O(image bytes).
    ///
    /// `max_frames_per_run = None` submits the whole image as a single run:
    /// bounded retries with jitter-free exponential backoff and
    /// verify-after-write around one programming pass. The disk read (when
    /// `from_disk`) is charged once; retries reuse the in-memory copy. A
    /// split into more than [`RING_SLOTS`] runs is refused with
    /// [`ReconfigError::RingTooSmall`] before any stage is charged.
    ///
    /// The recovery contract:
    ///
    /// * A corrupted in-flight blob (an injected [`FaultKind::BitstreamFlip`])
    ///   is caught by the per-run CRC *before* the ICAP commits it; the
    ///   active image is untouched.
    /// * Chaos faults surface as completion statuses
    ///   ([`CompletionStatus::FlipDetected`], [`CompletionStatus::Rejected`])
    ///   rather than synchronous errors.
    /// * A failed run is re-queued *alone* after the backoff delay: only
    ///   its bytes are re-copied to kernel space and re-programmed; runs
    ///   that already passed are not re-streamed.
    /// * The image commits all-or-nothing after every run has passed, then
    ///   verify-after-write compares the committed digest.
    /// * When the attempt budget runs out the call returns
    ///   [`ReconfigError::RetriesExhausted`] and the device keeps the
    ///   previous image — no partial batch is ever visible.
    pub fn reconfigure_batched(
        &mut self,
        now: SimTime,
        blob: &[u8],
        from_disk: bool,
        policy: RetryPolicy,
        max_frames_per_run: Option<u64>,
    ) -> Result<BatchedReconfig, ReconfigError> {
        // Pre-validate the caller's pristine copy in place: a genuinely bad
        // image fails fast instead of burning the retry budget on it.
        let header = Bitstream::validate(blob).map_err(ReconfigError::Bitstream)?;
        let expect_digest = header.digest;
        let verify_at = match header.kind {
            BitstreamKind::Full | BitstreamKind::Shell => PartitionId::Shell,
            BitstreamKind::App { vfpga } => PartitionId::Vfpga(vfpga),
        };
        let runs = header.frame_runs(blob, max_frames_per_run);
        if !self.ring.can_hold(runs.len()) {
            return Err(ReconfigError::RingTooSmall {
                slots: RING_SLOTS,
                batch: runs.len(),
            });
        }
        let len = header.blob_len();
        let read_done = if from_disk {
            now + params::BITSTREAM_DISK_BW.time_for(len)
        } else {
            now
        };
        let op = self.doorbell.ring();

        // The whole image is copied to kernel space once up front; retries
        // of a failed run re-copy only that run's bytes.
        let mut last_copy_done = read_done + params::KERNEL_COPY_BW.time_for(len);
        let mut t = last_copy_done + params::RECONFIG_SETUP;

        let mut backoff = policy.backoff();
        let mut attempts = 0u32;
        let mut flips_detected = 0u32;
        let mut rejects = 0u32;
        let mut retried_runs = 0u32;
        let mut run_attempt = vec![0u32; runs.len()];
        let mut completions: Vec<Completion> = Vec::with_capacity(runs.len());
        // Retry loop over the run cursor: a fault re-queues only runs[idx].
        let mut idx = 0usize;
        while idx < runs.len() {
            let run = &runs[idx];
            run_attempt[idx] += 1;
            attempts += 1;
            // This run's bytes, borrowed: the port copies them only if
            // chaos corrupts them in flight, so `blob` stays pristine. A
            // resident image's unflipped run is checked against the CRC its
            // split memoized, so the batch reads none of its bytes.
            let run_bytes = &blob[run.byte_off..run.byte_off + run.byte_len];
            let (icap, _state) = self.icap_and_state();
            let outcome = icap.program_run(t, run, run_bytes);
            let (status, at) = match &outcome {
                Ok(xfer) => (CompletionStatus::Done, xfer.done),
                Err(ProgramError::Bitstream(_)) => (CompletionStatus::FlipDetected, t),
                Err(ProgramError::Config(ConfigError::PortRejected)) => {
                    (CompletionStatus::Rejected, t)
                }
                Err(ProgramError::Config(e)) => return Err(ReconfigError::Config(e.clone())),
            };
            if self
                .ring
                .push(Completion {
                    op,
                    run: run.index,
                    attempt: run_attempt[idx],
                    status,
                    at,
                })
                .is_err()
            {
                // Software keeps up with the engine between retries: reap
                // the ring and retry the writeback (the initial batch-size
                // guard above is what prevents true deadlock).
                completions.extend(self.ring.reap());
                self.ring
                    .push(Completion {
                        op,
                        run: run.index,
                        attempt: run_attempt[idx],
                        status,
                        at,
                    })
                    .expect("freshly reaped ring has room");
            }
            match outcome {
                Ok(xfer) => {
                    idx += 1;
                    t = if idx < runs.len() {
                        // Address setup for the next contiguous run.
                        xfer.done + params::ICAP_RUN_SETUP
                    } else {
                        xfer.done
                    };
                }
                Err(ProgramError::Bitstream(_)) | Err(ProgramError::Config(_)) => {
                    if matches!(outcome, Err(ProgramError::Bitstream(_))) {
                        flips_detected += 1;
                    } else {
                        rejects += 1;
                    }
                    match backoff.next() {
                        Some(delay) => {
                            retried_runs += 1;
                            let attempt_start = t + delay;
                            last_copy_done = attempt_start
                                + params::KERNEL_COPY_BW.time_for(run.byte_len as u64);
                            t = last_copy_done + params::RECONFIG_SETUP;
                        }
                        None => {
                            completions.extend(self.ring.reap());
                            return Err(ReconfigError::RetriesExhausted { attempts });
                        }
                    }
                }
            }
        }
        // Every run passed: commit all-or-nothing, then verify-after-write.
        let program_done = t;
        let (icap, state) = self.icap_and_state();
        icap.commit_batch(state, &header, program_done)
            .map_err(ReconfigError::Config)?;
        completions.extend(self.ring.reap());
        let committed = self.config_state().image(verify_at).map(|i| i.digest);
        if committed != Some(expect_digest) {
            // Unreachable with a healthy ConfigState (commit_batch just
            // installed the digest we are checking), but keep the contract
            // observable: a verify failure is terminal, not silent.
            completions.push(Completion {
                op,
                run: runs.len().saturating_sub(1) as u32,
                attempt: attempts,
                status: CompletionStatus::VerifyFailed,
                at: program_done,
            });
            return Err(ReconfigError::RetriesExhausted { attempts });
        }
        let recovered = attempts > runs.len() as u32;
        if recovered {
            let kind = if flips_detected > 0 {
                FaultKind::BitstreamFlip
            } else {
                FaultKind::IcapReject
            };
            if let Some(inj) = self.icap_and_state().0.chaos_mut() {
                inj.record_recovered(kind, u64::from(attempts));
            }
        }
        Ok(BatchedReconfig {
            timing: ReconfigTiming {
                read_done,
                copy_done: last_copy_done,
                program_done,
                kernel_latency: program_done.since(last_copy_done),
                total_latency: program_done.since(now),
            },
            runs: runs.len() as u32,
            attempts,
            retried_runs,
            flips_detected,
            rejects,
            recovered,
            completions,
        })
    }
}

/// The Table 3 baseline: full re-programming with Vivado Hardware Manager.
#[derive(Debug, Clone, Copy, Default)]
pub struct VivadoBaseline;

impl VivadoBaseline {
    /// Time for a full flow: JTAG programming of the full-device bitstream,
    /// PCIe hot-plug rescan, and driver re-insertion.
    pub fn full_flow(full_bitstream_len: u64) -> SimDuration {
        params::JTAG_BW.time_for(full_bitstream_len)
            + params::PCIE_HOTPLUG
            + params::DRIVER_REINSERT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_fabric::bitstream::BitstreamKind;
    use coyote_fabric::floorplan::{Floorplan, ShellProfile};
    use coyote_fabric::{Device, DeviceKind};

    fn shell_blob(profile: ShellProfile) -> Vec<u8> {
        Floorplan::preset(DeviceKind::U55C, profile, 1)
            .image(BitstreamKind::Shell, 0xAA)
            .unwrap()
            .bytes()
            .to_vec()
    }

    #[test]
    fn table3_scenario1_latencies() {
        // Scenario #1 (host-only shell, MMU page-size change): the paper
        // reports 51.6 ms kernel / 536.2 ms total.
        let mut d = CoyoteDriver::new(DeviceKind::U55C);
        let blob = shell_blob(ShellProfile::HostOnly);
        let t = d.reconfigure(SimTime::ZERO, &blob, true).unwrap();
        let kernel_ms = t.kernel_latency.as_millis_f64();
        let total_ms = t.total_latency.as_millis_f64();
        assert!((kernel_ms - 51.6).abs() < 1.5, "kernel {kernel_ms} ms");
        assert!((total_ms - 536.2).abs() < 20.0, "total {total_ms} ms");
    }

    #[test]
    fn in_memory_bitstream_skips_disk() {
        let mut d = CoyoteDriver::new(DeviceKind::U55C);
        let blob = shell_blob(ShellProfile::HostOnly);
        let from_disk = d.reconfigure(SimTime::ZERO, &blob, true).unwrap();
        let mut d2 = CoyoteDriver::new(DeviceKind::U55C);
        let cached = d2.reconfigure(SimTime::ZERO, &blob, false).unwrap();
        assert!(cached.total_latency < from_disk.total_latency / 2);
        assert_eq!(cached.kernel_latency, from_disk.kernel_latency);
    }

    #[test]
    fn corrupt_bitstream_rejected_before_programming() {
        let mut d = CoyoteDriver::new(DeviceKind::U55C);
        let mut blob = shell_blob(ShellProfile::HostOnly);
        let mid = blob.len() / 2;
        blob[mid] ^= 0xFF;
        let err = d.reconfigure(SimTime::ZERO, &blob, false).unwrap_err();
        assert!(matches!(
            err,
            ReconfigError::Bitstream(BitstreamError::CrcMismatch { .. })
        ));
        assert_eq!(d.config_state().reconfig_count(), 0);
    }

    #[test]
    fn shell_reconfig_is_order_of_magnitude_faster_than_vivado() {
        // The headline claim: "run-time reconfiguration times [reduced] by
        // an order of magnitude".
        let mut d = CoyoteDriver::new(DeviceKind::U55C);
        let blob = shell_blob(ShellProfile::HostMemoryNetwork);
        let t = d.reconfigure(SimTime::ZERO, &blob, true).unwrap();
        let full = Device::new(DeviceKind::U55C).full_config_bytes();
        let vivado = VivadoBaseline::full_flow(full);
        let speedup = vivado.as_secs_f64() / t.total_latency.as_secs_f64();
        assert!(speedup >= 10.0, "only {speedup:.1}x");
    }

    #[test]
    fn a_batch_beyond_the_ring_is_refused() {
        // Single-frame runs: the batch has as many runs as the image has
        // frames. A full ring's worth completes; one run more is refused
        // before anything is programmed.
        let batched = |frames: u64| {
            let mut d = CoyoteDriver::new(DeviceKind::U55C);
            let shell = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, frames, 7);
            let out = d.reconfigure_batched(
                SimTime::ZERO,
                shell.bytes(),
                false,
                RetryPolicy::reconfig_default(),
                Some(1),
            );
            (out, d.config_state().reconfig_count())
        };
        let (done, count) = batched(RING_SLOTS as u64);
        let done = done.unwrap();
        assert_eq!(done.runs, 16);
        assert_eq!(done.completions.len(), 16);
        assert_eq!(count, 1);
        let (refused, count) = batched(RING_SLOTS as u64 + 1);
        assert_eq!(
            refused.unwrap_err(),
            ReconfigError::RingTooSmall {
                slots: 16,
                batch: 17
            }
        );
        assert_eq!(count, 0, "nothing was programmed");
    }

    #[test]
    fn config_state_updates_on_success() {
        let mut d = CoyoteDriver::new(DeviceKind::U55C);
        let blob = shell_blob(ShellProfile::HostMemory);
        d.reconfigure(SimTime::ZERO, &blob, false).unwrap();
        assert_eq!(
            d.config_state().image(PartitionId::Shell).unwrap().digest,
            0xAA
        );
    }
}
