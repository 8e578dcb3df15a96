//! Configuration ports and device configuration state (§5.3, Table 2).
//!
//! "Partial reconfiguration in Coyote v2 is managed through the Internal
//! Configuration Access Port (ICAP), a centralized block enabling dynamic
//! partial reconfiguration while the rest of the FPGA remains operational.
//! ... Standard methods, such as AXI HWICAP and MCAP, suffer from low
//! throughput due to their reliance on single-word writes. To maximize
//! performance, we implement an optimized controller that fully utilizes
//! the ICAP bandwidth (~800 MBps on AMD UltraScale+ devices)."
//!
//! [`ConfigPort`] models all four controllers of Table 2; programming an
//! image occupies the port for `len / bandwidth` and then commits it into
//! the [`ConfigState`]. Both take the image's [`BitstreamHeader`]: neither
//! reads the payload bytes.

use crate::bitstream::{BitstreamError, BitstreamHeader, BitstreamKind, FrameRun};
use crate::cache::BitstreamCache;
use crate::crc::crc32;
use crate::device::DeviceKind;
use crate::floorplan::PartitionId;
use coyote_chaos::{FaultKind, Injector};
use coyote_sim::time::Bandwidth;
use coyote_sim::{LinkModel, SimDuration, SimTime, Transfer};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// The reconfiguration controllers compared in Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigPortKind {
    /// AXI HWICAP: AXI4-Lite single-word writes, ~19 MB/s.
    AxiHwicap,
    /// Processor Configuration Access Port, ~128 MB/s.
    Pcap,
    /// Media Configuration Access Port (PCIe), ~145 MB/s.
    Mcap,
    /// Coyote v2's streaming ICAP controller fed by a dedicated XDMA
    /// channel: ~800 MB/s (32-bit port at 200 MHz).
    CoyoteIcap,
}

impl ConfigPortKind {
    /// Effective programming throughput (Table 2).
    pub fn bandwidth(self) -> Bandwidth {
        match self {
            ConfigPortKind::AxiHwicap => coyote_sim::params::HWICAP_BW,
            ConfigPortKind::Pcap => coyote_sim::params::PCAP_BW,
            ConfigPortKind::Mcap => coyote_sim::params::MCAP_BW,
            ConfigPortKind::CoyoteIcap => coyote_sim::params::ICAP_BW,
        }
    }

    /// Bus interface, as listed in Table 2.
    pub fn interface(self) -> &'static str {
        match self {
            ConfigPortKind::AxiHwicap => "AXI Lite",
            ConfigPortKind::Pcap => "AXI",
            ConfigPortKind::Mcap => "AXI",
            ConfigPortKind::CoyoteIcap => "AXI Stream",
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ConfigPortKind::AxiHwicap => "AXI HWICAP",
            ConfigPortKind::Pcap => "PCAP",
            ConfigPortKind::Mcap => "MCAP",
            ConfigPortKind::CoyoteIcap => "Coyote v2 ICAP",
        }
    }
}

/// Errors during programming.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Bitstream targets a different device than the one on the card.
    DeviceMismatch {
        /// Device on the card.
        card: DeviceKind,
        /// Device in the bitstream header.
        bitstream: DeviceKind,
    },
    /// The port transiently refused the programming request (a retryable
    /// fault; nothing was written and the active image is untouched).
    PortRejected,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::DeviceMismatch { card, bitstream } => write!(
                f,
                "bitstream for {} loaded on {}",
                bitstream.name(),
                card.name()
            ),
            ConfigError::PortRejected => write!(f, "configuration port rejected the request"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Errors from [`ConfigPort::program_run`]: the run failed its integrity
/// check or the port refused it. Either way nothing was committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The run failed its CRC check (this is how an in-flight bit-flip is
    /// *detected*).
    Bitstream(BitstreamError),
    /// The port refused the request.
    Config(ConfigError),
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::Bitstream(e) => write!(f, "bitstream rejected: {e}"),
            ProgramError::Config(e) => write!(f, "programming failed: {e}"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// One image committed into a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadedImage {
    /// Design digest from the bitstream header.
    pub digest: u64,
    /// Frame count written.
    pub frames: u64,
    /// When the commit completed.
    pub at: SimTime,
}

/// What is currently configured on the device.
#[derive(Debug, Clone)]
pub struct ConfigState {
    device: DeviceKind,
    loaded: BTreeMap<PartitionId, LoadedImage>,
    reconfig_count: u64,
}

impl ConfigState {
    /// A blank device of the given kind.
    pub fn new(device: DeviceKind) -> ConfigState {
        ConfigState {
            device,
            loaded: BTreeMap::new(),
            reconfig_count: 0,
        }
    }

    /// The card's device kind.
    pub fn device(&self) -> DeviceKind {
        self.device
    }

    /// Image currently in a partition, if any.
    pub fn image(&self, id: PartitionId) -> Option<&LoadedImage> {
        self.loaded.get(&id)
    }

    /// Total committed reconfigurations.
    pub fn reconfig_count(&self) -> u64 {
        self.reconfig_count
    }

    /// Refuse an image built for another device.
    fn check_device(&self, header: &BitstreamHeader) -> Result<(), ConfigError> {
        if header.device == self.device {
            Ok(())
        } else {
            Err(ConfigError::DeviceMismatch {
                card: self.device,
                bitstream: header.device,
            })
        }
    }

    /// Commit a validated bitstream at `at`.
    fn commit(&mut self, header: &BitstreamHeader, at: SimTime) {
        let image = LoadedImage {
            digest: header.digest,
            frames: header.frames,
            at,
        };
        match header.kind {
            BitstreamKind::Full => {
                // Full reprogramming wipes every partition.
                self.loaded.clear();
                self.loaded.insert(PartitionId::Static, image);
                self.loaded.insert(PartitionId::Shell, image);
            }
            BitstreamKind::Shell => {
                // A shell image rewrites the services *and* every vFPGA
                // region (§4: fail-safe against dangling service deps).
                self.loaded
                    .retain(|id, _| !matches!(id, PartitionId::Vfpga(_) | PartitionId::Shell));
                self.loaded.insert(PartitionId::Shell, image);
            }
            BitstreamKind::App { vfpga } => {
                self.loaded.insert(PartitionId::Vfpga(vfpga), image);
            }
        }
        self.reconfig_count += 1;
    }
}

/// A configuration port: bandwidth-serialized access to the configuration
/// plane.
#[derive(Debug, Clone)]
pub struct ConfigPort {
    kind: ConfigPortKind,
    link: LinkModel,
    chaos: Option<Injector>,
}

impl ConfigPort {
    /// Instantiate a port of the given kind.
    pub fn new(kind: ConfigPortKind) -> ConfigPort {
        ConfigPort {
            kind,
            link: LinkModel::new(kind.bandwidth(), SimDuration::ZERO),
            chaos: None,
        }
    }

    /// Which controller this is.
    pub fn kind(&self) -> ConfigPortKind {
        self.kind
    }

    /// Attach a chaos injector, consulted once per [`ConfigPort::program_run`]
    /// attempt ([`FaultKind::BitstreamFlip`] and [`FaultKind::IcapReject`]).
    pub fn attach_chaos(&mut self, injector: Injector) {
        self.chaos = Some(injector);
    }

    /// The attached chaos injector.
    pub fn chaos(&self) -> Option<&Injector> {
        self.chaos.as_ref()
    }

    /// Mutable access to the attached chaos injector (for recovery records).
    pub fn chaos_mut(&mut self) -> Option<&mut Injector> {
        self.chaos.as_mut()
    }

    /// Program the validated image `header` describes, starting at or
    /// after `now`; on success the image is committed into `state` at the
    /// returned transfer's `done` instant. The port time depends only on
    /// the image's length.
    ///
    /// The rest of the device keeps running: only the target partition's
    /// contents change, and only the port itself is occupied.
    pub fn program(
        &mut self,
        now: SimTime,
        header: &BitstreamHeader,
        state: &mut ConfigState,
    ) -> Result<Transfer, ConfigError> {
        state.check_device(header)?;
        let xfer = self.link.transmit(now, header.blob_len());
        state.commit(header, xfer.done);
        Ok(xfer)
    }

    /// Stream one frame run of a blob through the port. The run's bytes are
    /// borrowed from the caller's blob and copied only if the chaos
    /// injector corrupts them, so the caller's blob is never written.
    ///
    /// The chaos injector is consulted once per run (a [`FaultKind::BitstreamFlip`]
    /// flips one bit of the run's in-flight bytes, a [`FaultKind::IcapReject`]
    /// refuses the request), then the CRC of the bytes in flight is checked
    /// against the pristine value carried by `run` — one integrity check per
    /// run instead of per frame. Nothing is committed here; the caller
    /// commits the whole image via [`ConfigPort::commit_batch`] once every
    /// run has passed.
    ///
    /// The CRC is memoized: when the unflipped bytes are `run` of a live
    /// resident image, as the image's remembered split cut it (the
    /// [`BitstreamCache`] identity rule), the split already computed their
    /// CRC over these immutable bytes, and `run.crc` is used as the
    /// computed value. Flipped bytes and any other bytes are hashed. Debug
    /// builds recompute a memoized CRC and assert it equals the memo.
    pub fn program_run(
        &mut self,
        now: SimTime,
        run: &FrameRun,
        run_bytes: &[u8],
    ) -> Result<Transfer, ProgramError> {
        debug_assert_eq!(run_bytes.len(), run.byte_len, "run byte range mismatch");
        let mut in_flight = Cow::Borrowed(run_bytes);
        let mut flipped = false;
        if let Some(inj) = &mut self.chaos {
            for fault in inj.next_at(now) {
                match fault.kind {
                    FaultKind::BitstreamFlip if !run_bytes.is_empty() => {
                        let bit = if fault.param != 0 {
                            fault.param
                        } else {
                            inj.derived(run_bytes.len() as u64)
                        };
                        let idx = (bit / 8) as usize % run_bytes.len();
                        in_flight.to_mut()[idx] ^= 1 << (bit % 8);
                        flipped = true;
                    }
                    FaultKind::IcapReject => {
                        inj.record_detected(FaultKind::IcapReject, 0);
                        return Err(ProgramError::Config(ConfigError::PortRejected));
                    }
                    _ => {}
                }
            }
        }
        let computed = match in_flight {
            Cow::Borrowed(bytes) if BitstreamCache::global().is_resident_run(run, bytes) => {
                debug_assert_eq!(crc32(bytes), run.crc, "a resident run's CRC memo");
                run.crc
            }
            bytes => run_crc(&bytes),
        };
        if computed != run.crc {
            if flipped {
                if let Some(inj) = &mut self.chaos {
                    inj.record_detected(FaultKind::BitstreamFlip, 0);
                }
            }
            return Err(ProgramError::Bitstream(BitstreamError::CrcMismatch {
                stored: run.crc,
                computed,
            }));
        }
        Ok(self.link.transmit(now, run_bytes.len() as u64))
    }

    /// Commit a fully-programmed image after every frame run has passed its
    /// integrity check. The runs already occupied the port via
    /// [`ConfigPort::program_run`]; this only flips the device state, so
    /// commit stays all-or-nothing exactly as on the unbatched path.
    pub fn commit_batch(
        &mut self,
        state: &mut ConfigState,
        header: &BitstreamHeader,
        at: SimTime,
    ) -> Result<(), ConfigError> {
        state.check_device(header)?;
        state.commit(header, at);
        Ok(())
    }
}

/// CRC-32 of a run's in-flight bytes, when the port hashes them to decide
/// the run.
fn run_crc(bytes: &[u8]) -> u32 {
    #[cfg(test)]
    RUN_CRC_BYTES.with(|n| n.set(n.get() + bytes.len() as u64));
    crc32(bytes)
}

#[cfg(test)]
thread_local! {
    /// Bytes this thread's ports have hashed to decide a run.
    static RUN_CRC_BYTES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::{Bitstream, BitstreamKind};

    fn shell_bs(digest: u64) -> Bitstream {
        Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 1000, digest)
    }

    #[test]
    fn table2_throughputs() {
        // A 40 MB bitstream through each port: times must reproduce the
        // Table 2 throughput column.
        let frames = 106_382; // ~40 MB of frame records.
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, frames, 1);
        let mb = bs.len() as f64 / 1e6;
        let cases = [
            (ConfigPortKind::AxiHwicap, 19.0),
            (ConfigPortKind::Pcap, 128.0),
            (ConfigPortKind::Mcap, 145.0),
            (ConfigPortKind::CoyoteIcap, 800.0),
        ];
        for (kind, mbps) in cases {
            let mut port = ConfigPort::new(kind);
            let mut state = ConfigState::new(DeviceKind::U55C);
            let xfer = port
                .program(SimTime::ZERO, bs.header(), &mut state)
                .unwrap();
            let secs = xfer.done.since(SimTime::ZERO).as_secs_f64();
            let measured = mb / secs;
            assert!(
                (measured - mbps).abs() / mbps < 0.01,
                "{}: {measured:.1} MB/s",
                kind.name()
            );
        }
    }

    #[test]
    fn device_mismatch_rejected() {
        let bs = Bitstream::assemble(DeviceKind::U250, BitstreamKind::Shell, 10, 1);
        let mut port = ConfigPort::new(ConfigPortKind::CoyoteIcap);
        let mut state = ConfigState::new(DeviceKind::U55C);
        let err = port
            .program(SimTime::ZERO, bs.header(), &mut state)
            .unwrap_err();
        assert!(matches!(err, ConfigError::DeviceMismatch { .. }));
        assert_eq!(state.reconfig_count(), 0);
    }

    #[test]
    fn shell_reconfig_wipes_vfpga_images() {
        let mut port = ConfigPort::new(ConfigPortKind::CoyoteIcap);
        let mut state = ConfigState::new(DeviceKind::U55C);
        let app = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::App { vfpga: 2 }, 50, 77);
        port.program(SimTime::ZERO, app.header(), &mut state)
            .unwrap();
        assert_eq!(state.image(PartitionId::Vfpga(2)).unwrap().digest, 77);

        port.program(SimTime::ZERO, shell_bs(99).header(), &mut state)
            .unwrap();
        assert_eq!(state.image(PartitionId::Shell).unwrap().digest, 99);
        assert!(
            state.image(PartitionId::Vfpga(2)).is_none(),
            "shell reconfig rewrote the app region"
        );
    }

    #[test]
    fn app_reconfig_leaves_shell_intact() {
        let mut port = ConfigPort::new(ConfigPortKind::CoyoteIcap);
        let mut state = ConfigState::new(DeviceKind::U55C);
        port.program(SimTime::ZERO, shell_bs(1).header(), &mut state)
            .unwrap();
        let app = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::App { vfpga: 0 }, 50, 2);
        port.program(SimTime::ZERO, app.header(), &mut state)
            .unwrap();
        assert_eq!(state.image(PartitionId::Shell).unwrap().digest, 1);
        assert_eq!(state.image(PartitionId::Vfpga(0)).unwrap().digest, 2);
        assert_eq!(state.reconfig_count(), 2);
    }

    #[test]
    fn programming_serializes_on_the_port() {
        let mut port = ConfigPort::new(ConfigPortKind::CoyoteIcap);
        let mut state = ConfigState::new(DeviceKind::U55C);
        let a = port
            .program(SimTime::ZERO, shell_bs(1).header(), &mut state)
            .unwrap();
        let b = port
            .program(SimTime::ZERO, shell_bs(2).header(), &mut state)
            .unwrap();
        assert_eq!(
            b.start, a.done,
            "second programming queues behind the first"
        );
    }

    #[test]
    fn batched_runs_move_the_same_bytes_in_the_same_time() {
        let bs = shell_bs(33);
        // Unbatched reference.
        let mut ref_port = ConfigPort::new(ConfigPortKind::CoyoteIcap);
        let mut ref_state = ConfigState::new(DeviceKind::U55C);
        let ref_xfer = ref_port
            .program(SimTime::ZERO, bs.header(), &mut ref_state)
            .unwrap();

        // Batched: 4 runs streamed back-to-back, then one commit.
        let mut port = ConfigPort::new(ConfigPortKind::CoyoteIcap);
        let mut state = ConfigState::new(DeviceKind::U55C);
        let mut at = SimTime::ZERO;
        for run in bs.header().frame_runs(bs.bytes(), Some(250)).iter() {
            let bytes = &bs.bytes()[run.byte_off..run.byte_off + run.byte_len];
            let xfer = port.program_run(at, run, bytes).unwrap();
            at = xfer.done;
        }
        port.commit_batch(&mut state, bs.header(), at).unwrap();

        assert_eq!(
            at, ref_xfer.done,
            "back-to-back runs take the unbatched time"
        );
        assert_eq!(port.link.bytes_total(), ref_port.link.bytes_total());
        assert_eq!(state.image(PartitionId::Shell).unwrap().digest, 33);
        assert_eq!(state.reconfig_count(), 1);
    }

    #[test]
    fn corrupted_run_fails_its_crc_and_nothing_commits() {
        let bs = shell_bs(44);
        let mut port = ConfigPort::new(ConfigPortKind::CoyoteIcap);
        let state = ConfigState::new(DeviceKind::U55C);
        let runs = bs.header().frame_runs(bs.bytes(), Some(400));
        let run = &runs[1];
        let mut bytes = bs.bytes()[run.byte_off..run.byte_off + run.byte_len].to_vec();
        bytes[17] ^= 0x80;
        let err = port.program_run(SimTime::ZERO, run, &bytes).unwrap_err();
        assert!(matches!(
            err,
            ProgramError::Bitstream(BitstreamError::CrcMismatch { .. })
        ));
        assert_eq!(state.reconfig_count(), 0, "nothing committed");
        assert_eq!(
            port.link.bytes_total(),
            0,
            "failed run never reached the port"
        );
    }

    #[test]
    fn a_flipped_run_leaves_the_borrowed_slice_unchanged() {
        use coyote_chaos::{Domain, FaultPlan};
        let bs = shell_bs(45);
        let runs = bs.header().frame_runs(bs.bytes(), Some(400));
        let run = &runs[1];
        let borrowed = &bs.bytes()[run.byte_off..run.byte_off + run.byte_len];
        let before = borrowed.to_vec();
        let mut port = ConfigPort::new(ConfigPortKind::CoyoteIcap);
        port.attach_chaos(
            FaultPlan::new(3)
                .bitstream_flip_at(0, 8 * 17 + 5)
                .injector(Domain::Reconfig),
        );
        let err = port.program_run(SimTime::ZERO, run, borrowed).unwrap_err();
        assert!(matches!(
            err,
            ProgramError::Bitstream(BitstreamError::CrcMismatch { .. })
        ));
        assert_eq!(borrowed, &before[..], "the flip hit a copy");
        assert_eq!(crc32(borrowed), run.crc);
        // The next attempt is clean and streams the same borrowed bytes.
        assert!(port.program_run(SimTime::ZERO, run, borrowed).is_ok());
        assert_eq!(port.link.bytes_total(), run.byte_len as u64);
    }

    /// Bytes `f` makes this thread's ports hash to decide runs, and its
    /// value.
    fn run_hashing<R>(f: impl FnOnce() -> R) -> (u64, R) {
        let before = RUN_CRC_BYTES.with(|n| n.get());
        let out = f();
        (RUN_CRC_BYTES.with(|n| n.get()) - before, out)
    }

    fn run_bytes<'a>(bs: &'a Bitstream, run: &FrameRun) -> &'a [u8] {
        &bs.bytes()[run.byte_off..run.byte_off + run.byte_len]
    }

    #[test]
    fn a_resident_image_streams_without_hashing_its_unflipped_runs() {
        use coyote_chaos::{Domain, FaultPlan};
        let bs = shell_bs(46);
        let runs = bs.header().frame_runs(bs.bytes(), Some(300));
        let mut port = ConfigPort::new(ConfigPortKind::CoyoteIcap);
        let (hashed, streamed) = run_hashing(|| {
            runs.iter().all(|run| {
                port.program_run(SimTime::ZERO, run, run_bytes(&bs, run))
                    .is_ok()
            })
        });
        assert!(streamed);
        assert_eq!(hashed, 0, "every run's CRC is its memo");

        // A flipped run is hashed once; its clean retry is not.
        port.attach_chaos(
            FaultPlan::new(4)
                .bitstream_flip_at(0, 8 * 40 + 1)
                .injector(Domain::Reconfig),
        );
        let run = &runs[2];
        let (hashed, flipped) =
            run_hashing(|| port.program_run(SimTime::ZERO, run, run_bytes(&bs, run)));
        assert!(matches!(
            flipped,
            Err(ProgramError::Bitstream(BitstreamError::CrcMismatch { .. }))
        ));
        assert_eq!(hashed, run.byte_len as u64);
        let (hashed, retry) =
            run_hashing(|| port.program_run(SimTime::ZERO, run, run_bytes(&bs, run)));
        assert!(retry.is_ok());
        assert_eq!(hashed, 0);

        // A copy of the same bytes is not the image: it is hashed, and passes.
        let copy = run_bytes(&bs, run).to_vec();
        let (hashed, of_copy) = run_hashing(|| port.program_run(SimTime::ZERO, run, &copy));
        assert!(of_copy.is_ok());
        assert_eq!(hashed, run.byte_len as u64);
    }

    #[test]
    fn a_run_handed_another_images_bytes_is_refused() {
        // Two resident images of one geometry, both split alike: every run
        // of B sits at the offset and length of A's run of that index.
        let a = shell_bs(47);
        let b = shell_bs(48);
        let a_runs = a.header().frame_runs(a.bytes(), Some(400));
        let b_runs = b.header().frame_runs(b.bytes(), Some(400));
        let mut port = ConfigPort::new(ConfigPortKind::CoyoteIcap);
        for (run, theirs) in a_runs.iter().zip(b_runs.iter()) {
            assert_eq!(run.byte_len, theirs.byte_len);
            let err = port
                .program_run(SimTime::ZERO, run, run_bytes(&b, theirs))
                .unwrap_err();
            assert!(matches!(
                err,
                ProgramError::Bitstream(BitstreamError::CrcMismatch { .. })
            ));
        }
        // A's own run with its CRC edited is refused on A's own bytes.
        let mut forged = a_runs[1];
        forged.crc ^= 1;
        let err = port
            .program_run(SimTime::ZERO, &forged, run_bytes(&a, &forged))
            .unwrap_err();
        assert!(matches!(
            err,
            ProgramError::Bitstream(BitstreamError::CrcMismatch { .. })
        ));
        assert_eq!(
            port.link.bytes_total(),
            0,
            "no refused run reached the port"
        );
    }

    #[test]
    fn commit_batch_rejects_device_mismatch() {
        let bs = Bitstream::assemble(DeviceKind::U250, BitstreamKind::Shell, 10, 1);
        let mut port = ConfigPort::new(ConfigPortKind::CoyoteIcap);
        let mut state = ConfigState::new(DeviceKind::U55C);
        assert!(matches!(
            port.commit_batch(&mut state, bs.header(), SimTime::ZERO),
            Err(ConfigError::DeviceMismatch { .. })
        ));
    }

    #[test]
    fn full_reprogram_resets_everything() {
        let mut port = ConfigPort::new(ConfigPortKind::CoyoteIcap);
        let mut state = ConfigState::new(DeviceKind::U55C);
        port.program(SimTime::ZERO, shell_bs(5).header(), &mut state)
            .unwrap();
        let full = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Full, 100, 6);
        port.program(SimTime::ZERO, full.header(), &mut state)
            .unwrap();
        assert_eq!(state.image(PartitionId::Shell).unwrap().digest, 6);
        assert_eq!(state.image(PartitionId::Static).unwrap().digest, 6);
    }
}
