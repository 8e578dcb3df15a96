//! FPGA device model: resources, floorplans, bitstreams and configuration
//! ports.
//!
//! This crate is the substitute for the physical Alveo card. It models:
//!
//! * [`ResourceVec`] — LUT/FF/BRAM/URAM/DSP accounting, used for the
//!   utilization plots of Figs. 11 and 12.
//! * [`Device`] — a column-structured tile grid approximating the Alveo
//!   U55C/U250/U280, with per-tile configuration-frame counts so partial
//!   bitstream sizes fall out of region geometry, as on the real device.
//! * [`Floorplan`] — the static/shell/vFPGA partition rectangles of §4,
//!   with the preset geometries used by the paper's experiments.
//! * [`Bitstream`] — a concrete byte format (header, per-frame records,
//!   CRC-32) written by the build flows of `coyote-synth` and parsed back by
//!   the configuration ports.
//! * [`config`] — the ICAP reconfiguration controller of §5.3 together with
//!   the AXI HWICAP / PCAP / MCAP baselines of Table 2, and the
//!   [`config::ConfigState`] tracking which partition holds which bitstream.

#![deny(unsafe_code)]

pub mod bitstream;
pub mod cache;
pub mod config;
pub mod crc;
pub mod device;
pub mod floorplan;
pub mod resources;

pub use bitstream::{
    Bitstream, BitstreamError, BitstreamHeader, BitstreamKind, FrameRun, HEADER_BYTES,
};
pub use cache::{content_hash64, BitstreamCache, CacheStats};
pub use config::{ConfigError, ConfigPort, ConfigPortKind, ConfigState, ProgramError};
pub use crc::crc32;
pub use device::{Device, DeviceKind, FRAMES_PER_TILE, FRAME_PAYLOAD_BYTES, FRAME_RECORD_BYTES};
pub use floorplan::{Floorplan, FloorplanError, Partition, PartitionId, Rect, ShellProfile};
pub use resources::ResourceVec;

/// Run `f` with the `par_map` worker budget set to `threads`. Tests that
/// set the budget hold one lock, so they do not overwrite each other's.
#[cfg(test)]
pub(crate) fn at_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var(coyote_sim::par::THREADS_ENV, threads.to_string());
    let out = f();
    std::env::remove_var(coyote_sim::par::THREADS_ENV);
    out
}
