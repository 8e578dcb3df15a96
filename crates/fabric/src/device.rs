//! Column-structured device models of the Alveo cards Coyote v2 targets.
//!
//! The device is a grid of tiles. Each grid *column* has a type, mirroring
//! the column-based architecture of UltraScale+ parts: most columns carry
//! CLBs (LUTs + flip-flops), with periodic BRAM, DSP and URAM columns. Each
//! tile occupies a fixed number of configuration frames, so the size of a
//! partial bitstream is proportional to the area of the reconfigured region
//! — exactly the property Tables 2 and 3 depend on.

use crate::resources::ResourceVec;
use serde::{Deserialize, Serialize};

/// Payload bytes of one configuration frame (93 32-bit words, the
/// 7-series/UltraScale-style frame geometry).
pub const FRAME_PAYLOAD_BYTES: usize = 372;
/// On-the-wire bytes of one frame record in a bitstream: 4-byte frame
/// address plus the payload.
pub const FRAME_RECORD_BYTES: usize = 4 + FRAME_PAYLOAD_BYTES;
/// Configuration frames per tile. Chosen together with the tile grid so the
/// full-device configuration data of the U55C model is ~99 MB, in line with
/// real UltraScale+ bitstream sizes.
pub const FRAMES_PER_TILE: u32 = 33;

/// What a grid column contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnKind {
    /// Logic column: LUTs and flip-flops.
    Clb,
    /// Block-RAM column.
    Bram,
    /// DSP column.
    Dsp,
    /// UltraRAM column.
    Uram,
}

impl ColumnKind {
    /// Resources contained in one tile of this column kind.
    pub fn tile_resources(self) -> ResourceVec {
        match self {
            ColumnKind::Clb => ResourceVec::logic(200, 400),
            ColumnKind::Bram => ResourceVec::new(0, 0, 3, 0, 0),
            ColumnKind::Dsp => ResourceVec::new(0, 0, 0, 0, 11),
            ColumnKind::Uram => ResourceVec::new(0, 0, 0, 1, 0),
        }
    }
}

/// The supported Alveo cards (§3: "Coyote v2 runs on a variety of AMD FPGAs
/// (U250, U55C, U280)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// Alveo U55C: 16 GB HBM2, the card of the paper's evaluation.
    U55C,
    /// Alveo U250: DDR4, largest logic capacity.
    U250,
    /// Alveo U280: HBM2 + DDR4.
    U280,
}

impl DeviceKind {
    /// Stable numeric id embedded in bitstream headers.
    pub fn id(self) -> u16 {
        match self {
            DeviceKind::U55C => 0x55C0,
            DeviceKind::U250 => 0x2500,
            DeviceKind::U280 => 0x2800,
        }
    }

    /// Parse a bitstream device id.
    pub fn from_id(id: u16) -> Option<DeviceKind> {
        match id {
            0x55C0 => Some(DeviceKind::U55C),
            0x2500 => Some(DeviceKind::U250),
            0x2800 => Some(DeviceKind::U280),
            _ => None,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::U55C => "Alveo U55C",
            DeviceKind::U250 => "Alveo U250",
            DeviceKind::U280 => "Alveo U280",
        }
    }
}

/// A concrete device: tile grid plus derived capacities.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Device {
    kind: DeviceKind,
    cols: u32,
    rows: u32,
    column_kinds: Vec<ColumnKind>,
}

impl Device {
    /// Instantiate a device model.
    pub fn new(kind: DeviceKind) -> Device {
        let (cols, rows) = match kind {
            DeviceKind::U55C => (80, 100),
            DeviceKind::U250 => (96, 100),
            DeviceKind::U280 => (84, 100),
        };
        // Repeating 10-column pattern: 7 CLB, 1 BRAM, 1 DSP, 1 URAM. This
        // approximates the published primitive counts of the real parts
        // (U55C: ~1.3M LUTs, ~2k BRAM36, ~9k DSP, ~960 URAM).
        let pattern = [
            ColumnKind::Clb,
            ColumnKind::Clb,
            ColumnKind::Clb,
            ColumnKind::Bram,
            ColumnKind::Clb,
            ColumnKind::Clb,
            ColumnKind::Dsp,
            ColumnKind::Clb,
            ColumnKind::Clb,
            ColumnKind::Uram,
        ];
        let column_kinds = (0..cols).map(|c| pattern[(c % 10) as usize]).collect();
        Device {
            kind,
            cols,
            rows,
            column_kinds,
        }
    }

    /// Which card this is.
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// Grid width in tiles.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Grid height in tiles.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Total tiles.
    pub fn tiles(&self) -> u32 {
        self.cols * self.rows
    }

    /// Column kind at grid column `c`.
    pub fn column_kind(&self, c: u32) -> ColumnKind {
        self.column_kinds[c as usize]
    }

    /// Total device capacity.
    pub fn capacity(&self) -> ResourceVec {
        self.column_kinds
            .iter()
            .map(|k| k.tile_resources() * self.rows as u64)
            .sum()
    }

    /// Resources contained in a rectangle of tiles
    /// (`col0..col1`, `row0..row1`, half-open).
    pub fn resources_in(&self, col0: u32, col1: u32, row0: u32, row1: u32) -> ResourceVec {
        let rows = (row1 - row0) as u64;
        (col0..col1)
            .map(|c| self.column_kind(c).tile_resources() * rows)
            .sum()
    }

    /// Configuration frames for a tile count.
    pub fn frames_for_tiles(tiles: u32) -> u64 {
        tiles as u64 * FRAMES_PER_TILE as u64
    }

    /// Full-device configuration-data size (the frame records of a full
    /// image, before its header and trailer).
    pub fn full_config_bytes(&self) -> u64 {
        Self::frames_for_tiles(self.tiles()) * FRAME_RECORD_BYTES as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u55c_capacity_is_plausible() {
        let d = Device::new(DeviceKind::U55C);
        let cap = d.capacity();
        // 56 CLB columns x 100 rows x 200 LUT = 1.12M LUTs, within 15% of
        // the real 1.3M.
        assert_eq!(cap.lut, 1_120_000);
        assert_eq!(cap.ff, 2_240_000);
        assert_eq!(cap.bram, 2_400);
        assert_eq!(cap.dsp, 8_800);
        assert_eq!(cap.uram, 800);
    }

    #[test]
    fn full_bitstream_near_100mb() {
        let d = Device::new(DeviceKind::U55C);
        let mb = d.full_config_bytes() as f64 / 1e6;
        assert!((99.0..100.0).contains(&mb), "got {mb} MB");
    }

    #[test]
    fn device_ids_roundtrip() {
        for k in [DeviceKind::U55C, DeviceKind::U250, DeviceKind::U280] {
            assert_eq!(DeviceKind::from_id(k.id()), Some(k));
        }
        assert_eq!(DeviceKind::from_id(0xdead), None);
    }

    #[test]
    fn u250_is_larger_than_u55c() {
        let u250 = Device::new(DeviceKind::U250).capacity();
        let u55c = Device::new(DeviceKind::U55C).capacity();
        assert!(u250.lut > u55c.lut);
    }

    #[test]
    fn column_pattern_repeats() {
        let d = Device::new(DeviceKind::U55C);
        assert_eq!(d.column_kind(3), ColumnKind::Bram);
        assert_eq!(d.column_kind(13), ColumnKind::Bram);
        assert_eq!(d.column_kind(6), ColumnKind::Dsp);
        assert_eq!(d.column_kind(9), ColumnKind::Uram);
        assert_eq!(d.column_kind(0), ColumnKind::Clb);
    }
}
