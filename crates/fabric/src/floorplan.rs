//! Floorplans: the partition geometry behind shell reconfiguration (§4).
//!
//! "To enable shell reconfiguration, Coyote v2 provides a floor-plan and
//! interfaces which connect the static layer to the shell. Both the
//! floor-plan and the interfaces are hidden from Coyote v2 users."
//!
//! A [`Floorplan`] carves the device tile grid into a *static* partition, a
//! *shell* partition (dynamic layer services + application layer), and one
//! or more *vFPGA* regions nested inside the shell. A shell reconfiguration
//! rewrites every frame of the shell rectangle (services **and** apps, the
//! fail-safe of §4); an app reconfiguration rewrites only the frames of one
//! vFPGA rectangle.

use crate::bitstream::{Bitstream, BitstreamKind};
use crate::device::{Device, DeviceKind};
use crate::resources::ResourceVec;
use serde::{Deserialize, Serialize};

/// A half-open rectangle of tiles: columns `[col0, col1)`, rows `[row0, row1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rect {
    /// First column (inclusive).
    pub col0: u32,
    /// First row (inclusive).
    pub row0: u32,
    /// End column (exclusive).
    pub col1: u32,
    /// End row (exclusive).
    pub row1: u32,
}

impl Rect {
    /// Construct a rectangle; `col0 < col1` and `row0 < row1` required.
    pub fn new(col0: u32, row0: u32, col1: u32, row1: u32) -> Rect {
        assert!(col0 < col1 && row0 < row1, "degenerate rect");
        Rect {
            col0,
            row0,
            col1,
            row1,
        }
    }

    /// Tile count.
    pub fn tiles(&self) -> u32 {
        (self.col1 - self.col0) * (self.row1 - self.row0)
    }

    /// True if `other` lies entirely within `self`.
    pub fn contains(&self, other: &Rect) -> bool {
        self.col0 <= other.col0
            && self.row0 <= other.row0
            && self.col1 >= other.col1
            && self.row1 >= other.row1
    }

    /// True if the two rectangles share any tile.
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.col0 < other.col1
            && other.col0 < self.col1
            && self.row0 < other.row1
            && other.row0 < self.row1
    }
}

/// Identity of a reconfigurable (or static) partition.
///
/// `Ord` so partition-keyed tables can be `BTreeMap`s: the configuration
/// layer iterates them, and iteration order must not depend on a hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PartitionId {
    /// The static layer: PCIe/XDMA link, reconfiguration controller. Never
    /// partially reconfigured; shipped as a routed, locked checkpoint.
    Static,
    /// The shell: dynamic layer (services) + application layer.
    Shell,
    /// One vFPGA region, nested inside the shell.
    Vfpga(u8),
}

/// One partition: an id plus its rectangle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// Which partition this is.
    pub id: PartitionId,
    /// Tile rectangle.
    pub rect: Rect,
}

/// Floorplan validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FloorplanError {
    /// A partition extends beyond the device grid.
    OutOfBounds(PartitionId),
    /// Static/shell partitions overlap, or two vFPGA regions overlap.
    Overlap(PartitionId, PartitionId),
    /// A vFPGA region is not contained in the shell.
    VfpgaOutsideShell(u8),
    /// No shell partition defined.
    MissingShell,
    /// Duplicate partition id.
    Duplicate(PartitionId),
}

impl std::fmt::Display for FloorplanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FloorplanError::OutOfBounds(p) => write!(f, "partition {p:?} out of bounds"),
            FloorplanError::Overlap(a, b) => write!(f, "partitions {a:?} and {b:?} overlap"),
            FloorplanError::VfpgaOutsideShell(v) => {
                write!(f, "vFPGA {v} region not contained in the shell")
            }
            FloorplanError::MissingShell => write!(f, "floorplan has no shell partition"),
            FloorplanError::Duplicate(p) => write!(f, "duplicate partition {p:?}"),
        }
    }
}

impl std::error::Error for FloorplanError {}

/// Which services the shell is floorplanned for. Larger service sets need
/// a wider shell band, which directly sets the partial-bitstream sizes of
/// Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShellProfile {
    /// Host streaming only (scenario #1 of §9.3).
    HostOnly,
    /// Host + card memory (HBM controllers, striping MMU).
    HostMemory,
    /// Host + card memory + RDMA network stack.
    HostMemoryNetwork,
}

impl ShellProfile {
    /// Shell band width in tile columns on the U55C-class grid.
    fn shell_cols(self) -> u32 {
        match self {
            // 30 cols x 100 rows = 3000 tiles -> 37.2 MB shell bitstream.
            ShellProfile::HostOnly => 30,
            // 43 cols -> 53.4 MB.
            ShellProfile::HostMemory => 43,
            // 52 cols -> 64.5 MB.
            ShellProfile::HostMemoryNetwork => 52,
        }
    }

    /// Columns of the shell band reserved for services (the rest hosts the
    /// vFPGA regions).
    fn service_cols(self) -> u32 {
        match self {
            ShellProfile::HostOnly => 6,
            ShellProfile::HostMemory => 10,
            ShellProfile::HostMemoryNetwork => 19,
        }
    }
}

/// A validated partition geometry for one device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Floorplan {
    device: DeviceKind,
    partitions: Vec<Partition>,
}

impl Floorplan {
    /// Width of the static-layer column band.
    pub const STATIC_COLS: u32 = 8;

    /// Build the preset floorplan used by the paper's experiments:
    /// a static band on the left, a shell band sized by `profile`, and
    /// `n_vfpgas` equal-height vFPGA regions stacked in the app band.
    ///
    /// # Panics
    ///
    /// Panics if `n_vfpgas` is zero or does not fit the grid.
    pub fn preset(device: DeviceKind, profile: ShellProfile, n_vfpgas: u8) -> Floorplan {
        assert!(n_vfpgas >= 1, "at least one vFPGA region");
        let dev = Device::new(device);
        let rows = dev.rows();
        assert!(n_vfpgas as u32 <= rows, "too many vFPGA regions");

        let static_rect = Rect::new(0, 0, Self::STATIC_COLS, rows);
        let shell_c0 = Self::STATIC_COLS;
        let shell_c1 = shell_c0 + profile.shell_cols();
        assert!(shell_c1 <= dev.cols(), "shell band exceeds device");
        let shell_rect = Rect::new(shell_c0, 0, shell_c1, rows);

        let app_c0 = shell_c0 + profile.service_cols();
        let mut partitions = vec![
            Partition {
                id: PartitionId::Static,
                rect: static_rect,
            },
            Partition {
                id: PartitionId::Shell,
                rect: shell_rect,
            },
        ];
        let band = rows / n_vfpgas as u32;
        for v in 0..n_vfpgas {
            let r0 = v as u32 * band;
            let r1 = if v == n_vfpgas - 1 { rows } else { r0 + band };
            partitions.push(Partition {
                id: PartitionId::Vfpga(v),
                rect: Rect::new(app_c0, r0, shell_c1, r1),
            });
        }
        let fp = Floorplan { device, partitions };
        fp.validate(&dev)
            .expect("preset floorplan is valid by construction");
        fp
    }

    /// Build a floorplan from explicit partitions, for the `validate`
    /// tests.
    #[cfg(test)]
    fn custom(device: DeviceKind, partitions: Vec<Partition>) -> Floorplan {
        Floorplan { device, partitions }
    }

    /// The device this floorplan targets.
    pub fn device(&self) -> DeviceKind {
        self.device
    }

    /// All partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Look up a partition.
    pub fn partition(&self, id: PartitionId) -> Option<&Partition> {
        self.partitions.iter().find(|p| p.id == id)
    }

    /// Check geometric invariants.
    pub fn validate(&self, device: &Device) -> Result<(), FloorplanError> {
        let bounds = Rect::new(0, 0, device.cols(), device.rows());
        let shell = self
            .partition(PartitionId::Shell)
            .ok_or(FloorplanError::MissingShell)?
            .rect;
        for (i, p) in self.partitions.iter().enumerate() {
            if !bounds.contains(&p.rect) {
                return Err(FloorplanError::OutOfBounds(p.id));
            }
            if self.partitions.iter().skip(i + 1).any(|q| q.id == p.id) {
                return Err(FloorplanError::Duplicate(p.id));
            }
            match p.id {
                PartitionId::Vfpga(v) => {
                    if !shell.contains(&p.rect) {
                        return Err(FloorplanError::VfpgaOutsideShell(v));
                    }
                }
                PartitionId::Static => {
                    if p.rect.overlaps(&shell) {
                        return Err(FloorplanError::Overlap(
                            PartitionId::Static,
                            PartitionId::Shell,
                        ));
                    }
                }
                PartitionId::Shell => {}
            }
        }
        // vFPGA regions must be mutually disjoint.
        let vfpgas: Vec<&Partition> = self
            .partitions
            .iter()
            .filter(|p| matches!(p.id, PartitionId::Vfpga(_)))
            .collect();
        for (i, a) in vfpgas.iter().enumerate() {
            for b in vfpgas.iter().skip(i + 1) {
                if a.rect.overlaps(&b.rect) {
                    return Err(FloorplanError::Overlap(a.id, b.id));
                }
            }
        }
        Ok(())
    }

    /// Tiles covered by a partition's bitstream. For the shell this is the
    /// whole shell rectangle, vFPGA regions included (§4: a shell
    /// reconfiguration rewrites services and apps together).
    pub fn tiles_of(&self, id: PartitionId) -> Option<u32> {
        self.partition(id).map(|p| p.rect.tiles())
    }

    /// The unwritten image of a `kind` bitstream for the design `digest`.
    /// Its size is the target partition's geometry, never the placement
    /// inside it: the shell image covers the whole shell rectangle, an app
    /// image its vFPGA region, a full image the whole device. `None` if
    /// the floorplan has no such region.
    pub fn image(&self, kind: BitstreamKind, digest: u64) -> Option<Bitstream> {
        let tiles = match kind {
            BitstreamKind::Full => Some(Device::new(self.device).tiles()),
            BitstreamKind::Shell => self.tiles_of(PartitionId::Shell),
            BitstreamKind::App { vfpga } => self.tiles_of(PartitionId::Vfpga(vfpga)),
        }?;
        let frames = Device::frames_for_tiles(tiles);
        Some(Bitstream::assemble(self.device, kind, frames, digest))
    }

    /// Placeable capacity of a partition. For the shell, the nested vFPGA
    /// rectangles are subtracted: services may only use the service band.
    pub fn capacity_of(&self, device: &Device, id: PartitionId) -> Option<ResourceVec> {
        let p = self.partition(id)?;
        let full = device.resources_in(p.rect.col0, p.rect.col1, p.rect.row0, p.rect.row1);
        if id == PartitionId::Shell {
            let nested: ResourceVec = self
                .partitions
                .iter()
                .filter(|q| matches!(q.id, PartitionId::Vfpga(_)))
                .map(|q| device.resources_in(q.rect.col0, q.rect.col1, q.rect.row0, q.rect.row1))
                .sum();
            Some(full.saturating_sub(&nested))
        } else {
            Some(full)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::HEADER_BYTES;
    use crate::device::FRAME_RECORD_BYTES;

    #[test]
    fn rect_geometry() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 15, 15);
        let c = Rect::new(10, 0, 20, 10);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c), "touching edges do not overlap");
        assert!(a.contains(&Rect::new(2, 2, 8, 8)));
        assert!(!a.contains(&b));
        assert_eq!(a.tiles(), 100);
    }

    #[test]
    fn preset_is_valid_and_sized_for_table3() {
        // The three §9.3 scenarios: shell bitstream sizes must reproduce the
        // kernel latencies of Table 3 at 800 MB/s + 5 ms setup.
        let cases = [
            (ShellProfile::HostOnly, 37.2),
            (ShellProfile::HostMemory, 53.4),
            (ShellProfile::HostMemoryNetwork, 64.5),
        ];
        for (profile, expect_mb) in cases {
            let fp = Floorplan::preset(DeviceKind::U55C, profile, 1);
            let mb = fp.image(BitstreamKind::Shell, 0).unwrap().len() as f64 / 1e6;
            assert!((mb - expect_mb).abs() < 0.5, "{profile:?}: {mb} MB");
        }
    }

    #[test]
    fn single_vfpga_region_size_matches_hll_reconfig() {
        // §9.6: loading the HLL kernel by partial reconfiguration takes
        // ~57 ms; at 800 MB/s + 5 ms setup that is a ~41 MB region.
        let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostMemory, 1);
        let image = fp.image(BitstreamKind::App { vfpga: 0 }, 0).unwrap();
        let mb = image.len() as f64 / 1e6;
        assert!((40.0..42.5).contains(&mb), "got {mb} MB");
    }

    #[test]
    fn vfpga_regions_tile_the_app_band() {
        let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostMemoryNetwork, 4);
        assert!(fp.partition(PartitionId::Vfpga(3)).is_some());
        assert!(fp.partition(PartitionId::Vfpga(4)).is_none());
        let total: u32 = (0..4)
            .map(|v| fp.tiles_of(PartitionId::Vfpga(v)).unwrap())
            .sum();
        // 33 app columns x 100 rows.
        assert_eq!(total, 3300);
    }

    #[test]
    fn overlapping_vfpgas_rejected() {
        let fp = Floorplan::custom(
            DeviceKind::U55C,
            vec![
                Partition {
                    id: PartitionId::Shell,
                    rect: Rect::new(8, 0, 60, 100),
                },
                Partition {
                    id: PartitionId::Vfpga(0),
                    rect: Rect::new(20, 0, 40, 60),
                },
                Partition {
                    id: PartitionId::Vfpga(1),
                    rect: Rect::new(30, 40, 50, 100),
                },
            ],
        );
        let dev = Device::new(DeviceKind::U55C);
        assert_eq!(
            fp.validate(&dev),
            Err(FloorplanError::Overlap(
                PartitionId::Vfpga(0),
                PartitionId::Vfpga(1)
            ))
        );
    }

    #[test]
    fn vfpga_outside_shell_rejected() {
        let fp = Floorplan::custom(
            DeviceKind::U55C,
            vec![
                Partition {
                    id: PartitionId::Shell,
                    rect: Rect::new(8, 0, 40, 100),
                },
                Partition {
                    id: PartitionId::Vfpga(0),
                    rect: Rect::new(38, 0, 45, 50),
                },
            ],
        );
        let dev = Device::new(DeviceKind::U55C);
        assert_eq!(fp.validate(&dev), Err(FloorplanError::VfpgaOutsideShell(0)));
    }

    #[test]
    fn missing_shell_rejected() {
        let fp = Floorplan::custom(
            DeviceKind::U55C,
            vec![Partition {
                id: PartitionId::Static,
                rect: Rect::new(0, 0, 8, 100),
            }],
        );
        let dev = Device::new(DeviceKind::U55C);
        assert_eq!(fp.validate(&dev), Err(FloorplanError::MissingShell));
    }

    #[test]
    fn shell_capacity_excludes_vfpga_regions() {
        let dev = Device::new(DeviceKind::U55C);
        let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostMemory, 2);
        let shell_cap = fp.capacity_of(&dev, PartitionId::Shell).unwrap();
        let v0 = fp.capacity_of(&dev, PartitionId::Vfpga(0)).unwrap();
        let v1 = fp.capacity_of(&dev, PartitionId::Vfpga(1)).unwrap();
        let shell_full = {
            let p = fp.partition(PartitionId::Shell).unwrap();
            dev.resources_in(p.rect.col0, p.rect.col1, p.rect.row0, p.rect.row1)
        };
        assert_eq!(shell_cap + v0 + v1, shell_full);
    }

    #[test]
    fn config_bytes_use_frame_geometry() {
        let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostOnly, 1);
        let tiles = fp.tiles_of(PartitionId::Shell).unwrap() as u64;
        let shell = fp.image(BitstreamKind::Shell, 9).unwrap();
        assert_eq!(shell.frames(), tiles * 33);
        assert_eq!(
            shell.len(),
            (HEADER_BYTES + 4) as u64 + tiles * 33 * FRAME_RECORD_BYTES as u64
        );
        assert_eq!((shell.device(), shell.digest()), (DeviceKind::U55C, 9));
        let full = fp.image(BitstreamKind::Full, 9).unwrap();
        let device_tiles = Device::new(DeviceKind::U55C).tiles() as u64;
        assert_eq!(full.frames(), device_tiles * 33);
        assert!(fp.image(BitstreamKind::App { vfpga: 1 }, 9).is_none());
    }
}
