//! Shell parametrization (§4).
//!
//! "A shell is fully parametrized by its services and the user
//! applications. Coyote v2 will then synthesize all the necessary partial
//! bitstreams which can dynamically be loaded onto the FPGA."

use coyote_fabric::{Device, DeviceKind, Floorplan, ShellProfile};
use coyote_mmu::MmuConfig;
use coyote_net::SnifferConfig;
use coyote_sim::Fnv64;
use coyote_synth::{Ip, IpBlock};

/// Which service groups the shell carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShellServices {
    /// Card memory (HBM/DDR controllers + striping). Zero disables the
    /// memory service (the migration channel is then tied off, §5.1).
    pub memory_channels: usize,
    /// The RoCE v2 networking stack.
    pub networking: bool,
    /// The traffic sniffer of §8 (requires networking).
    pub sniffer: bool,
}

/// Full compile-time shell configuration.
#[derive(Debug, Clone)]
pub struct ShellConfig {
    /// Target card.
    pub device: DeviceKind,
    /// Number of vFPGA regions ("congestion and routing constraints
    /// practically limit the number of active vFPGAs to between eight and
    /// ten", §7.3).
    pub n_vfpgas: u8,
    /// Service selection.
    pub services: ShellServices,
    /// MMU geometry (per vFPGA).
    pub mmu: MmuConfig,
    /// Parallel host streams per vFPGA (§7.1).
    pub n_host_streams: u8,
    /// Parallel card streams per vFPGA.
    pub n_card_streams: u8,
    /// Sniffer filter configuration, when the sniffer service is present.
    pub sniffer_config: Option<SnifferConfig>,
    /// Node identity: selects the platform's MAC/IP on the simulated
    /// network (distinct per platform in multi-node deployments).
    pub node_id: u16,
}

/// Configuration errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// vFPGA count outside 1..=10.
    BadVfpgaCount(u8),
    /// Sniffer requires the networking service.
    SnifferWithoutNetwork,
    /// Host stream counts must be 1..=16.
    BadStreamCount(u8),
    /// Card stream counts must be 0..=16.
    BadCardStreamCount(u8),
    /// More memory channels than the card has.
    TooManyChannels(usize),
    /// A TLB whose set count is not a non-zero power of two (the set index
    /// is a bit-slice of the VPN) or whose way count is zero.
    BadTlbGeometry {
        /// `"stlb"` or `"ltlb"`.
        tlb: &'static str,
        /// Set count.
        sets: usize,
        /// Ways per set.
        ways: usize,
    },
    /// The small-page TLB's page is not smaller than the huge-page TLB's,
    /// so lookups would classify pages into the wrong TLB.
    TlbPagesInverted {
        /// sTLB page bytes.
        stlb: u64,
        /// lTLB page bytes.
        ltlb: u64,
    },
    /// The TLBs' SRAM does not fit the whole device's on-chip memory.
    TlbTooLarge {
        /// SRAM both TLBs need.
        sram_bits: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::BadVfpgaCount(n) => write!(f, "{n} vFPGAs (1-10 supported)"),
            ConfigError::SnifferWithoutNetwork => {
                write!(f, "the traffic sniffer requires the networking service")
            }
            ConfigError::BadStreamCount(n) => write!(f, "{n} streams (1-16 supported)"),
            ConfigError::BadCardStreamCount(n) => {
                write!(f, "{n} card streams (0-16 supported)")
            }
            ConfigError::TooManyChannels(n) => write!(f, "{n} memory channels not available"),
            ConfigError::BadTlbGeometry { tlb, sets, ways } => write!(
                f,
                "{tlb} geometry {sets}x{ways} invalid: sets must be a non-zero power of two \
                 and ways non-zero"
            ),
            ConfigError::TlbPagesInverted { stlb, ltlb } => write!(
                f,
                "sTLB page ({stlb} B) must be smaller than lTLB page ({ltlb} B)"
            ),
            ConfigError::TlbTooLarge { sram_bits } => write!(
                f,
                "TLB SRAM of {sram_bits} bits does not fit the device's block RAM"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl ShellConfig {
    /// Host-streaming-only shell (scenario #1 of §9.3).
    pub fn host_only(n_vfpgas: u8) -> ShellConfig {
        ShellConfig {
            device: DeviceKind::U55C,
            n_vfpgas,
            services: ShellServices {
                memory_channels: 0,
                networking: false,
                sniffer: false,
            },
            mmu: MmuConfig::default_2m(),
            n_host_streams: 4,
            n_card_streams: 0,
            sniffer_config: None,
            node_id: 1,
        }
    }

    /// Host + card memory shell.
    pub fn host_memory(n_vfpgas: u8, channels: usize) -> ShellConfig {
        ShellConfig {
            device: DeviceKind::U55C,
            n_vfpgas,
            services: ShellServices {
                memory_channels: channels,
                networking: false,
                sniffer: false,
            },
            mmu: MmuConfig::default_2m(),
            n_host_streams: 4,
            n_card_streams: channels.min(16) as u8,
            sniffer_config: None,
            node_id: 1,
        }
    }

    /// Full shell: host + memory + RDMA.
    pub fn host_memory_network(n_vfpgas: u8, channels: usize) -> ShellConfig {
        ShellConfig {
            device: DeviceKind::U55C,
            n_vfpgas,
            services: ShellServices {
                memory_channels: channels,
                networking: true,
                sniffer: false,
            },
            mmu: MmuConfig::default_2m(),
            n_host_streams: 4,
            n_card_streams: channels.min(16) as u8,
            sniffer_config: None,
            node_id: 1,
        }
    }

    /// Enable the traffic sniffer (§8).
    pub fn with_sniffer(mut self, config: SnifferConfig) -> ShellConfig {
        self.services.sniffer = true;
        self.sniffer_config = Some(config);
        self
    }

    /// Use a different MMU geometry (scenario #1 of §9.3 swaps 2 MB pages
    /// for 1 GB pages this way).
    pub fn with_mmu(mut self, mmu: MmuConfig) -> ShellConfig {
        self.mmu = mmu;
        self
    }

    /// Assign a distinct network identity (multi-node deployments).
    pub fn with_node_id(mut self, node_id: u16) -> ShellConfig {
        self.node_id = node_id;
        self
    }

    /// This node's MAC address on the simulated fabric.
    pub fn mac(&self) -> coyote_net::MacAddr {
        coyote_net::MacAddr::node(self.node_id)
    }

    /// This node's IPv4 address.
    pub fn ip(&self) -> [u8; 4] {
        [10, 0, (self.node_id >> 8) as u8, self.node_id as u8]
    }

    /// Check everything [`crate::Platform::load`] needs of a shell: a
    /// config this accepts loads without panicking.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(1..=10).contains(&self.n_vfpgas) {
            return Err(ConfigError::BadVfpgaCount(self.n_vfpgas));
        }
        if self.services.sniffer && !self.services.networking {
            return Err(ConfigError::SnifferWithoutNetwork);
        }
        if self.n_host_streams == 0 || self.n_host_streams > 16 {
            return Err(ConfigError::BadStreamCount(self.n_host_streams));
        }
        if self.n_card_streams > 16 {
            return Err(ConfigError::BadCardStreamCount(self.n_card_streams));
        }
        let max_ch = coyote_sim::params::HBM_CHANNELS;
        if self.services.memory_channels > max_ch {
            return Err(ConfigError::TooManyChannels(self.services.memory_channels));
        }
        for (tlb, geometry) in [("stlb", self.mmu.stlb), ("ltlb", self.mmu.ltlb)] {
            if !geometry.sets.is_power_of_two() || geometry.ways == 0 {
                return Err(ConfigError::BadTlbGeometry {
                    tlb,
                    sets: geometry.sets,
                    ways: geometry.ways,
                });
            }
        }
        let (stlb, ltlb) = (self.mmu.stlb.page.bytes(), self.mmu.ltlb.page.bytes());
        if stlb >= ltlb {
            return Err(ConfigError::TlbPagesInverted { stlb, ltlb });
        }
        // Every vFPGA's MMU allocates its TLBs at load.
        let sram_bits = self.mmu.sram_bits();
        let footprint = IpBlock::new(Ip::Mmu { sram_bits }).footprint();
        if !footprint.fits_in(&Device::new(self.device).capacity()) {
            return Err(ConfigError::TlbTooLarge { sram_bits });
        }
        Ok(())
    }

    /// Floorplan profile implied by the service set.
    pub fn profile(&self) -> ShellProfile {
        if self.services.networking {
            ShellProfile::HostMemoryNetwork
        } else if self.services.memory_channels > 0 {
            ShellProfile::HostMemory
        } else {
            ShellProfile::HostOnly
        }
    }

    /// The preset floorplan this shell is built into.
    ///
    /// # Panics
    ///
    /// Panics if the vFPGA count does not fit the device (`validate`
    /// rejects such a config).
    pub fn floorplan(&self) -> Floorplan {
        Floorplan::preset(self.device, self.profile(), self.n_vfpgas)
    }

    /// Service IP blocks for the build flows.
    pub fn service_blocks(&self) -> Vec<IpBlock> {
        let mut blocks = vec![IpBlock::new(Ip::HostIf)];
        if self.services.memory_channels > 0 {
            blocks.push(IpBlock::new(Ip::MemoryCtrl {
                channels: self.services.memory_channels as u16,
            }));
            blocks.push(IpBlock::new(Ip::Mmu {
                sram_bits: self.mmu.sram_bits(),
            }));
        }
        if self.services.networking {
            blocks.push(IpBlock::new(Ip::Cmac));
            blocks.push(IpBlock::new(Ip::RdmaStack));
        }
        if self.services.sniffer {
            blocks.push(IpBlock::new(Ip::Sniffer));
        }
        blocks
    }

    /// A stable digest of the configuration (identifies shell bitstreams).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::with_basis(0x8396_5525_27F4_E6E5);
        for v in [
            self.device.id() as u64,
            self.n_vfpgas as u64,
            self.services.memory_channels as u64,
            self.services.networking as u64,
            self.services.sniffer as u64,
            self.mmu.sram_bits(),
            self.mmu.ltlb.page.bytes(),
            self.n_host_streams as u64,
            self.n_card_streams as u64,
        ] {
            h.write_word(v);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_mmu::MmuConfig;

    /// Pinned digests of Table 3's three shells: the digest keys shell
    /// images and the bitstream registry, so a change to its fold fails
    /// here first.
    #[test]
    fn table3_shell_digests_are_pinned() {
        let digests = [
            ShellConfig::host_only(1).with_mmu(MmuConfig::huge_1g()),
            ShellConfig::host_memory(2, 16),
            ShellConfig::host_memory_network(1, 16).with_sniffer(SnifferConfig::default()),
        ]
        .map(|c| c.digest());
        assert_eq!(
            digests,
            [
                0xda36_ee24_3cf5_7afa,
                0x6ee7_51a6_f264_0b59,
                0x81ca_d853_5533_0c50
            ]
        );
    }

    #[test]
    fn presets_validate() {
        ShellConfig::host_only(1).validate().unwrap();
        ShellConfig::host_memory(4, 16).validate().unwrap();
        ShellConfig::host_memory_network(8, 32).validate().unwrap();
    }

    #[test]
    fn profiles_derive_from_services() {
        assert_eq!(ShellConfig::host_only(1).profile(), ShellProfile::HostOnly);
        assert_eq!(
            ShellConfig::host_memory(1, 8).profile(),
            ShellProfile::HostMemory
        );
        assert_eq!(
            ShellConfig::host_memory_network(1, 8).profile(),
            ShellProfile::HostMemoryNetwork
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        assert_eq!(
            ShellConfig::host_only(0).validate(),
            Err(ConfigError::BadVfpgaCount(0))
        );
        assert_eq!(
            ShellConfig::host_only(11).validate(),
            Err(ConfigError::BadVfpgaCount(11))
        );
        let mut cfg = ShellConfig::host_only(1);
        cfg.services.sniffer = true;
        assert_eq!(cfg.validate(), Err(ConfigError::SnifferWithoutNetwork));
        let mut cfg = ShellConfig::host_only(1);
        cfg.n_host_streams = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::BadStreamCount(0)));
        let mut cfg = ShellConfig::host_memory(1, 64);
        cfg.services.memory_channels = 64;
        assert_eq!(cfg.validate(), Err(ConfigError::TooManyChannels(64)));
        let mut cfg = ShellConfig::host_memory(1, 16);
        cfg.n_card_streams = 17;
        assert_eq!(cfg.validate(), Err(ConfigError::BadCardStreamCount(17)));
    }

    #[test]
    fn broken_tlb_geometry_rejected() {
        let mut cfg = ShellConfig::host_memory(1, 4);
        cfg.mmu.stlb.sets = 3;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::BadTlbGeometry {
                tlb: "stlb",
                sets: 3,
                ways: 4
            })
        );
        let mut cfg = ShellConfig::host_only(1);
        cfg.mmu.ltlb.ways = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadTlbGeometry { tlb: "ltlb", .. })
        ));
        let mut cfg = ShellConfig::host_only(1);
        cfg.mmu.stlb.page = coyote_mem::PageSize::Huge1G;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::TlbPagesInverted {
                stlb: 1 << 30,
                ltlb: 2 << 20
            })
        );
        // A power-of-two geometry too large to allocate, let alone build.
        let mut cfg = ShellConfig::host_only(1);
        cfg.mmu.stlb.sets = 1 << 60;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::TlbTooLarge { .. })
        ));
    }

    #[test]
    fn service_blocks_match_selection() {
        let blocks = ShellConfig::host_memory_network(2, 16).service_blocks();
        let names: Vec<String> = blocks.iter().map(IpBlock::name).collect();
        assert!(names.contains(&"host_if".to_string()));
        assert!(names.contains(&"mem_ctrl_x16".to_string()));
        assert!(names.contains(&"rdma_stack".to_string()));
        assert!(!names.contains(&"sniffer".to_string()));

        let with_sniffer = ShellConfig::host_memory_network(2, 16)
            .with_sniffer(SnifferConfig::default())
            .service_blocks();
        assert!(with_sniffer.iter().any(|b| b.name() == "sniffer"));
    }

    #[test]
    fn digest_distinguishes_mmu_configs() {
        // Scenario #1 of §9.3: same services, different page size.
        let a = ShellConfig::host_only(1).with_mmu(MmuConfig::default_2m());
        let b = ShellConfig::host_only(1).with_mmu(MmuConfig::huge_1g());
        assert_ne!(a.digest(), b.digest());
    }
}
