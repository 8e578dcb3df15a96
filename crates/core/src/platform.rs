//! The platform: one host CPU + one FPGA card running Coyote v2.
//!
//! Owns the three layers of §3: the static layer (XDMA engine, MSI-X,
//! reconfiguration controller — all inside [`coyote_driver::CoyoteDriver`]),
//! the dynamic layer (memory service, shared virtualization pipeline,
//! networking, sniffer), and the application layer (vFPGAs hosting
//! [`Kernel`]s behind the generic interface of §7.1).

use crate::config::ShellConfig;
use crate::kernel::{Kernel, KernelTiming};
use crate::rdma::BalboaService;
use coyote_axi::RegisterFile;
use coyote_dma::{MsiX, WritebackTable, XdmaEngine};
use coyote_driver::{CoyoteDriver, DriverError};
use coyote_mem::card::CardMemKind;
use coyote_mem::CardMemory;
use coyote_mmu::{Mmu, VirtServer};
use coyote_net::TrafficSniffer;
use coyote_sched::CreditTable;
use coyote_sim::{params, PipelineModel, SimTime};
use std::collections::{HashMap, HashSet};

/// Platform-level errors.
#[derive(Debug)]
pub enum PlatformError {
    /// Invalid configuration.
    Config(crate::config::ConfigError),
    /// Invalid queue-pair parameters.
    Qp(coyote_net::QpConfigError),
    /// Driver error.
    Driver(DriverError),
    /// No such vFPGA.
    BadVfpga(u8),
    /// The vFPGA has no kernel loaded (empty region after shell reconfig).
    NoKernel(u8),
    /// Unknown cThread.
    BadThread(u64),
    /// Reconfiguration failed.
    Reconfig(coyote_driver::reconfig::ReconfigError),
    /// App bitstream digest not registered with the platform.
    UnknownApp(u64),
    /// Build flow failed.
    Flow(coyote_synth::flow::FlowError),
    /// The operation needs a service this shell was not built with.
    MissingService(&'static str),
    /// Host-side I/O failure (bitstream files, checkpoints).
    Io(String),
    /// A drain's batch writes bytes that it also reads: invocation
    /// `writer`'s destination overlaps invocation `reader`'s source (the
    /// two may be one invocation working in place).
    ReadWriteOverlap {
        /// Invocation whose source range is overlapped.
        reader: u64,
        /// Invocation whose destination range overlaps it.
        writer: u64,
    },
}

impl std::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlatformError::Config(e) => write!(f, "config: {e}"),
            PlatformError::Qp(e) => write!(f, "queue pair: {e}"),
            PlatformError::Driver(e) => write!(f, "driver: {e}"),
            PlatformError::BadVfpga(v) => write!(f, "no vFPGA {v}"),
            PlatformError::NoKernel(v) => write!(f, "vFPGA {v} has no kernel loaded"),
            PlatformError::BadThread(t) => write!(f, "no cThread {t}"),
            PlatformError::Reconfig(e) => write!(f, "reconfiguration: {e}"),
            PlatformError::UnknownApp(d) => write!(f, "no app registered for digest {d:#x}"),
            PlatformError::Flow(e) => write!(f, "build flow: {e}"),
            PlatformError::MissingService(s) => write!(f, "shell lacks the {s} service"),
            PlatformError::Io(e) => write!(f, "I/O: {e}"),
            PlatformError::ReadWriteOverlap { reader, writer } => write!(
                f,
                "invocation {writer} writes bytes that invocation {reader} reads in the same drain"
            ),
        }
    }
}

impl std::error::Error for PlatformError {}

impl From<DriverError> for PlatformError {
    fn from(e: DriverError) -> Self {
        PlatformError::Driver(e)
    }
}

/// Per-vFPGA state: the application layer slot.
pub struct VfpgaState {
    /// The loaded user logic, if any.
    pub kernel: Option<Box<dyn Kernel>>,
    /// Control/status registers (AXI4-Lite block of §7.1).
    pub csr: RegisterFile,
    /// This vFPGA's MMU (per-vFPGA isolation, §7.2).
    pub mmu: Mmu,
    /// Pipeline model for block-dependent kernels.
    pub pipeline: Option<PipelineModel>,
    /// Per-thread dependence frontier (CBC chaining readiness).
    pub thread_ready: HashMap<u16, SimTime>,
    /// Streaming-kernel in-order frontier.
    pub kernel_ready: SimTime,
    /// Digest of the loaded app bitstream (0 = directly loaded).
    pub loaded_digest: u64,
    /// 512-bit beats consumed on the input streams (AXI accounting).
    pub beats_in: u64,
    /// Beats produced on the output streams.
    pub beats_out: u64,
}

impl VfpgaState {
    /// An empty slot: no kernel, a fresh MMU of the shell's geometry.
    pub(crate) fn new(config: &ShellConfig) -> VfpgaState {
        VfpgaState {
            kernel: None,
            csr: RegisterFile::new(),
            mmu: Mmu::new(config.mmu),
            pipeline: None,
            thread_ready: HashMap::new(),
            kernel_ready: SimTime::ZERO,
            loaded_digest: 0,
            beats_in: 0,
            beats_out: 0,
        }
    }
}

/// The assembled platform.
pub struct Platform {
    pub(crate) config: ShellConfig,
    pub(crate) driver: CoyoteDriver,
    pub(crate) xdma: XdmaEngine,
    pub(crate) msix: MsiX,
    pub(crate) writeback: WritebackTable,
    pub(crate) vfpgas: Vec<VfpgaState>,
    pub(crate) virt_server: VirtServer,
    pub(crate) credits: CreditTable<(u8, u8, bool)>,
    pub(crate) threads: HashSet<u64>,
    pub(crate) next_thread: u64,
    pub(crate) next_tid: Vec<u16>,
    pub(crate) pending: Vec<crate::datapath::PendingInvocation>,
    pub(crate) completions: Vec<crate::cthread::Completion>,
    pub(crate) next_invocation: u64,
    pub(crate) now: SimTime,
    pub(crate) balboa: Option<BalboaService>,
    pub(crate) tcp: Option<coyote_net::TcpStack>,
    pub(crate) sniffer: Option<TrafficSniffer>,
    pub(crate) shell_digest: u64,
    pub(crate) app_registry: HashMap<u64, Box<dyn Fn() -> Box<dyn Kernel>>>,
    pub(crate) shell_registry: HashMap<u64, ShellConfig>,
}

impl Platform {
    /// Bring up a platform with `config` already loaded on the card
    /// (pre-built bitstream path; the build flows of `coyote-synth` are
    /// exercised separately through [`crate::build`]).
    pub fn load(config: ShellConfig) -> Result<Platform, PlatformError> {
        config.validate().map_err(PlatformError::Config)?;
        let driver = if config.services.memory_channels > 0 {
            let mut d = CoyoteDriver::new(config.device);
            d.set_card(Some(CardMemory::with_channels(
                CardMemKind::Hbm,
                config.services.memory_channels,
            )));
            d
        } else {
            CoyoteDriver::without_card_memory(config.device)
        };
        let vfpgas = (0..config.n_vfpgas)
            .map(|_| VfpgaState::new(&config))
            .collect();
        let sniffer = config
            .sniffer_config
            .filter(|_| config.services.sniffer)
            .map(TrafficSniffer::new);
        let balboa = config.services.networking.then(BalboaService::new);
        let tcp = config
            .services
            .networking
            .then(|| coyote_net::TcpStack::new(config.mac(), config.ip()));
        let shell_digest = config.digest();
        let n_vfpgas = config.n_vfpgas;
        Ok(Platform {
            config,
            driver,
            xdma: XdmaEngine::new(),
            msix: MsiX::new(),
            writeback: WritebackTable::new(),
            vfpgas,
            virt_server: VirtServer::new(),
            credits: CreditTable::new(params::DEFAULT_STREAM_CREDITS),
            threads: HashSet::new(),
            next_thread: 1,
            next_tid: vec![0; n_vfpgas as usize],
            pending: Vec::new(),
            completions: Vec::new(),
            next_invocation: 1,
            now: SimTime::ZERO,
            balboa,
            tcp,
            sniffer,
            shell_digest,
            app_registry: HashMap::new(),
            shell_registry: HashMap::new(),
        })
    }

    /// The active shell configuration.
    pub fn config(&self) -> &ShellConfig {
        &self.config
    }

    /// Digest of the loaded shell.
    pub fn shell_digest(&self) -> u64 {
        self.shell_digest
    }

    /// Current platform time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance the platform clock (idle time between phases of an
    /// experiment).
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// The driver (host-side kernel module).
    pub fn driver(&self) -> &CoyoteDriver {
        &self.driver
    }

    /// Mutable driver access.
    pub fn driver_mut(&mut self) -> &mut CoyoteDriver {
        &mut self.driver
    }

    /// The MSI-X controller (interrupt diagnostics).
    pub fn msix(&self) -> &MsiX {
        &self.msix
    }

    /// The sniffer service, if configured.
    pub fn sniffer_mut(&mut self) -> Option<&mut TrafficSniffer> {
        self.sniffer.as_mut()
    }

    /// The TCP/IP stack (the second BALBOA network service), when the
    /// shell has networking.
    pub fn tcp_mut(&mut self) -> Result<&mut coyote_net::TcpStack, PlatformError> {
        self.tcp
            .as_mut()
            .ok_or(PlatformError::MissingService("networking (TCP/IP)"))
    }

    /// A vFPGA slot.
    pub fn vfpga(&self, v: u8) -> Result<&VfpgaState, PlatformError> {
        self.vfpgas
            .get(v as usize)
            .ok_or(PlatformError::BadVfpga(v))
    }

    /// Mutable vFPGA slot.
    pub fn vfpga_mut(&mut self, v: u8) -> Result<&mut VfpgaState, PlatformError> {
        self.vfpgas
            .get_mut(v as usize)
            .ok_or(PlatformError::BadVfpga(v))
    }

    /// Load user logic directly into a vFPGA (tests and the pre-built
    /// path; bitstream-driven loading goes through [`crate::CRcnfg`]).
    pub fn load_kernel(&mut self, v: u8, kernel: Box<dyn Kernel>) -> Result<(), PlatformError> {
        let timing = kernel.timing();
        let slot = self.vfpga_mut(v)?;
        let mut csr = RegisterFile::new();
        kernel.define_csrs(&mut csr);
        slot.csr = csr;
        slot.pipeline = match timing {
            KernelTiming::BlockPipeline {
                depth_cycles,
                ii_cycles,
                ..
            } => Some(PipelineModel::new(
                params::SYS_CLOCK,
                depth_cycles as u64,
                ii_cycles as u64,
            )),
            KernelTiming::Streaming { .. } => None,
        };
        slot.thread_ready.clear();
        slot.kernel_ready = SimTime::ZERO;
        slot.kernel = Some(kernel);
        Ok(())
    }

    /// Unload a vFPGA (the region is blank until the next reconfiguration).
    pub fn unload_kernel(&mut self, v: u8) -> Result<(), PlatformError> {
        let slot = self.vfpga_mut(v)?;
        slot.kernel = None;
        slot.loaded_digest = 0;
        Ok(())
    }

    /// Register an app bitstream digest -> kernel factory pair, the
    /// software analogue of holding the partial bitstream for a known app.
    pub fn register_app<F>(&mut self, digest: u64, factory: F)
    where
        F: Fn() -> Box<dyn Kernel> + 'static,
    {
        self.app_registry.insert(digest, Box::new(factory));
    }

    /// Register a shell bitstream digest -> configuration pair.
    pub fn register_shell(&mut self, digest: u64, config: ShellConfig) {
        self.shell_registry.insert(digest, config);
    }

    /// Total bytes moved over the host link, per direction `(h2c, c2h)`.
    pub fn host_bytes_moved(&self) -> (u64, u64) {
        (
            self.xdma.bytes_moved(coyote_dma::XdmaDir::H2C),
            self.xdma.bytes_moved(coyote_dma::XdmaDir::C2H),
        )
    }

    /// Back-pressure stalls observed by the crediters.
    pub fn credit_stalls(&self) -> u64 {
        self.credits.total_stalls()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigError;
    use crate::kernel::Passthrough;
    use coyote_mem::PageSize;
    use coyote_mmu::TlbConfig;
    use coyote_net::{QpConfig, QpConfigError};
    use proptest::prelude::*;

    #[test]
    fn load_validates_config() {
        assert!(Platform::load(ShellConfig::host_only(0)).is_err());
        let p = Platform::load(ShellConfig::host_only(2)).unwrap();
        assert_eq!(p.config().n_vfpgas, 2);
        assert!(
            p.driver().card().is_none(),
            "host-only shell has no card memory"
        );
    }

    #[test]
    fn memory_shell_gets_requested_channels() {
        let p = Platform::load(ShellConfig::host_memory(1, 8)).unwrap();
        assert_eq!(p.driver().card().unwrap().channel_count(), 8);
    }

    #[test]
    fn kernel_slots() {
        let mut p = Platform::load(ShellConfig::host_only(2)).unwrap();
        assert!(matches!(p.vfpga(0).map(|s| s.kernel.is_some()), Ok(false)));
        p.load_kernel(1, Box::new(Passthrough::default())).unwrap();
        assert!(p.vfpga(1).unwrap().kernel.is_some());
        assert!(matches!(
            p.load_kernel(7, Box::new(Passthrough::default())),
            Err(PlatformError::BadVfpga(7))
        ));
        p.unload_kernel(1).unwrap();
        assert!(p.vfpga(1).unwrap().kernel.is_none());
    }

    #[test]
    fn networking_shell_brings_up_balboa_and_sniffer() {
        let cfg = ShellConfig::host_memory_network(1, 8)
            .with_sniffer(coyote_net::SnifferConfig::default());
        let p = Platform::load(cfg).unwrap();
        assert!(p.balboa.is_some());
        assert!(p.sniffer.is_some());
    }

    #[test]
    fn a_broken_tlb_is_refused_not_panicked() {
        let mut cfg = ShellConfig::host_memory(1, 4);
        cfg.mmu.stlb.sets = 3;
        assert!(matches!(
            Platform::load(cfg),
            Err(PlatformError::Config(ConfigError::BadTlbGeometry { .. }))
        ));
    }

    #[test]
    fn create_qp_refuses_bad_mtu_and_window() {
        let mut p = Platform::load(ShellConfig::host_memory_network(1, 8)).unwrap();
        let (ok, _) = QpConfig::pair(1, 2);
        for mtu in [0, 3000, 8192] {
            let cfg = QpConfig { mtu, ..ok.clone() };
            assert!(matches!(
                p.rdma_create_qp(1, cfg),
                Err(PlatformError::Qp(QpConfigError::BadMtu(m))) if m == mtu
            ));
        }
        let cfg = QpConfig {
            window: 0,
            ..ok.clone()
        };
        assert!(matches!(
            p.rdma_create_qp(1, cfg),
            Err(PlatformError::Qp(QpConfigError::ZeroWindow))
        ));
        assert_eq!(p.rdma_create_qp(1, ok).unwrap(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any shell geometry loads or is refused with a typed error:
        /// `load` never panics, and it refuses exactly what `validate`
        /// refuses. Accepted TLB sets are drawn up to 512 and ways up to 16
        /// because a geometry `validate` accepts is allocated in full, per
        /// TLB and per vFPGA; ten vFPGAs of two 8 Ki-entry TLBs stay within
        /// a few MB per case.
        #[test]
        fn load_never_panics_over_shell_geometry(
            (n_vfpgas, n_host_streams, n_card_streams) in (0u8..=12, 0u8..=18, 0u8..=18),
            (channels, networking, sniffer) in (0usize..=40, any::<bool>(), any::<bool>()),
            (stlb_sets, ltlb_sets) in (geometry_sets(), geometry_sets()),
            (stlb_ways, ltlb_ways) in (0usize..=16, 0usize..=16),
            (stlb_page, ltlb_page) in (page(), page()),
        ) {
            let mut cfg = ShellConfig::host_memory(n_vfpgas, channels);
            cfg.services.networking = networking;
            cfg.services.sniffer = sniffer;
            cfg.sniffer_config = sniffer.then(coyote_net::SnifferConfig::default);
            cfg.n_host_streams = n_host_streams;
            cfg.n_card_streams = n_card_streams;
            cfg.mmu.stlb = TlbConfig { sets: stlb_sets, ways: stlb_ways, page: stlb_page };
            cfg.mmu.ltlb = TlbConfig { sets: ltlb_sets, ways: ltlb_ways, page: ltlb_page };
            let verdict = cfg.validate();
            match Platform::load(cfg) {
                Ok(p) => {
                    prop_assert_eq!(verdict, Ok(()));
                    prop_assert_eq!(p.vfpgas.len(), n_vfpgas as usize);
                }
                Err(PlatformError::Config(e)) => prop_assert_eq!(verdict, Err(e)),
                Err(e) => prop_assert!(false, "untyped refusal: {e}"),
            }
        }
    }

    /// Set counts: zero, powers of two, a few that are not, and one
    /// `validate` refuses as too large before anything is allocated.
    fn geometry_sets() -> impl Strategy<Value = usize> {
        prop::sample::select(vec![0, 1, 2, 3, 8, 100, 256, 512, 1 << 40])
    }

    fn page() -> impl Strategy<Value = PageSize> {
        prop::sample::select(vec![PageSize::Small, PageSize::Huge2M, PageSize::Huge1G])
    }
}
