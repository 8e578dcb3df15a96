//! Coyote v2: the runtime.
//!
//! This crate assembles the substrates (`coyote-sim`, `coyote-fabric`,
//! `coyote-mem`, `coyote-mmu`, `coyote-dma`, `coyote-sched`, `coyote-net`,
//! `coyote-driver`, `coyote-synth`) into the three-layer shell of the paper
//! and exposes the user-facing software API of §7.3:
//!
//! * [`ShellConfig`] — the compile-time shell parametrization of §4
//!   (services, vFPGA count, MMU geometry, stream counts).
//! * [`Platform`] — one host + FPGA card: the static layer (XDMA link,
//!   ICAP, driver), a loaded shell (dynamic layer services), and the
//!   application layer of vFPGAs hosting [`Kernel`]s.
//! * [`CThread`] — the `cThread` abstraction: "software threads that
//!   execute in parallel on the same vFPGA pipeline, while preserving
//!   thread differentiation" (§7.3). Mirrors the paper's Code 1.
//! * [`CRcnfg`] — run-time reconfiguration of shells and apps, mirroring
//!   Code 2.
//! * [`BalboaService`] — the RoCE v2 networking service wired through the
//!   shell MMU to host memory (§6.2).
//! * [`v1`] — a Coyote v1 baseline platform (single stream, static
//!   services, no multithreading) for the Fig. 11 comparison.
//!
//! # Example (the paper's Code 1)
//!
//! ```
//! use coyote::{Platform, ShellConfig, CThread, Oper, SgEntry};
//! use coyote_apps_placeholder as _; // See coyote-apps for real kernels.
//! # mod coyote_apps_placeholder {}
//!
//! let mut platform = Platform::load(ShellConfig::host_only(1)).unwrap();
//! platform.load_kernel(0, Box::new(coyote::kernel::Passthrough::default())).unwrap();
//!
//! // Create a cThread and assign it to vFPGA 0.
//! let cthread = CThread::create(&mut platform, 0, 4242).unwrap();
//! // Allocate 4 KiB source & destination buffers using huge pages.
//! let src = cthread.get_mem(&mut platform, 4096).unwrap();
//! let dst = cthread.get_mem(&mut platform, 4096).unwrap();
//! cthread.write(&mut platform, src, b"hello coyote").unwrap();
//! // Set a control register and launch the kernel.
//! cthread.set_csr(&mut platform, 0x6167_717a_7a76_7668, 0).unwrap();
//! let done = cthread
//!     .invoke_sync(&mut platform, Oper::LocalTransfer, &SgEntry::local(src, dst, 4096))
//!     .unwrap();
//! assert_eq!(cthread.read(&mut platform, dst, 12).unwrap(), b"hello coyote");
//! assert!(done.completed_at.as_ps() > 0);
//! ```

#![forbid(unsafe_code)]

pub mod build;
pub mod config;
pub mod cthread;
pub mod datapath;
pub mod kernel;
pub mod platform;
pub mod rdma;
pub mod reconfig;
pub mod tcp_service;
pub mod v1;

pub use config::{ShellConfig, ShellServices};
pub use cthread::{CThread, Completion, Oper, SgEntry};
pub use kernel::{Kernel, KernelTiming};
pub use platform::{Platform, PlatformError, VfpgaState};
pub use rdma::BalboaService;
pub use reconfig::CRcnfg;
