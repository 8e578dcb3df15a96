//! The Coyote v2 device driver (§5.2), as an in-process simulation.
//!
//! "Coyote v2's device driver is a Linux kernel component bridging user
//! applications in software and in hardware. It manages the FPGA and its
//! peripherals, handling memory mappings, dynamic allocations, page faults,
//! and partial reconfiguration. The driver also initializes all user
//! application in hardware, enabling communication from software via
//! standard system calls like open, close, mmap, and ioctl."
//!
//! The real artifact is a kernel module; the simulation keeps the same
//! *shape* — a device object whose methods stand in for the ioctl table
//! (`open`, `close`, `alloc_*`, `config_state`, `reconfigure`), per-process
//! state keyed by `hpid`, eventfd-like interrupt delivery — so the software
//! API in `coyote` can be a faithful port of the paper's Code 1 / Code 2
//! examples.
//!
//! * [`CoyoteDriver`] — owns the physical memories, page tables, the
//!   configuration port and the MSI-X controller.
//! * [`reconfig`] — the partial-reconfiguration flow of Table 3 (disk read,
//!   copy to kernel space, ICAP programming) and the Vivado full-reprogram
//!   baseline.
//! * [`irq`] — eventfd-style notification channels (§7.1: "interrupts are
//!   polled using the standard Linux eventfd mechanism").

#![forbid(unsafe_code)]

pub mod driver;
pub mod irq;
pub mod reconfig;
pub mod ring;

pub use driver::{CoyoteDriver, DriverError, Hpid};
pub use irq::{EventFd, IrqEvent};
pub use reconfig::{BatchedReconfig, ReconfigError, ReconfigTiming, VivadoBaseline};
pub use ring::{Completion, CompletionRing, CompletionStatus, Doorbell, RING_SLOTS};
