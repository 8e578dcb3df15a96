//! The example hardware applications of the paper's evaluation (§9).
//!
//! Every kernel here is a *real* implementation of its algorithm — AES-128
//! actually encrypts (validated against FIPS-197 vectors), HyperLogLog
//! actually estimates cardinalities, the NN engine actually infers — paired
//! with the timing model the paper describes (the 10-stage AES pipeline of
//! §9.5, line-rate streaming for HLL and pass-through).
//!
//! * [`aes`] — AES-128 block cipher, ECB and CBC kernels (§9.4, §9.5).
//! * [`hll`] — HyperLogLog cardinality estimation (§9.6).
//! * [`nn`] — fixed-point MLP inference engine (§9.7, compiled by
//!   `coyote-hls4ml`).
//! * [`vecadd`] — the multi-input vector kernels of §2.2 and §9.3.
//! * [`sniffer_app`] — the vFPGA side of the §8 traffic sniffer: capture
//!   buffer serialization and PCAP export.

#![deny(unsafe_code)]

pub mod aes;
pub mod hll;
pub mod nn;
pub mod sniffer_app;
pub mod validator;
pub mod vecadd;

pub use aes::{Aes128, AesCbcKernel, AesEcbKernel};
pub use hll::{HllKernel, HyperLogLog};
pub use nn::{Activation, DenseLayer, NnKernel, QuantizedMlp};
pub use sniffer_app::SnifferApp;
pub use validator::ValidatorKernel;
pub use vecadd::{VecAddKernel, VecProductKernel};

/// Run one packet through `kernel` and return its output: the tests'
/// shorthand for the in-place [`coyote::kernel::Kernel::process_packet`].
#[cfg(test)]
pub(crate) fn process(kernel: &mut impl coyote::kernel::Kernel, tid: u16, data: &[u8]) -> Vec<u8> {
    let mut buf = data.to_vec();
    kernel.process_packet(tid, &mut buf);
    buf
}
