//! A miniature hls4ml (§9.7): compile a high-level neural-network
//! description into an FPGA inference kernel, then deploy it through one of
//! two accelerator backends:
//!
//! * [`Backend::CoyoteAccelerator`] — the paper's contribution: the
//!   generated IP becomes a vFPGA in Coyote v2; input batches stream
//!   *directly from host memory* into the model.
//! * [`Backend::PynqVitis`] — the baseline: "it requires the data to be
//!   copied from host memory to FPGA HBM, before being consumed by the
//!   neural network", plus the interpreter overhead of the PYNQ Python
//!   runtime on every call.
//!
//! The flow mirrors the paper's Code 3:
//!
//! ```
//! use coyote_hls4ml::{intrusion_detection_model, Backend, HlsConfig, HlsModel, CoyoteOverlay};
//! use coyote::{Platform, ShellConfig};
//!
//! let keras_model = intrusion_detection_model(42);
//! let x = coyote_hls4ml::sample_batch(&keras_model, 8, 7);
//! let hls_model = HlsModel::convert(keras_model, HlsConfig::new(Backend::CoyoteAccelerator));
//! // Software emulation (hls_model.compile(); hls_model.predict(X)).
//! let pred_emu = hls_model.predict(&x);
//! // Hardware generation + overlay deployment.
//! let build = hls_model.build();
//! let mut platform = Platform::load(ShellConfig::host_memory(1, 8)).unwrap();
//! let mut overlay = CoyoteOverlay::program_fpga(&mut platform, &build).unwrap();
//! let (pred_fpga, _report) = overlay.predict(&mut platform, &x).unwrap();
//! assert_eq!(pred_emu, pred_fpga);
//! ```

#![forbid(unsafe_code)]

pub mod backend;
pub mod model;

pub use backend::{
    Backend, BuildOutput, CoyoteOverlay, HlsConfig, HlsModel, InferenceReport, PynqOverlay,
};
pub use model::{intrusion_detection_model, sample_batch, LayerSpec, ModelSpec};
