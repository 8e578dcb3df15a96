//! The accelerator backends: `CoyoteAccelerator` vs the PYNQ/Vitis
//! baseline (§9.7, Fig. 12).

use crate::model::ModelSpec;
use coyote::{CThread, Oper, Platform, PlatformError, SgEntry};
use coyote_apps::nn::{quantize, DenseLayer, NnKernel, QuantizedMlp};
use coyote_sim::SimDuration;
use coyote_synth::{Ip, IpBlock};

/// Which accelerator backend deploys the generated IP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The paper's new backend: the IP becomes a Coyote v2 vFPGA; input
    /// data streams directly from host memory.
    CoyoteAccelerator,
    /// The hls4ml baseline: Vitis flow + PYNQ Python runtime; inputs are
    /// staged through FPGA HBM and every call pays interpreter overhead.
    PynqVitis,
}

/// Per-call overhead of the PYNQ Python runtime ("PYNQ provides a number
/// of additional features and control steps for FPGAs, implemented in
/// Python"). Calibrated to reproduce Fig. 12's order-of-magnitude gap.
pub const PYNQ_CALL_OVERHEAD: SimDuration = SimDuration(2_000_000_000); // 2 ms.

/// Compile-time configuration (the `hls_config` of Code 3).
#[derive(Debug, Clone, Copy)]
pub struct HlsConfig {
    /// Target backend.
    pub backend: Backend,
    /// Clock period in nanoseconds (4 = 250 MHz).
    pub clock_period_ns: u32,
    /// DSP reuse factor.
    pub reuse_factor: u32,
}

impl HlsConfig {
    /// Defaults matching the paper's deployment (250 MHz, reuse 8).
    pub fn new(backend: Backend) -> HlsConfig {
        HlsConfig {
            backend,
            clock_period_ns: 4,
            reuse_factor: 8,
        }
    }
}

/// A converted model: quantized and ready to emulate or build.
pub struct HlsModel {
    spec: ModelSpec,
    config: HlsConfig,
    compiled: QuantizedMlp,
}

/// Output of `build()`: what the overlays deploy.
#[derive(Debug, Clone)]
pub struct BuildOutput {
    /// Resource footprint of the generated IP.
    pub resources: coyote_fabric::ResourceVec,
    /// The quantized network (the overlay instantiates the kernel from it).
    pub network: QuantizedMlp,
}

impl HlsModel {
    /// `convert_from_keras_model`: quantize to fixed point.
    pub fn convert(spec: ModelSpec, config: HlsConfig) -> HlsModel {
        spec.validate().expect("valid model");
        let compiled = QuantizedMlp {
            layers: spec
                .layers
                .iter()
                .map(|l| {
                    DenseLayer::from_f32(l.inputs, l.outputs, &l.weights, &l.biases, l.activation)
                })
                .collect(),
        };
        HlsModel {
            spec,
            config,
            compiled,
        }
    }

    /// The source spec.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The backend configuration.
    pub fn config(&self) -> HlsConfig {
        self.config
    }

    /// Software emulation (`hls_model.predict` after `compile()`): returns
    /// the argmax class per row, bit-exact with the hardware path.
    pub fn predict(&self, x: &[Vec<f32>]) -> Vec<usize> {
        x.iter().map(|row| self.compiled.classify(row)).collect()
    }

    /// Hardware generation (`hls_model.build()`): the generated IP's
    /// resource footprint and the network the overlays load as a kernel.
    /// No place-and-route runs: the overlays load the kernel directly, and
    /// Fig. 12 reads only the footprint.
    pub fn build(&self) -> BuildOutput {
        let ip = IpBlock::new(Ip::NnInference {
            params: self.compiled.param_count(),
        });
        BuildOutput {
            resources: ip.footprint(),
            network: self.compiled.clone(),
        }
    }
}

/// Timing/throughput report of one hardware inference call.
#[derive(Debug, Clone, Copy)]
pub struct InferenceReport {
    /// Samples inferred.
    pub rows: u64,
    /// End-to-end latency of the call.
    pub latency: SimDuration,
    /// Throughput in samples per second.
    pub rows_per_sec: f64,
}

fn quantize_batch(x: &[Vec<f32>]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(x.len() * x.first().map_or(0, Vec::len) * 4);
    for row in x {
        for v in row {
            bytes.extend_from_slice(&quantize(*v).to_le_bytes());
        }
    }
    bytes
}

fn argmax_rows(bytes: &[u8], classes: usize) -> Vec<usize> {
    bytes
        .chunks_exact(classes * 4)
        .map(|row| {
            let logits: Vec<i32> = row
                .chunks_exact(4)
                .map(|c| i32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect();
            logits
                .iter()
                .enumerate()
                .max_by_key(|(_, v)| **v)
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect()
}

/// The `CoyoteOverlay` of Code 3: deploy and run on Coyote v2.
pub struct CoyoteOverlay {
    thread: CThread,
    classes: usize,
    input_width: usize,
}

impl CoyoteOverlay {
    /// `overlay.program_fpga()`: load the generated kernel into vFPGA 0.
    pub fn program_fpga(
        platform: &mut Platform,
        build: &BuildOutput,
    ) -> Result<CoyoteOverlay, PlatformError> {
        let network = build.network.clone();
        let classes = network.output_width();
        let input_width = network.input_width();
        platform.load_kernel(0, Box::new(NnKernel::new(network)))?;
        let thread = CThread::create(platform, 0, 0x4E4E)?;
        Ok(CoyoteOverlay {
            thread,
            classes,
            input_width,
        })
    }

    /// `overlay.predict(X, ...)`: stream the batch directly from host
    /// memory through the model, return per-row classes + timing.
    pub fn predict(
        &mut self,
        platform: &mut Platform,
        x: &[Vec<f32>],
    ) -> Result<(Vec<usize>, InferenceReport), PlatformError> {
        assert!(x.iter().all(|r| r.len() == self.input_width), "input width");
        let bytes = quantize_batch(x);
        let in_len = bytes.len() as u64;
        let out_len = (x.len() * self.classes * 4) as u64;
        let src = self.thread.get_mem(platform, in_len)?;
        let dst = self.thread.get_mem(platform, out_len.max(64))?;
        self.thread.write(platform, src, &bytes)?;
        let c = self.thread.invoke_sync(
            platform,
            Oper::LocalTransfer,
            &SgEntry::local(src, dst, in_len),
        )?;
        let out = self.thread.read(platform, dst, out_len as usize)?;
        let classes = argmax_rows(&out, self.classes);
        let latency = c.latency();
        let report = InferenceReport {
            rows: x.len() as u64,
            latency,
            rows_per_sec: x.len() as f64 / latency.as_secs_f64(),
        };
        Ok((classes, report))
    }
}

/// The baseline overlay: hls4ml's Vitis backend driven from PYNQ.
pub struct PynqOverlay {
    thread: CThread,
    classes: usize,
    input_width: usize,
}

impl PynqOverlay {
    /// Program the same generated IP through the baseline runtime. The
    /// platform must have card memory (the Vitis flow stages through HBM).
    pub fn program_fpga(
        platform: &mut Platform,
        build: &BuildOutput,
    ) -> Result<PynqOverlay, PlatformError> {
        let network = build.network.clone();
        let classes = network.output_width();
        let input_width = network.input_width();
        platform.load_kernel(0, Box::new(NnKernel::new(network)))?;
        let thread = CThread::create(platform, 0, 0x504E)?;
        Ok(PynqOverlay {
            thread,
            classes,
            input_width,
        })
    }

    /// Baseline predict: copy the batch host -> HBM, run the kernel from
    /// card memory, copy results back, plus the Python runtime overhead on
    /// the whole call.
    pub fn predict(
        &mut self,
        platform: &mut Platform,
        x: &[Vec<f32>],
    ) -> Result<(Vec<usize>, InferenceReport), PlatformError> {
        assert!(x.iter().all(|r| r.len() == self.input_width), "input width");
        let bytes = quantize_batch(x);
        let in_len = bytes.len() as u64;
        let out_len = (x.len() * self.classes * 4) as u64;
        let issued = platform.now();

        // Stage through HBM: host buffer, then an explicit migration.
        let src = self.thread.get_mem(platform, in_len)?;
        self.thread.write(platform, src, &bytes)?;
        let dst = self.thread.get_card_mem(platform, out_len.max(64))?;
        self.thread
            .invoke_sync(platform, Oper::MigrateToCard, &SgEntry::source(src, in_len))?;
        // Kernel consumes from card memory.
        let c = self.thread.invoke_sync(
            platform,
            Oper::LocalTransfer,
            &SgEntry::local(src, dst, in_len),
        )?;
        // Results return to the host.
        self.thread.invoke_sync(
            platform,
            Oper::MigrateToHost,
            &SgEntry::source(dst, out_len.max(64)),
        )?;
        let out = self.thread.read(platform, dst, out_len as usize)?;
        // The Python runtime's per-call control steps.
        let end = platform.now() + PYNQ_CALL_OVERHEAD;
        platform.advance_to(end);
        let _ = c;

        let classes = argmax_rows(&out, self.classes);
        let latency = end.since(issued);
        let report = InferenceReport {
            rows: x.len() as u64,
            latency,
            rows_per_sec: x.len() as f64 / latency.as_secs_f64(),
        };
        Ok((classes, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{intrusion_detection_model, sample_batch};
    use coyote::ShellConfig;

    fn built() -> (BuildOutput, Vec<Vec<f32>>, Vec<usize>) {
        let spec = intrusion_detection_model(3);
        let x = sample_batch(&spec, 16, 5);
        let hls = HlsModel::convert(spec, HlsConfig::new(Backend::CoyoteAccelerator));
        let emu = hls.predict(&x);
        let build = hls.build();
        (build, x, emu)
    }

    #[test]
    fn coyote_overlay_matches_emulation() {
        let (build, x, emu) = built();
        let mut platform = Platform::load(ShellConfig::host_memory(1, 8)).unwrap();
        let mut overlay = CoyoteOverlay::program_fpga(&mut platform, &build).unwrap();
        let (pred, report) = overlay.predict(&mut platform, &x).unwrap();
        assert_eq!(pred, emu, "hardware inference agrees with emulation");
        assert_eq!(report.rows, 16);
        assert!(report.latency.as_micros_f64() > 0.0);
    }

    #[test]
    fn pynq_overlay_matches_but_is_order_of_magnitude_slower() {
        let (build, x, emu) = built();

        let mut p1 = Platform::load(ShellConfig::host_memory(1, 8)).unwrap();
        let mut coyote_ov = CoyoteOverlay::program_fpga(&mut p1, &build).unwrap();
        let (pred_c, rep_c) = coyote_ov.predict(&mut p1, &x).unwrap();

        let mut p2 = Platform::load(ShellConfig::host_memory(1, 8)).unwrap();
        let mut pynq_ov = PynqOverlay::program_fpga(&mut p2, &build).unwrap();
        let (pred_p, rep_p) = pynq_ov.predict(&mut p2, &x).unwrap();

        assert_eq!(pred_c, emu);
        assert_eq!(pred_p, emu, "both backends compute the same classes");
        let speedup = rep_p.latency.as_secs_f64() / rep_c.latency.as_secs_f64();
        assert!(
            speedup > 8.0,
            "Coyote v2 only {speedup:.1}x faster (Fig. 12 expects ~10x)"
        );
    }

    #[test]
    fn build_reports_resources() {
        let (build, _, _) = built();
        assert!(build.resources.lut > 4_000);
        assert!(build.resources.dsp > 0);
    }

    #[test]
    fn quantize_argmax_roundtrip() {
        let bytes: Vec<u8> = [5i32, -3, 12, 7]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        assert_eq!(argmax_rows(&bytes, 2), vec![0, 0]);
        assert_eq!(argmax_rows(&bytes, 4), vec![2]);
    }
}
