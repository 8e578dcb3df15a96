//! Quantized MLP inference (§9.7).
//!
//! The execution engine behind the hls4ml integration: a fixed-point
//! multi-layer perceptron of the kind hls4ml emits for network intrusion
//! detection [44, 55]. Weights and activations are `Q16.16` fixed point
//! (i32 with a 16-bit fractional part), matching the `ap_fixed<32,16>`
//! style types of the real compiler closely enough for classification
//! agreement.

use coyote::kernel::{Kernel, KernelTiming};

/// Fixed-point fractional bits.
pub const FRAC_BITS: u32 = 16;

/// Quantize an `f32` to Q16.16.
pub fn quantize(v: f32) -> i32 {
    let scaled = (v as f64 * (1u64 << FRAC_BITS) as f64).round();
    scaled.clamp(i32::MIN as f64, i32::MAX as f64) as i32
}

/// Dequantize back to `f32`.
pub fn dequantize(v: i32) -> f32 {
    v as f32 / (1u64 << FRAC_BITS) as f32
}

/// Activation functions hls4ml commonly emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// max(0, x).
    Relu,
    /// Identity (final logits; softmax is monotone, argmax suffices).
    Linear,
}

/// One dense layer, row-major weights `[out][in]`.
#[derive(Debug, Clone)]
pub struct DenseLayer {
    /// Input width.
    pub inputs: usize,
    /// Output width.
    pub outputs: usize,
    /// Quantized weights, `outputs * inputs`.
    pub weights: Vec<i32>,
    /// Quantized biases, `outputs`.
    pub biases: Vec<i32>,
    /// Activation applied after the affine transform.
    pub activation: Activation,
}

impl DenseLayer {
    /// Build from float weights (row-major `[out][in]`) and biases.
    pub fn from_f32(
        inputs: usize,
        outputs: usize,
        weights: &[f32],
        biases: &[f32],
        activation: Activation,
    ) -> DenseLayer {
        assert_eq!(weights.len(), inputs * outputs, "weight shape");
        assert_eq!(biases.len(), outputs, "bias shape");
        DenseLayer {
            inputs,
            outputs,
            weights: weights.iter().copied().map(quantize).collect(),
            biases: biases.iter().copied().map(quantize).collect(),
            activation,
        }
    }

    fn forward(&self, input: &[i32], out: &mut Vec<i32>) {
        out.clear();
        for o in 0..self.outputs {
            let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
            // Accumulate in i64, shift back once: the DSP-cascade pattern.
            let mut acc: i64 = (self.biases[o] as i64) << FRAC_BITS;
            for (w, x) in row.iter().zip(input) {
                acc += *w as i64 * *x as i64;
            }
            let mut v = (acc >> FRAC_BITS) as i32;
            if self.activation == Activation::Relu {
                v = v.max(0);
            }
            out.push(v);
        }
    }
}

/// A quantized MLP.
#[derive(Debug, Clone, Default)]
pub struct QuantizedMlp {
    /// The layers in order.
    pub layers: Vec<DenseLayer>,
}

impl QuantizedMlp {
    /// Input width.
    pub fn input_width(&self) -> usize {
        self.layers.first().map_or(0, |l| l.inputs)
    }

    /// Output width.
    pub fn output_width(&self) -> usize {
        self.layers.last().map_or(0, |l| l.outputs)
    }

    /// Total parameters (weights + biases).
    pub fn param_count(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| (l.weights.len() + l.biases.len()) as u64)
            .sum()
    }

    /// Run one sample (quantized input), returning quantized logits.
    pub fn infer_q(&self, input: &[i32]) -> Vec<i32> {
        assert_eq!(input.len(), self.input_width(), "input width");
        let mut a = input.to_vec();
        let mut b = Vec::new();
        for layer in &self.layers {
            layer.forward(&a, &mut b);
            std::mem::swap(&mut a, &mut b);
        }
        a
    }

    /// Run one float sample; returns float logits.
    pub fn infer(&self, input: &[f32]) -> Vec<f32> {
        let q: Vec<i32> = input.iter().copied().map(quantize).collect();
        self.infer_q(&q).into_iter().map(dequantize).collect()
    }

    /// Argmax class of one sample.
    pub fn classify(&self, input: &[f32]) -> usize {
        let logits = self.infer(input);
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// The inference kernel: consumes rows of quantized inputs (i32 LE), emits
/// rows of quantized logits.
pub struct NnKernel {
    model: QuantizedMlp,
    rows: u64,
    /// Residual bytes of a row split across packet boundaries, per thread.
    partial: std::collections::HashMap<u16, Vec<u8>>,
}

impl NnKernel {
    /// Wrap a compiled model.
    pub fn new(model: QuantizedMlp) -> NnKernel {
        NnKernel {
            model,
            rows: 0,
            partial: std::collections::HashMap::new(),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &QuantizedMlp {
        &self.model
    }

    /// Initiation interval per sample: one MAC column per cycle per layer
    /// stage, reuse-factor 8 (a typical hls4ml configuration).
    pub fn ii_cycles(&self) -> u64 {
        let widest = self
            .model
            .layers
            .iter()
            .map(|l| l.inputs as u64)
            .max()
            .unwrap_or(1);
        (widest / 8).max(1)
    }
}

impl Kernel for NnKernel {
    fn name(&self) -> &str {
        "nn_inference"
    }

    fn ip(&self) -> coyote_synth::Ip {
        coyote_synth::Ip::NnInference {
            params: self.model.param_count(),
        }
    }

    fn timing(&self) -> KernelTiming {
        // One row of inputs enters every II; the engine streams at
        // row_bytes / II bytes per cycle.
        let row_bytes = (self.model.input_width() * 4) as u64;
        let bpc = (row_bytes / self.ii_cycles()).clamp(1, 64) as u32;
        KernelTiming::Streaming {
            bytes_per_cycle: bpc,
            latency_cycles: 64,
        }
    }

    fn process_packet(&mut self, tid: u16, data: &mut Vec<u8>) {
        let row_bytes = self.model.input_width() * 4;
        if row_bytes == 0 {
            data.clear();
            return;
        }
        let buf = self.partial.entry(tid).or_default();
        buf.extend_from_slice(data);
        let out = data;
        out.clear();
        while buf.len() >= row_bytes {
            let row: Vec<i32> = buf[..row_bytes]
                .chunks_exact(4)
                .map(|c| i32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect();
            buf.drain(..row_bytes);
            for logit in self.model.infer_q(&row) {
                out.extend_from_slice(&logit.to_le_bytes());
            }
            self.rows += 1;
        }
    }

    fn csr_read(&self, offset: u64) -> u64 {
        match offset {
            0 => self.rows,
            8 => self.model.param_count(),
            _ => 0,
        }
    }

    fn reset(&mut self) {
        self.rows = 0;
        self.partial.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> QuantizedMlp {
        // 4 -> 3 -> 2, hand-chosen weights.
        QuantizedMlp {
            layers: vec![
                DenseLayer::from_f32(
                    4,
                    3,
                    &[
                        0.5, -0.25, 1.0, 0.0, //
                        -1.0, 0.5, 0.25, 0.125, //
                        0.0, 0.0, -0.5, 2.0,
                    ],
                    &[0.1, -0.2, 0.0],
                    Activation::Relu,
                ),
                DenseLayer::from_f32(
                    3,
                    2,
                    &[1.0, -1.0, 0.5, -0.5, 1.0, 0.25],
                    &[0.0, 0.05],
                    Activation::Linear,
                ),
            ],
        }
    }

    #[test]
    fn quantization_roundtrip() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 3.25, -127.7] {
            let q = quantize(v);
            assert!((dequantize(q) - v).abs() < 1.0 / 65536.0 * 2.0, "{v}");
        }
    }

    #[test]
    fn fixed_point_matches_float_reference() {
        let model = tiny_model();
        let input = [0.3f32, -0.7, 1.2, 0.05];
        // Float reference.
        let h: Vec<f32> = (0..3)
            .map(|o| {
                let w = &[
                    [0.5f32, -0.25, 1.0, 0.0],
                    [-1.0, 0.5, 0.25, 0.125],
                    [0.0, 0.0, -0.5, 2.0],
                ][o];
                let b = [0.1f32, -0.2, 0.0][o];
                (w.iter().zip(&input).map(|(w, x)| w * x).sum::<f32>() + b).max(0.0)
            })
            .collect();
        let expect = [
            h[0] - h[1] + 0.5 * h[2],
            -0.5 * h[0] + h[1] + 0.25 * h[2] + 0.05,
        ];
        let got = model.infer(&input);
        for (g, e) in got.iter().zip(expect) {
            assert!((g - e).abs() < 1e-3, "{got:?} vs {expect:?}");
        }
    }

    #[test]
    fn relu_clamps() {
        let layer = DenseLayer::from_f32(1, 1, &[-1.0], &[0.0], Activation::Relu);
        let model = QuantizedMlp {
            layers: vec![layer],
        };
        assert_eq!(model.infer(&[5.0])[0], 0.0);
    }

    #[test]
    fn kernel_handles_rows_split_across_packets() {
        use coyote::kernel::Kernel as _;
        let model = tiny_model();
        let mut k = NnKernel::new(model.clone());
        let input = [0.3f32, -0.7, 1.2, 0.05];
        let row: Vec<u8> = input
            .iter()
            .flat_map(|v| quantize(*v).to_le_bytes())
            .collect();
        // Split the 16-byte row over two packets.
        let out1 = crate::process(&mut k, 0, &row[..10]);
        assert!(out1.is_empty(), "partial row produces nothing");
        let out2 = crate::process(&mut k, 0, &row[10..]);
        assert_eq!(out2.len(), 8, "two i32 logits");
        let logits: Vec<f32> = out2
            .chunks_exact(4)
            .map(|c| dequantize(i32::from_le_bytes(c.try_into().unwrap())))
            .collect();
        let direct = model.infer(&input);
        for (a, b) in logits.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-6);
        }
        assert_eq!(k.csr_read(0), 1);
    }

    #[test]
    fn param_count_and_ii() {
        let model = tiny_model();
        assert_eq!(model.param_count(), (12 + 3 + 6 + 2) as u64);
        let k = NnKernel::new(model);
        assert_eq!(k.ii_cycles(), 1, "tiny model, reuse 8");
    }

    #[test]
    fn classify_picks_argmax() {
        let model = tiny_model();
        let class = model.classify(&[1.0, 0.0, 1.0, 0.0]);
        let logits = model.infer(&[1.0, 0.0, 1.0, 0.0]);
        let expect = if logits[0] >= logits[1] { 0 } else { 1 };
        assert_eq!(class, expect);
    }
}
