//! Neural-network inference with the hls4ml integration (§9.7, Code 3).
//!
//! Compiles the network-intrusion-detection MLP, runs software emulation,
//! generates the inference IP, deploys it through the `CoyoteAccelerator`
//! overlay and compares against the PYNQ/Vitis baseline — the Fig. 12
//! experiment.
//!
//! Run with: `cargo run --example nn_inference`

use coyote::{Platform, ShellConfig};
use coyote_hls4ml::{
    intrusion_detection_model, sample_batch, Backend, CoyoteOverlay, HlsConfig, HlsModel,
    PynqOverlay,
};

fn main() {
    // model = load_model('sample_keras_model.h5')
    let keras_model = intrusion_detection_model(42);
    println!(
        "model: {} ({} -> {} classes, {} parameters)",
        keras_model.name,
        keras_model.input_width(),
        keras_model.output_width(),
        keras_model.param_count()
    );
    let x = sample_batch(&keras_model, 512, 7);

    // hls_model = convert_from_keras_model(..., backend='CoyoteAccelerator')
    let hls_model = HlsModel::convert(keras_model, HlsConfig::new(Backend::CoyoteAccelerator));

    // hls_model.compile(); pred_emu = hls_model.predict(X)
    let pred_emu = hls_model.predict(&x);
    println!("software emulation: {} predictions", pred_emu.len());

    // hls_model.build()
    let build = hls_model.build();
    println!("generated IP: {}", build.resources);

    // overlay = CoyoteOverlay(...); overlay.program_fpga()
    let mut platform = Platform::load(ShellConfig::host_memory(1, 8)).expect("platform");
    let mut overlay = CoyoteOverlay::program_fpga(&mut platform, &build).expect("program");

    // pred_fpga = overlay.predict(X, ...)
    let (pred_fpga, report) = overlay.predict(&mut platform, &x).expect("predict");
    assert_eq!(pred_fpga, pred_emu, "hardware inference matches emulation");
    println!(
        "CoyoteAccelerator: {} rows in {} ({:.0} rows/s)",
        report.rows, report.latency, report.rows_per_sec
    );

    // The baseline: the same IP behind PYNQ + Vitis.
    let mut baseline_platform = Platform::load(ShellConfig::host_memory(1, 8)).expect("platform");
    let mut pynq = PynqOverlay::program_fpga(&mut baseline_platform, &build).expect("program");
    let (pred_pynq, pynq_report) = pynq.predict(&mut baseline_platform, &x).expect("predict");
    assert_eq!(pred_pynq, pred_emu);
    println!(
        "PYNQ/Vitis baseline: {} rows in {} ({:.0} rows/s)",
        pynq_report.rows, pynq_report.latency, pynq_report.rows_per_sec
    );
    println!(
        "Coyote v2 speedup: {:.1}x (Fig. 12 reports an order of magnitude)",
        pynq_report.latency.as_secs_f64() / report.latency.as_secs_f64()
    );
}
