//! Table 3 measures each scenario once: a repeat is bit-identical, so
//! averaging repeats would only cost time.

use coyote::ShellConfig;

#[test]
fn table3_reconfigurations_repeat_bit_identically() {
    let cfg = ShellConfig::host_only(1);
    let measure = || {
        let t = coyote_bench::experiments::table3_reconfigure(cfg.clone());
        (
            t.read_done,
            t.copy_done,
            t.program_done,
            t.kernel_latency,
            t.total_latency,
        )
    };
    let first = measure();
    assert!(first.3.as_millis_f64() > 0.0);
    assert_eq!(measure(), first);
}
