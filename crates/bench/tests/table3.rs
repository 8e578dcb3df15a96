//! Table 3: each scenario's kernel latency is within 4% of the paper, as
//! the experiment's verdict states. Each scenario is measured once: a
//! repeat is bit-identical, so averaging repeats would only cost time.

use coyote::ShellConfig;

#[test]
fn table3_kernel_latencies_within_4_percent_of_the_paper() {
    let result = coyote_bench::experiments::table3();
    // Table 3's kernel column, in ms.
    let paper = [
        ("#1 MMU 2MB -> 1GB pages", 51.6),
        ("#2 RDMA -> 2 numeric kernels", 72.3),
        ("#3 RDMA+sniffer -> RDMA", 85.5),
    ];
    for (label, paper_ms) in paper {
        let row = result
            .rows
            .iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("no row '{label}'"));
        let kernel_ms = row
            .measured
            .iter()
            .find(|(metric, _)| metric == "kernel ms")
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("'{label}' has no kernel ms"));
        let off = (kernel_ms / paper_ms - 1.0).abs();
        assert!(
            off <= 0.04,
            "{label}: {kernel_ms:.2} ms is {:.1}% off the paper's {paper_ms} ms",
            off * 100.0
        );
    }
}

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
