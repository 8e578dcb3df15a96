//! Capacity-feasibility rules (CAP001–CAP003): static bandwidth and
//! queue-sizing checks per tenant path.
//!
//! Unlike the WF/ISO deny rules these are *advisory warnings*: the
//! calibrated rates (ICAP beat rate, PCIe host link, HBM channels, the
//! RoCE link and window) are model constants, and a declared tenant rate
//! above the min-cut of its path means the deployment cannot possibly
//! deliver what it promises — but it will degrade, not deadlock, so the
//! rules warn rather than refuse.

use super::graph::PlatformGraph;
use crate::diag::{Diagnostic, Location, Report, Severity};
use crate::shellspec::ShellSpec;
use coyote_fabric::{BitstreamKind, FRAME_RECORD_BYTES};
use coyote_sim::params::{
    HBM_CHANNEL_BW, HOST_LINK_BW, ICAP_BW, NET_LINK_BW, SWITCH_LATENCY, WIRE_LATENCY,
};

/// Run CAP001–CAP003 on a spec and its built graph.
pub fn check(spec: &ShellSpec, g: &PlatformGraph) -> Report {
    let mut report = Report::new();
    let Some(platform) = &spec.platform else {
        return report; // capacity promises are made in the platform section
    };
    let loc = |path: String| Location::new(g.unit().to_string(), path);
    let n_vfpgas = spec.n_vfpgas.max(1) as f64;

    // --------------------------------------------------------- CAP001
    // Min-cut bottleneck per tenant: the narrowest service on the
    // tenant's declared path, at the tenant's fair share of each.
    for t in &platform.tenants {
        let Some(rate_gbps) = t.rate_gbps else {
            continue;
        };
        let owned = t
            .vfpgas
            .iter()
            .filter(|&&i| i < spec.n_vfpgas)
            .count()
            .max(1) as f64;
        let share = owned / n_vfpgas;
        // Host streaming is always on the path; memory and networking only
        // when the tenant declares them.
        let mut paths: Vec<(&str, f64)> =
            vec![("host-link", HOST_LINK_BW.as_bytes_per_sec() as f64 * share)];
        if t.services.iter().any(|s| s == "mem") && spec.memory_channels > 0 {
            paths.push((
                "memory-channels",
                spec.memory_channels as f64 * HBM_CHANNEL_BW.as_bytes_per_sec() as f64 * share,
            ));
        }
        if t.services.iter().any(|s| s == "net") && spec.networking {
            paths.push(("roce-link", NET_LINK_BW.as_bytes_per_sec() as f64 * share));
        }
        let (bottleneck, cut) = paths
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("host path always present");
        let declared = rate_gbps * 1e9 / 8.0;
        if declared > cut {
            report.push(
                Diagnostic::new(
                    "CAP001",
                    Severity::Warning,
                    loc(format!("platform.tenant({}).rate_gbps", t.name)),
                    format!(
                        "tenant '{}' declares {rate_gbps} Gbit/s but the min-cut of its path \
                         is {:.1} Gbit/s at the {bottleneck} ({:.0}% share of {} regions)",
                        t.name,
                        cut * 8.0 / 1e9,
                        share * 100.0,
                        spec.n_vfpgas
                    ),
                )
                .with_suggestion("lower the declared rate or give the tenant more regions"),
            );
        }
    }

    // --------------------------------------------------------- CAP002
    // Aggregate reconfiguration demand vs. the ICAP beat rate. One region
    // of the preset floorplan defines the bytes per reconfiguration.
    let total_rate: f64 = platform
        .tenants
        .iter()
        .filter_map(|t| t.reconfigs_per_s)
        .sum();
    if total_rate > 0.0 {
        if let Ok(cfg) = spec.to_shell_config() {
            if (1..=10).contains(&cfg.n_vfpgas) {
                if let Some(region) = cfg.floorplan().image(BitstreamKind::App { vfpga: 0 }, 0) {
                    let region_bytes = region.frames() * FRAME_RECORD_BYTES as u64;
                    let demand = total_rate * region_bytes as f64;
                    let beat = ICAP_BW.as_bytes_per_sec() as f64;
                    if demand > beat {
                        report.push(
                            Diagnostic::new(
                                "CAP002",
                                Severity::Warning,
                                loc("platform.reconfigs_per_s".to_string()),
                                format!(
                                    "declared reconfiguration load of {total_rate} regions/s x \
                                     {region_bytes} bytes = {:.2} GB/s exceeds the ICAP beat \
                                     rate of {:.2} GB/s — batches will queue without bound",
                                    demand / 1e9,
                                    beat / 1e9
                                ),
                            )
                            .with_suggestion(
                                "lower the aggregate reconfiguration rate or shrink the regions",
                            ),
                        );
                    }
                }
            }
        }
    }

    // --------------------------------------------------------- CAP003
    // Queue-sizing lower bound: the RDMA window must keep the declared
    // rate's worth of bytes in flight across one round trip, or the
    // window drains dry and the flow stalls-and-bursts below its promise.
    if let Some(q) = &spec.qp {
        let rtt_s = 2.0 * (WIRE_LATENCY.as_secs_f64() + SWITCH_LATENCY.as_secs_f64());
        let bdp = q.window.saturating_mul(q.mtu);
        for t in &platform.tenants {
            let (Some(rate_gbps), true) = (t.rate_gbps, t.services.iter().any(|s| s == "net"))
            else {
                continue;
            };
            let required = (rate_gbps * 1e9 / 8.0) * rtt_s;
            if (bdp as f64) < required {
                report.push(
                    Diagnostic::new(
                        "CAP003",
                        Severity::Warning,
                        loc("qp.window".to_string()),
                        format!(
                            "tenant '{}' needs {required:.0} bytes in flight to sustain \
                             {rate_gbps} Gbit/s over a {:.1} us round trip, but the window \
                             holds only {}x{} = {bdp} bytes",
                            t.name,
                            rtt_s * 1e6,
                            q.window,
                            q.mtu
                        ),
                    )
                    .with_suggestion("deepen the window or raise the MTU"),
                );
            }
        }
    }

    report
}
