//! Golden tests: every rule in the catalog fires on a seeded violation with
//! the exact rule id and location, and stays silent on a clean counterpart.
//!
//! Config and platform rules are exercised through the JSON fixtures in
//! `fixtures/` (the same files a deployment would feed the CLI); netlist,
//! floorplan, bitstream and fault-trace rules use programmatic fixtures
//! because their inputs are in-memory artifacts.
//!
//! The retired pair checks map onto WF001: CF001 (ACK starvation) is the
//! `cycle(rdma.sender)` finding and CF009 (ring sizing) the
//! `cycle(software)` finding of the spec's `platform:<name>` unit.

use coyote_fabric::{
    Bitstream, BitstreamKind, DeviceKind, Floorplan, ResourceVec, ShellProfile, FRAME_RECORD_BYTES,
    HEADER_BYTES,
};
use coyote_lint::{
    lint_bitstream, lint_fault_trace, lint_floorplan, lint_netlist, lint_shell_spec, DeployContext,
    Report, Severity, ShellSpec,
};
use coyote_sim::SimTime;
use coyote_synth::{CellKind, Net, Netlist};

fn fixture(name: &str) -> ShellSpec {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    ShellSpec::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Assert the report contains exactly one finding of `rule` and that it sits
/// at `unit`/`path`.
#[track_caller]
fn assert_fires(report: &Report, rule: &str, unit: &str, path: &str) {
    let hits: Vec<_> = report.of_rule(rule).collect();
    assert_eq!(
        hits.len(),
        1,
        "expected exactly one {rule}, got:\n{}",
        report.render_human()
    );
    assert_eq!(hits[0].location.unit, unit, "{rule} unit");
    assert_eq!(hits[0].location.path, path, "{rule} path");
}

// ----------------------------------------------------------------- config

#[test]
fn clean_config_fixtures_produce_zero_diagnostics() {
    for name in ["clean_full.json", "clean_host_only.json"] {
        let r = lint_shell_spec(&fixture(name));
        assert!(r.is_clean(), "{name}:\n{}", r.render_human());
    }
}

#[test]
fn config_fixtures_fire_their_rule_at_the_exact_location() {
    let cases = [
        (
            "cf001_ack_starvation.json",
            "WF001",
            "platform:cf001-ack-starvation",
            "cycle(rdma.sender)",
        ),
        (
            "cf002_bad_mtu.json",
            "CF002",
            "config:cf002-bad-mtu",
            "qp.mtu",
        ),
        (
            "cf003_zero_window.json",
            "CF003",
            "config:cf003-zero-window",
            "qp.window",
        ),
        (
            "cf004_inverted_tlb.json",
            "CF004",
            "config:cf004-inverted-tlb",
            "mmu",
        ),
        (
            "cf005_unschedulable.json",
            "CF005",
            "config:cf005-unschedulable",
            "shell",
        ),
        (
            "cf006_service_overflow.json",
            "CF006",
            "config:cf006-service-overflow",
            "shell.services",
        ),
        (
            "cf007_oversized_tlb.json",
            "CF007",
            "config:cf007-oversized-tlb",
            "mmu",
        ),
        (
            "cf009_ring_too_small.json",
            "WF001",
            "platform:cf009-ring-too-small",
            "cycle(software)",
        ),
    ];
    for (file, rule, unit, path) in cases {
        let r = lint_shell_spec(&fixture(file));
        assert_fires(&r, rule, unit, path);
    }
}

#[test]
fn cf008_uncoverable_fault_plan_is_an_error() {
    // CF008's input is an in-memory fault plan + retry policy, like DS004's
    // fault trace.
    use coyote_chaos::{FaultPlan, RetryPolicy};
    let policy = RetryPolicy::reconfig_default();

    // Covered plan: clean.
    let ok = FaultPlan::new(1).net_loss(0.01);
    assert!(coyote_lint::lint_fault_plan("chaos", &ok, &policy).is_clean());

    // Uncoverable plan: fires at the exact location with error severity.
    let bad = FaultPlan::new(1).net_loss(0.5);
    let r = coyote_lint::lint_fault_plan("cf008-lossy-plan", &bad, &policy);
    assert_fires(&r, "CF008", "config:cf008-lossy-plan", "plan.net_loss");
    assert_eq!(r.of_rule("CF008").next().unwrap().severity, Severity::Error);

    // A rate-1.0 blackhole is flagged no matter the budget.
    let hole = FaultPlan::new(1).net_loss(1.0);
    let r = coyote_lint::lint_fault_plan("chaos", &hole, &policy);
    assert!(r.has_errors(), "{}", r.render_human());
}

#[test]
fn the_pre_fix_deadlock_config_is_an_error() {
    // The acceptance case: a config reproducing the ack_req starvation
    // deadlock the RC queue pair had before the window-fill ACK fix must be
    // rejected at error severity, with the fix on the cycle's ACK edge.
    let r = lint_shell_spec(&fixture("cf001_ack_starvation.json"));
    assert!(r.has_errors());
    let d = r.of_rule("WF001").next().unwrap();
    assert_eq!(d.severity, Severity::Error);
    assert!(
        d.message.contains("enable qp.ack_on_window_fill"),
        "{}",
        d.message
    );
}

// ---------------------------------------------------------------- netlist

/// A minimal clean netlist: Io -> Lut -> Ff pipeline.
fn clean_netlist() -> Netlist {
    Netlist {
        name: "golden".into(),
        cells: vec![CellKind::Io, CellKind::Lut, CellKind::Ff],
        levels: vec![0, 1, 2],
        nets: vec![
            Net {
                driver: 0,
                sinks: vec![1],
                width: 8,
            },
            Net {
                driver: 1,
                sinks: vec![2],
                width: 16,
            },
        ],
        footprint: ResourceVec::logic(64, 64),
    }
}

#[test]
fn clean_netlist_produces_zero_diagnostics() {
    let r = lint_netlist(&clean_netlist());
    assert!(r.is_clean(), "{}", r.render_human());
}

#[test]
fn nl001_undriven_net() {
    let mut n = clean_netlist();
    n.nets.push(Net {
        driver: 99,
        sinks: vec![1],
        width: 8,
    });
    assert_fires(&lint_netlist(&n), "NL001", "netlist:golden", "net[2]");
}

#[test]
fn nl002_multiply_driven() {
    let mut n = clean_netlist();
    n.cells.push(CellKind::Lut);
    n.levels.push(1);
    n.nets.push(Net {
        driver: 0,
        sinks: vec![3],
        width: 8,
    });
    assert_fires(&lint_netlist(&n), "NL002", "netlist:golden", "cell[0]");
}

#[test]
fn nl003_dangling_cell() {
    let mut n = clean_netlist();
    n.cells.push(CellKind::Lut);
    n.levels.push(1);
    assert_fires(&lint_netlist(&n), "NL003", "netlist:golden", "cell[3]");
}

#[test]
fn nl004_combinational_loop() {
    let n = Netlist {
        name: "golden".into(),
        cells: vec![CellKind::Lut, CellKind::Lut],
        levels: vec![0, 1],
        nets: vec![
            Net {
                driver: 0,
                sinks: vec![1],
                width: 8,
            },
            Net {
                driver: 1,
                sinks: vec![0],
                width: 8,
            },
        ],
        footprint: ResourceVec::logic(64, 64),
    };
    assert_fires(&lint_netlist(&n), "NL004", "netlist:golden", "cell[0]");
}

#[test]
fn nl005_width_mismatch() {
    let n = Netlist {
        name: "golden".into(),
        cells: vec![CellKind::Io, CellKind::Io, CellKind::Lut],
        levels: vec![0, 0, 1],
        nets: vec![
            Net {
                driver: 0,
                sinks: vec![2],
                width: 8,
            },
            Net {
                driver: 1,
                sinks: vec![2],
                width: 16,
            },
        ],
        footprint: ResourceVec::logic(64, 64),
    };
    assert_fires(&lint_netlist(&n), "NL005", "netlist:golden", "cell[2]");
}

#[test]
fn nl006_unreachable_cell() {
    let mut n = clean_netlist();
    // Cell 3 drives into the pipeline but nothing reaches *it*.
    n.cells.push(CellKind::Lut);
    n.levels.push(1);
    n.nets.push(Net {
        driver: 3,
        sinks: vec![2],
        width: 16,
    });
    assert_fires(&lint_netlist(&n), "NL006", "netlist:golden", "cell[3]");
}

#[test]
fn nl007_invalid_sink() {
    let mut n = clean_netlist();
    n.nets.push(Net {
        driver: 2,
        sinks: vec![99],
        width: 32,
    });
    assert_fires(&lint_netlist(&n), "NL007", "netlist:golden", "net[2]");
}

// -------------------------------------------------------------- floorplan

#[test]
fn clean_floorplan_produces_zero_diagnostics() {
    let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostMemoryNetwork, 4);
    let r = lint_floorplan(&fp);
    assert!(r.is_clean(), "{}", r.render_human());
}

#[test]
fn fp007_clock_region_straddle() {
    // Three 33-row bands on a 100-row grid straddle the 25-row clock
    // regions without aligning to them.
    let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostMemory, 3);
    let r = lint_floorplan(&fp);
    let at: Vec<(&str, &str)> = r
        .of_rule("FP007")
        .map(|d| (d.location.unit.as_str(), d.location.path.as_str()))
        .collect();
    let unit = "floorplan:Alveo U55C";
    assert_eq!(
        at,
        [(unit, "vfpga(0)"), (unit, "vfpga(1)"), (unit, "vfpga(2)")],
        "{}",
        r.render_human()
    );
    assert_ne!(r.max_severity(), Some(Severity::Error));
}

// -------------------------------------------------------------- bitstream

fn good_blob() -> Vec<u8> {
    Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 8, 7)
        .bytes()
        .to_vec()
}

fn restamp_crc(bytes: &mut [u8]) {
    let end = bytes.len() - 4;
    let crc = coyote_fabric::crc32(&bytes[..end]).to_le_bytes();
    bytes[end..].copy_from_slice(&crc);
}

#[test]
fn clean_bitstream_produces_zero_diagnostics() {
    let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostOnly, 1);
    let bs = fp.image(BitstreamKind::Shell, 7).unwrap();
    let ctx = DeployContext {
        device: DeviceKind::U55C,
        floorplan: Some(&fp),
    };
    let r = lint_bitstream("shell.bin", bs.bytes(), Some(&ctx));
    assert!(r.is_clean(), "{}", r.render_human());
}

#[test]
fn bs001_malformed_header() {
    let mut b = good_blob();
    b[0] = b'X';
    assert_fires(
        &lint_bitstream("bad.bin", &b, None),
        "BS001",
        "bitstream:bad.bin",
        "header",
    );
}

#[test]
fn bs002_truncated() {
    let mut b = good_blob();
    b.truncate(b.len() - FRAME_RECORD_BYTES);
    restamp_crc(&mut b);
    assert_fires(
        &lint_bitstream("bad.bin", &b, None),
        "BS002",
        "bitstream:bad.bin",
        "body",
    );
}

#[test]
fn bs003_crc_mismatch() {
    let mut b = good_blob();
    let mid = b.len() / 2;
    b[mid] ^= 0xFF;
    assert_fires(
        &lint_bitstream("bad.bin", &b, None),
        "BS003",
        "bitstream:bad.bin",
        "trailer",
    );
}

#[test]
fn bs004_frame_address_sequence() {
    let mut b = good_blob();
    let off = HEADER_BYTES + 3 * FRAME_RECORD_BYTES;
    b[off..off + 4].copy_from_slice(&77u32.to_le_bytes());
    restamp_crc(&mut b);
    assert_fires(
        &lint_bitstream("bad.bin", &b, None),
        "BS004",
        "bitstream:bad.bin",
        "frame[3]",
    );
}

#[test]
fn bs005_frames_outside_partition() {
    let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostOnly, 1);
    let kind = BitstreamKind::App { vfpga: 0 };
    let budget = fp.image(kind, 7).unwrap().frames();
    let bs = Bitstream::assemble(DeviceKind::U55C, kind, budget + 1, 7);
    let ctx = DeployContext {
        device: DeviceKind::U55C,
        floorplan: Some(&fp),
    };
    assert_fires(
        &lint_bitstream("big.bin", bs.bytes(), Some(&ctx)),
        "BS005",
        "bitstream:big.bin",
        "frames",
    );
}

#[test]
fn bs006_device_mismatch() {
    let bs = Bitstream::assemble(DeviceKind::U250, BitstreamKind::Shell, 8, 7);
    let ctx = DeployContext {
        device: DeviceKind::U55C,
        floorplan: None,
    };
    assert_fires(
        &lint_bitstream("wrong.bin", bs.bytes(), Some(&ctx)),
        "BS006",
        "bitstream:wrong.bin",
        "header",
    );
}

// ------------------------------------------------------------ fault trace

/// The traces the injectors record, detections and recoveries included, lint
/// clean once merged canonically, whichever order the per-domain traces are
/// collected in.
#[test]
fn clean_trace_produces_zero_diagnostics() {
    use coyote_chaos::{Domain, FaultPlan, FaultTrace};
    let plan = FaultPlan::new(7)
        .net_loss(0.2)
        .dma_stall(0.2, 1_000)
        .icap_reject_at(3);
    let traces: Vec<FaultTrace> = [Domain::NetSwitch, Domain::Dma, Domain::Reconfig]
        .into_iter()
        .map(|domain| {
            let mut inj = plan.injector(domain);
            for _ in 0..64 {
                for fault in inj.tick() {
                    inj.record_detected(fault.kind, 0);
                    inj.record_recovered(fault.kind, 0);
                }
            }
            assert!(inj.injected() > 0, "{domain:?} fires at least once");
            inj.take_trace()
        })
        .collect();
    let forward = FaultTrace::merged(traces.clone());
    let reverse = FaultTrace::merged(traces.into_iter().rev());
    assert_eq!(forward, reverse);
    let r = lint_fault_trace("chaos", &forward);
    assert!(r.is_clean(), "{}", r.render_human());
}

#[test]
fn ds004_concatenated_fault_trace() {
    use coyote_chaos::{Domain, FaultKind, FaultTrace, TraceKind};
    // NetSwitch's tag sorts after Dma's: recording net before dma leaves
    // canonical (domain, op) order at the boundary event.
    let mut t = FaultTrace::new();
    t.push(
        Domain::NetSwitch,
        0,
        SimTime::ZERO,
        TraceKind::Injected,
        FaultKind::NetLoss,
        0,
    );
    t.push(
        Domain::Dma,
        0,
        SimTime::ZERO,
        TraceKind::Injected,
        FaultKind::DmaStall,
        0,
    );
    let r = lint_fault_trace("chaos", &t);
    assert_fires(&r, "DS004", "trace:chaos", "event[1]");
    assert!(r.has_errors());

    // The canonical merge of the same per-domain traces is clean.
    let mut net = FaultTrace::new();
    net.push(
        Domain::NetSwitch,
        0,
        SimTime::ZERO,
        TraceKind::Injected,
        FaultKind::NetLoss,
        0,
    );
    let mut dma = FaultTrace::new();
    dma.push(
        Domain::Dma,
        0,
        SimTime::ZERO,
        TraceKind::Injected,
        FaultKind::DmaStall,
        0,
    );
    assert!(lint_fault_trace("chaos", &FaultTrace::merged([net, dma])).is_clean());
}

// --------------------------------------------------------------- platform

fn platform_fixture(name: &str) -> Report {
    let path = format!("{}/fixtures/platform/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let spec = ShellSpec::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    lint_shell_spec(&spec)
}

#[test]
fn platform_fixtures_fire_their_rule_at_the_exact_location() {
    let cases = [
        (
            "pg001_duplicate_tenant.json",
            "PG001",
            "platform:pg001-duplicate-tenant",
            "platform.tenants",
        ),
        (
            "pg002_dangling_vfpga.json",
            "PG002",
            "platform:pg002-dangling-vfpga",
            "platform.tenant(alice)",
        ),
        (
            "wf001_ring_cycle.json",
            "WF001",
            "platform:wf001-ring-cycle",
            "cycle(software)",
        ),
        (
            "wf002_zero_credits.json",
            "WF002",
            "platform:wf002-zero-credits",
            "credits.host(0)",
        ),
        (
            "wf003_orphaned_qp.json",
            "WF003",
            "platform:wf003-orphaned-qp",
            "svc.net",
        ),
        (
            "wf004_cross_tenant_credits.json",
            "WF004",
            "platform:wf004-cross-tenant-credits",
            "credits.host(1)",
        ),
        (
            "cap001_rate_overrun.json",
            "CAP001",
            "platform:cap001-rate-overrun",
            "platform.tenant(alice).rate_gbps",
        ),
        (
            "cap002_icap_overrun.json",
            "CAP002",
            "platform:cap002-icap-overrun",
            "platform.reconfigs_per_s",
        ),
        (
            "cap003_window_underrun.json",
            "CAP003",
            "platform:cap003-window-underrun",
            "qp.window",
        ),
        (
            "iso001_cross_tenant_reach.json",
            "ISO001",
            "platform:iso001-cross-tenant-reach",
            "platform.tenant(alice)",
        ),
        (
            "iso002_undeclared_shared_service.json",
            "ISO002",
            "platform:iso002-undeclared-shared-service",
            "platform.shared_services",
        ),
    ];
    for (file, rule, unit, path) in cases {
        let r = platform_fixture(file);
        assert_fires(&r, rule, unit, path);
        let expected = coyote_lint::rule(rule).unwrap().severity;
        assert_eq!(
            r.of_rule(rule).next().unwrap().severity,
            expected,
            "{rule} severity must match the catalog"
        );
    }
}

#[test]
fn clean_platform_fixture_produces_zero_diagnostics() {
    let r = platform_fixture("clean_platform.json");
    assert!(r.is_clean(), "{}", r.render_human());
}

#[test]
fn wf001_diagnostic_prints_the_full_cycle() {
    // The whole hold/wait chain must be in the message, edge by edge, and
    // the configuration-dependent edge names the fix the retired CF009
    // printed.
    let r = platform_fixture("wf001_ring_cycle.json");
    let d = r.of_rule("WF001").next().expect("WF001 fires");
    let msg = &d.message;
    for leg in [
        "software -> reconfig.doorbell -> reconfig.engine -> reconfig.ring -> software",
        "reconfig.engine -> reconfig.ring:",
        "reconfig.ring -> software:",
        "raise reconfig.ring_slots to at least 8",
    ] {
        assert!(msg.contains(leg), "missing '{leg}' in:\n{msg}");
    }
}

// ------------------------------------------------------------ the catalog

#[test]
fn every_catalog_rule_has_golden_coverage() {
    // Keep this list in sync: a rule added to the catalog without a golden
    // test above fails here, and so does a rule dropped from the catalog
    // that is still listed.
    let covered = [
        "NL001", "NL002", "NL003", "NL004", "NL005", "NL006", "NL007", "FP007", "BS001", "BS002",
        "BS003", "BS004", "BS005", "BS006", "CF002", "CF003", "CF004", "CF005", "CF006", "CF007",
        "CF008", "DS004", "PG001", "PG002", "WF001", "WF002", "WF003", "WF004", "CAP001", "CAP002",
        "CAP003", "ISO001", "ISO002",
    ];
    let catalog: Vec<&str> = coyote_lint::CATALOG.iter().map(|r| r.id).collect();
    assert_eq!(catalog, covered, "catalog and golden coverage disagree");
}
