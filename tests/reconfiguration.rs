//! Reconfiguration: Table 2 port throughputs, Table 3 latencies, app
//! reconfiguration with kernel swap, and the on-demand HLL load of §9.6.

use coyote::build::{build_app, build_shell};
use coyote::kernel::Passthrough;
use coyote::{CRcnfg, CThread, Oper, Platform, PlatformError, SgEntry, ShellConfig};
use coyote_apps::{AesEcbKernel, HllKernel};
use coyote_driver::{ReconfigError, VivadoBaseline};
use coyote_fabric::config::{ConfigError, ConfigPort, ConfigPortKind, ConfigState};
use coyote_fabric::{Bitstream, BitstreamError, BitstreamKind, Device, DeviceKind, PartitionId};
use coyote_sim::SimTime;
use coyote_synth::{Ip, IpBlock};

#[test]
fn table2_port_ordering() {
    // 40 MB through each port: Coyote ICAP ~5.5x over MCAP, ~42x over
    // HWICAP.
    let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 106_000, 1);
    let mut times = Vec::new();
    for kind in [
        ConfigPortKind::AxiHwicap,
        ConfigPortKind::Pcap,
        ConfigPortKind::Mcap,
        ConfigPortKind::CoyoteIcap,
    ] {
        let mut port = ConfigPort::new(kind);
        let mut state = ConfigState::new(DeviceKind::U55C);
        let t = port
            .program(SimTime::ZERO, bs.header(), &mut state)
            .unwrap();
        times.push((kind, t.done.since(SimTime::ZERO)));
    }
    assert!(times[3].1 < times[2].1 && times[2].1 < times[1].1 && times[1].1 < times[0].1);
    let speedup_vs_mcap = times[2].1.as_secs_f64() / times[3].1.as_secs_f64();
    assert!(
        (5.0..6.0).contains(&speedup_vs_mcap),
        "ICAP vs MCAP {speedup_vs_mcap:.1}x"
    );
}

#[test]
fn table3_all_three_scenarios() {
    // (profile, n_vfpgas, apps, expected kernel ms, expected total ms).
    let scenarios: Vec<(ShellConfig, Vec<Vec<IpBlock>>, f64, f64)> = vec![
        (
            ShellConfig::host_only(1),
            vec![vec![IpBlock::new(Ip::Passthrough)]],
            51.6,
            536.2,
        ),
        (
            ShellConfig::host_memory(2, 16),
            vec![
                vec![IpBlock::new(Ip::VecAdd)],
                vec![IpBlock::new(Ip::VecProduct)],
            ],
            72.3,
            709.0,
        ),
        (
            ShellConfig::host_memory_network(1, 16)
                .with_sniffer(coyote_net::SnifferConfig::default()),
            vec![vec![IpBlock::new(Ip::Passthrough)]],
            85.5,
            929.1,
        ),
    ];
    for (i, (cfg, apps, expect_kernel, expect_total)) in scenarios.into_iter().enumerate() {
        let art = build_shell(&cfg, apps).unwrap();
        let mut p = Platform::load(ShellConfig::host_only(1)).unwrap();
        p.register_built_shell(cfg, &art);
        let rcnfg = CRcnfg::new(&mut p, 1);
        let t = rcnfg
            .reconfigure_shell_bytes(&mut p, art.shell_bitstream.bytes(), true)
            .unwrap();
        let kernel_ms = t.kernel_latency.as_millis_f64();
        let total_ms = t.total_latency.as_millis_f64();
        assert!(
            (kernel_ms - expect_kernel).abs() / expect_kernel < 0.04,
            "scenario {i}: kernel {kernel_ms:.1} ms vs paper {expect_kernel}"
        );
        assert!(
            (total_ms - expect_total).abs() / expect_total < 0.10,
            "scenario {i}: total {total_ms:.1} ms vs paper {expect_total}"
        );
        // Order of magnitude vs the Vivado full flow.
        let vivado = VivadoBaseline::full_flow(Device::new(DeviceKind::U55C).full_config_bytes());
        assert!(
            vivado.as_millis_f64() / total_ms > 10.0,
            "scenario {i} not 10x faster"
        );
    }
}

#[test]
fn app_reconfig_swaps_kernels_without_shell_change() {
    let cfg = ShellConfig::host_memory(1, 8);
    let shell = build_shell(&cfg, vec![vec![IpBlock::new(Ip::Aes)]]).unwrap();
    let hll_app = build_app(&[IpBlock::new(Ip::Hll)], 0, &shell.checkpoint).unwrap();

    let mut p = Platform::load(cfg).unwrap();
    p.load_kernel(0, Box::new(AesEcbKernel::new())).unwrap();
    let shell_digest_before = p.shell_digest();
    p.register_app(hll_app.bitstream.digest(), || Box::new(HllKernel::new()));

    let rcnfg = CRcnfg::new(&mut p, 2);
    let timing = rcnfg
        .reconfigure_app_bytes(&mut p, hll_app.bitstream.bytes(), 0, true)
        .unwrap();
    assert_eq!(p.shell_digest(), shell_digest_before, "shell untouched");
    assert_eq!(
        p.vfpga(0).unwrap().kernel.as_ref().unwrap().name(),
        "hyperloglog"
    );

    // §9.6: "the partial reconfiguration to load the HLL kernel takes only
    // 57ms" — our app region gives the same band.
    let kernel_ms = timing.kernel_latency.as_millis_f64();
    assert!(
        (54.0..60.0).contains(&kernel_ms),
        "HLL app load {kernel_ms:.1} ms"
    );

    // The loaded HLL kernel actually works.
    let t = CThread::create(&mut p, 0, 3).unwrap();
    let src = t.get_mem(&mut p, 80_000).unwrap();
    let mut items = Vec::new();
    for i in 0..10_000u64 {
        items.extend_from_slice(&i.to_le_bytes());
    }
    t.write(&mut p, src, &items).unwrap();
    t.invoke_sync(&mut p, Oper::LocalRead, &SgEntry::source(src, 80_000))
        .unwrap();
    let est = t.get_csr(&mut p, 0).unwrap();
    assert!((9_000..11_000).contains(&est), "estimate {est}");
}

#[test]
fn flipped_app_blob_is_rejected_in_place() {
    let cfg = ShellConfig::host_memory(1, 8);
    let shell = build_shell(&cfg, vec![vec![IpBlock::new(Ip::Aes)]]).unwrap();
    let good = build_app(&[IpBlock::new(Ip::Aes)], 0, &shell.checkpoint).unwrap();
    let hll = build_app(&[IpBlock::new(Ip::Hll)], 0, &shell.checkpoint).unwrap();
    let mut p = Platform::load(cfg).unwrap();
    p.register_app(good.bitstream.digest(), || Box::new(AesEcbKernel::new()));
    p.register_app(hll.bitstream.digest(), || Box::new(HllKernel::new()));
    let rcnfg = CRcnfg::new(&mut p, 1);
    rcnfg
        .reconfigure_app_bytes(&mut p, good.bitstream.bytes(), 0, false)
        .unwrap();

    let mut flipped = hll.bitstream.bytes().to_vec();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    let err = rcnfg
        .reconfigure_app_bytes(&mut p, &flipped, 0, false)
        .unwrap_err();
    assert!(
        matches!(
            err,
            coyote::PlatformError::Reconfig(coyote_driver::ReconfigError::Bitstream(
                BitstreamError::CrcMismatch { .. }
            ))
        ),
        "{err:?}"
    );
    assert_eq!(
        p.vfpga(0).unwrap().loaded_digest,
        good.bitstream.digest(),
        "the loaded image is untouched"
    );
}

#[test]
fn unregistered_app_digest_rejected() {
    let cfg = ShellConfig::host_memory(1, 8);
    let shell = build_shell(&cfg, vec![vec![IpBlock::new(Ip::Aes)]]).unwrap();
    let app = build_app(&[IpBlock::new(Ip::Hll)], 0, &shell.checkpoint).unwrap();
    let mut p = Platform::load(cfg).unwrap();
    let rcnfg = CRcnfg::new(&mut p, 1);
    let err = rcnfg
        .reconfigure_app_bytes(&mut p, app.bitstream.bytes(), 0, false)
        .unwrap_err();
    assert!(matches!(err, coyote::PlatformError::UnknownApp(_)));
}

#[test]
fn shell_bitstream_cannot_load_as_app() {
    let cfg = ShellConfig::host_only(1);
    let art = build_shell(&cfg, vec![vec![IpBlock::new(Ip::Passthrough)]]).unwrap();
    let mut p = Platform::load(cfg).unwrap();
    let rcnfg = CRcnfg::new(&mut p, 1);
    let err = rcnfg
        .reconfigure_app_bytes(&mut p, art.shell_bitstream.bytes(), 0, false)
        .unwrap_err();
    assert!(matches!(err, coyote::PlatformError::Reconfig(_)));
}

#[test]
fn in_memory_bitstreams_skip_the_disk_stage() {
    let cfg = ShellConfig::host_only(2);
    let art = build_shell(&cfg, vec![vec![IpBlock::new(Ip::Passthrough)]; 2]).unwrap();
    let mut p1 = Platform::load(ShellConfig::host_only(1)).unwrap();
    p1.register_built_shell(cfg.clone(), &art);
    let from_disk = CRcnfg::new(&mut p1, 1)
        .reconfigure_shell_bytes(&mut p1, art.shell_bitstream.bytes(), true)
        .unwrap();
    let mut p2 = Platform::load(ShellConfig::host_only(1)).unwrap();
    p2.register_built_shell(cfg, &art);
    let cached = CRcnfg::new(&mut p2, 1)
        .reconfigure_shell_bytes(&mut p2, art.shell_bitstream.bytes(), false)
        .unwrap();
    assert!(cached.total_latency < from_disk.total_latency / 2);
    assert_eq!(cached.kernel_latency, from_disk.kernel_latency);
}

/// A small app image for `vfpga` on `device`, registered with `p`.
fn app_image(p: &mut Platform, device: DeviceKind, vfpga: u8, digest: u64) -> Bitstream {
    p.register_app(digest, || Box::new(Passthrough::default()));
    Bitstream::assemble(device, BitstreamKind::App { vfpga }, 64, digest)
}

/// What a failed app deployment must leave alone: every region's loaded
/// design and committed image, the reconfiguration count and the clock.
fn app_state(p: &Platform) -> (Vec<(u64, Option<u64>)>, u64, SimTime) {
    let state = p.driver().config_state();
    let regions = (0..p.config().n_vfpgas)
        .map(|v| {
            let committed = state.image(PartitionId::Vfpga(v)).map(|img| img.digest);
            (p.vfpga(v).unwrap().loaded_digest, committed)
        })
        .collect();
    (regions, state.reconfig_count(), p.now())
}

#[test]
fn app_image_for_another_region_is_rejected() {
    let mut p = Platform::load(ShellConfig::host_only(2)).unwrap();
    let rcnfg = CRcnfg::new(&mut p, 1);
    let bs = app_image(&mut p, DeviceKind::U55C, 0, 0xA0);
    let before = app_state(&p);
    let err = rcnfg
        .reconfigure_app_bytes(&mut p, bs.bytes(), 1, false)
        .unwrap_err();
    assert_eq!(
        format!("{err}"),
        "reconfiguration: vFPGA 0 app image cannot reconfigure vFPGA 1"
    );
    assert!(
        matches!(
            err,
            PlatformError::Reconfig(ReconfigError::WrongTarget {
                image: BitstreamKind::App { vfpga: 0 },
                vfpga: 1
            })
        ),
        "{err:?}"
    );
    assert_eq!(app_state(&p), before, "neither region changed");
    // The image deploys to the region it was built for.
    rcnfg
        .reconfigure_app_bytes(&mut p, bs.bytes(), 0, false)
        .unwrap();
    let (regions, count, _) = app_state(&p);
    assert_eq!(regions, vec![(0xA0, Some(0xA0)), before.0[1]]);
    assert_eq!(count, before.1 + 1);
}

#[test]
fn shell_and_full_images_are_rejected_as_apps_by_kind() {
    let mut p = Platform::load(ShellConfig::host_only(1)).unwrap();
    let rcnfg = CRcnfg::new(&mut p, 1);
    for (kind, name) in [
        (BitstreamKind::Shell, "shell"),
        (BitstreamKind::Full, "full-device"),
    ] {
        let bs = Bitstream::assemble(DeviceKind::U55C, kind, 64, 0xB0);
        let before = app_state(&p);
        let err = rcnfg
            .reconfigure_app_bytes(&mut p, bs.bytes(), 0, false)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("reconfiguration: {name} image cannot reconfigure vFPGA 0")
        );
        assert!(
            matches!(
                err,
                PlatformError::Reconfig(ReconfigError::WrongTarget { image, vfpga: 0 })
                    if image == kind
            ),
            "{err:?}"
        );
        assert_eq!(app_state(&p), before);
    }
}

#[test]
fn device_mismatch_leaves_the_region_untouched() {
    let mut p = Platform::load(ShellConfig::host_only(1)).unwrap();
    let rcnfg = CRcnfg::new(&mut p, 1);
    let own = app_image(&mut p, DeviceKind::U55C, 0, 0xC0);
    rcnfg
        .reconfigure_app_bytes(&mut p, own.bytes(), 0, false)
        .unwrap();
    let foreign = app_image(&mut p, DeviceKind::U250, 0, 0xC1);
    let before = app_state(&p);
    let err = rcnfg
        .reconfigure_app_bytes(&mut p, foreign.bytes(), 0, false)
        .unwrap_err();
    assert!(
        matches!(
            err,
            PlatformError::Reconfig(ReconfigError::Config(ConfigError::DeviceMismatch {
                card: DeviceKind::U55C,
                bitstream: DeviceKind::U250
            }))
        ),
        "{err:?}"
    );
    assert_eq!(app_state(&p), before);
    assert_eq!(
        p.vfpga(0).unwrap().kernel.as_ref().unwrap().name(),
        "passthrough"
    );
}
