//! The nested build flows through the runtime's build API (§9.2).

use coyote::build::{build_app, build_shell};
use coyote::ShellConfig;
use coyote_fabric::{Bitstream, BitstreamKind};
use coyote_mmu::MmuConfig;
use coyote_net::SnifferConfig;
use coyote_synth::{Ip, IpBlock, ShellCheckpoint};

#[test]
fn app_flow_saving_through_runtime_api() {
    let cfg = ShellConfig::host_memory_network(1, 16);
    let shell = build_shell(&cfg, vec![vec![IpBlock::new(Ip::Aes)]]).unwrap();
    let app = build_app(&[IpBlock::new(Ip::Aes)], 0, &shell.checkpoint).unwrap();
    let saving = 1.0 - app.report.total.as_secs_f64() / shell.report.total.as_secs_f64();
    assert!(
        (0.13..0.22).contains(&saving),
        "app flow saves {:.1}% (paper: 15-20%)",
        saving * 100.0
    );
}

#[test]
fn checkpoint_reuse_across_apps() {
    // The §9.2 cloud-provider story: compile the RDMA shell once, link
    // different encryption/compute cores against it.
    let cfg = ShellConfig::host_memory_network(1, 16);
    let shell = build_shell(&cfg, vec![vec![IpBlock::new(Ip::Aes)]]).unwrap();
    let apps = [Ip::Aes, Ip::Hll, Ip::Passthrough];
    let mut digests = Vec::new();
    for ip in apps {
        let app = build_app(&[IpBlock::new(ip)], 0, &shell.checkpoint).unwrap();
        assert!(
            app.report.link_time.as_secs_f64() > 0.0,
            "app flow links the checkpoint"
        );
        digests.push(app.bitstream.digest());
    }
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), 3, "distinct designs, distinct bitstreams");
}

#[test]
fn checkpoint_persists_to_disk() {
    let cfg = ShellConfig::host_memory(1, 8);
    let shell = build_shell(&cfg, vec![vec![IpBlock::new(Ip::VecAdd)]]).unwrap();
    let dir = std::env::temp_dir().join("coyote_build_flows");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shell.dcp.json");
    shell.checkpoint.write_to(&path).unwrap();
    let loaded = ShellCheckpoint::read_from(&path).unwrap();
    assert_eq!(loaded, shell.checkpoint);
    // Linking against the reloaded checkpoint works identically.
    let a = build_app(&[IpBlock::new(Ip::VecProduct)], 0, &shell.checkpoint).unwrap();
    let b = build_app(&[IpBlock::new(Ip::VecProduct)], 0, &loaded).unwrap();
    assert_eq!(a.bitstream.digest(), b.bitstream.digest());
    assert_eq!(a.report.total, b.report.total);
    std::fs::remove_file(&path).ok();
}

#[test]
fn dependency_failsafe_between_flows() {
    // §4: "an application is always linked to a shell configuration, which
    // verifies that the services required by the application are indeed
    // provided".
    let host_only = ShellConfig::host_only(1);
    let shell = build_shell(&host_only, vec![vec![IpBlock::new(Ip::Passthrough)]]).unwrap();
    let err = build_app(&[IpBlock::new(Ip::Hll)], 0, &shell.checkpoint).unwrap_err();
    assert!(
        matches!(err, coyote::PlatformError::Flow(_)),
        "HLL needs the memory service"
    );
}

#[test]
fn shell_bitstream_sizes_follow_profiles() {
    let sizes: Vec<u64> = [
        ShellConfig::host_only(1),
        ShellConfig::host_memory(1, 16),
        ShellConfig::host_memory_network(1, 16),
    ]
    .into_iter()
    .map(|cfg| {
        build_shell(&cfg, vec![vec![IpBlock::new(Ip::Passthrough)]])
            .unwrap()
            .shell_bitstream
            .len()
    })
    .collect();
    assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2]);
    // The Table 3 byte budgets.
    assert!((37.0..37.5).contains(&(sizes[0] as f64 / 1e6)));
    assert!((53.0..54.0).contains(&(sizes[1] as f64 / 1e6)));
    assert!((64.0..65.0).contains(&(sizes[2] as f64 / 1e6)));
}

#[test]
fn flow_images_match_floorplan_geometry() {
    // Table 3 and Fig. 11 take their images from the floorplan instead of
    // running these flows; the headers must agree in everything the
    // reconfiguration path reads but the digest, a registry key.
    let same = |built: &Bitstream, geometric: &Bitstream, frames: u64| {
        assert_eq!(built.device(), geometric.device());
        assert_eq!(built.kind(), geometric.kind());
        assert_eq!((built.frames(), geometric.frames()), (frames, frames));
        assert_eq!(built.len(), geometric.len());
    };
    let table3 = [
        (
            ShellConfig::host_only(1).with_mmu(MmuConfig::huge_1g()),
            vec![vec![IpBlock::new(Ip::Passthrough)]],
            99_000,
        ),
        (
            ShellConfig::host_memory(2, 16),
            vec![
                vec![IpBlock::new(Ip::VecAdd)],
                vec![IpBlock::new(Ip::VecProduct)],
            ],
            141_900,
        ),
        (
            ShellConfig::host_memory_network(1, 16).with_sniffer(SnifferConfig::default()),
            vec![vec![IpBlock::new(Ip::Passthrough)]],
            171_600,
        ),
    ];
    for (cfg, apps, frames) in table3 {
        let built = build_shell(&cfg, apps).unwrap().shell_bitstream;
        let geometric = cfg.floorplan().image(BitstreamKind::Shell, 0).unwrap();
        same(&built, &geometric, frames);
    }

    let cfg = ShellConfig::host_memory(1, 8);
    let shell = build_shell(&cfg, vec![vec![IpBlock::new(Ip::Hll)]]).unwrap();
    let hll = build_app(&[IpBlock::new(Ip::Hll)], 0, &shell.checkpoint).unwrap();
    let kind = BitstreamKind::App { vfpga: 0 };
    let geometric = cfg.floorplan().image(kind, 0).unwrap();
    same(&hll.bitstream, &geometric, 108_900);
}
