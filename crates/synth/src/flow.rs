//! The nested build flows of §4 / §9.2 (Fig. 7(b)).
//!
//! **Shell flow**: synthesize, place and route the services *and* the user
//! applications, generate the shell + per-app partial bitstreams, and emit
//! a routed, locked checkpoint.
//!
//! **App flow**: synthesize, place and route only the user application,
//! then *link* it against a previously routed shell checkpoint. Linking is
//! not free — the implementation tools must load the locked shell, legalize
//! the partition boundary and re-verify routing over the merged design —
//! which is why the paper measures a 15–20 % saving rather than the
//! services' full share of the build.
//!
//! Modeled time = Σ (actual operation count × per-operation constant),
//! with the constants calibrated in [`cost`] so the absolute scale matches
//! the "4-6 hours for the RDMA stack" remark of §9.2.

use crate::checkpoint::ShellCheckpoint;
use crate::library::{Ip, IpBlock};
use crate::netlist::Netlist;
use crate::place::{Placement, Placer};
use crate::route::{RouteResult, Router};
use crate::timing::{self, TimingReport};
use coyote_fabric::bitstream::{Bitstream, BitstreamKind};
use coyote_fabric::floorplan::PartitionId;
use coyote_fabric::{Device, DeviceKind, Floorplan, ResourceVec, ShellProfile};
use coyote_sim::{par_map, SimDuration};

/// Per-operation time constants of the build model.
pub mod cost {
    use coyote_sim::SimDuration;

    /// Logic synthesis per device primitive: 8 ms. (At the reduced scale of
    /// one cell per 64 primitives, this is ~0.5 s of modeled work per cell,
    /// putting a 700k-primitive RDMA configuration in the multi-hour band
    /// §9.2 quotes for Vivado.)
    pub const SYNTH_PER_PRIMITIVE: SimDuration = SimDuration(8_000_000_000);
    /// One annealing move (each move stands for `PRIMITIVES_PER_CELL`
    /// primitives' worth of real placer work): 8.5 ms.
    pub const PLACE_PER_MOVE: SimDuration = SimDuration(8_500_000_000);
    /// One router expansion (same scaling): 1.5 ms.
    pub const ROUTE_PER_EXPANSION: SimDuration = SimDuration(1_500_000_000);
    /// Bitstream generation per configuration frame: 3 ms.
    pub const BITGEN_PER_FRAME: SimDuration = SimDuration(3_000_000_000);
    /// Linking against a locked checkpoint costs this fraction of the
    /// services' original implementation effort (checkpoint load, boundary
    /// legalization, routing DRC over the merged design). Calibrated so the
    /// app flow recovers the 15-20 % the paper measures rather than the
    /// services' full share.
    pub const LINK_FRACTION: f64 = 0.79;
    /// Fixed per-flow overhead (project setup, DRC, reports).
    pub const FLOW_FIXED: SimDuration = SimDuration(120_000_000_000_000); // 120 s.
}

/// A complete shell build request.
#[derive(Debug, Clone)]
pub struct BuildRequest {
    /// Target card.
    pub device: DeviceKind,
    /// Floorplan profile (sets the shell band width).
    pub profile: ShellProfile,
    /// vFPGA regions.
    pub n_vfpgas: u8,
    /// Dynamic-layer services.
    pub services: Vec<IpBlock>,
    /// Per-vFPGA application blocks (`apps.len() == n_vfpgas`).
    pub apps: Vec<Vec<IpBlock>>,
}

/// Flow failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// A partition cannot hold its blocks.
    ResourceOverflow {
        /// Offending partition.
        partition: &'static str,
        /// Requested resources.
        requested: String,
        /// Available capacity.
        capacity: String,
    },
    /// App flow: the checkpointed shell lacks a required service (§4's
    /// dependency verification).
    MissingService {
        /// The absent service.
        service: String,
    },
    /// App flow: device mismatch between app request and checkpoint.
    DeviceMismatch,
    /// Malformed request (e.g. `apps.len() != n_vfpgas`).
    BadRequest(String),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::ResourceOverflow {
                partition,
                requested,
                capacity,
            } => {
                write!(f, "{partition}: {requested} exceeds {capacity}")
            }
            FlowError::MissingService { service } => {
                write!(
                    f,
                    "shell checkpoint does not provide required service {service}"
                )
            }
            FlowError::DeviceMismatch => write!(f, "checkpoint targets a different device"),
            FlowError::BadRequest(s) => write!(f, "bad request: {s}"),
        }
    }
}

impl std::error::Error for FlowError {}

/// Timing/operation report of one flow run.
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// "shell" or "app".
    pub flow: &'static str,
    /// Modeled synthesis time.
    pub synth_time: SimDuration,
    /// Modeled placement time.
    pub place_time: SimDuration,
    /// Modeled routing time.
    pub route_time: SimDuration,
    /// Modeled bitstream-generation time.
    pub bitgen_time: SimDuration,
    /// Modeled checkpoint-linking time (app flow only).
    pub link_time: SimDuration,
    /// End-to-end modeled build time.
    pub total: SimDuration,
    /// Annealing moves executed (unscaled count).
    pub moves: u64,
    /// Router expansions executed (unscaled count).
    pub expansions: u64,
    /// Resources of everything newly built in this flow.
    pub used: ResourceVec,
    /// Capacity of the partitions built into.
    pub capacity: ResourceVec,
    /// Worst timing across newly built partitions.
    pub timing: TimingReport,
}

/// Output of the shell flow.
#[derive(Debug, Clone)]
pub struct ShellArtifacts {
    /// Build metrics.
    pub report: BuildReport,
    /// The shell partial bitstream (services + all vFPGA regions).
    pub shell_bitstream: Bitstream,
    /// Per-vFPGA partial bitstreams.
    pub app_bitstreams: Vec<Bitstream>,
    /// The routed, locked checkpoint for later app flows.
    pub checkpoint: ShellCheckpoint,
}

/// Output of the app flow.
#[derive(Debug, Clone)]
pub struct AppArtifacts {
    /// Build metrics.
    pub report: BuildReport,
    /// The app partial bitstream.
    pub bitstream: Bitstream,
}

/// Seeds for the multi-seed placement sweep. Each partition is annealed
/// once per seed, every (partition, seed) pair of a flow in one `par_map`
/// batch, and the best result by `(hpwl, seed)` wins, so the outcome is
/// identical for any thread count. Two full-length annealers beat four
/// shortened ones on quality per move, and keep the serial (single-core)
/// build cost bounded at 2x a single anneal.
pub const PLACE_SEEDS: [u64; 2] = [1, 2];

struct PartitionBuild {
    netlist: Netlist,
    placement: Placement,
    route: RouteResult,
    timing: TimingReport,
}

/// One partition's inputs, so a whole flow can fan out at once.
struct PartitionSpec<'a> {
    blocks: &'a [IpBlock],
    width: u16,
    height: u16,
    name: &'static str,
    capacity: ResourceVec,
}

/// Logic of the empty top-level netlist a partition's blocks merge into.
fn top_footprint() -> ResourceVec {
    ResourceVec::logic(64, 64)
}

/// What a partition holding `blocks` needs: their footprints plus the
/// top-level netlist they merge into. It equals the footprint of the
/// partition's synthesized netlist, without synthesizing it.
pub fn partition_footprint(blocks: &[IpBlock]) -> ResourceVec {
    blocks
        .iter()
        .fold(top_footprint(), |sum, b| sum + b.footprint())
}

/// The pre-placement fit check: a partition whose footprint exceeds its
/// capacity fails the flow before any annealing. Every flow runs it on
/// every partition's synthesized netlist, and `coyote-lint`'s CF006 runs
/// it on a shell spec's service blocks ([`partition_footprint`]).
pub fn check_fit(
    partition: &'static str,
    footprint: &ResourceVec,
    capacity: &ResourceVec,
) -> Result<(), FlowError> {
    if footprint.fits_in(capacity) {
        Ok(())
    } else {
        Err(FlowError::ResourceOverflow {
            partition,
            requested: footprint.to_string(),
            capacity: capacity.to_string(),
        })
    }
}

/// Synthesize, place and route every partition of a flow, returning the
/// builds in `specs` order.
///
/// Synthesis runs first for all partitions, so a partition that cannot
/// hold its blocks fails the flow before any annealing, and the
/// lowest-index overflow is the one reported. Then one `par_map` anneals
/// every (partition, seed) pair and one more routes and times every
/// partition; results merge in input order, so reports, digests and
/// bitstream bytes are identical to a serial build.
fn build_partitions(specs: &[PartitionSpec]) -> Result<Vec<PartitionBuild>, FlowError> {
    let mut netlists = Vec::with_capacity(specs.len());
    for s in specs {
        let mut netlist = Netlist::synthesize("empty", top_footprint(), 2, 2.0, 0, 0);
        netlist.name = format!("{}_top", s.name);
        for b in s.blocks {
            netlist.merge(&b.synthesize());
        }
        check_fit(s.name, &netlist.footprint, &s.capacity)?;
        netlists.push(netlist);
    }
    let regions: Vec<(&Netlist, u16, u16)> = netlists
        .iter()
        .zip(specs)
        .map(|(n, s)| (n, s.width, s.height))
        .collect();
    let placements = Placer::default().place_multi_seed(&regions, &PLACE_SEEDS);
    let routed = par_map(&placements, |i, placement| {
        (
            Router::default().route(&netlists[i], placement),
            timing::analyze(&netlists[i], placement),
        )
    });
    Ok(netlists
        .into_iter()
        .zip(placements)
        .zip(routed)
        .map(|((netlist, placement), (route, timing))| PartitionBuild {
            netlist,
            placement,
            route,
            timing,
        })
        .collect())
}

fn stage_times(builds: &[&PartitionBuild]) -> (SimDuration, SimDuration, SimDuration, u64, u64) {
    let mut synth = SimDuration::ZERO;
    let mut place = SimDuration::ZERO;
    let mut route = SimDuration::ZERO;
    let mut moves = 0u64;
    let mut exps = 0u64;
    for b in builds {
        synth += SimDuration(cost::SYNTH_PER_PRIMITIVE.0 * b.netlist.primitives());
        place += SimDuration(cost::PLACE_PER_MOVE.0 * b.placement.moves_attempted);
        route += SimDuration(cost::ROUTE_PER_EXPANSION.0 * b.route.expansions);
        moves += b.placement.moves_attempted;
        exps += b.route.expansions;
    }
    (synth, place, route, moves, exps)
}

fn worst_timing<'a>(builds: impl Iterator<Item = &'a PartitionBuild>) -> TimingReport {
    builds
        .map(|b| b.timing)
        .max_by(|a, b| a.critical_path.cmp(&b.critical_path))
        .unwrap_or(TimingReport {
            critical_path: SimDuration::from_ps(1),
            wns: SimDuration::ZERO,
            fmax_mhz: 1e6,
        })
}

/// Run the shell flow.
pub fn shell_flow(req: &BuildRequest) -> Result<ShellArtifacts, FlowError> {
    if req.apps.len() != req.n_vfpgas as usize {
        return Err(FlowError::BadRequest(format!(
            "{} app sets for {} vFPGAs",
            req.apps.len(),
            req.n_vfpgas
        )));
    }
    let device = Device::new(req.device);
    let fp = Floorplan::preset(req.device, req.profile, req.n_vfpgas);

    // Partition work list: services at index 0, then one entry per vFPGA.
    let shell_rect = fp
        .partition(PartitionId::Shell)
        .expect("preset has shell")
        .rect;
    let service_cap = fp
        .capacity_of(&device, PartitionId::Shell)
        .expect("shell capacity");
    let app0_rect = fp
        .partition(PartitionId::Vfpga(0))
        .expect("preset has vFPGA 0")
        .rect;
    let service_cols = (app0_rect.col0 - shell_rect.col0) as u16;
    let rows = (shell_rect.row1 - shell_rect.row0) as u16;
    let mut specs = vec![PartitionSpec {
        blocks: &req.services,
        width: service_cols.max(1),
        height: rows,
        name: "services",
        capacity: service_cap,
    }];
    for (v, blocks) in req.apps.iter().enumerate() {
        let rect = fp
            .partition(PartitionId::Vfpga(v as u8))
            .expect("preset region")
            .rect;
        let cap = fp
            .capacity_of(&device, PartitionId::Vfpga(v as u8))
            .expect("capacity");
        specs.push(PartitionSpec {
            blocks,
            width: (rect.col1 - rect.col0) as u16,
            height: (rect.row1 - rect.row0) as u16,
            name: "vfpga",
            capacity: cap,
        });
    }

    let mut builds = build_partitions(&specs)?;
    let app_builds = builds.split_off(1);
    let services = builds.pop().expect("services build present");

    // Stage times over everything newly built.
    let mut all: Vec<&PartitionBuild> = vec![&services];
    all.extend(app_builds.iter());
    let (synth_time, place_time, route_time, moves, expansions) = stage_times(&all);

    // Bitstreams: the shell image covers the whole shell rect; one partial
    // per vFPGA region.
    let mut digest = services.netlist.digest();
    for b in &app_builds {
        digest ^= b.netlist.digest().rotate_left(17);
    }
    let shell_bitstream = fp
        .image(BitstreamKind::Shell, digest)
        .expect("preset has shell");
    let app_bitstreams: Vec<Bitstream> = app_builds
        .iter()
        .enumerate()
        .map(|(v, b)| {
            fp.image(BitstreamKind::App { vfpga: v as u8 }, b.netlist.digest())
                .expect("preset region")
        })
        .collect();
    let bitgen_frames: u64 =
        shell_bitstream.frames() + app_bitstreams.iter().map(Bitstream::frames).sum::<u64>();
    let bitgen_time = SimDuration(cost::BITGEN_PER_FRAME.0 * bitgen_frames);

    let total = cost::FLOW_FIXED + synth_time + place_time + route_time + bitgen_time;
    let used = all.iter().map(|b| b.netlist.footprint).sum();
    let capacity = {
        device.resources_in(
            shell_rect.col0,
            shell_rect.col1,
            shell_rect.row0,
            shell_rect.row1,
        )
    };
    let report = BuildReport {
        flow: "shell",
        synth_time,
        place_time,
        route_time,
        bitgen_time,
        link_time: SimDuration::ZERO,
        total,
        moves,
        expansions,
        used,
        capacity,
        timing: worst_timing(all.into_iter()),
    };
    let (s_synth, s_place, s_route, _, _) = stage_times(&[&services]);
    let checkpoint = ShellCheckpoint {
        device: req.device,
        profile: req.profile,
        n_vfpgas: req.n_vfpgas,
        services: req.services.iter().map(|b| b.ip.clone()).collect(),
        services_digest: services.netlist.digest(),
        service_primitives: services.netlist.primitives(),
        service_build_ps: (s_synth + s_place + s_route).as_ps(),
        service_critical_ps: services.timing.critical_path.as_ps(),
        routed: services.route.is_routed(),
    };
    Ok(ShellArtifacts {
        report,
        shell_bitstream,
        app_bitstreams,
        checkpoint,
    })
}

/// Services an application depends on (§4: verified at link time).
pub fn required_services(blocks: &[IpBlock]) -> Vec<Ip> {
    let mut out = vec![Ip::HostIf];
    for b in blocks {
        match b.ip {
            Ip::VecAdd | Ip::VecProduct | Ip::NnInference { .. } | Ip::Hll => {
                out.push(Ip::MemoryCtrl { channels: 0 });
                out.push(Ip::Mmu { sram_bits: 0 });
            }
            _ => {}
        }
    }
    out.dedup();
    out
}

/// Run the app flow: build only `blocks` for region `vfpga`, linking
/// against `checkpoint`.
pub fn app_flow(
    blocks: &[IpBlock],
    vfpga: u8,
    checkpoint: &ShellCheckpoint,
) -> Result<AppArtifacts, FlowError> {
    if vfpga >= checkpoint.n_vfpgas {
        return Err(FlowError::BadRequest(format!(
            "vFPGA {vfpga} on a {}-region shell",
            checkpoint.n_vfpgas
        )));
    }
    for needed in required_services(blocks) {
        if !checkpoint.provides(&needed) {
            return Err(FlowError::MissingService {
                service: format!("{needed:?}"),
            });
        }
    }
    let device = Device::new(checkpoint.device);
    let fp = Floorplan::preset(checkpoint.device, checkpoint.profile, checkpoint.n_vfpgas);
    let rect = fp
        .partition(PartitionId::Vfpga(vfpga))
        .expect("preset region")
        .rect;
    let cap = fp
        .capacity_of(&device, PartitionId::Vfpga(vfpga))
        .expect("capacity");
    let build = build_partitions(&[PartitionSpec {
        blocks,
        width: (rect.col1 - rect.col0) as u16,
        height: (rect.row1 - rect.row0) as u16,
        name: "vfpga",
        capacity: cap,
    }])?
    .pop()
    .expect("one partition built");
    let (synth_time, place_time, route_time, moves, expansions) = stage_times(&[&build]);
    // Linking: load + legalize the locked shell.
    let link_time = SimDuration((checkpoint.service_build_ps as f64 * cost::LINK_FRACTION) as u64);
    let bitstream = fp
        .image(BitstreamKind::App { vfpga }, build.netlist.digest())
        .expect("preset region");
    // Bitstream generation still covers the whole shell image (the partial
    // for this region is extracted from it).
    let shell_frames = fp
        .image(BitstreamKind::Shell, 0)
        .expect("preset has shell")
        .frames();
    let bitgen_time = SimDuration(cost::BITGEN_PER_FRAME.0 * (shell_frames + bitstream.frames()));
    let total = cost::FLOW_FIXED + synth_time + place_time + route_time + link_time + bitgen_time;
    let report = BuildReport {
        flow: "app",
        synth_time,
        place_time,
        route_time,
        bitgen_time,
        link_time,
        total,
        moves,
        expansions,
        used: build.netlist.footprint,
        capacity: cap,
        timing: build.timing,
    };
    Ok(AppArtifacts { report, bitstream })
}

/// The three shell configurations evaluated in Fig. 7(b) / §9.2.
pub fn fig7b_configs() -> Vec<(&'static str, BuildRequest)> {
    vec![
        (
            "passthrough + host IF",
            BuildRequest {
                device: DeviceKind::U55C,
                profile: ShellProfile::HostOnly,
                n_vfpgas: 1,
                services: vec![IpBlock::new(Ip::HostIf)],
                apps: vec![vec![IpBlock::new(Ip::Passthrough)]],
            },
        ),
        (
            "vecadd + memory",
            BuildRequest {
                device: DeviceKind::U55C,
                profile: ShellProfile::HostMemory,
                n_vfpgas: 1,
                services: vec![
                    IpBlock::new(Ip::HostIf),
                    IpBlock::new(Ip::MemoryCtrl { channels: 16 }),
                    IpBlock::new(Ip::Mmu { sram_bits: 262_144 }),
                ],
                apps: vec![vec![IpBlock::new(Ip::VecAdd)]],
            },
        ),
        (
            "RDMA + AES",
            BuildRequest {
                device: DeviceKind::U55C,
                profile: ShellProfile::HostMemoryNetwork,
                n_vfpgas: 1,
                services: vec![
                    IpBlock::new(Ip::HostIf),
                    IpBlock::new(Ip::MemoryCtrl { channels: 16 }),
                    IpBlock::new(Ip::Mmu { sram_bits: 262_144 }),
                    IpBlock::new(Ip::Cmac),
                    IpBlock::new(Ip::RdmaStack),
                ],
                apps: vec![vec![IpBlock::new(Ip::Aes)]],
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shell_flow_produces_consistent_artifacts() {
        let (_, req) = fig7b_configs().remove(0);
        let art = shell_flow(&req).unwrap();
        assert_eq!(art.app_bitstreams.len(), 1);
        assert!(art.checkpoint.routed);
        assert!(art.report.total > cost::FLOW_FIXED);
        // Shell bitstream size matches the HostOnly preset (~37 MB).
        let mb = art.shell_bitstream.len() as f64 / 1e6;
        assert!((37.0..37.5).contains(&mb), "{mb} MB");
    }

    #[test]
    fn app_flow_saves_15_to_20_percent() {
        // The headline of §9.2 across all three configurations.
        for (name, req) in fig7b_configs() {
            let shell = shell_flow(&req).unwrap();
            let app = app_flow(&req.apps[0], 0, &shell.checkpoint).unwrap();
            let saving = 1.0 - app.report.total.as_secs_f64() / shell.report.total.as_secs_f64();
            assert!(
                (0.13..=0.22).contains(&saving),
                "{name}: saving {:.1}% (shell {}, app {})",
                saving * 100.0,
                shell.report.total,
                app.report.total
            );
        }
    }

    #[test]
    fn all_fig7b_checkpoints_route_cleanly() {
        for (name, req) in fig7b_configs() {
            let art = shell_flow(&req).unwrap();
            assert!(art.checkpoint.routed, "{name} did not route");
        }
    }

    #[test]
    fn build_times_grow_with_config_complexity() {
        let totals: Vec<f64> = fig7b_configs()
            .iter()
            .map(|(_, req)| shell_flow(req).unwrap().report.total.as_secs_f64())
            .collect();
        assert!(totals[0] < totals[1] && totals[1] < totals[2], "{totals:?}");
        // §9.2: the RDMA configuration takes hours (4-6 h quoted for the
        // authors' Vivado runs; ours models the same order).
        assert!(totals[2] > 2.0 * 3600.0, "RDMA config only {}s", totals[2]);
        assert!(totals[2] < 8.0 * 3600.0, "RDMA config {}s", totals[2]);
    }

    #[test]
    fn missing_service_rejected_at_link_time() {
        // Build a host-only shell, then try to link a vecadd (needs card
        // memory): the §4 fail-safe must reject it.
        let (_, req) = fig7b_configs().remove(0);
        let shell = shell_flow(&req).unwrap();
        let err = app_flow(&[IpBlock::new(Ip::VecAdd)], 0, &shell.checkpoint).unwrap_err();
        assert!(matches!(err, FlowError::MissingService { .. }));
    }

    #[test]
    fn oversized_app_rejected() {
        let (_, req) = fig7b_configs().remove(1);
        let shell = shell_flow(&req).unwrap();
        let huge = IpBlock::new(Ip::Custom {
            name: "monster".into(),
            lut: 5_000_000,
            ff: 0,
            bram: 0,
            dsp: 0,
        });
        let err = app_flow(&[huge], 0, &shell.checkpoint).unwrap_err();
        assert!(matches!(err, FlowError::ResourceOverflow { .. }));
    }

    #[test]
    fn partition_footprint_is_the_synthesized_netlists() {
        let (_, req) = fig7b_configs().remove(0);
        let shell = shell_flow(&req).unwrap();
        let blocks = [IpBlock::new(Ip::Aes), IpBlock::new(Ip::Passthrough)];
        let app = app_flow(&blocks, 0, &shell.checkpoint).unwrap();
        assert_eq!(partition_footprint(&blocks), app.report.used);
    }

    #[test]
    fn bad_vfpga_index_rejected() {
        let (_, req) = fig7b_configs().remove(0);
        let shell = shell_flow(&req).unwrap();
        let err = app_flow(&[IpBlock::new(Ip::Passthrough)], 5, &shell.checkpoint).unwrap_err();
        assert!(matches!(err, FlowError::BadRequest(_)));
    }

    #[test]
    fn multi_vfpga_builds() {
        let req = BuildRequest {
            device: DeviceKind::U55C,
            profile: ShellProfile::HostMemory,
            n_vfpgas: 4,
            services: vec![
                IpBlock::new(Ip::HostIf),
                IpBlock::new(Ip::MemoryCtrl { channels: 8 }),
                IpBlock::new(Ip::Mmu { sram_bits: 131_072 }),
            ],
            apps: (0..4)
                .map(|i| vec![IpBlock::with_seed(Ip::Aes, i)])
                .collect(),
        };
        let art = shell_flow(&req).unwrap();
        assert_eq!(art.app_bitstreams.len(), 4);
        // Each app bitstream covers a quarter-height region.
        let first = art.app_bitstreams[0].len();
        assert!(art.app_bitstreams.iter().all(|b| b.len() == first));
    }

    #[test]
    fn timing_is_reported_and_sane() {
        let (_, req) = fig7b_configs().remove(1);
        let art = shell_flow(&req).unwrap();
        assert!(art.report.timing.critical_path.as_ps() > 0);
        assert!(
            art.report.timing.fmax_mhz > 50.0,
            "fmax {}",
            art.report.timing.fmax_mhz
        );
    }
}
