//! On-demand application scheduling (§4, §9.6).
//!
//! "Similar to approaches proposed by prior work which can trigger
//! reconfiguration of specific applications as user requests arrive, based
//! on some scheduling policy." The HLL daemon of §9.6 is one instance; this
//! module is the general mechanism: clients submit requests *by
//! application*, and the scheduler places them onto vFPGAs, reconfiguring
//! a region only when no region already holds the requested app (the
//! bitstream cache keeps blobs in memory, skipping the Table 3 disk stage).
//!
//! Placement policy: prefer an idle region already loaded with the app
//! (free), else an empty region, else evict the least-recently-used region.

use crate::platform::{Platform, PlatformError};
use crate::reconfig::CRcnfg;
use coyote_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap};

/// A registered application: its partial bitstreams (one per region) and
/// usage statistics.
struct AppEntry {
    /// Bitstream bytes per vFPGA region index.
    bitstreams: BTreeMap<u8, Vec<u8>>,
}

/// Per-region scheduler state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RegionState {
    /// Digest of the loaded app (0 = empty).
    loaded: u64,
    /// Last time the region served a request (LRU key).
    last_used: SimTime,
}

/// Scheduler statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Requests served by an already-loaded region (no reconfiguration).
    pub hits: u64,
    /// Requests that loaded an empty region.
    pub cold_loads: u64,
    /// Requests that evicted another app (LRU).
    pub evictions: u64,
}

/// The on-demand app scheduler.
pub struct AppScheduler {
    apps: HashMap<u64, AppEntry>,
    regions: Vec<RegionState>,
    hpid: u32,
    stats: SchedulerStats,
}

impl AppScheduler {
    /// A scheduler over every vFPGA region of `platform`, reconfiguring on
    /// behalf of process `hpid`.
    pub fn new(platform: &mut Platform, hpid: u32) -> AppScheduler {
        platform.driver_mut().open(hpid);
        AppScheduler {
            apps: HashMap::new(),
            regions: vec![
                RegionState {
                    loaded: 0,
                    last_used: SimTime::ZERO
                };
                platform.config().n_vfpgas as usize
            ],
            hpid,
            stats: SchedulerStats::default(),
        }
    }

    /// Register an application: its digest (identifying the design), a
    /// kernel factory, and per-region bitstreams (from `build_app` runs
    /// against each region).
    pub fn register_app<F>(
        &mut self,
        platform: &mut Platform,
        digest: u64,
        factory: F,
        bitstreams: Vec<(u8, Vec<u8>)>,
    ) where
        F: Fn() -> Box<dyn crate::kernel::Kernel> + 'static,
    {
        platform.register_app(digest, factory);
        self.apps.insert(
            digest,
            AppEntry {
                bitstreams: bitstreams.into_iter().collect(),
            },
        );
    }

    /// Current statistics.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Which app a region holds (0 = empty).
    pub fn loaded_in(&self, region: u8) -> u64 {
        self.regions.get(region as usize).map_or(0, |r| r.loaded)
    }

    /// Acquire a vFPGA running app `digest`, reconfiguring if needed.
    /// Returns the region index and the reconfiguration time spent
    /// (zero on a hit).
    pub fn acquire(
        &mut self,
        platform: &mut Platform,
        digest: u64,
    ) -> Result<(u8, SimDuration), PlatformError> {
        if !self.apps.contains_key(&digest) {
            return Err(PlatformError::UnknownApp(digest));
        }
        let now = platform.now();
        // 1. A region already running the app.
        if let Some(idx) = self.regions.iter().position(|r| r.loaded == digest) {
            self.regions[idx].last_used = now;
            self.stats.hits += 1;
            return Ok((idx as u8, SimDuration::ZERO));
        }
        // 2. An empty region, else the LRU victim.
        let (idx, evicting) = match self.regions.iter().position(|r| r.loaded == 0) {
            Some(idx) => (idx, false),
            None => {
                let idx = self
                    .regions
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, r)| r.last_used)
                    .map(|(i, _)| i)
                    .expect("at least one region");
                (idx, true)
            }
        };
        let entry = self.apps.get(&digest).expect("checked above");
        let blob = entry
            .bitstreams
            .get(&(idx as u8))
            .ok_or(PlatformError::UnknownApp(digest))?;
        // Bitstreams are cached in memory: no disk stage (§9.3's
        // "keeping certain frequently used shell bitstreams in memory").
        let rcnfg = CRcnfg::new(platform, self.hpid);
        let timing = rcnfg.reconfigure_app_bytes(platform, blob, idx as u8, false)?;
        self.regions[idx] = RegionState {
            loaded: digest,
            last_used: platform.now(),
        };
        if evicting {
            self.stats.evictions += 1;
        } else {
            self.stats.cold_loads += 1;
        }
        Ok((idx as u8, timing.total_latency))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_app, build_shell};
    use crate::config::ShellConfig;
    use coyote_synth::{Ip, IpBlock};

    fn setup(n_vfpgas: u8) -> (Platform, AppScheduler, u64, u64) {
        let cfg = ShellConfig::host_memory(n_vfpgas, 8);
        let apps: Vec<Vec<IpBlock>> = (0..n_vfpgas).map(|_| vec![IpBlock::new(Ip::Hll)]).collect();
        let shell = build_shell(&cfg, apps).expect("shell");
        let mut platform = Platform::load(cfg).expect("platform");
        let mut sched = AppScheduler::new(&mut platform, 1);

        let register = |platform: &mut Platform,
                        sched: &mut AppScheduler,
                        ip: Ip,
                        factory: fn() -> Box<dyn crate::kernel::Kernel>|
         -> u64 {
            let mut bitstreams = Vec::new();
            let mut digest = 0;
            for v in 0..n_vfpgas {
                let app =
                    build_app(&[IpBlock::new(ip.clone())], v, &shell.checkpoint).expect("app flow");
                digest = app.bitstream.digest();
                bitstreams.push((v, app.bitstream.bytes().to_vec()));
            }
            // Note: per-region digests differ only by region id in this
            // model; register each.
            for (_, blob) in &bitstreams {
                let header = coyote_fabric::Bitstream::validate(blob).expect("valid");
                platform.register_app(header.digest, factory);
            }
            sched.apps.insert(
                digest,
                AppEntry {
                    bitstreams: bitstreams.clone().into_iter().collect(),
                },
            );
            // Also map every per-region digest to the same entry.
            for (_, blob) in &bitstreams {
                let header = coyote_fabric::Bitstream::validate(blob).expect("valid");
                sched.apps.entry(header.digest).or_insert_with(|| AppEntry {
                    bitstreams: bitstreams.clone().into_iter().collect(),
                });
            }
            digest
        };
        let hll = register(&mut platform, &mut sched, Ip::Hll, || {
            Box::new(crate::kernel::Passthrough::default())
        });
        let aes = register(&mut platform, &mut sched, Ip::Aes, || {
            Box::new(crate::kernel::Passthrough::default())
        });
        (platform, sched, hll, aes)
    }

    #[test]
    fn first_request_cold_loads_then_hits() {
        let (mut p, mut sched, hll, _) = setup(2);
        let (region, t1) = sched.acquire(&mut p, hll).unwrap();
        assert!(t1 > SimDuration::ZERO, "cold load reconfigures");
        let (region2, t2) = sched.acquire(&mut p, hll).unwrap();
        assert_eq!(region, region2);
        assert_eq!(t2, SimDuration::ZERO, "hit needs no reconfiguration");
        assert_eq!(
            sched.stats(),
            SchedulerStats {
                hits: 1,
                cold_loads: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn two_apps_share_two_regions_without_eviction() {
        let (mut p, mut sched, hll, aes) = setup(2);
        let (r1, _) = sched.acquire(&mut p, hll).unwrap();
        let (r2, _) = sched.acquire(&mut p, aes).unwrap();
        assert_ne!(r1, r2);
        assert_eq!(sched.stats().evictions, 0);
        // Both stay resident.
        assert_eq!(sched.acquire(&mut p, hll).unwrap().1, SimDuration::ZERO);
        assert_eq!(sched.acquire(&mut p, aes).unwrap().1, SimDuration::ZERO);
    }

    #[test]
    fn lru_eviction_on_pressure() {
        let (mut p, mut sched, hll, aes) = setup(1);
        sched.acquire(&mut p, hll).unwrap();
        let (_, t) = sched.acquire(&mut p, aes).unwrap();
        assert!(t > SimDuration::ZERO);
        assert_eq!(sched.stats().evictions, 1);
        assert_eq!(sched.loaded_in(0), aes);
        // Re-acquiring HLL evicts AES back.
        sched.acquire(&mut p, hll).unwrap();
        assert_eq!(sched.stats().evictions, 2);
    }

    #[test]
    fn unknown_app_rejected() {
        let (mut p, mut sched, _, _) = setup(1);
        assert!(matches!(
            sched.acquire(&mut p, 0xDEAD),
            Err(PlatformError::UnknownApp(0xDEAD))
        ));
    }

    #[test]
    fn in_memory_bitstreams_load_fast() {
        // §9.6: on-demand loads take ~57 ms from disk; the scheduler's
        // in-memory cache shaves the disk stage.
        let (mut p, mut sched, hll, _) = setup(1);
        let (_, t) = sched.acquire(&mut p, hll).unwrap();
        let ms = t.as_millis_f64();
        assert!(ms < 120.0, "cached load took {ms} ms");
    }
}
