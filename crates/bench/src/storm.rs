//! `reconfig_storm`: many tenants reconfiguring concurrently against a
//! shared bitstream cache, through the batched control plane.
//!
//! The storm is the control-plane stress case the paper's multi-tenant
//! story implies but never benchmarks directly: a fleet of tenants
//! deploying a small set of app images at once. Each tenant drives its own
//! driver instance (doorbell + completion ring) while all of them consult
//! one [`BitstreamCache`]; a slice of tenants reconfigure through an
//! injected in-flight bit flip and must recover by re-queueing only the
//! failed frame run.
//!
//! Everything reported is derived from simulated time and deterministic
//! counters, so the result — including the FNV fingerprint in the verdict —
//! is bit-identical for any worker count and across repeat runs.

use crate::report::{ExperimentResult, Row};
use coyote_chaos::{Domain, FaultPlan, RetryPolicy};
use coyote_driver::{BatchedReconfig, CompletionStatus, CoyoteDriver};
use coyote_fabric::{Bitstream, BitstreamCache, BitstreamKind, DeviceKind};
use coyote_sim::{par_map, Fnv64, SimTime};

/// One tenant's outcome, reduced to the deterministic fields the
/// fingerprint pins.
struct TenantOutcome {
    tenant: u64,
    digest: u64,
    ring_high_water: usize,
    result: BatchedReconfig,
}

fn status_code(s: CompletionStatus) -> u8 {
    match s {
        CompletionStatus::Done => 0,
        CompletionStatus::FlipDetected => 1,
        CompletionStatus::Rejected => 2,
        CompletionStatus::VerifyFailed => 3,
    }
}

pub fn reconfig_storm() -> ExperimentResult {
    let (tenants, images, frames) = (256u64, 8usize, 1200u64);
    // Eight contiguous frame runs per batch: deep enough to exercise the
    // ring writeback path, comfortably under the default 16 slots.
    let per_run = frames.div_ceil(8).max(1);
    let cache = BitstreamCache::new(images * 2);

    // The image set, primed into the shared cache serially: exactly one
    // validation (miss + insert) per distinct image, so the storm's
    // hit/miss split never depends on which tenant wins the race to
    // validate first.
    let bitstreams: Vec<Bitstream> = (0..images)
        .map(|k| {
            Bitstream::assemble(
                DeviceKind::U55C,
                BitstreamKind::App { vfpga: 0 },
                frames,
                0x5702_0000 + k as u64,
            )
        })
        .collect();
    for bs in &bitstreams {
        Bitstream::validate_in(&cache, bs.bytes()).expect("valid by construction");
    }
    let primed_misses = cache.stats().misses;

    let tenant_ids: Vec<u64> = (0..tenants).collect();
    let outcomes: Vec<TenantOutcome> = par_map(&tenant_ids, |_, &t| {
        let blob = bitstreams[t as usize % images].bytes();
        // Shared-cache deployment: after priming this is always a hit, so
        // the tenant pays the content hash but never the frame scan.
        let header = Bitstream::validate_in(&cache, blob).expect("primed image");
        let mut drv = CoyoteDriver::new(DeviceKind::U55C);
        // Every eighth tenant deploys through an in-flight bit flip on its
        // second frame run; the batch must recover by re-queueing that run
        // alone.
        if t % 8 == 3 {
            let plan = FaultPlan::new(0xC0FE + t).bitstream_flip_at(1, 17 + t * 8);
            drv.attach_icap_chaos(plan.injector(Domain::Reconfig));
        }
        let result = drv
            .reconfigure_batched(
                SimTime::ZERO,
                blob,
                t % 2 == 0, // Half the fleet deploys from disk, half from memory.
                RetryPolicy::reconfig_default(),
                Some(per_run),
            )
            .expect("storm reconfiguration completes");
        TenantOutcome {
            tenant: t,
            digest: header.digest,
            ring_high_water: drv.completion_ring().high_water(),
            result,
        }
    });

    // Fingerprint every deterministic field, in tenant order.
    let mut h = Fnv64::new();
    for o in &outcomes {
        let r = &o.result;
        h.write_u64(o.tenant);
        h.write_u64(o.digest);
        h.write_u64(u64::from(r.runs));
        h.write_u64(u64::from(r.attempts));
        h.write_u64(u64::from(r.retried_runs));
        h.write_u64(u64::from(r.flips_detected));
        h.write_u64(u64::from(r.rejects));
        h.write_u64(r.timing.program_done.0);
        for c in &r.completions {
            h.write(&c.run.to_le_bytes());
            h.write(&c.attempt.to_le_bytes());
            h.write(&[status_code(c.status)]);
            h.write_u64(c.at.0);
        }
    }
    let fp = h.finish();

    let recovered = outcomes.iter().filter(|o| o.result.recovered).count();
    let flips: u32 = outcomes.iter().map(|o| o.result.flips_detected).sum();
    let retried: u32 = outcomes.iter().map(|o| o.result.retried_runs).sum();
    let makespan_ms = outcomes
        .iter()
        .map(|o| o.result.timing.program_done)
        .max()
        .expect("at least one tenant")
        .since(SimTime::ZERO)
        .as_millis_f64();
    let mean_total_ms = outcomes
        .iter()
        .map(|o| o.result.timing.total_latency.as_millis_f64())
        .sum::<f64>()
        / tenants as f64;
    let high_water = outcomes
        .iter()
        .map(|o| o.ring_high_water)
        .max()
        .expect("at least one tenant");
    let stats = cache.stats();

    let rows = vec![
        Row::new("storm", "tenants", tenants as f64)
            .with("images", images as f64)
            .with("runs/batch", outcomes[0].result.runs as f64),
        Row::new("shared cache", "hit rate %", stats.hit_rate() * 100.0)
            .with("validations", primed_misses as f64)
            .with("hits", stats.hits as f64),
        Row::new("faults", "flips detected", f64::from(flips))
            .with("runs retried", f64::from(retried))
            .with("tenants recovered", recovered as f64),
        Row::new("latency", "mean total ms", mean_total_ms)
            .with("makespan ms", makespan_ms)
            .with("ring high water", high_water as f64),
    ];
    ExperimentResult {
        id: "reconfig_storm".into(),
        title: "Concurrent tenant reconfigurations vs a shared bitstream cache".into(),
        rows,
        verdict: format!(
            "fingerprint {fp:016x}; {recovered} faulted tenants recovered by re-queueing \
             one run each; every non-priming deployment hit the shared cache"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_is_deterministic_across_repeat_runs() {
        let a = reconfig_storm();
        let b = reconfig_storm();
        assert_eq!(
            serde_json::to_vec_pretty(&a).expect("serializable"),
            serde_json::to_vec_pretty(&b).expect("serializable"),
            "repeat runs must be bit-identical"
        );
        assert!(a.verdict.contains("fingerprint"));
    }

    #[test]
    fn storm_recovers_every_faulted_tenant() {
        let r = reconfig_storm();
        let faults = r
            .rows
            .iter()
            .find(|row| row.label == "faults")
            .expect("faults row");
        let get = |name: &str| {
            faults
                .measured
                .iter()
                .find(|(m, _)| m == name)
                .map(|(_, v)| *v)
                .expect("metric present")
        };
        // 256 tenants: t % 8 == 3 -> 32 faulted, all recovered, one
        // retried run and one detected flip each.
        assert_eq!(get("flips detected"), 32.0);
        assert_eq!(get("runs retried"), 32.0);
        assert_eq!(get("tenants recovered"), 32.0);
    }
}
