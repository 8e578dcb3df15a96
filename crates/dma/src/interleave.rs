//! Fig. 8 (§6.3): the tenants sharing a PCIe direction are served one 4 KB
//! packet per round-robin turn, so each gets an equal share of the 12 GB/s
//! link and the cumulative rate stays flat. These tests drive
//! [`XdmaEngine`](crate::XdmaEngine) the way the figure does: equal jobs per
//! tenant, queued in one direction before service starts.

#[cfg(test)]
mod tests {
    use crate::{DmaJob, JobId, PacketDone, XdmaDir, XdmaEngine};
    use coyote_sim::time::Bandwidth;
    use coyote_sim::SimTime;

    const DIR: XdmaDir = XdmaDir::H2C;

    fn submit(e: &mut XdmaEngine, tenant: u8, len: u64) {
        let id = e.next_job_id();
        e.submit(DmaJob {
            id,
            dir: DIR,
            tenant,
            host_addr: 0,
            len,
        });
    }

    fn last_done(done: &[PacketDone], tenant: u8) -> SimTime {
        done.iter()
            .rfind(|p| p.job.tenant == tenant)
            .expect("tenant was served")
            .transfer
            .done
    }

    #[test]
    fn fair_split_between_two_tenants() {
        // Two tenants, each with 100 x 4 KB packets: both finish within one
        // packet time of each other, and each gets ~6 GB/s of the 12 GB/s
        // link.
        let mut e = XdmaEngine::new();
        submit(&mut e, 0, 100 * 4096);
        submit(&mut e, 1, 100 * 4096);
        let done = e.book_all(SimTime::ZERO, DIR);
        assert_eq!(done.len(), 200);
        let (a, b) = (last_done(&done, 0), last_done(&done, 1));
        let gap = a.saturating_since(b).max(b.saturating_since(a));
        let packet_time = Bandwidth::gbps(12).time_for(4096);
        assert!(gap <= packet_time, "tenants finish together (gap {gap})");
        let span = a.max(b).since(SimTime::ZERO);
        let per_tenant = coyote_sim::time::rate(100 * 4096, span);
        assert!(
            (per_tenant.as_gbps_f64() - 6.0).abs() < 0.1,
            "got {per_tenant:?}"
        );
    }

    #[test]
    fn cumulative_throughput_is_constant() {
        // Packetizing and arbitration add no overhead: the total rate equals
        // the link rate at 1, 2, 4 and 8 tenants (Fig. 8's flat cumulative
        // line).
        for tenants in [1u8, 2, 4, 8] {
            let mut e = XdmaEngine::new();
            for t in 0..tenants {
                submit(&mut e, t, 64 * 4096);
            }
            let done = e.book_all(SimTime::ZERO, DIR);
            let last = done.iter().map(|p| p.transfer.done).max().unwrap();
            let total = u64::from(tenants) * 64 * 4096;
            let rate = coyote_sim::time::rate(total, last.since(SimTime::ZERO));
            assert!(
                (rate.as_gbps_f64() - 12.0).abs() < 0.05,
                "{tenants} tenants: {rate:?}"
            );
        }
    }

    #[test]
    fn per_tenant_order_is_preserved() {
        // Two tenants, three jobs each: round-robin service interleaves the
        // tenants but keeps each tenant's packets in submission order.
        let mut e = XdmaEngine::new();
        for _ in 0..3 {
            submit(&mut e, 0, 3 * 4096);
            submit(&mut e, 1, 2 * 4096);
        }
        let done = e.book_all(SimTime::ZERO, DIR);
        assert_eq!(done.len(), 15);
        assert_ne!(done[0].job.tenant, done[1].job.tenant, "tenants interleave");
        for tenant in [0, 1] {
            let order: Vec<(JobId, u32)> = done
                .iter()
                .filter(|p| p.job.tenant == tenant)
                .map(|p| (p.job.id, p.packet.index))
                .collect();
            let mut sorted = order.clone();
            sorted.sort();
            assert_eq!(order, sorted, "tenant {tenant}");
        }
    }

    #[test]
    fn evict_drops_only_one_tenant() {
        // Evicting the middle of three tenants drops exactly its packets;
        // the other two book as if it had never submitted.
        let mut e = XdmaEngine::new();
        submit(&mut e, 0, 4096);
        submit(&mut e, 1, 2 * 4096);
        submit(&mut e, 2, 4096);
        e.evict_tenant(1);
        assert_eq!(e.pending(DIR), 2);
        let rest = e.book_all(SimTime::ZERO, DIR);
        let tenants: Vec<u8> = rest.iter().map(|p| p.job.tenant).collect();
        assert_eq!(tenants, [0, 2]);
        assert!(rest.iter().all(|p| p.job_done));

        let mut without = XdmaEngine::new();
        submit(&mut without, 0, 4096);
        submit(&mut without, 2, 4096);
        let expect = without.book_all(SimTime::ZERO, DIR);
        let timing = |done: &[PacketDone]| -> Vec<_> {
            done.iter().map(|p| (p.job.tenant, p.transfer)).collect()
        };
        assert_eq!(timing(&rest), timing(&expect));
    }
}
