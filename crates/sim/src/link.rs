//! Bandwidth-serialized link models.
//!
//! A [`LinkModel`] represents a transmission resource that serializes data at
//! a fixed rate and then delivers it after a fixed propagation latency. It is
//! the workhorse of the platform model: the PCIe/XDMA host link, every HBM
//! pseudo-channel, the 100G Ethernet ports, the ICAP configuration port and
//! even the disk used to load partial bitstreams (Table 3 of the paper) are
//! all `LinkModel`s with different constants.
//!
//! The model is *analytic*: a call to [`LinkModel::transmit`] books the
//! next free slot on the link and returns the precise start/end/arrival
//! instants, which the caller threads through its own clock. Booked slots
//! are strictly FIFO, matching the in-order guarantee that AXI and PCIe
//! provide per channel.

use crate::time::{Bandwidth, SimDuration, SimTime};

/// Timing of one transfer booked on a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// When serialization onto the link begins.
    pub start: SimTime,
    /// When the last byte has been serialized (the link becomes free).
    pub done: SimTime,
    /// When the data is visible at the far end (`done` + latency).
    pub arrival: SimTime,
}

/// A bandwidth-limited, fixed-latency, work-conserving FIFO link.
#[derive(Debug, Clone)]
pub struct LinkModel {
    bandwidth: Bandwidth,
    latency: SimDuration,
    busy_until: SimTime,
    /// Total bytes ever booked, for utilization accounting.
    bytes_total: u64,
}

impl LinkModel {
    /// A link with the given serialization rate and propagation latency.
    pub fn new(bandwidth: Bandwidth, latency: SimDuration) -> Self {
        LinkModel {
            bandwidth,
            latency,
            busy_until: SimTime::ZERO,
            bytes_total: 0,
        }
    }

    /// The configured serialization rate.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// The configured propagation latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// The instant at which the link next becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Book `bytes` on the link at or after `now`; returns the timing.
    ///
    /// The link is occupied from `start` to `done`; subsequent transfers
    /// queue behind it (FIFO).
    pub fn transmit(&mut self, now: SimTime, bytes: u64) -> Transfer {
        let start = self.busy_until.max(now);
        let done = start + self.bandwidth.time_for(bytes);
        self.busy_until = done;
        self.bytes_total += bytes;
        Transfer {
            start,
            done,
            arrival: done + self.latency,
        }
    }

    /// Total bytes booked over the lifetime of the link.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Freq;

    #[test]
    fn single_transfer_timing() {
        let mut link = LinkModel::new(Bandwidth::gbps(1), SimDuration::from_ns(100));
        let t = link.transmit(SimTime::ZERO, 1000);
        assert_eq!(t.start, SimTime::ZERO);
        assert_eq!(t.done, SimTime::ZERO + SimDuration::from_ns(1000));
        assert_eq!(t.arrival, SimTime::ZERO + SimDuration::from_ns(1100));
    }

    #[test]
    fn transfers_serialize_fifo() {
        let mut link = LinkModel::new(Bandwidth::gbps(1), SimDuration::ZERO);
        let a = link.transmit(SimTime::ZERO, 500);
        let b = link.transmit(SimTime::ZERO, 500);
        assert_eq!(b.start, a.done, "second transfer queues behind the first");
        assert_eq!(b.done.since(SimTime::ZERO), SimDuration::from_ns(1000));
    }

    #[test]
    fn idle_gap_is_not_compressed() {
        // The link is work-conserving but cannot run ahead of `now`.
        let mut link = LinkModel::new(Bandwidth::gbps(1), SimDuration::ZERO);
        link.transmit(SimTime::ZERO, 100);
        let later = SimTime::ZERO + SimDuration::from_us(1);
        let t = link.transmit(later, 100);
        assert_eq!(t.start, later);
    }

    #[test]
    fn icap_rate_matches_table2() {
        // Coyote v2's ICAP controller achieves ~800 MB/s (Table 2): a 40 MB
        // partial bitstream should take ~50 ms.
        let mut icap = LinkModel::new(Bandwidth::mbps(800), SimDuration::ZERO);
        let t = icap.transmit(SimTime::ZERO, 40_000_000);
        assert!((t.done.since(SimTime::ZERO).as_millis_f64() - 50.0).abs() < 0.01);
    }

    #[test]
    fn achieved_rate_tracks_utilization() {
        let mut link = LinkModel::new(Bandwidth::gbps(10), SimDuration::ZERO);
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            let t = link.transmit(now, 4096);
            now = t.done;
        }
        let rate = crate::time::rate(link.bytes_total(), now.since(SimTime::ZERO));
        assert!((rate.as_gbps_f64() - 10.0).abs() < 0.01, "got {rate:?}");
        assert_eq!(link.bytes_total(), 409_600);
    }

    #[test]
    fn hbm_channel_beat_rate() {
        // One HBM pseudo-channel modeled at 14.4 GB/s: a 4 KB packet should
        // serialize in ~284 ns, about 71 cycles of the 250 MHz system clock.
        let mut ch = LinkModel::new(Bandwidth::bytes_per_sec(14_400_000_000), SimDuration::ZERO);
        let t = ch.transmit(SimTime::ZERO, 4096);
        let cycles = t.done.since(SimTime::ZERO).as_ps() / Freq::mhz(250).period().as_ps();
        assert!((70..=72).contains(&cycles), "got {cycles} cycles");
    }
}
