//! The discrete-event engine: one event loop over per-domain shards.
//!
//! Events are boxed `FnOnce(&mut W, &mut ShardCtx<W>)` closures over a
//! caller-supplied world type `W`. The simulation mirrors the simulated
//! hardware: the shell is a set of concurrent domains (network stack, DMA
//! engines, reconfiguration fabric, scheduler), so a [`ShardedSimulation`]
//! is a set of *shards*, one per domain, each owning its own clock, world
//! and scheduling sequence. A topology with one shard and no links is the
//! plain serial engine.
//!
//! [`ShardedSimulation::run`] is a single loop that always executes the
//! globally smallest [`EventKey`] next. A cross-shard post goes straight
//! into the queue, addressed to its destination shard; the declared link
//! lookahead (see [`crate::window`]) only bounds how soon it may land.
//!
//! # Determinism
//!
//! * Every event carries a globally unique, scheduling-independent key
//!   `(time, priority, domain, target, origin shard, origin seq)`. Queue pops
//!   follow this total order, so same-instant events execute in canonical
//!   [`EventTag`] order. Events that tie on every declared field run in
//!   scheduling order.
//! * Each shard executes its own events in key order: a local event lands
//!   at or after the shard's clock, and a cross-shard post lands at or
//!   after `now + lookahead > now`, never at an instant the destination
//!   has already executed.
//! * The execution trace merges canonically ([`ShardTrace::merged`] mirrors
//!   `coyote_chaos::FaultTrace::merged`) and hashes with the same FNV-64
//!   scheme, so one `u64` fingerprint pins the whole run.

use std::collections::BinaryHeap;

use crate::hash::Fnv64;
use crate::time::{SimDuration, SimTime};
use crate::window::{ShardId, Topology};

/// The body of a shard event: runs against the shard's world and a context
/// that can schedule locally or post across shards.
pub type ShardEventFn<W> = Box<dyn FnOnce(&mut W, &mut ShardCtx<'_, W>)>;

/// Full determinism tagging for one event: the component it mutates, an
/// explicit same-instant priority, and the subsystem domain it belongs to.
///
/// Built fluently: `EventTag::target(7).priority(0).domain(DOMAIN_NET)`.
/// Every field is optional; what is declared is what the DES determinism
/// lint can audit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventTag {
    /// Component the event mutates.
    pub target: Option<u64>,
    /// Same-instant priority; lower runs first in intent.
    pub priority: Option<u8>,
    /// Subsystem domain (net, DMA, MMU, ...); lets the lint reason about
    /// ordering across targets that share state through one subsystem.
    pub domain: Option<u64>,
    /// Domain of the subsystem that *scheduled* the event, when it differs
    /// from `domain` — i.e. the event crossed a shard boundary. Set by the
    /// sharded engine on cross-shard posts; feeds the DS006 lookahead lint.
    pub src_domain: Option<u64>,
}

impl EventTag {
    /// Tag declaring only the mutated component.
    pub fn target(target: u64) -> EventTag {
        EventTag {
            target: Some(target),
            ..EventTag::default()
        }
    }

    /// Declare the same-instant priority.
    pub fn priority(mut self, priority: u8) -> EventTag {
        self.priority = Some(priority);
        self
    }

    /// Declare the subsystem domain.
    pub fn domain(mut self, domain: u64) -> EventTag {
        self.domain = Some(domain);
        self
    }

    /// Declare the scheduling-side domain (for events that cross a shard
    /// boundary; the sharded engine sets this automatically on posts).
    pub fn from_domain(mut self, src_domain: u64) -> EventTag {
        self.src_domain = Some(src_domain);
        self
    }
}

/// Why a cross-shard post (or a seed) was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostError {
    /// No shard owns the named domain.
    UnknownDomain(u64),
    /// The topology declares no link between the two shards' domains.
    NoLink {
        /// Source domain.
        src: u64,
        /// Destination domain.
        dst: u64,
    },
    /// The post's delay undercuts the declared link lookahead: the model
    /// makes something observable across the link faster than its declared
    /// minimum latency (the runtime twin of lint rule DS006).
    BelowLookahead {
        /// Source domain.
        src: u64,
        /// Destination domain.
        dst: u64,
        /// The offending delay.
        delay: SimDuration,
        /// The declared link lookahead.
        lookahead: SimDuration,
    },
}

impl std::fmt::Display for PostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PostError::UnknownDomain(d) => write!(f, "no shard owns domain {d:#x}"),
            PostError::NoLink { src, dst } => {
                write!(f, "no link declared from domain {src:#x} to {dst:#x}")
            }
            PostError::BelowLookahead {
                src,
                dst,
                delay,
                lookahead,
            } => write!(
                f,
                "cross-shard post {src:#x}->{dst:#x} with delay {delay} below the \
                 declared lookahead {lookahead}: faster than the link's declared \
                 minimum latency"
            ),
        }
    }
}

impl std::error::Error for PostError {}

/// The globally unique, scheduling-independent total order of events.
///
/// Same-instant events order by canonical [`EventTag`] fields (priority,
/// then domain, then target; undeclared fields sort last), then by origin
/// `(shard, seq)` — both assigned deterministically at scheduling time.
///
/// Public because it is the *address* of an event across runs: the
/// record/replay layer (`coyote-replay`) bisects two traces to the first
/// differing `EventKey`, and a divergence diagnosis names the event by
/// exactly these fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Execution instant.
    pub at: SimTime,
    /// Same-instant priority (`u8::MAX` when undeclared).
    pub priority: u8,
    /// Subsystem domain (`u64::MAX` when undeclared).
    pub domain: u64,
    /// Target component (`u64::MAX` when undeclared).
    pub target: u64,
    /// Shard that scheduled the event.
    pub origin: ShardId,
    /// Per-origin scheduling sequence number.
    pub origin_seq: u64,
}

impl EventKey {
    fn new(at: SimTime, tag: EventTag, origin: ShardId, origin_seq: u64) -> EventKey {
        EventKey {
            at,
            priority: tag.priority.unwrap_or(u8::MAX),
            domain: tag.domain.unwrap_or(u64::MAX),
            target: tag.target.unwrap_or(u64::MAX),
            origin,
            origin_seq,
        }
    }
}

struct Queued<W> {
    key: EventKey,
    /// Shard that executes the event.
    dst: ShardId,
    tag: EventTag,
    posted_at: SimTime,
    f: ShardEventFn<W>,
}

impl<W> PartialEq for Queued<W> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<W> Eq for Queued<W> {}
impl<W> PartialOrd for Queued<W> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Queued<W> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key pops first.
        // Keys are globally unique, so the pop sequence is independent of
        // insertion order.
        other.key.cmp(&self.key)
    }
}

/// One executed event, as recorded by a shard with tracing enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTraceEntry {
    /// Shard that executed the event.
    pub shard: ShardId,
    /// Simulated execution time (picoseconds).
    pub at_ps: u64,
    /// Declared subsystem domain (the owning shard's, for local events).
    pub domain: Option<u64>,
    /// Declared target component.
    pub target: Option<u64>,
    /// Declared same-instant priority.
    pub priority: Option<u8>,
    /// Domain of the shard that scheduled the event (differs from `domain`
    /// exactly for cross-shard posts).
    pub src_domain: Option<u64>,
    /// Simulated time the event was scheduled at (picoseconds).
    pub posted_at_ps: u64,
    /// Shard that scheduled the event.
    pub origin: ShardId,
    /// Per-origin scheduling sequence number.
    pub origin_seq: u64,
}

impl ShardTraceEntry {
    /// The event's [`EventKey`] — its globally unique, run-independent
    /// address. Two correct runs of the same workload produce the same key
    /// sequence; the replay bisector reports the first key where they
    /// don't.
    pub fn event_key(&self) -> EventKey {
        EventKey {
            at: SimTime(self.at_ps),
            priority: self.priority.unwrap_or(u8::MAX),
            domain: self.domain.unwrap_or(u64::MAX),
            target: self.target.unwrap_or(u64::MAX),
            origin: self.origin,
            origin_seq: self.origin_seq,
        }
    }

    /// Fold this entry's canonical field encoding into `h`: the per-entry
    /// step of [`ShardTrace::hash`], shared with the replay bisector's
    /// prefix hashes so the full-trace prefix equals the trace hash.
    #[inline]
    pub fn hash_into(&self, h: &mut Fnv64) {
        h.write_u64(self.shard as u64);
        h.write_u64(self.at_ps);
        h.write_u64(self.domain.unwrap_or(u64::MAX));
        h.write_u64(self.target.unwrap_or(u64::MAX));
        h.write_u64(self.priority.map_or(u64::MAX, u64::from));
        h.write_u64(self.src_domain.unwrap_or(u64::MAX));
        h.write_u64(self.posted_at_ps);
        h.write_u64(self.origin as u64);
        h.write_u64(self.origin_seq);
    }
}

/// An ordered execution record with a deterministic hash: the artifact the
/// determinism tests fingerprint, built by canonically merging per-shard
/// traces exactly like `coyote_chaos::FaultTrace::merged` merges fault
/// traces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardTrace {
    entries: Vec<ShardTraceEntry>,
}

impl ShardTrace {
    /// Merge per-shard traces into the canonical global record: entries
    /// sort by `(time, canonical tag order, origin)`, so the result is
    /// independent of the order the pieces were collected in.
    pub fn merged(traces: impl IntoIterator<Item = Vec<ShardTraceEntry>>) -> ShardTrace {
        let mut entries: Vec<ShardTraceEntry> = traces.into_iter().flatten().collect();
        entries.sort_by_key(ShardTraceEntry::event_key);
        ShardTrace { entries }
    }

    /// The merged entries, in canonical order.
    pub fn entries(&self) -> &[ShardTraceEntry] {
        &self.entries
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// [`Fnv64`] over each entry's canonical field encoding — the same hash
    /// as `coyote_chaos::FaultTrace::hash`, so CI can publish one number per
    /// run. Same seeds + same topology => same hash.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv64::new();
        for e in &self.entries {
            e.hash_into(&mut h);
        }
        h.finish()
    }
}

/// What a running event sees: the shard's clock, identity and scheduling
/// sequence, plus the event queue. Borrowed disjointly from the shard state
/// so the event also holds `&mut W`.
pub struct ShardCtx<'a, W> {
    now: SimTime,
    shard: ShardId,
    domain: u64,
    topo: &'a Topology,
    seq: &'a mut u64,
    queue: &'a mut BinaryHeap<Queued<W>>,
}

impl<W> ShardCtx<'_, W> {
    /// The shard's current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The executing shard's id.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// The executing shard's domain.
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// Queue `f` on shard `dst` at `at`, keyed by this shard's next
    /// scheduling sequence number.
    fn push(&mut self, dst: ShardId, at: SimTime, tag: EventTag, f: ShardEventFn<W>) {
        let origin_seq = *self.seq;
        *self.seq += 1;
        self.queue.push(Queued {
            key: EventKey::new(at, tag, self.shard, origin_seq),
            dst,
            tag,
            posted_at: self.now,
            f,
        });
    }

    /// Schedule a local event at absolute time `at`. The tag's domain
    /// defaults to the shard's own.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the shard's simulated past.
    pub fn schedule_at<F>(&mut self, at: SimTime, tag: EventTag, f: F)
    where
        F: FnOnce(&mut W, &mut ShardCtx<'_, W>) + 'static,
    {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let mut tag = tag;
        if tag.domain.is_none() {
            tag.domain = Some(self.domain);
        }
        self.push(self.shard, at, tag, Box::new(f));
    }

    /// Schedule a local event `delay` after now.
    pub fn schedule_after<F>(&mut self, delay: SimDuration, tag: EventTag, f: F)
    where
        F: FnOnce(&mut W, &mut ShardCtx<'_, W>) + 'static,
    {
        self.schedule_at(self.now + delay, tag, f);
    }

    /// Post an event to the shard owning `dst_domain`, arriving `delay`
    /// after now. The delay must be at least the declared link lookahead —
    /// anything shorter undercuts the link's declared minimum latency and is
    /// rejected (lint rule DS006 catches the same hazard in recorded
    /// traces).
    ///
    /// The tag's domain defaults to the destination domain; its
    /// `src_domain` is set to the posting shard's domain.
    pub fn post_after<F>(
        &mut self,
        dst_domain: u64,
        delay: SimDuration,
        tag: EventTag,
        f: F,
    ) -> Result<(), PostError>
    where
        F: FnOnce(&mut W, &mut ShardCtx<'_, W>) + 'static,
    {
        let dst = self
            .topo
            .shard_of_domain(dst_domain)
            .ok_or(PostError::UnknownDomain(dst_domain))?;
        if dst == self.shard {
            // Posting to the own domain degenerates to a local schedule.
            self.schedule_after(delay, tag, f);
            return Ok(());
        }
        let lookahead = self
            .topo
            .lookahead(self.shard, dst)
            .ok_or(PostError::NoLink {
                src: self.domain,
                dst: dst_domain,
            })?;
        if delay < lookahead {
            return Err(PostError::BelowLookahead {
                src: self.domain,
                dst: dst_domain,
                delay,
                lookahead,
            });
        }
        let mut tag = tag;
        if tag.domain.is_none() {
            tag.domain = Some(dst_domain);
        }
        tag.src_domain = Some(self.domain);
        self.push(dst, self.now + delay, tag, Box::new(f));
        Ok(())
    }
}

/// One shard: a domain's world, clock and scheduling sequence.
struct Shard<W> {
    domain: u64,
    now: SimTime,
    seq: u64,
    world: W,
}

/// A sharded simulation: one world, clock and scheduling sequence per
/// domain shard, advanced by one loop in global [`EventKey`] order. See the
/// module docs.
pub struct ShardedSimulation<W> {
    topo: Topology,
    shards: Vec<Shard<W>>,
    queue: BinaryHeap<Queued<W>>,
    record: bool,
    trace: Vec<ShardTraceEntry>,
    executed: u64,
}

impl<W> ShardedSimulation<W> {
    /// Build a sharded simulation over `topo`, with `worlds[i]` owned by
    /// shard `i`.
    ///
    /// # Panics
    ///
    /// Panics if the world count does not match the shard count.
    pub fn new(topo: Topology, worlds: Vec<W>) -> ShardedSimulation<W> {
        assert_eq!(
            worlds.len(),
            topo.len(),
            "one world per shard ({} shards, {} worlds)",
            topo.len(),
            worlds.len()
        );
        let shards = worlds
            .into_iter()
            .zip(topo.shards())
            .map(|(world, spec)| Shard {
                domain: spec.domain,
                now: SimTime::ZERO,
                seq: 0,
                world,
            })
            .collect();
        ShardedSimulation {
            topo,
            shards,
            queue: BinaryHeap::new(),
            record: false,
            trace: Vec::new(),
            executed: 0,
        }
    }

    /// The topology the simulation runs over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Start recording the execution trace.
    pub fn record_trace(&mut self) {
        self.record = true;
    }

    /// Seed an event onto the shard owning `domain` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in that shard's simulated past, exactly like
    /// [`ShardCtx::schedule_at`].
    pub fn seed<F>(
        &mut self,
        domain: u64,
        at: SimTime,
        tag: EventTag,
        f: F,
    ) -> Result<(), PostError>
    where
        F: FnOnce(&mut W, &mut ShardCtx<'_, W>) + 'static,
    {
        let id = self
            .topo
            .shard_of_domain(domain)
            .ok_or(PostError::UnknownDomain(domain))?;
        let shard = &mut self.shards[id];
        ShardCtx {
            now: shard.now,
            shard: id,
            domain,
            topo: &self.topo,
            seq: &mut shard.seq,
            queue: &mut self.queue,
        }
        .schedule_at(at, tag, f);
        Ok(())
    }

    /// The world of the shard owning `domain`.
    pub fn world_of(&self, domain: u64) -> Option<&W> {
        let id = self.topo.shard_of_domain(domain)?;
        Some(&self.shards[id].world)
    }

    /// Mutable access to the world of the shard owning `domain`.
    pub fn world_of_mut(&mut self, domain: u64) -> Option<&mut W> {
        let id = self.topo.shard_of_domain(domain)?;
        Some(&mut self.shards[id].world)
    }

    /// The latest simulated time any shard reached.
    pub fn now(&self) -> SimTime {
        self.shards
            .iter()
            .map(|s| s.now)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total events executed across all shards.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Take the canonically merged execution trace (empty unless
    /// [`ShardedSimulation::record_trace`] was called).
    pub fn take_trace(&mut self) -> ShardTrace {
        ShardTrace::merged([std::mem::take(&mut self.trace)])
    }

    /// Run to quiescence on the calling thread, always executing the
    /// globally smallest [`EventKey`] next; returns the final simulated
    /// time.
    pub fn run(&mut self) -> SimTime {
        while let Some(q) = self.queue.pop() {
            let shard = &mut self.shards[q.dst];
            shard.now = q.key.at;
            self.executed += 1;
            if self.record {
                self.trace.push(ShardTraceEntry {
                    shard: q.dst,
                    at_ps: q.key.at.as_ps(),
                    domain: q.tag.domain,
                    target: q.tag.target,
                    priority: q.tag.priority,
                    src_domain: q.tag.src_domain,
                    posted_at_ps: q.posted_at.as_ps(),
                    origin: q.key.origin,
                    origin_seq: q.key.origin_seq,
                });
            }
            let mut ctx = ShardCtx {
                now: shard.now,
                shard: q.dst,
                domain: shard.domain,
                topo: &self.topo,
                seq: &mut shard.seq,
                queue: &mut self.queue,
            };
            (q.f)(&mut shard.world, &mut ctx);
        }
        self.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::ShardSpec;

    /// Two shards ping-ponging a token; worlds count the hops.
    fn ping_pong_topology() -> Topology {
        let mut t = Topology::new();
        t.add_shard(ShardSpec {
            domain: 1,
            name: "a",
        })
        .unwrap();
        t.add_shard(ShardSpec {
            domain: 2,
            name: "b",
        })
        .unwrap();
        t.link(0, 1, SimDuration::from_ns(10)).unwrap();
        t.link(1, 0, SimDuration::from_ns(10)).unwrap();
        t
    }

    fn hop(hops_left: u32) -> impl FnOnce(&mut u64, &mut ShardCtx<'_, u64>) + 'static {
        move |w, ctx| {
            *w += 1;
            if hops_left > 0 {
                let dst = if ctx.domain() == 1 { 2 } else { 1 };
                ctx.post_after(
                    dst,
                    SimDuration::from_ns(10),
                    EventTag::default(),
                    hop(hops_left - 1),
                )
                .unwrap();
            }
        }
    }

    fn run_ping_pong() -> (u64, u64, u64, u64) {
        let mut sim = ShardedSimulation::new(ping_pong_topology(), vec![0u64, 0u64]);
        sim.record_trace();
        sim.seed(1, SimTime::ZERO, EventTag::default(), hop(20))
            .unwrap();
        let end = sim.run();
        (
            *sim.world_of(1).unwrap(),
            *sim.world_of(2).unwrap(),
            end.as_ps(),
            sim.take_trace().hash(),
        )
    }

    #[test]
    fn ping_pong_counts_hops_on_both_shards() {
        let (a, b, end, _) = run_ping_pong();
        assert_eq!(a + b, 21);
        assert_eq!(a, 11);
        assert_eq!(b, 10);
        assert_eq!(end, 20 * 10_000, "20 hops of 10ns each");
    }

    #[test]
    fn same_instant_cross_shard_events_follow_canonical_tag_order() {
        // Two posts arriving on shard b at the same instant, posted in
        // priority-inverted order: execution must follow the canonical
        // EventTag order (lower priority number first), not posting order.
        let mut sim = ShardedSimulation::new(ping_pong_topology(), vec![Vec::new(), Vec::new()]);
        sim.seed(
            1,
            SimTime::ZERO,
            EventTag::default(),
            |_w: &mut Vec<u8>, ctx| {
                ctx.post_after(
                    2,
                    SimDuration::from_ns(10),
                    EventTag::target(7).priority(1),
                    |w: &mut Vec<u8>, _| w.push(b'B'),
                )
                .unwrap();
                ctx.post_after(
                    2,
                    SimDuration::from_ns(10),
                    EventTag::target(7).priority(0),
                    |w: &mut Vec<u8>, _| w.push(b'A'),
                )
                .unwrap();
            },
        )
        .unwrap();
        sim.run();
        assert_eq!(sim.world_of(2).unwrap(), b"AB");
    }

    #[test]
    fn below_lookahead_post_is_rejected() {
        let mut sim = ShardedSimulation::new(ping_pong_topology(), vec![0u64, 0u64]);
        sim.seed(1, SimTime::ZERO, EventTag::default(), |_, ctx| {
            let err = ctx
                .post_after(2, SimDuration::from_ns(9), EventTag::default(), |_, _| {})
                .unwrap_err();
            assert_eq!(
                err,
                PostError::BelowLookahead {
                    src: 1,
                    dst: 2,
                    delay: SimDuration::from_ns(9),
                    lookahead: SimDuration::from_ns(10),
                }
            );
        })
        .unwrap();
        sim.run();
    }

    #[test]
    fn post_to_unlinked_or_unknown_domain_fails() {
        let mut t = ping_pong_topology();
        t.add_shard(ShardSpec {
            domain: 3,
            name: "c",
        })
        .unwrap();
        let mut sim = ShardedSimulation::new(t, vec![0u64, 0, 0]);
        sim.seed(1, SimTime::ZERO, EventTag::default(), |_, ctx| {
            assert_eq!(
                ctx.post_after(3, SimDuration::from_ns(1), EventTag::default(), |_, _| {}),
                Err(PostError::NoLink { src: 1, dst: 3 })
            );
            assert_eq!(
                ctx.post_after(9, SimDuration::from_ns(1), EventTag::default(), |_, _| {}),
                Err(PostError::UnknownDomain(9))
            );
        })
        .unwrap();
        sim.run();
    }

    #[test]
    fn local_events_honor_canonical_order_and_clock() {
        let mut sim = ShardedSimulation::new(ping_pong_topology(), vec![Vec::new(), Vec::new()]);
        sim.seed(
            1,
            SimTime::ZERO,
            EventTag::default(),
            |_w: &mut Vec<u32>, ctx| {
                let at = ctx.now() + SimDuration::from_ns(5);
                // Distinct priorities on one target: priority order.
                ctx.schedule_at(at, EventTag::target(1).priority(2), |w, _| w.push(2));
                ctx.schedule_at(at, EventTag::target(1).priority(1), |w, _| w.push(1));
                // Distinct targets, no priorities, inserted in reverse:
                // target order, whatever the insertion order.
                let at = at + SimDuration::from_ns(1);
                ctx.schedule_at(at, EventTag::target(9), |w, _| w.push(4));
                ctx.schedule_at(at, EventTag::target(8), |w, _| w.push(3));
                // Untagged ties: scheduling order.
                let at = at + SimDuration::from_ns(1);
                for i in 5..10 {
                    ctx.schedule_at(at, EventTag::default(), move |w, _| w.push(i));
                }
            },
        )
        .unwrap();
        let end = sim.run();
        assert_eq!(sim.world_of(1).unwrap(), &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(end.as_ps(), 7_000);
        assert!(sim.take_trace().is_empty(), "tracing is off by default");
    }

    #[test]
    fn trace_merge_is_canonical_and_hash_stable() {
        let mut sim = ShardedSimulation::new(ping_pong_topology(), vec![0u64, 0u64]);
        sim.record_trace();
        sim.seed(1, SimTime::ZERO, EventTag::default(), hop(6))
            .unwrap();
        sim.run();
        let trace = sim.take_trace();
        assert_eq!(trace.len(), 7);
        // Entries are in canonical (time-major) order.
        let times: Vec<u64> = trace.entries().iter().map(|e| e.at_ps).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        // Cross-shard entries carry their source domain.
        assert!(trace
            .entries()
            .iter()
            .skip(1)
            .all(|e| e.src_domain.is_some()));
        assert_ne!(trace.hash(), ShardTrace::default().hash());
    }

    /// Adversarial canonical-merge test: `ShardTrace::merged` may be fed
    /// pieces of a trace in any order. Permute the arrival order every way
    /// (including splitting one shard's entries across pieces) and assert
    /// the merged trace — entries and hash — never moves.
    #[test]
    fn merge_is_arrival_order_independent() {
        let mut sim = ShardedSimulation::new(ping_pong_topology(), vec![0u64, 0u64]);
        sim.record_trace();
        sim.seed(1, SimTime::ZERO, EventTag::default(), hop(12))
            .unwrap();
        sim.run();
        let canonical = sim.take_trace();
        assert_eq!(canonical.len(), 13);

        // Regroup the canonical entries by owning shard, then present the
        // pieces to merged() in every permutation and with one shard's
        // entries split into interleaved halves.
        let by_shard: Vec<Vec<ShardTraceEntry>> = (0..2)
            .map(|s| {
                canonical
                    .entries()
                    .iter()
                    .copied()
                    .filter(|e| e.shard == s)
                    .collect()
            })
            .collect();
        let a = by_shard[0].clone();
        let b = by_shard[1].clone();
        let (a_even, a_odd): (Vec<_>, Vec<_>) =
            a.iter().copied().enumerate().partition(|(i, _)| i % 2 == 0);
        let a_even: Vec<ShardTraceEntry> = a_even.into_iter().map(|(_, e)| e).collect();
        let a_odd: Vec<ShardTraceEntry> = a_odd.into_iter().map(|(_, e)| e).collect();
        let arrivals: Vec<Vec<Vec<ShardTraceEntry>>> = vec![
            vec![a.clone(), b.clone()],
            vec![b.clone(), a.clone()],
            vec![b.clone(), a_odd.clone(), a_even.clone()],
            vec![a_odd, b, a_even],
        ];
        for (i, pieces) in arrivals.into_iter().enumerate() {
            let merged = ShardTrace::merged(pieces);
            assert_eq!(merged, canonical, "arrival permutation {i}");
            assert_eq!(merged.hash(), canonical.hash(), "arrival permutation {i}");
        }
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        // After a run that ends at 100 ns, shard a's clock reads 100 ns; a
        // seed at 0 would run it backwards. (An event's own `schedule_at`
        // into the past is `engine::tests::scheduling_into_past_panics`.)
        let mut sim = ShardedSimulation::new(ping_pong_topology(), vec![0u64, 0u64]);
        sim.seed(1, SimTime(100_000), EventTag::default(), |_, _| {})
            .unwrap();
        assert_eq!(sim.run(), SimTime(100_000));
        let _ = sim.seed(1, SimTime::ZERO, EventTag::default(), |_, _| {});
    }
}
