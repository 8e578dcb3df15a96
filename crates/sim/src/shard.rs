//! The discrete-event engine: sharded, conservative and parallel.
//!
//! Events are boxed `FnOnce(&mut W, &mut ShardCtx<W>)` closures over a
//! caller-supplied world type `W`. The engine scales the way the simulated
//! hardware scales: the shell is a set of concurrent domains (network stack,
//! DMA engines, reconfiguration fabric, scheduler), so a simulation is a set
//! of [`ShardedSimulation`] *shards*, one per domain, each owning its own
//! event queue, clock and world. A topology with one shard and no links is
//! the plain serial engine: every round drains the whole queue.
//!
//! Synchronization is conservative (null-message style, see
//! [`crate::window`]): execution proceeds in rounds. Each round, every shard
//! reports its earliest pending event time; from those times and the
//! per-link lookaheads the engine computes a per-shard *horizon*, and each
//! shard executes — in parallel — every local event strictly below its
//! horizon. Cross-shard events are posted into a per-round outbox and
//! exchanged through bounded channels at the round barrier, so a shard never
//! observes a message out of its simulated past.
//!
//! # Determinism
//!
//! The engine is bit-identical for any worker count, including fully serial:
//!
//! * Every event carries a globally unique, scheduling-independent key
//!   `(time, priority, domain, target, origin shard, origin seq)`. Queue pops
//!   follow this total order, so same-instant events execute in canonical
//!   [`EventTag`] order — not in message-arrival order. Events that tie on
//!   every declared field run in scheduling order.
//! * Horizons are a pure function of next-event times and the declared
//!   topology; worker threads only decide *who executes a window*, never
//!   *what is in it*.
//! * The per-shard execution traces merge canonically ([`ShardTrace::merged`]
//!   mirrors `coyote_chaos::FaultTrace::merged`) and hash with the same
//!   FNV-64 scheme, so one `u64` fingerprint pins the whole run.
//!
//! Worker threads are spawned once per [`ShardedSimulation::run`] and parked
//! on their command channels between rounds — windows reuse the pool instead
//! of paying a spawn per synchronization step. Only the parallel path needs
//! `W: Send`; [`ShardedSimulation::run_serial`] runs any world on the
//! calling thread.

use std::collections::BinaryHeap;
use std::sync::mpsc;

use crate::hash::Fnv64;
use crate::par::thread_budget;
use crate::time::{SimDuration, SimTime};
use crate::window::{horizons, ShardId, Topology};

/// The body of a shard event: runs against the shard's world and a context
/// that can schedule locally or post across shards.
pub type ShardEventFn<W> = Box<dyn FnOnce(&mut W, &mut ShardCtx<'_, W>) + Send>;

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
    /// The post's delay undercuts the declared link lookahead — a causality
    /// violation the conservative window cannot order (the runtime twin of
    /// lint rule DS006).
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
                 declared lookahead {lookahead}: the conservative window cannot \
                 order it"
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
        // insertion order — message-arrival races cannot reorder execution.
        other.key.cmp(&self.key)
    }
}

/// A cross-shard event in flight: routed at the round barrier.
struct Posted<W> {
    dst: ShardId,
    at: SimTime,
    tag: EventTag,
    posted_at: SimTime,
    origin: ShardId,
    origin_seq: u64,
    f: ShardEventFn<W>,
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
    /// The canonical sort key: execution instant, then canonical tag order,
    /// then origin — the same order the engine executes in.
    fn canonical_key(&self) -> (u64, u8, u64, u64, ShardId, u64) {
        (
            self.at_ps,
            self.priority.unwrap_or(u8::MAX),
            self.domain.unwrap_or(u64::MAX),
            self.target.unwrap_or(u64::MAX),
            self.origin,
            self.origin_seq,
        )
    }

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
        entries.sort_by_key(ShardTraceEntry::canonical_key);
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
    /// run. Same seeds + same topology => same hash, on any worker count.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv64::new();
        for e in &self.entries {
            e.hash_into(&mut h);
        }
        h.finish()
    }
}

/// What a running event sees: the shard's clock, identity, queue and
/// outbox. Borrowed disjointly from the shard state so the event also holds
/// `&mut W`.
pub struct ShardCtx<'a, W> {
    now: SimTime,
    shard: ShardId,
    domain: u64,
    topo: &'a Topology,
    seq: &'a mut u64,
    queue: &'a mut BinaryHeap<Queued<W>>,
    outbox: &'a mut Vec<Posted<W>>,
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

    fn next_seq(&mut self) -> u64 {
        let s = *self.seq;
        *self.seq += 1;
        s
    }

    /// Schedule a local event at absolute time `at`. The tag's domain
    /// defaults to the shard's own.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the shard's simulated past.
    pub fn schedule_at<F>(&mut self, at: SimTime, tag: EventTag, f: F)
    where
        F: FnOnce(&mut W, &mut ShardCtx<'_, W>) + Send + 'static,
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
        let origin_seq = self.next_seq();
        self.queue.push(Queued {
            key: EventKey::new(at, tag, self.shard, origin_seq),
            tag,
            posted_at: self.now,
            f: Box::new(f),
        });
    }

    /// Schedule a local event `delay` after now.
    pub fn schedule_after<F>(&mut self, delay: SimDuration, tag: EventTag, f: F)
    where
        F: FnOnce(&mut W, &mut ShardCtx<'_, W>) + Send + 'static,
    {
        self.schedule_at(self.now + delay, tag, f);
    }

    /// Post an event to the shard owning `dst_domain`, arriving `delay`
    /// after now. The delay must be at least the declared link lookahead —
    /// anything shorter is a causality violation the conservative window
    /// cannot order, and is rejected (lint rule DS006 catches the same
    /// hazard in recorded traces).
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
        F: FnOnce(&mut W, &mut ShardCtx<'_, W>) + Send + 'static,
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
        let origin_seq = self.next_seq();
        self.outbox.push(Posted {
            dst,
            at: self.now + delay,
            tag,
            posted_at: self.now,
            origin: self.shard,
            origin_seq,
            f: Box::new(f),
        });
        Ok(())
    }
}

/// One shard: a domain's world, clock, queue and trace.
struct ShardState<W> {
    id: ShardId,
    domain: u64,
    now: SimTime,
    seq: u64,
    world: W,
    queue: BinaryHeap<Queued<W>>,
    record: bool,
    trace: Vec<ShardTraceEntry>,
    executed: u64,
}

impl<W> ShardState<W> {
    fn next_at(&self) -> Option<SimTime> {
        self.queue.peek().map(|q| q.key.at)
    }

    fn deliver(&mut self, p: Posted<W>) {
        self.queue.push(Queued {
            key: EventKey::new(p.at, p.tag, p.origin, p.origin_seq),
            tag: p.tag,
            posted_at: p.posted_at,
            f: p.f,
        });
    }

    /// Execute every queued event strictly below `horizon` (`None` =
    /// unbounded: drain the queue), collecting cross-shard posts.
    fn run_window(
        &mut self,
        topo: &Topology,
        horizon: Option<SimTime>,
        outbox: &mut Vec<Posted<W>>,
    ) {
        loop {
            let due = match self.queue.peek() {
                Some(q) => horizon.map_or(true, |h| q.key.at < h),
                None => false,
            };
            if !due {
                break;
            }
            let q = self.queue.pop().expect("peeked event exists");
            self.now = q.key.at;
            self.executed += 1;
            if self.record {
                self.trace.push(ShardTraceEntry {
                    shard: self.id,
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
                now: self.now,
                shard: self.id,
                domain: self.domain,
                topo,
                seq: &mut self.seq,
                queue: &mut self.queue,
                outbox,
            };
            (q.f)(&mut self.world, &mut ctx);
        }
    }
}

/// A round command from the coordinator to a worker.
enum Cmd<W> {
    /// Merge the deliveries, then run each owned shard's window up to its
    /// horizon and report back.
    Round {
        deliveries: Vec<Posted<W>>,
        horizons: Vec<(ShardId, Option<SimTime>)>,
    },
    /// Return the shard states and exit.
    Stop,
}

/// A worker's per-round report: the null messages (next-event promises)
/// plus the outbox of cross-shard posts.
struct Report<W> {
    next: Vec<(ShardId, Option<SimTime>)>,
    outbox: Vec<Posted<W>>,
}

/// A sharded simulation: one world, queue and clock per domain shard,
/// advanced in conservative windows. See the module docs.
pub struct ShardedSimulation<W> {
    topo: Topology,
    shards: Vec<ShardState<W>>,
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
            .enumerate()
            .map(|(id, world)| ShardState {
                id,
                domain: topo.shards()[id].domain,
                now: SimTime::ZERO,
                seq: 0,
                world,
                queue: BinaryHeap::new(),
                record: false,
                trace: Vec::new(),
                executed: 0,
            })
            .collect();
        ShardedSimulation { topo, shards }
    }

    /// The topology the simulation runs over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Start recording the execution trace on every shard.
    pub fn record_trace(&mut self) {
        for s in &mut self.shards {
            s.record = true;
        }
    }

    /// Seed an event onto the shard owning `domain` at absolute time `at`.
    pub fn seed<F>(
        &mut self,
        domain: u64,
        at: SimTime,
        tag: EventTag,
        f: F,
    ) -> Result<(), PostError>
    where
        F: FnOnce(&mut W, &mut ShardCtx<'_, W>) + Send + 'static,
    {
        let id = self
            .topo
            .shard_of_domain(domain)
            .ok_or(PostError::UnknownDomain(domain))?;
        let shard = &mut self.shards[id];
        let mut tag = tag;
        if tag.domain.is_none() {
            tag.domain = Some(domain);
        }
        let origin_seq = shard.seq;
        shard.seq += 1;
        shard.queue.push(Queued {
            key: EventKey::new(at, tag, id, origin_seq),
            tag,
            posted_at: shard.now,
            f: Box::new(f),
        });
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
        self.shards.iter().map(|s| s.executed).sum()
    }

    /// Take the canonically merged execution trace (empty unless
    /// [`ShardedSimulation::record_trace`] was called).
    pub fn take_trace(&mut self) -> ShardTrace {
        ShardTrace::merged(self.shards.iter_mut().map(|s| std::mem::take(&mut s.trace)))
    }

    /// Run to quiescence on the calling thread; returns the final simulated
    /// time. The serial reference loop: same rounds, same horizons, same
    /// delivery barrier as [`ShardedSimulation::run`] — just one thread
    /// visiting shards in id order. Worlds need not be `Send`.
    pub fn run_serial(&mut self) -> SimTime {
        let mut inflight: Vec<Posted<W>> = Vec::new();
        loop {
            // Deliver the previous round's cross-shard posts, then compute
            // the null-message horizons from the post-delivery queues.
            for p in inflight.drain(..) {
                self.shards[p.dst].deliver(p);
            }
            let next: Vec<Option<SimTime>> = self.shards.iter().map(ShardState::next_at).collect();
            if next.iter().all(Option::is_none) {
                break;
            }
            let hz = horizons(&self.topo, &next);
            for s in &mut self.shards {
                s.run_window(&self.topo, hz[s.id], &mut inflight);
            }
        }
        self.now()
    }
}

impl<W: Send> ShardedSimulation<W> {
    /// Run to quiescence on [`thread_budget`] workers; returns the final
    /// simulated time.
    pub fn run(&mut self) -> SimTime {
        self.run_with_workers(thread_budget())
    }

    /// Run to quiescence on exactly `workers` worker threads (clamped to
    /// the shard count; `1` runs fully serial on the calling thread). The
    /// results, traces and fingerprints are bit-identical for any value.
    pub fn run_with_workers(&mut self, workers: usize) -> SimTime {
        let workers = workers.clamp(1, self.shards.len().max(1));
        if workers <= 1 || self.shards.len() <= 1 {
            self.run_serial()
        } else {
            self.run_parallel(workers);
            self.now()
        }
    }

    /// The parallel loop: the same rounds, with shard windows executed by a
    /// pool of workers spawned once and reused across every round.
    fn run_parallel(&mut self, workers: usize) {
        let nshards = self.shards.len();
        let mut per_worker: Vec<Vec<ShardState<W>>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, s) in std::mem::take(&mut self.shards).into_iter().enumerate() {
            per_worker[i % workers].push(s);
        }
        let topo = &self.topo;

        // detlint: allow(SRC006): the sharded engine's sanctioned pool — the
        // round barrier and canonical event keys make the merge order-free.
        let finished: Vec<ShardState<W>> = std::thread::scope(|scope| {
            let (report_tx, report_rx) = mpsc::sync_channel::<Report<W>>(workers);
            let (done_tx, done_rx) = mpsc::sync_channel::<Vec<ShardState<W>>>(workers);
            let mut cmd_txs = Vec::with_capacity(workers);
            for mut states in per_worker {
                // Bounded rendezvous: at most one in-flight round per worker.
                let (cmd_tx, cmd_rx) = mpsc::sync_channel::<Cmd<W>>(1);
                cmd_txs.push(cmd_tx);
                let report_tx = report_tx.clone();
                let done_tx = done_tx.clone();
                // detlint: allow(SRC006): worker of the sanctioned shard pool.
                scope.spawn(move || {
                    // Initial null messages so the coordinator can open the
                    // first window.
                    let initial = Report {
                        next: states.iter().map(|s| (s.id, s.next_at())).collect(),
                        outbox: Vec::new(),
                    };
                    report_tx.send(initial).expect("coordinator alive");
                    while let Ok(cmd) = cmd_rx.recv() {
                        match cmd {
                            Cmd::Round {
                                deliveries,
                                horizons: hz,
                            } => {
                                for p in deliveries {
                                    let s = states
                                        .iter_mut()
                                        .find(|s| s.id == p.dst)
                                        .expect("delivery routed to owning worker");
                                    s.deliver(p);
                                }
                                let mut outbox = Vec::new();
                                for s in &mut states {
                                    let h = hz
                                        .iter()
                                        .find(|(id, _)| *id == s.id)
                                        .map(|&(_, h)| h)
                                        .expect("horizon for every owned shard");
                                    s.run_window(topo, h, &mut outbox);
                                }
                                let report = Report {
                                    next: states.iter().map(|s| (s.id, s.next_at())).collect(),
                                    outbox,
                                };
                                report_tx.send(report).expect("coordinator alive");
                            }
                            Cmd::Stop => break,
                        }
                    }
                    done_tx.send(states).expect("coordinator alive");
                });
            }
            drop(report_tx);
            drop(done_tx);

            let mut next: Vec<Option<SimTime>> = vec![None; nshards];
            let mut inflight: Vec<Vec<Posted<W>>> = (0..nshards).map(|_| Vec::new()).collect();
            for _ in 0..workers {
                let r = report_rx.recv().expect("initial report");
                for (id, n) in r.next {
                    next[id] = n;
                }
            }
            loop {
                // Fold undelivered posts into the next-event promises: a
                // message in flight is a known future event on its target.
                let mut eff = next.clone();
                for (dst, msgs) in inflight.iter().enumerate() {
                    for m in msgs {
                        eff[dst] = Some(match eff[dst] {
                            Some(cur) => cur.min(m.at),
                            None => m.at,
                        });
                    }
                }
                if eff.iter().all(Option::is_none) {
                    break;
                }
                let hz = horizons(topo, &eff);
                for (w, cmd_tx) in cmd_txs.iter().enumerate() {
                    let mut deliveries = Vec::new();
                    let mut worker_hz = Vec::new();
                    for id in (w..nshards).step_by(workers) {
                        deliveries.append(&mut inflight[id]);
                        worker_hz.push((id, hz[id]));
                    }
                    cmd_tx
                        .send(Cmd::Round {
                            deliveries,
                            horizons: worker_hz,
                        })
                        .expect("worker alive");
                }
                for _ in 0..workers {
                    let r = report_rx.recv().expect("round report");
                    for (id, n) in r.next {
                        next[id] = n;
                    }
                    for p in r.outbox {
                        inflight[p.dst].push(p);
                    }
                }
            }
            for cmd_tx in &cmd_txs {
                cmd_tx.send(Cmd::Stop).expect("worker alive");
            }
            let mut finished = Vec::with_capacity(nshards);
            for _ in 0..workers {
                finished.extend(done_rx.recv().expect("worker states"));
            }
            finished
        });

        self.shards = finished;
        self.shards.sort_by_key(|s| s.id);
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

    fn hop(hops_left: u32) -> impl FnOnce(&mut u64, &mut ShardCtx<'_, u64>) + Send + 'static {
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

    fn run_ping_pong(workers: usize) -> (u64, u64, u64, u64) {
        let mut sim = ShardedSimulation::new(ping_pong_topology(), vec![0u64, 0u64]);
        sim.record_trace();
        sim.seed(1, SimTime::ZERO, EventTag::default(), hop(20))
            .unwrap();
        let end = sim.run_with_workers(workers);
        (
            *sim.world_of(1).unwrap(),
            *sim.world_of(2).unwrap(),
            end.as_ps(),
            sim.take_trace().hash(),
        )
    }

    #[test]
    fn ping_pong_counts_hops_on_both_shards() {
        let (a, b, end, _) = run_ping_pong(1);
        assert_eq!(a + b, 21);
        assert_eq!(a, 11);
        assert_eq!(b, 10);
        assert_eq!(end, 20 * 10_000, "20 hops of 10ns each");
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let serial = run_ping_pong(1);
        for workers in [2, 4, 8] {
            assert_eq!(run_ping_pong(workers), serial, "workers={workers}");
        }
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
        sim.run_with_workers(2);
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
        sim.run_with_workers(1);
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
        sim.run_with_workers(1);
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
        let end = sim.run_serial();
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
        sim.run_with_workers(2);
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

    /// Adversarial canonical-merge test: `FaultTrace::merged`'s ordering is
    /// pinned by unit tests, but the shard engine's round-barrier merge
    /// feeds `ShardTrace::merged` with per-shard vectors in whatever order
    /// workers report. Permute the arrival order every way (including
    /// splitting one shard's entries across pieces, as multiple rounds do)
    /// and assert the merged trace — entries and hash — never moves.
    #[test]
    fn merge_is_arrival_order_independent() {
        let mut sim = ShardedSimulation::new(ping_pong_topology(), vec![0u64, 0u64]);
        sim.record_trace();
        sim.seed(1, SimTime::ZERO, EventTag::default(), hop(12))
            .unwrap();
        sim.run_with_workers(2);
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
        let mut sim = ShardedSimulation::new(ping_pong_topology(), vec![0u64, 0u64]);
        sim.seed(
            1,
            SimTime::ZERO + SimDuration::from_ns(10),
            EventTag::default(),
            |_, ctx| {
                ctx.schedule_at(SimTime::ZERO, EventTag::default(), |_, _| {});
            },
        )
        .unwrap();
        sim.run_with_workers(1);
    }
}
