//! The typed platform resource graph.
//!
//! Every input `coyote-lint` already parses in isolation — the shell
//! configuration, the QP transport contract, the reconfiguration control
//! plane, the MMU geometry, the scheduler's crediting — is joined here
//! into one graph of resources and the relations between them. The
//! cross-layer rule families (WF, CAP, ISO) then run on the *graph*, so a
//! deadlock that spans the driver's completion ring and the scheduler's
//! doorbell wait, or an isolation leak that spans a tenant's streams and a
//! neighbour's credit pool, is visible as a structural property instead of
//! a hand-written pair check.
//!
//! Soundness stance: the graph is an over-approximation. An edge is added
//! whenever the configuration *permits* the hold or wait, not only when a
//! workload is known to exercise it — so the WF/ISO deny rules may refuse
//! a config no real workload would wedge, but never pass one that a legal
//! workload can.

use crate::diag::{Diagnostic, Location, Report, Severity};
use crate::shellspec::ShellSpec;
use coyote_mmu::MmuConfig;
use coyote_sim::params::DEFAULT_STREAM_CREDITS;
use std::collections::BTreeMap;

/// What a node models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A partially reconfigurable vFPGA region.
    VfpgaRegion,
    /// A bounded queue (doorbell, RDMA window).
    Queue,
    /// A completion/writeback ring.
    Ring,
    /// A scheduler credit pool.
    CreditPool,
    /// A DMA stream channel.
    DmaChannel,
    /// An RDMA queue pair.
    Qp,
    /// A TLB of the MMU.
    Tlb,
    /// A shared shell service (host streaming, memory, networking, sniffer).
    Service,
    /// An active party: software, the ICAP engine, the RDMA sender/ACK path.
    Actor,
}

impl NodeKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            NodeKind::VfpgaRegion => "vfpga-region",
            NodeKind::Queue => "queue",
            NodeKind::Ring => "ring",
            NodeKind::CreditPool => "credit-pool",
            NodeKind::DmaChannel => "dma-channel",
            NodeKind::Qp => "qp",
            NodeKind::Tlb => "tlb",
            NodeKind::Service => "service",
            NodeKind::Actor => "actor",
        }
    }
}

/// What an edge asserts about its endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// `from` holds `to` (a resource) while doing something else.
    Holds,
    /// `from` cannot proceed until `to` frees up / completes.
    WaitsOn,
    /// Data flows from `from` into `to`.
    Feeds,
    /// `from` is translated/registered onto `to`.
    MapsTo,
    /// `from` belongs to tenant `to` (the owner is also recorded on the
    /// node for O(1) lookups; the edge keeps the relation printable).
    OwnedBy,
}

impl EdgeKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::Holds => "holds",
            EdgeKind::WaitsOn => "waits-on",
            EdgeKind::Feeds => "feeds",
            EdgeKind::MapsTo => "maps-to",
            EdgeKind::OwnedBy => "owned-by",
        }
    }
}

/// One resource or actor.
#[derive(Debug, Clone)]
pub struct Node {
    /// Stable identifier within the graph (`vfpga(0)`, `reconfig.ring`).
    pub id: String,
    /// What the node models.
    pub kind: NodeKind,
    /// Bounded capacity, when the resource has one (ring slots, window
    /// depth, credits). `Some(0)` is a resource nothing can ever acquire.
    pub capacity: Option<u64>,
    /// Owning tenant, when the platform section assigns one.
    pub owner: Option<String>,
    /// False for a node another declaration *references* but this shell
    /// never instantiates (a QP without the networking service, card
    /// streams without memory channels): waits on it are orphaned (WF003).
    pub instantiated: bool,
}

/// One relation.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Source node index.
    pub from: usize,
    /// Target node index.
    pub to: usize,
    /// What the edge asserts.
    pub kind: EdgeKind,
    /// Why the relation exists, printed in diagnostics.
    pub why: String,
}

/// The joined resource graph of one shell deployment.
#[derive(Debug, Clone)]
pub struct PlatformGraph {
    unit: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    index: BTreeMap<String, usize>,
}

impl PlatformGraph {
    /// An empty graph for `unit` (diagnostic location prefix).
    pub fn new(unit: impl Into<String>) -> PlatformGraph {
        PlatformGraph {
            unit: unit.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    /// The diagnostic unit (`platform:<shell name>`).
    pub fn unit(&self) -> &str {
        &self.unit
    }

    /// Add (or find) a node; ids are unique.
    pub fn node(&mut self, id: impl Into<String>, kind: NodeKind) -> usize {
        let id = id.into();
        if let Some(&i) = self.index.get(&id) {
            return i;
        }
        let i = self.nodes.len();
        self.index.insert(id.clone(), i);
        self.nodes.push(Node {
            id,
            kind,
            capacity: None,
            owner: None,
            instantiated: true,
        });
        i
    }

    /// Set a node's bounded capacity.
    pub fn set_capacity(&mut self, node: usize, capacity: u64) {
        self.nodes[node].capacity = Some(capacity);
    }

    /// Mark a node as referenced-but-never-instantiated.
    pub fn set_missing(&mut self, node: usize) {
        self.nodes[node].instantiated = false;
    }

    /// Assign a node to a tenant.
    pub fn set_owner(&mut self, node: usize, tenant: &str) {
        self.nodes[node].owner = Some(tenant.to_string());
    }

    /// Add an edge.
    pub fn edge(&mut self, from: usize, to: usize, kind: EdgeKind, why: impl Into<String>) {
        self.edges.push(Edge {
            from,
            to,
            kind,
            why: why.into(),
        });
    }

    /// All nodes, in insertion order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All edges, in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Look a node up by id.
    pub fn find(&self, id: &str) -> Option<usize> {
        self.index.get(id).copied()
    }

    /// Every edge of one kind.
    pub fn edges_of(&self, kind: EdgeKind) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.kind == kind)
    }

    /// BFS over `kinds` edges from `start`; returns, per reached node, the
    /// node path from `start` (inclusive). Paths are shortest-first and
    /// deterministic (edge insertion order breaks ties).
    pub fn reach(&self, start: usize, kinds: &[EdgeKind]) -> Vec<(usize, Vec<usize>)> {
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut seen = vec![false; self.nodes.len()];
        seen[start] = true;
        let mut queue = std::collections::VecDeque::from([start]);
        let mut out = Vec::new();
        while let Some(n) = queue.pop_front() {
            for e in &self.edges {
                if e.from == n && kinds.contains(&e.kind) && !seen[e.to] {
                    seen[e.to] = true;
                    parent[e.to] = Some(n);
                    let mut path = vec![e.to];
                    let mut cur = n;
                    loop {
                        path.push(cur);
                        match parent[cur] {
                            Some(p) => cur = p,
                            None => break,
                        }
                    }
                    path.reverse();
                    out.push((e.to, path));
                    queue.push_back(e.to);
                }
            }
        }
        out
    }
}

/// The shell services a tenant may reference by name.
pub(crate) const SERVICE_NAMES: [&str; 4] = ["host", "mem", "net", "sniffer"];

fn loc(unit: &str, path: &str) -> Location {
    Location::new(unit.to_string(), path.to_string())
}

/// Build the platform graph a shell spec implies, joining the shell
/// configuration, reconfiguration control plane, crediting, MMU, QP
/// contract and the optional multi-tenant `platform` section. Graph
/// construction problems (PG001 structural conflicts, PG002 dangling
/// references) are reported alongside the best-effort graph.
pub fn build_platform_graph(spec: &ShellSpec) -> (PlatformGraph, Report) {
    let unit = format!("platform:{}", spec.name);
    let mut g = PlatformGraph::new(&unit);
    let mut report = Report::new();

    // Saturate like `ShellSpec::to_shell_config`: CF005 reports an absurd
    // count, and the graph must not allocate a node per claimed region.
    let n_vfpgas = usize::from(u8::try_from(spec.n_vfpgas).unwrap_or(u8::MAX));

    // --- Reconfiguration control plane (driver facts) ------------------
    let software = g.node("software", NodeKind::Actor);
    let doorbell = g.node("reconfig.doorbell", NodeKind::Queue);
    let engine = g.node("reconfig.engine", NodeKind::Actor);
    let ring = g.node("reconfig.ring", NodeKind::Ring);

    let facts = spec.ring_wait_facts();
    g.set_capacity(ring, facts.slots as u64);
    g.set_capacity(doorbell, facts.concurrent as u64);
    g.edge(
        software,
        doorbell,
        EdgeKind::WaitsOn,
        "software blocks until the doorbell's batch completion count is reached",
    );
    g.edge(
        doorbell,
        engine,
        EdgeKind::WaitsOn,
        "the doorbell count advances only as the engine finishes runs",
    );
    g.edge(
        engine,
        ring,
        EdgeKind::Feeds,
        "the engine writes one completion record per finished run",
    );
    g.edge(
        ring,
        software,
        EdgeKind::WaitsOn,
        "ring slots free only when software reaps — after its doorbell wait returns",
    );
    if facts.engine_waits_on_ring() {
        g.edge(
            engine,
            ring,
            EdgeKind::WaitsOn,
            format!(
                "{} concurrent batch(es) of {} runs need {required} completion slots but the \
                 ring holds {}; fix: raise reconfig.ring_slots to at least {required}, or lower \
                 reconfig.max_batch_runs or reconfig.max_concurrent",
                facts.concurrent,
                facts.max_batch,
                facts.slots,
                required = facts.required_slots(),
            ),
        );
    }

    // --- Shared services ------------------------------------------------
    let svc_host = g.node("svc.host", NodeKind::Service);
    let svc_mem = g.node("svc.mem", NodeKind::Service);
    let svc_net = g.node("svc.net", NodeKind::Service);
    let svc_sniffer = g.node("svc.sniffer", NodeKind::Service);
    if spec.memory_channels > 0 {
        g.set_capacity(svc_mem, spec.memory_channels);
    } else {
        g.set_missing(svc_mem);
    }
    if !spec.networking {
        g.set_missing(svc_net);
    }
    if !spec.sniffer {
        g.set_missing(svc_sniffer);
    }

    // --- MMU ------------------------------------------------------------
    let mmu = spec
        .mmu
        .as_ref()
        .and_then(|m| {
            Some(MmuConfig {
                stlb: m.stlb.to_config().ok()?,
                ltlb: m.ltlb.to_config().ok()?,
            })
        })
        .unwrap_or_else(MmuConfig::default_2m);
    let stlb = g.node("mmu.stlb", NodeKind::Tlb);
    let ltlb = g.node("mmu.ltlb", NodeKind::Tlb);
    g.set_capacity(stlb, mmu.stlb.entries() as u64);
    g.set_capacity(ltlb, mmu.ltlb.entries() as u64);

    // --- Per-vFPGA plumbing: DMA channel, credit pool, TLB mapping ------
    let credits = spec
        .platform
        .as_ref()
        .and_then(|p| p.stream_credits)
        .unwrap_or(DEFAULT_STREAM_CREDITS);
    for i in 0..n_vfpgas {
        let vf = g.node(format!("vfpga({i})"), NodeKind::VfpgaRegion);
        let dma = g.node(format!("dma.host({i})"), NodeKind::DmaChannel);
        let pool = g.node(format!("credits.host({i})"), NodeKind::CreditPool);
        g.set_capacity(pool, credits);
        g.edge(
            svc_host,
            dma,
            EdgeKind::Feeds,
            "host streams enter via XDMA",
        );
        g.edge(
            dma,
            vf,
            EdgeKind::Feeds,
            "host stream delivers into the region",
        );
        g.edge(
            vf,
            pool,
            EdgeKind::WaitsOn,
            "every data request acquires a stream credit before issue",
        );
        g.edge(
            vf,
            pool,
            EdgeKind::Holds,
            "in-flight requests hold their credits until completion",
        );
        g.edge(
            vf,
            stlb,
            EdgeKind::MapsTo,
            "small pages translate via the sTLB",
        );
        g.edge(
            vf,
            ltlb,
            EdgeKind::MapsTo,
            "huge pages translate via the lTLB",
        );
        if spec.memory_channels > 0 {
            g.edge(
                svc_mem,
                vf,
                EdgeKind::Feeds,
                "card memory striped over the channels",
            );
        }
    }

    // Card streams declared against a shell whose memory service is never
    // instantiated: an orphaned wait (WF003).
    if spec.n_card_streams > 0 && spec.memory_channels == 0 {
        let card = g.node("dma.card", NodeKind::DmaChannel);
        g.edge(
            card,
            svc_mem,
            EdgeKind::WaitsOn,
            format!(
                "{} card streams drain the memory service, but memory_channels = 0 never \
                 instantiates it",
                spec.n_card_streams
            ),
        );
    }

    // --- RDMA transport (QP contract + runtime QP facts) ----------------
    if let Some(q) = &spec.qp {
        let qp = g.node("rdma.qp", NodeKind::Qp);
        let sender = g.node("rdma.sender", NodeKind::Actor);
        let window = g.node("rdma.window", NodeKind::Queue);
        let ack = g.node("rdma.ack", NodeKind::Actor);
        g.set_capacity(window, q.window);
        g.edge(
            qp,
            svc_net,
            EdgeKind::MapsTo,
            "the QP registers on the RoCE stack",
        );
        g.edge(
            sender,
            window,
            EdgeKind::Holds,
            "in-flight packets hold window slots until acknowledged",
        );

        // The runtime QP's own window geometry defines the BDP.
        let (mut qc, _) = coyote_net::QpConfig::pair(0, 1);
        qc.mtu = q.mtu.max(1) as usize;
        qc.window = q.window as usize;
        let bdp = qc.window_bdp_bytes();
        if q.max_msg_bytes > bdp {
            g.edge(
                sender,
                window,
                EdgeKind::WaitsOn,
                format!(
                    "a {}-byte message exceeds the window BDP of {}x{} = {bdp} bytes, so the \
                     window fills mid-message",
                    q.max_msg_bytes, q.window, q.mtu
                ),
            );
        }
        g.edge(
            window,
            ack,
            EdgeKind::WaitsOn,
            "window slots free only when the ACK path returns an acknowledgement",
        );
        // The runtime queue pair always forces an ACK on the packet that
        // fills the window (`coyote_net::RUNTIME_ACK_ON_WINDOW_FILL`); the
        // edge exists only when the spec declares that safeguard off,
        // overriding the runtime default with end-of-message-only ACKs.
        if !q.ack_on_window_fill && coyote_net::RUNTIME_ACK_ON_WINDOW_FILL {
            g.edge(
                ack,
                sender,
                EdgeKind::WaitsOn,
                format!(
                    "only the final packet of a message requests an ACK — which the stalled \
                     sender can never send; fix: enable qp.ack_on_window_fill, or cap \
                     qp.max_msg_bytes at {bdp}"
                ),
            );
        }
        if !spec.networking {
            g.edge(
                window,
                svc_net,
                EdgeKind::WaitsOn,
                "ACKs are delivered by the networking service, which this shell never \
                 instantiates",
            );
        }
    }

    // --- Tenancy (the optional platform section) ------------------------
    if let Some(platform) = &spec.platform {
        let mut seen_names: BTreeMap<&str, usize> = BTreeMap::new();
        let mut region_owner: BTreeMap<u64, &str> = BTreeMap::new();
        for t in &platform.tenants {
            let tenant_node = g.node(format!("tenant.{}", t.name), NodeKind::Actor);
            if seen_names.insert(t.name.as_str(), tenant_node).is_some() {
                report.push(
                    Diagnostic::new(
                        "PG001",
                        Severity::Error,
                        loc(&unit, "platform.tenants"),
                        format!(
                            "duplicate tenant name '{}': ownership would be ambiguous",
                            t.name
                        ),
                    )
                    .with_suggestion("give every tenant a unique name"),
                );
                continue;
            }
            for &i in &t.vfpgas {
                if i >= n_vfpgas as u64 {
                    report.push(Diagnostic::new(
                        "PG002",
                        Severity::Error,
                        loc(&unit, &format!("platform.tenant({})", t.name)),
                        format!(
                            "tenant '{}' claims vfpga({i}) but the shell has only {} regions",
                            t.name, n_vfpgas
                        ),
                    ));
                    continue;
                }
                if let Some(prev) = region_owner.insert(i, t.name.as_str()) {
                    report.push(
                        Diagnostic::new(
                            "PG001",
                            Severity::Error,
                            loc(&unit, "platform.tenants"),
                            format!(
                                "vfpga({i}) is claimed by both '{prev}' and '{}': one region, \
                                 one owner",
                                t.name
                            ),
                        )
                        .with_suggestion("partition the regions disjointly"),
                    );
                    continue;
                }
                let vf = g.node(format!("vfpga({i})"), NodeKind::VfpgaRegion);
                let dma = g.node(format!("dma.host({i})"), NodeKind::DmaChannel);
                let pool = g.node(format!("credits.host({i})"), NodeKind::CreditPool);
                for n in [vf, dma, pool] {
                    g.set_owner(n, &t.name);
                    g.edge(
                        n,
                        tenant_node,
                        EdgeKind::OwnedBy,
                        "assigned in platform.tenants",
                    );
                }
            }
            for s in &t.services {
                if !SERVICE_NAMES.contains(&s.as_str()) {
                    report.push(
                        Diagnostic::new(
                            "PG002",
                            Severity::Error,
                            loc(&unit, &format!("platform.tenant({})", t.name)),
                            format!(
                                "tenant '{}' references unknown service '{s}' \
                                 (use host, mem, net or sniffer)",
                                t.name
                            ),
                        )
                        .with_suggestion("fix the service name"),
                    );
                    continue;
                }
                let svc = g
                    .find(&format!("svc.{s}"))
                    .expect("service nodes pre-built");
                if !g.nodes()[svc].instantiated {
                    report.push(Diagnostic::new(
                        "PG002",
                        Severity::Error,
                        loc(&unit, &format!("platform.tenant({})", t.name)),
                        format!(
                            "tenant '{}' references service '{s}' which this shell never \
                             instantiates",
                            t.name
                        ),
                    ));
                    continue;
                }
                for &i in &t.vfpgas {
                    if let Some(vf) = g.find(&format!("vfpga({i})")) {
                        g.edge(
                            vf,
                            svc,
                            EdgeKind::MapsTo,
                            format!("tenant '{}' uses {s}", t.name),
                        );
                    }
                }
            }
            // Streams into other regions: data flows there, and issue
            // acquires the destination stream's credits.
            let src = t
                .vfpgas
                .first()
                .and_then(|&i| g.find(&format!("vfpga({i})")));
            for &dst in t.streams_to.iter().flatten() {
                if dst >= n_vfpgas as u64 {
                    report.push(Diagnostic::new(
                        "PG002",
                        Severity::Error,
                        loc(&unit, &format!("platform.tenant({})", t.name)),
                        format!(
                            "tenant '{}' streams to vfpga({dst}) but the shell has only {} \
                             regions",
                            t.name, n_vfpgas
                        ),
                    ));
                    continue;
                }
                let (Some(src), Some(dvf)) = (src, g.find(&format!("vfpga({dst})"))) else {
                    continue;
                };
                if t.vfpgas.contains(&dst) {
                    continue; // intra-tenant loopback stream
                }
                g.edge(
                    src,
                    dvf,
                    EdgeKind::Feeds,
                    format!("tenant '{}' streams write into vfpga({dst})", t.name),
                );
                if let Some(dpool) = g.find(&format!("credits.host({dst})")) {
                    g.edge(
                        src,
                        dpool,
                        EdgeKind::WaitsOn,
                        format!(
                            "tenant '{}' stream issue acquires vfpga({dst})'s stream credits",
                            t.name
                        ),
                    );
                }
            }
        }
    }

    (g, report)
}
