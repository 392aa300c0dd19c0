//! Shared machinery of the two DES workloads: overlay construction (with
//! an optional timing wrapper around every `GlareNode`), query clients
//! that check each reply against the benchmark's own ledger, and the
//! measured step loop.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use glare_core::admission::TenantClass;
use glare_core::model::ActivityDeployment;
use glare_core::node::{GlareNode, NodeConfig, NodeMsg, QueryScope};
use glare_fabric::{
    Actor, ActorId, Ctx, Envelope, SimDuration, SimTime, Simulation, SiteId, TimerToken, Topology,
};

use crate::layers::{measure, Layers};
use crate::{alloc, clock};

/// Single-threaded shared state between the harness and its actors.
pub type Shared<T> = Rc<RefCell<T>>;

/// Wrap a value for sharing.
pub fn shared<T>(v: T) -> Shared<T> {
    Rc::new(RefCell::new(v))
}

/// Bucket of a timer or compute tag: the text before `:` (`qdl:17` → `qdl`).
fn bucket(tag: &str) -> &str {
    tag.split(':').next().unwrap_or(tag)
}

/// `a.b` in a stack buffer, so naming a span never allocates.
fn join<'a>(buf: &'a mut [u8; 96], a: &'a str, b: &str) -> &'a str {
    let n = (a.len() + 1 + b.len()).min(buf.len());
    let bytes = a.bytes().chain(std::iter::once(b'.')).chain(b.bytes());
    for (slot, byte) in buf.iter_mut().zip(bytes) {
        *slot = byte;
    }
    std::str::from_utf8(&buf[..n]).unwrap_or(a)
}

/// A `GlareNode` as the kernel sees it. Records the simulated instant the
/// node first learns its super-peer (the overlay's own readiness) and,
/// in traced runs, the wall-clock time and allocations of every callback
/// and whether each client read was answered from this node's cache.
/// `as_any` forwards to the node, so `actor_as::<GlareNode>` still works.
pub struct NodeActor {
    node: GlareNode,
    index: usize,
    joined: Option<Shared<Vec<Option<SimTime>>>>,
    layers: Option<Shared<Layers>>,
    /// Queries waiting for their `req` CPU stage, oldest first, `true`
    /// for a client read. The node charges every query the same CPU cost
    /// on an earliest-free-core queue, so the stages finish in arrival
    /// order and the front entry is the query whose stage just finished.
    queries: VecDeque<bool>,
}

impl NodeActor {
    fn call(
        &mut self,
        ctx: &mut Ctx<'_>,
        kind: &str,
        tag: &str,
        f: impl FnOnce(&mut GlareNode, &mut Ctx<'_>),
    ) {
        match &self.layers {
            None => f(&mut self.node, ctx),
            Some(layers) => {
                let ((), ns, allocs) = measure(|| f(&mut self.node, ctx));
                let mut l = layers.borrow_mut();
                l.callback_ns += ns;
                l.callback_allocs += allocs;
                let mut buf = [0u8; 96];
                let name = if tag.is_empty() {
                    kind
                } else {
                    join(&mut buf, kind, bucket(tag))
                };
                l.time(name, ns, allocs);
            }
        }
        if self.joined.is_some() && self.node.super_peer().is_some() {
            if let Some(j) = self.joined.take() {
                j.borrow_mut()[self.index] = Some(ctx.now());
            }
        }
    }
}

impl Actor for NodeActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.call(ctx, "node.start", "", |n, c| n.on_start(c));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        if self.layers.is_some() {
            if let Some(NodeMsg::QueryDeployments { scope, .. }) = env.msg.downcast_ref() {
                self.queries.push_back(*scope == QueryScope::Full);
            }
        }
        self.call(ctx, "node.message", "", |n, c| n.on_message(c, env));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken, tag: &str) {
        self.call(ctx, "node.timer", tag, |n, c| n.on_timer(c, token, tag));
    }

    fn on_compute_done(&mut self, ctx: &mut Ctx<'_>, token: TimerToken, tag: &str) {
        let read = bucket(tag) == "req" && self.queries.pop_front() == Some(true);
        let hits = self.node.cache.hits();
        self.call(ctx, "node.compute", tag, |n, c| {
            n.on_compute_done(c, token, tag)
        });
        if let (true, Some(layers)) = (read, &self.layers) {
            let mut l = layers.borrow_mut();
            l.add("cache.reads", 1.0);
            if self.node.cache.hits() > hits {
                l.add("cache.read_hits", 1.0);
            }
        }
    }

    fn on_site_crash(&mut self, ctx: &mut Ctx<'_>) {
        self.queries.clear();
        self.call(ctx, "node.crash", "", |n, c| n.on_site_crash(c));
    }

    fn on_site_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.queries.clear();
        self.call(ctx, "node.restart", "", |n, c| n.on_site_restart(c));
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.node.as_any()
    }
}

/// A freshly built overlay: node `i` is actor `i` on site `i`.
pub struct Overlay {
    /// The simulation (not yet started).
    pub sim: Simulation,
    /// When each node first learned its super-peer.
    pub joined: Shared<Vec<Option<SimTime>>>,
}

/// Build `n` nodes over a uniform topology the way `OverlayBuilder` does,
/// wrapping each in a [`NodeActor`].
pub fn build_overlay(
    n: usize,
    seed: u64,
    mut configure: impl FnMut(usize, &mut NodeConfig),
    mut seed_node: impl FnMut(usize, &mut GlareNode),
    layers: Option<&Shared<Layers>>,
) -> Overlay {
    let topology = Topology::uniform(n);
    let roster: Arc<Vec<(ActorId, u64)>> = Arc::new(
        (0..n)
            .map(|i| {
                (
                    ActorId(i as u32),
                    topology.site(SiteId(i as u32)).rank_hashcode(),
                )
            })
            .collect(),
    );
    let mut sim = Simulation::new(topology, seed);
    let joined = shared(vec![None; n]);
    for (i, &(id, rank)) in roster.iter().enumerate() {
        let mut cfg = NodeConfig::new(&format!("site{i}"), rank);
        cfg.has_community_index = i == 0;
        configure(i, &mut cfg);
        let mut node = GlareNode::new(cfg, id, roster.clone());
        seed_node(i, &mut node);
        let actor = NodeActor {
            node,
            index: i,
            joined: Some(joined.clone()),
            layers: layers.cloned(),
            queries: VecDeque::new(),
        };
        let got = sim.add_actor(SiteId(i as u32), Box::new(actor));
        assert_eq!(got, id, "node i must be actor i");
    }
    Overlay { sim, joined }
}

/// The node behind actor `i`.
pub fn node(sim: &Simulation, i: usize) -> &GlareNode {
    sim.actor_as::<GlareNode>(ActorId(i as u32))
        .expect("node actors forward as_any")
}

/// What the benchmark itself knows is registered: deployment key → type,
/// and activity → the concrete types that satisfy it.
#[derive(Default)]
pub struct Oracle {
    /// Every deployment key the benchmark ever registers, with its type.
    pub keys: HashMap<String, String>,
    /// Requested activity → concrete type names that may answer it.
    pub concrete: HashMap<String, HashSet<String>>,
    /// Reads sent inside this window may come back empty; every other
    /// empty reply is a violation.
    pub empty_excused: Option<(SimTime, SimTime)>,
}

impl Oracle {
    fn excuses_empty(&self, sent_at: SimTime) -> bool {
        self.empty_excused
            .is_some_and(|(from, to)| from <= sent_at && sent_at <= to)
    }

    fn check(&self, activity: &str, deployments: &[ActivityDeployment]) -> Option<String> {
        if deployments.is_empty() {
            return Some(format!("empty reply for {activity}"));
        }
        let Some(allowed) = self.concrete.get(activity) else {
            return Some(format!("no concrete types known for {activity}"));
        };
        for d in deployments {
            match self.keys.get(&d.key) {
                None => return Some(format!("{activity}: unknown deployment {}", d.key)),
                Some(t) if *t != d.type_name || !allowed.contains(t) => {
                    return Some(format!("{activity}: {} of type {}", d.key, d.type_name))
                }
                Some(_) => {}
            }
        }
        None
    }
}

/// Outcomes of every query the clients of one round sent.
#[derive(Default)]
pub struct QueryLog {
    /// Replies received.
    pub answered: u64,
    /// Empty replies to reads sent inside the oracle's excused window.
    pub excused_empty: u64,
    /// Simulated latency of each reply, ms.
    pub latencies_ms: Vec<f64>,
    /// Replies that failed the oracle.
    pub violations: Vec<String>,
}

/// The in-flight bookkeeping and reply check both clients share.
struct Querier {
    node: ActorId,
    activities: Rc<Vec<String>>,
    oracle: Rc<Oracle>,
    log: Shared<QueryLog>,
    next_req: u64,
    in_flight: HashMap<u64, (SimTime, usize)>,
}

impl Querier {
    fn send(&mut self, ctx: &mut Ctx<'_>, activity: usize) {
        let req_id = self.next_req;
        self.next_req += 1;
        self.in_flight.insert(req_id, (ctx.now(), activity));
        ctx.send(
            self.node,
            NodeMsg::QueryDeployments {
                activity: self.activities[activity].clone(),
                req_id,
                reply_to: ctx.self_id,
                scope: QueryScope::Full,
                class: TenantClass::BestEffort,
            },
        );
    }

    /// Handle a reply; `true` when it completed one of ours.
    fn receive(&mut self, ctx: &Ctx<'_>, env: &Envelope) -> bool {
        let Some(NodeMsg::QueryResponse {
            req_id,
            deployments,
        }) = env.msg.downcast_ref::<NodeMsg>()
        else {
            return false;
        };
        let Some((sent_at, activity)) = self.in_flight.remove(req_id) else {
            return false;
        };
        let mut log = self.log.borrow_mut();
        log.answered += 1;
        log.latencies_ms
            .push(ctx.now().since(sent_at).as_millis_f64());
        if deployments.is_empty() && self.oracle.excuses_empty(sent_at) {
            log.excused_empty += 1;
        } else if let Some(v) = self.oracle.check(&self.activities[activity], deployments) {
            log.violations.push(v);
        }
        true
    }
}

/// Closed loop: one query in flight; the next goes out a think time after
/// the reply.
pub struct ClosedClient {
    q: Querier,
    /// `(think time before the query, activity index)` per query.
    plan: Vec<(SimDuration, usize)>,
    next: usize,
}

impl ClosedClient {
    /// A client of `node` that runs through `plan`.
    pub fn new(
        node: ActorId,
        plan: Vec<(SimDuration, usize)>,
        activities: Rc<Vec<String>>,
        oracle: Rc<Oracle>,
        log: Shared<QueryLog>,
    ) -> ClosedClient {
        ClosedClient {
            q: Querier {
                node,
                activities,
                oracle,
                log,
                next_req: 0,
                in_flight: HashMap::new(),
            },
            plan,
            next: 0,
        }
    }

    fn arm(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(&(think, _)) = self.plan.get(self.next) {
            ctx.timer_after(think, "query");
        }
    }
}

impl Actor for ClosedClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.arm(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        if self.q.receive(ctx, &env) {
            self.arm(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken, _tag: &str) {
        let (_, activity) = self.plan[self.next];
        self.next += 1;
        self.q.send(ctx, activity);
    }
}

/// Open loop: sends at every scheduled arrival, however many are in flight.
pub struct OpenClient {
    q: Querier,
    /// `(arrival instant, activity index)`, ascending.
    arrivals: Vec<(SimTime, usize)>,
    cursor: usize,
}

impl OpenClient {
    /// A client of `node` that replays `arrivals`.
    pub fn new(
        node: ActorId,
        arrivals: Vec<(SimTime, usize)>,
        activities: Rc<Vec<String>>,
        oracle: Rc<Oracle>,
        log: Shared<QueryLog>,
    ) -> OpenClient {
        OpenClient {
            q: Querier {
                node,
                activities,
                oracle,
                log,
                next_req: 0,
                in_flight: HashMap::new(),
            },
            arrivals,
            cursor: 0,
        }
    }

    fn arm(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(&(at, _)) = self.arrivals.get(self.cursor) {
            ctx.timer_after(at.saturating_since(ctx.now()), "arrival");
        }
    }
}

impl Actor for OpenClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.arm(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        self.q.receive(ctx, &env);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken, _tag: &str) {
        while let Some(&(at, activity)) = self.arrivals.get(self.cursor) {
            if at > ctx.now() {
                break;
            }
            self.cursor += 1;
            self.q.send(ctx, activity);
        }
        self.arm(ctx);
    }
}

/// Host-side figures of one measured phase.
pub struct Measured {
    /// Kernel events processed.
    pub events: u64,
    /// Host seconds on a CPU.
    pub run_s: f64,
    /// Host µs per kernel step, one value per batch of [`BATCH`] steps.
    pub step_us: Vec<f64>,
    /// Allocations made.
    pub allocs: u64,
}

/// Kernel steps per host-time batch in `op_p50_us`/`op_p90_us`.
pub const BATCH: u64 = 256;

/// Run the kernel until `done` holds or the clock passes `horizon`
/// (whichever first), timing the whole phase and every batch of
/// [`BATCH`] steps. With `layers`, each step is also timed, and its self
/// time (the step minus the wrapped callbacks inside it) and self
/// allocations go to the `fabric` layer.
pub fn run_measured(
    sim: &mut Simulation,
    log: &Shared<QueryLog>,
    layers: Option<&Shared<Layers>>,
    horizon: SimTime,
    mut done: impl FnMut(&QueryLog) -> bool,
) -> Measured {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = stop.clone();
    sim.schedule_call(horizon, move |_| flag.store(true, Ordering::Relaxed));
    let mut events = 0u64;
    let mut step_us = Vec::new();
    let a0 = alloc::allocs();
    let cpu_t0 = clock::now_s();
    let mut mark = Instant::now();
    while !done(&log.borrow()) && !stop.load(Ordering::Relaxed) {
        let more = match layers {
            None => sim.step(),
            Some(layers) => timed_step(sim, layers),
        };
        if !more {
            break;
        }
        events += 1;
        if events.is_multiple_of(BATCH) {
            let now = Instant::now();
            step_us.push(now.duration_since(mark).as_secs_f64() * 1e6 / BATCH as f64);
            mark = now;
        }
    }
    let run_s = clock::now_s() - cpu_t0;
    Measured {
        events,
        run_s,
        step_us,
        allocs: alloc::allocs() - a0,
    }
}

fn timed_step(sim: &mut Simulation, layers: &Shared<Layers>) -> bool {
    {
        let mut l = layers.borrow_mut();
        l.callback_ns = 0;
        l.callback_allocs = 0;
    }
    let (more, ns, allocs) = measure(|| sim.step());
    let mut l = layers.borrow_mut();
    let (cb_ns, cb_allocs) = (l.callback_ns, l.callback_allocs);
    l.time(
        "fabric.step_self",
        ns.saturating_sub(cb_ns),
        allocs.saturating_sub(cb_allocs),
    );
    more
}

/// Run the kernel through overlay formation, to `until`.
pub fn converge(sim: &mut Simulation, until: SimTime) {
    sim.start();
    sim.run_until(until);
}

/// Simulated ms until each node learned its super-peer, p50 over nodes;
/// `None` when some node never joined.
pub fn join_p50_ms(joined: &Shared<Vec<Option<SimTime>>>) -> Option<f64> {
    let j = joined.borrow();
    let ms: Option<Vec<f64>> = j
        .iter()
        .map(|t| t.map(|t| t.since(SimTime::ZERO).as_millis_f64()))
        .collect();
    ms.map(|v| crate::stats::percentile(&v, 50.0))
}

/// Dropped-message count (every `net.msgs_dropped.*` counter).
pub fn dropped_msgs(sim: &Simulation) -> u64 {
    let m = sim.metrics();
    m.counter_names()
        .filter(|n| n.starts_with("net.msgs_dropped"))
        .map(|n| m.counter_value(n))
        .sum()
}

/// Fill the kernel, node, cache and store values of a traced DES round
/// from the step/callback timings and the simulation's own counters.
pub fn layer_values(l: &mut Layers, sim: &Simulation, events: u64) {
    let m = sim.metrics();
    let sum_of = |suffix: &str| {
        m.counter_names()
            .filter(|n| n.ends_with(suffix))
            .map(|n| m.counter_value(n))
            .sum::<u64>() as f64
    };
    let (_, kernel_allocs) = l.totals("fabric.step_self");
    let (callbacks, node_allocs) = l.totals("node.");
    l.set("fabric.events", events as f64);
    l.set(
        "fabric.allocs_per_event",
        kernel_allocs as f64 / events.max(1) as f64,
    );
    l.set("fabric.peak_queue", sim.peak_queue_occupancy() as f64);
    l.set("fabric.dropped_msgs", dropped_msgs(sim) as f64);
    l.set(
        "node.allocs_per_callback",
        node_allocs as f64 / callbacks.max(1) as f64,
    );
    l.set("node.visits", m.counter_value("glare.requests") as f64);
    l.set("cache.hits", sum_of(".cache.hits"));
    l.set("cache.misses", sum_of(".cache.misses"));
    let reads = l.value("cache.reads").unwrap_or(0.0);
    let read_hits = l.value("cache.read_hits").unwrap_or(0.0);
    l.set("cache.read_hit_pct", 100.0 * read_hits / reads.max(1.0));
    let stores = (0..sim.topology().len()).filter_map(|i| sim.store(SiteId(i as u32)));
    let (mut appends, mut snapshots, mut bytes) = (0, 0, 0);
    for s in stores {
        let st = s.stats();
        appends += st.appends;
        snapshots += st.snapshots;
        bytes += st.bytes_written;
    }
    l.set("store.appends", appends as f64);
    l.set("store.snapshots", snapshots as f64);
    l.set("store.bytes_written", bytes as f64);
}
