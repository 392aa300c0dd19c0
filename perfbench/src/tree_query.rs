//! `tree_query`: closed-loop discovery through a depth-3 super-peer tree
//! with the cache off, every query starting on a site with no local
//! deployment. The kernel (queue pop, `Deliver`) and the node query
//! ladder do almost all of the work.

use glare_core::model::{example_hierarchy, ActivityDeployment};
use glare_fabric::{ActorId, SimDuration, SimRng, SimTime, SiteId};
use std::collections::HashSet;
use std::rc::Rc;

use crate::des::{self, shared, ClosedClient, Oracle, QueryLog};
use crate::layers::Layers;
use crate::{alloc, clock};
use crate::{concrete_closure, Round};

/// Grid sites in the overlay.
pub const SITES: usize = 1_000;
/// Closed-loop clients.
pub const CLIENTS: usize = 200;
/// Queries each client sends.
pub const QUERIES_PER_CLIENT: usize = 5;
/// Concrete types deployed, round-robin over the deployment sites.
const DEPLOYED: [&str; 3] = ["JPOVray", "Wien2k", "Invmod"];
/// Activities the clients ask for (abstract and concrete).
const ASKED: [&str; 5] = ["Imaging", "POVray", "JPOVray", "Wien2k", "Invmod"];
/// Overlay formation runs to here before any query is due.
const READY_AT: SimTime = SimTime::from_secs(10);
/// A round that has not answered every query by here has failed ones.
const GIVE_UP_AT: SimTime = SimTime::from_secs(3_600);

/// One round: build, form the overlay, run every client to completion.
pub fn round(seed: u64, traced: bool) -> Round {
    let layers = traced.then(|| shared(Layers::default()));
    let heap_base = alloc::reset_peak();
    let setup_t0 = clock::now_s();
    let mut rng = SimRng::from_seed(seed).fork("tree_query");
    let n = SITES;
    let b = (n as f64).sqrt().ceil() as usize;

    // Deployments on every b-th site, the concrete type rotating: a fixed
    // layout, so the seed varies the traffic, not the overlay.
    let types = example_hierarchy(SimTime::ZERO);
    let mut oracle = Oracle::default();
    for a in ASKED {
        oracle
            .concrete
            .insert(a.to_owned(), concrete_closure(&types, a));
    }
    let deployment_at = |i: usize| -> Option<ActivityDeployment> {
        i.is_multiple_of(b).then(|| {
            let t = DEPLOYED[(i / b) % DEPLOYED.len()];
            let pkg = t.to_lowercase();
            ActivityDeployment::executable(
                t,
                &format!("site{i}"),
                &format!("/srv/deployments/{pkg}/bin/{pkg}"),
                &format!("/srv/deployments/{pkg}"),
            )
        })
    };
    for d in (0..n).filter_map(deployment_at) {
        oracle.keys.insert(d.key.clone(), d.type_name.clone());
    }

    let mut overlay = des::build_overlay(
        n,
        seed,
        move |_, cfg| {
            cfg.max_group_size = b;
            cfg.tree_branching = Some(b);
            cfg.tree_depth = 3;
            cfg.use_cache = false;
            cfg.election_interval = None;
        },
        |i, node| {
            for t in example_hierarchy(SimTime::ZERO) {
                node.atr.register(t, SimTime::ZERO).expect("fresh registry");
            }
            if let Some(d) = deployment_at(i) {
                node.adr
                    .register(d, &node.atr, SimTime::ZERO)
                    .expect("type registered");
            }
        },
        layers.as_ref(),
    );

    // Clients on distinct sites that hold no deployment, so every query
    // has to leave its site.
    let oracle = Rc::new(oracle);
    let activities = Rc::new(ASKED.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>());
    let log = shared(QueryLog::default());
    let mut taken = HashSet::new();
    for _ in 0..CLIENTS {
        let site = loop {
            let s = rng.range(1, n as u64) as usize;
            if !s.is_multiple_of(b) && taken.insert(s) {
                break s;
            }
        };
        let plan = (0..QUERIES_PER_CLIENT)
            .map(|q| {
                let think = if q == 0 {
                    READY_AT.since(SimTime::ZERO) + SimDuration::from_millis(rng.range(0, 1_000))
                } else {
                    SimDuration::from_millis(rng.range(500, 1_500))
                };
                (think, rng.range(0, ASKED.len() as u64) as usize)
            })
            .collect();
        let client = ClosedClient::new(
            ActorId(site as u32),
            plan,
            activities.clone(),
            oracle.clone(),
            log.clone(),
        );
        overlay.sim.add_actor(SiteId(site as u32), Box::new(client));
    }
    des::converge(&mut overlay.sim, READY_AT);
    let setup_s = clock::now_s() - setup_t0;
    let mut violations = Vec::new();
    let join_p50 = des::join_p50_ms(&overlay.joined);
    if join_p50.is_none() {
        violations.push("overlay did not form before the first query".to_owned());
    }
    if let Some(l) = &layers {
        *l.borrow_mut() = Layers::default();
    }

    let total = (CLIENTS * QUERIES_PER_CLIENT) as u64;
    let sim = &mut overlay.sim;
    let m = des::run_measured(sim, &log, layers.as_ref(), GIVE_UP_AT, |l| {
        l.answered >= total
    });
    let peak_bytes = alloc::peak().saturating_sub(heap_base);

    let log = log.borrow();
    violations.extend(log.violations.iter().take(5).cloned());
    let answered = log.answered;
    let visits = sim.metrics().counter_value("glare.requests");
    let mut r = Round {
        setup_s,
        run_s: m.run_s,
        events: m.events,
        peak_bytes,
        allocs: m.allocs,
        ops: answered,
        attempted: total,
        failed: total - answered,
        query_ms: log.latencies_ms.clone(),
        hops_per_query: visits as f64 / answered.max(1) as f64,
        provision_p50_ms: join_p50.unwrap_or(0.0),
        op_us: m.step_us,
        violations,
        layers: None,
    };
    if let Some(l) = layers {
        let mut l = std::mem::take(&mut *l.borrow_mut());
        des::layer_values(&mut l, sim, m.events);
        // Out-of-band registry calls on one node: the per-probe cost of
        // the hierarchy walk nodes make on every query.
        let node = des::node(sim, 1);
        let now = sim.now();
        for a in ASKED.iter().cycle().take(1_000) {
            l.span("atr.resolve_concrete", || node.atr.resolve_concrete(a, now));
            l.span("atr.lookup", || node.atr.lookup(a, now));
        }
        r.layers = Some(l);
    }
    drop(overlay);
    r
}
