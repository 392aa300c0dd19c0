//! `cached_churn`: the paper's flat two-level overlay with the two-level
//! cache and durability on, under open-loop Zipf reads, a provider stream
//! of registrations and uninstalls, and one member site that crashes,
//! replays its journal and rejoins through anti-entropy mid-run. Most
//! reads are answered from the entry node's cache; timers, journal
//! appends and recovery carry the rest of the work, not tree fan-out.

use std::collections::{BTreeMap, HashSet};
use std::rc::Rc;
use std::time::Instant;

use glare_core::admission::TenantClass;
use glare_core::model::{ActivityDeployment, ActivityType};
use glare_core::node::{NodeConfig, NodeMsg};
use glare_core::superpeer::Role;
use glare_fabric::{ActorId, SimDuration, SimRng, SimTime, SiteId, StoreConfig};
use glare_workload::{ArrivalStream, TenantSpec, WorkloadSpec};

use crate::des::{self, shared, OpenClient, Oracle, QueryLog};
use crate::layers::Layers;
use crate::{alloc, clock};
use crate::{concrete_closure, Round};

/// Grid sites in the overlay (groups of `ceil(sqrt(SITES))`).
pub const SITES: usize = 1_000;
/// Concrete types in the catalogue.
pub const TYPES: usize = 24;
/// Open-loop reader tenants, one per entry site.
pub const TENANTS: usize = 32;
/// Reads per simulated second, all tenants together. Chosen by a sweep
/// (see the README): the lowest rate at which the reads that time out
/// while the crashed member is down stay well under 1% of all reads,
/// so `query_p99_ms` measures the read path rather than that timeout.
pub const READ_RATE_HZ: f64 = 16.0;
/// One write per this many reads.
pub const READS_PER_WRITE: usize = 9;
/// Replicas each type starts with; writes never leave fewer than
/// [`MIN_REPLICAS`] live.
pub const INITIAL_REPLICAS: usize = 3;
const MIN_REPLICAS: usize = 2;
/// Client-free sites seeded with deployments, one of which crashes.
const CRASH_CANDIDATES: usize = 8;
/// Overlay formation runs to here; traffic starts then.
const READY_AT: SimTime = SimTime::from_secs(10);
/// Traffic window length.
const TRAFFIC: SimDuration = SimDuration::from_secs(300);
/// The crash site goes down here and comes back [`DOWN_FOR`] later.
const CRASH_AT: SimTime = SimTime::from_secs(100);
const DOWN_FOR: SimDuration = SimDuration::from_secs(30);
/// Quiet time after the traffic for re-election and anti-entropy.
const SETTLE: SimDuration = SimDuration::from_secs(60);

fn type_name(k: usize) -> String {
    format!("Svc{k:02}")
}

fn deployment(k: usize, tag: &str, site: usize) -> ActivityDeployment {
    let exe = format!("svc{k:02}{tag}");
    ActivityDeployment::executable(
        &type_name(k),
        &format!("site{site}"),
        &format!("/srv/deployments/{exe}/bin/{exe}"),
        &format!("/srv/deployments/{exe}"),
    )
}

/// The provider's ledger: what the benchmark registered and uninstalled.
#[derive(Default)]
struct Ledger {
    /// Live deployments: key → (type, owner site).
    live: BTreeMap<String, (usize, usize)>,
    /// Uninstalled keys.
    gone: Vec<String>,
}

impl Ledger {
    fn replicas(&self, k: usize) -> usize {
        self.live.values().filter(|(t, _)| *t == k).count()
    }
}

/// One round: build, form the overlay, run the traffic, check the ledger.
pub fn round(seed: u64, traced: bool) -> Round {
    let layers = traced.then(|| shared(Layers::default()));
    let heap_base = alloc::reset_peak();
    let setup_t0 = clock::now_s();
    let mut rng = SimRng::from_seed(seed).fork("cached_churn");
    let n = SITES;
    let b = (n as f64).sqrt().ceil() as usize;

    let catalogue: Vec<ActivityType> = (0..TYPES)
        .map(|k| ActivityType::concrete_type(&type_name(k), "churn", &format!("svc{k:02}")))
        .collect();
    let names: Vec<String> = catalogue.iter().map(|t| t.name.clone()).collect();

    // Distinct sites for the readers' entry nodes, their hosts and the
    // crash candidates (never the
    // community index, site 0).
    let mut used = HashSet::from([0usize]);
    let mut fresh_site = |rng: &mut SimRng| loop {
        let s = rng.range(1, n as u64) as usize;
        if used.insert(s) {
            break s;
        }
    };
    let client_sites: Vec<usize> = (0..TENANTS).map(|_| fresh_site(&mut rng)).collect();
    let client_hosts: Vec<usize> = (0..TENANTS).map(|_| fresh_site(&mut rng)).collect();
    let candidates: Vec<usize> = (0..CRASH_CANDIDATES)
        .map(|_| fresh_site(&mut rng))
        .collect();
    let writable = |s: usize| !client_sites.contains(&s);

    // Initial replicas. Each crash candidate holds the first replica of
    // three types, so whichever one crashes has state to recover.
    let mut ledger = Ledger::default();
    let mut initial: Vec<(usize, ActivityDeployment)> = Vec::new();
    for k in 0..TYPES {
        let mut sites = vec![candidates[k % CRASH_CANDIDATES]];
        while sites.len() < INITIAL_REPLICAS {
            let s = rng.range(1, n as u64) as usize;
            if writable(s) && !sites.contains(&s) {
                sites.push(s);
            }
        }
        for s in sites {
            let d = deployment(k, "", s);
            ledger.live.insert(d.key.clone(), (k, s));
            initial.push((s, d));
        }
    }

    // Reads: one open-loop Poisson tenant per client site, Zipf over the
    // catalogue with the spec's default exponent, generated by
    // glare-workload.
    let mut spec = WorkloadSpec::new(seed, TRAFFIC, TYPES)
        .with_activities(&names.iter().map(String::as_str).collect::<Vec<_>>());
    for t in 0..TENANTS {
        spec = spec.tenant(TenantSpec::open(
            &format!("reader{t}"),
            TenantClass::BestEffort,
            READ_RATE_HZ / TENANTS as f64,
        ));
    }
    let gen_t0 = Instant::now();
    let streams: Vec<ArrivalStream> = (0..TENANTS)
        .map(|t| ArrivalStream::generate(&spec, t))
        .collect();
    let generate_ns = gen_t0.elapsed().as_nanos() as f64 / TENANTS as f64;
    let reads: u64 = streams.iter().map(|s| s.arrivals.len() as u64).sum();

    // Writes: one per READS_PER_WRITE reads, uniform over the traffic
    // window. None reaches a crash candidate while one may be down.
    let mut oracle = Oracle::default();
    for (_, d) in &initial {
        oracle.keys.insert(d.key.clone(), d.type_name.clone());
    }
    let down = |at: SimTime, s: usize| {
        candidates.contains(&s)
            && at + SimDuration::from_secs(1) >= CRASH_AT
            && at <= CRASH_AT + DOWN_FOR + SimDuration::from_secs(1)
    };
    let mut times: Vec<SimTime> = (0..reads as usize / READS_PER_WRITE)
        .map(|_| READY_AT + TRAFFIC.mul_f64(rng.unit()))
        .collect();
    times.sort();
    let mut writes: Vec<(SimTime, usize, NodeMsg)> = Vec::new();
    for (w, &at) in times.iter().enumerate() {
        let k = rng.range(0, TYPES as u64) as usize;
        let victims: Vec<(String, usize)> = ledger
            .live
            .iter()
            .filter(|(_, &(t, s))| t == k && !down(at, s))
            .map(|(key, &(_, s))| (key.clone(), s))
            .collect();
        if rng.chance(0.5) && ledger.replicas(k) > MIN_REPLICAS && !victims.is_empty() {
            let (key, site) = victims[rng.range(0, victims.len() as u64) as usize].clone();
            ledger.live.remove(&key);
            ledger.gone.push(key.clone());
            writes.push((at, site, NodeMsg::UninstallDeployment { key }));
        } else {
            let site = loop {
                let s = rng.range(1, n as u64) as usize;
                if writable(s) && !down(at, s) {
                    break s;
                }
            };
            let d = deployment(k, &format!("w{w}"), site);
            ledger.live.insert(d.key.clone(), (k, site));
            oracle.keys.insert(d.key.clone(), d.type_name.clone());
            writes.push((at, site, NodeMsg::RegisterDeployment(Box::new(d))));
        }
    }
    for a in &names {
        oracle
            .concrete
            .insert(a.clone(), concrete_closure(&catalogue, a));
    }
    // Every type keeps live replicas, so only reads in flight while the
    // crashed member is down (one probe deadline either side) may come
    // back empty: the query ladder gives up on the silent member instead
    // of trying the type's other replicas.
    let probe = NodeConfig::new("site0", 0).probe_timeout;
    oracle.empty_excused = Some((CRASH_AT - probe, CRASH_AT + DOWN_FOR + probe));

    let seeded = initial.clone();
    let mut overlay = des::build_overlay(
        n,
        seed,
        move |_, cfg| {
            cfg.max_group_size = b;
            cfg.use_cache = true;
            cfg.cache_refresh_interval = Some(SimDuration::from_secs(20));
        },
        |i, node| {
            for t in &catalogue {
                node.atr
                    .register(t.clone(), SimTime::ZERO)
                    .expect("fresh registry");
            }
            for (s, d) in &seeded {
                if *s == i {
                    node.adr
                        .register(d.clone(), &node.atr, SimTime::ZERO)
                        .expect("type registered");
                }
            }
        },
        layers.as_ref(),
    );
    let sim = &mut overlay.sim;
    sim.enable_store(StoreConfig::standard());
    let oracle = Rc::new(oracle);
    let activities = Rc::new(names);
    let log = shared(QueryLog::default());
    // Each reader runs on a host site of its own, one WAN hop from its
    // entry site.
    for ((stream, &site), &host) in streams.iter().zip(&client_sites).zip(&client_hosts) {
        let arrivals = stream
            .arrivals
            .iter()
            .map(|a| (READY_AT + a.at.since(SimTime::ZERO), a.activity))
            .collect();
        let client = OpenClient::new(
            ActorId(site as u32),
            arrivals,
            activities.clone(),
            oracle.clone(),
            log.clone(),
        );
        sim.add_actor(SiteId(host as u32), Box::new(client));
    }
    for (at, site, msg) in writes {
        let id = ActorId(site as u32);
        sim.inject(at, id, id, msg);
    }
    des::converge(sim, READY_AT);

    // The crash site: the first candidate the election left a member.
    let mut violations = Vec::new();
    let crash_site = candidates
        .iter()
        .copied()
        .find(|&s| des::node(sim, s).role() == Role::Member);
    match crash_site {
        Some(s) => {
            sim.schedule_crash(CRASH_AT, SiteId(s as u32));
            sim.schedule_restart(CRASH_AT + DOWN_FOR, SiteId(s as u32));
        }
        None => violations.push("every crash candidate became a super-peer".to_owned()),
    }
    let setup_s = clock::now_s() - setup_t0;
    let join_p50 = des::join_p50_ms(&overlay.joined);
    if join_p50.is_none() {
        violations.push("overlay did not form before the first read".to_owned());
    }
    if let Some(l) = &layers {
        *l.borrow_mut() = Layers::default();
    }

    let end = READY_AT + TRAFFIC + SETTLE;
    let sim = &mut overlay.sim;
    let m = des::run_measured(sim, &log, layers.as_ref(), end, |_| false);
    let peak_bytes = alloc::peak().saturating_sub(heap_base);

    // The ledger, checked on every node: live deployments at their owner,
    // uninstalled ones nowhere, the restarted site back in a group.
    let now = sim.now();
    for (key, &(_, site)) in &ledger.live {
        if des::node(sim, site).adr.lookup(key, now).is_none() {
            violations.push(format!("{key} missing at site{site}"));
        }
    }
    for i in 0..n {
        let node = des::node(sim, i);
        for key in &ledger.gone {
            if node.adr.lookup(key, now).is_some() {
                violations.push(format!("uninstalled {key} live at site{i}"));
            }
        }
    }
    if let Some(s) = crash_site {
        if des::node(sim, s).super_peer().is_none() {
            violations.push(format!("restarted site{s} did not rejoin"));
        }
    }
    let log = log.borrow();
    violations.extend(log.violations.iter().cloned());
    violations.truncate(8);

    let answered = log.answered;
    let writes_n =
        ledger.gone.len() as u64 + (ledger.live.len() + ledger.gone.len() - initial.len()) as u64;
    let visits = sim.metrics().counter_value("glare.requests");
    let mut r = Round {
        setup_s,
        run_s: m.run_s,
        events: m.events,
        peak_bytes,
        allocs: m.allocs,
        ops: answered,
        attempted: reads + writes_n,
        failed: reads - answered,
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
        l.set("workload.generate_ns", generate_ns);
        l.set("workload.offered", reads as f64);
        l.set("query.empty_excused", log.excused_empty as f64);
        r.layers = Some(l);
    }
    r
}
