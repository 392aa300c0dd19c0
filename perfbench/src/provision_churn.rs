//! `provision_churn`: a synchronous `Grid` VO with durability on, driven
//! by a seeded workflow client: ATR named lookups and XPath queries,
//! `RequestManager::list_deployments`, on-demand `provision` through the
//! Expect and JavaCoG channels, `uninstall_deployment` (so installs
//! repeat) and `register_type` of new types. No DES kernel runs;
//! registries, hierarchy resolution, the deploy manager and the site
//! services carry the load.

use std::collections::{BTreeMap, BTreeSet};

use glare_core::grid::Grid;
use glare_core::model::{example_hierarchy, ActivityType, DeploymentAccess};
use glare_core::rdm::{
    install_package, provision, DiscoverySource, InstallReport, ProvisionRequest, RequestManager,
};
use glare_fabric::{LinkSpec, SimDuration, SimRng, SimTime, StoreConfig};
use glare_services::{ChannelKind, Transport, VPath};

use crate::layers::{measure, Layers};
use crate::{alloc, clock};
use crate::{concrete_closure, Round};

/// Sites in the VO.
pub const SITES: usize = 16;
/// Client cycles per round. A cycle is one provision, an uninstall after
/// every other provision, one type registration, one XPath query,
/// [`LOOKUPS`] named lookups and [`LISTINGS`] deployment listings.
pub const CYCLES: usize = 2_000;
/// Deployment listings per cycle (one workflow step's discovery).
pub const LISTINGS: usize = 20;
/// Named type lookups per cycle.
const LOOKUPS: usize = 6;
/// Applications the workflow client provisions (abstract and concrete).
const APPS: [&str; 5] = ["Imaging", "JPOVray", "Wien2k", "Invmod", "Counter"];
/// Activities it lists deployments of.
const LISTED: [&str; 8] = [
    "Imaging", "POVray", "JPOVray", "Wien2k", "Invmod", "Counter", "Java", "Ant",
];

/// What the benchmark itself knows about the VO.
#[derive(Default)]
struct Ledger {
    /// Live deployments: (type, site) → keys.
    live: BTreeMap<(String, usize), BTreeSet<String>>,
    /// Every key ever installed.
    ever: BTreeSet<String>,
    /// Type name → site it was registered at.
    types: BTreeMap<String, usize>,
}

impl Ledger {
    fn live_at(&self, t: &str, site: usize) -> BTreeSet<String> {
        self.live
            .get(&(t.to_owned(), site))
            .cloned()
            .unwrap_or_default()
    }
}

/// Host time and allocations of every API call, and the calls that
/// returned an error.
struct Calls {
    us: Vec<f64>,
    allocs: u64,
    failed: u64,
    layers: Option<Layers>,
}

impl Calls {
    fn call<R>(&mut self, span: &str, f: impl FnOnce() -> R) -> R {
        let (out, ns, allocs) = measure(f);
        self.us.push(ns as f64 / 1e3);
        self.allocs += allocs;
        if let Some(l) = &mut self.layers {
            l.time(span, ns, allocs);
        }
        out
    }
}

/// One round: build the VO, run every cycle, check against the ledger.
pub fn round(seed: u64, traced: bool) -> Round {
    let heap_base = alloc::reset_peak();
    let setup_t0 = clock::now_s();
    let mut rng = SimRng::from_seed(seed).fork("provision_churn");
    let mut grid = Grid::new(SITES, Transport::Http);
    grid.enable_durability(StoreConfig::standard());
    // The VO's WAN link, within ±3% of the default in latency and
    // bandwidth.
    let wan = LinkSpec::wan_default();
    grid.link = LinkSpec {
        latency: wan.latency.mul_f64(0.97 + 0.06 * rng.unit()),
        bandwidth_bps: (wan.bandwidth_bps as f64 * (0.97 + 0.06 * rng.unit())) as u64,
        jitter: wan.jitter,
    };
    let types = example_hierarchy(SimTime::ZERO);
    let mut ledger = Ledger::default();
    for t in &types {
        grid.register_type(0, t.clone(), SimTime::ZERO)
            .expect("fresh registry");
        ledger.types.insert(t.name.clone(), 0);
    }
    // The platform runtime comes pre-installed on a seeded half of the
    // sites, as an administrator would set a VO up. Always half, so every
    // draw's set-up does the same work.
    let java = types
        .iter()
        .find(|t| t.name == "Java")
        .expect("Java in the catalogue");
    let mut violations: Vec<String> = Vec::new();
    let mut sites: Vec<usize> = (0..SITES).collect();
    shuffle(&mut sites, &mut rng);
    for &site in &sites[..SITES / 2] {
        match install_package(
            &mut grid,
            java,
            site,
            ChannelKind::Expect,
            SimTime::ZERO,
            None,
        ) {
            Ok(r) => record_install(&grid, &r, SimTime::ZERO, &mut ledger, &mut violations),
            Err(e) => violations.push(format!("pre-install Java on site{site}: {e}")),
        }
    }
    let closure: BTreeMap<&str, BTreeSet<String>> = LISTED
        .iter()
        .map(|a| (*a, concrete_closure(&types, a).into_iter().collect()))
        .collect();
    let rm = RequestManager::new(true);
    let setup_s = clock::now_s() - setup_t0;

    let mut calls = Calls {
        us: Vec::with_capacity(CYCLES * (5 + LOOKUPS + LISTINGS)),
        allocs: 0,
        failed: 0,
        layers: traced.then(Layers::default),
    };
    let mut query_ms = Vec::new();
    let mut visits = 0u64;
    let mut installing_ms = Vec::new();
    let mut provisions = 0u64;
    let mut installs = 0u64;
    let mut sources = [0u64; 3];
    let mut breakdown_ms = [0.0f64; 5];
    let mut now = SimTime::from_secs(1);
    let tick = SimDuration::from_secs(1);
    let run_t0 = clock::now_s();
    // Every block of ten cycles provisions each application twice, once
    // per channel, in a seeded order, and uninstalls it again after half
    // of the ten provisions.
    let mut block: Vec<(usize, ChannelKind, bool)> = Vec::new();
    for cycle in 0..CYCLES {
        if block.is_empty() {
            let mut drop_after: Vec<bool> = (0..2 * APPS.len()).map(|i| i % 2 == 0).collect();
            shuffle(&mut drop_after, &mut rng);
            block = (0..APPS.len())
                .flat_map(|a| [(a, ChannelKind::Expect), (a, ChannelKind::JavaCog)])
                .zip(drop_after)
                .map(|((a, c), d)| (a, c, d))
                .collect();
            shuffle(&mut block, &mut rng);
        }
        // Provision an application on demand.
        let (a, channel, drop_after) = block.pop().expect("refilled above");
        let app = APPS[a];
        let req = ProvisionRequest {
            activity: app.to_owned(),
            client: format!("workflow{}", cycle % 4),
            channel,
            from_site: rng.range(0, SITES as u64) as usize,
            preferred_site: Some(rng.range(0, SITES as u64) as usize),
        };
        let (_, lookup_cost) = grid.resolve_concrete(req.from_site, app, now);
        let existed = closure_live(&ledger, &concrete_closure(&types, app));
        let span = if existed {
            "rdm.provision_found"
        } else {
            "rdm.provision_install"
        };
        match calls.call(span, || provision(&mut grid, &req, now)) {
            Ok(out) => {
                provisions += 1;
                let sum: SimDuration = out.installs.iter().map(|r| r.breakdown.total()).sum();
                if out.total_cost.as_nanos() != (lookup_cost + sum).as_nanos()
                    && !out.installs.is_empty()
                {
                    violations.push(format!(
                        "{app}: total_cost {} != lookup {} + installs {sum}",
                        out.total_cost, lookup_cost
                    ));
                }
                if !out.installs.is_empty() {
                    installing_ms.push(out.total_cost.as_millis_f64());
                }
                installs += out.installs.len() as u64;
                for r in &out.installs {
                    let b = &r.breakdown;
                    for (acc, d) in breakdown_ms.iter_mut().zip([
                        b.communication,
                        b.installation,
                        b.channel_overhead,
                        b.deployment_registration,
                        b.notification,
                    ]) {
                        *acc += d.as_millis_f64();
                    }
                    record_install(&grid, r, now, &mut ledger, &mut violations);
                }
                if out.deployments.is_empty() {
                    violations.push(format!("provision {app} returned no deployment"));
                }
            }
            Err(e) => {
                calls.failed += 1;
                violations.push(format!("provision {app}: {e}"));
            }
        }
        now += tick;

        // Uninstall the application's deployment, package included, so the
        // next provision of it installs again.
        let app_types = concrete_closure(&types, app);
        let victims: Vec<(String, usize, String)> = ledger
            .live
            .iter()
            .filter(|((t, _), _)| app_types.contains(t))
            .flat_map(|((t, s), keys)| keys.iter().map(move |k| (t.clone(), *s, k.clone())))
            .collect();
        if drop_after && !victims.is_empty() {
            let (t, site, key) = victims[rng.range(0, victims.len() as u64) as usize].clone();
            let removed = calls.call("grid.uninstall", || {
                grid.uninstall_deployment(site, &key, now)
            });
            if !removed {
                calls.failed += 1;
                violations.push(format!("uninstall {key} found nothing live"));
            }
            let pkg = types
                .iter()
                .find(|ty| ty.name == t)
                .and_then(|ty| ty.installation.as_ref())
                .map(|i| i.package.clone())
                .expect("applications are installable");
            grid.site_mut(site).host.uninstall(&pkg);
            if let Some(keys) = ledger.live.get_mut(&(t, site)) {
                keys.remove(&key);
            }
        }
        now += tick;

        // Register a new type at a random site.
        let name = format!("Tool{cycle:03}");
        let site = rng.range(0, SITES as u64) as usize;
        let t = ActivityType::concrete_type(&name, "tools", "vizkit");
        if let Err(e) = calls.call("grid.register_type", || grid.register_type(site, t, now)) {
            calls.failed += 1;
            violations.push(format!("register {name}: {e}"));
        }
        ledger.types.insert(name, site);
        now += tick;

        // One XPath query over the provider site's registry.
        let expr = "//ActivityTypeEntry[@domain='tools']";
        let expected = ledger
            .types
            .iter()
            .filter(|(n, &s)| s == 0 && n.starts_with("Tool"))
            .count();
        let atr = &grid.site(0).atr;
        match calls.call("atr.query_xpath", || atr.query_xpath(expr, now)) {
            Ok(r) if r.value.len() == expected => {}
            Ok(r) => violations.push(format!(
                "xpath found {} tools, ledger {expected}",
                r.value.len()
            )),
            Err(e) => {
                calls.failed += 1;
                violations.push(format!("xpath: {e}"));
            }
        }

        // Named lookups of registered types, at the site holding them.
        let names: Vec<(&String, &usize)> = ledger.types.iter().collect();
        for _ in 0..LOOKUPS {
            let (name, &site) = names[rng.range(0, names.len() as u64) as usize];
            let atr = &grid.site(site).atr;
            match calls.call("atr.lookup", || atr.lookup(name, now)) {
                Some(r) if r.value.name == *name => {}
                _ => {
                    calls.failed += 1;
                    violations.push(format!("lookup {name} at site{site} failed"));
                }
            }
        }
        now += tick;

        // The workflow step's deployment listings, from random sites; the
        // step waits for all of them in turn.
        let mut step_ms = 0.0;
        for _ in 0..LISTINGS {
            let activity = LISTED[rng.range(0, LISTED.len() as u64) as usize];
            let from = rng.range(0, SITES as u64) as usize;
            let out = calls.call("rdm.list_deployments", || {
                rm.list_deployments(&mut grid, from, activity, now)
            });
            let allowed = &closure[activity];
            match out {
                Ok(o) => {
                    step_ms += o.cost.as_millis_f64();
                    let got: BTreeSet<String> =
                        o.deployments.iter().map(|d| d.key.clone()).collect();
                    let t = o
                        .deployments
                        .first()
                        .map(|d| d.type_name.clone())
                        .unwrap_or_default();
                    let same_type =
                        o.deployments.iter().all(|d| d.type_name == t) && allowed.contains(&t);
                    let (ok, hops, src) = match o.source {
                        DiscoverySource::LocalRegistry => {
                            (same_type && got == ledger.live_at(&t, from), 1, 0)
                        }
                        DiscoverySource::LocalCache => {
                            (got.is_subset(&ledger.ever) && same_type, 1, 1)
                        }
                        DiscoverySource::RemoteSite(j) => {
                            let probed = (0..=j).filter(|&i| i != from).count() as u64;
                            (same_type && got == ledger.live_at(&t, j), 1 + probed, 2)
                        }
                        DiscoverySource::DegradedCache => (false, 1, 1),
                    };
                    visits += hops;
                    sources[src] += 1;
                    if !ok {
                        violations.push(format!(
                            "list {activity} from site{from}: {:?} answered {got:?}",
                            o.source
                        ));
                    }
                }
                Err(_) => {
                    // "Nothing anywhere" is right only if the ledger agrees.
                    if closure_live(&ledger, allowed) {
                        violations.push(format!("list {activity} from site{from}: not found"));
                    }
                }
            }
        }
        query_ms.push(step_ms);
        now += tick;
    }
    let run_s = clock::now_s() - run_t0;
    let peak_bytes = alloc::peak().saturating_sub(heap_base);
    violations.truncate(8);

    let ops = calls.us.len() as u64;
    let listings = sources.iter().sum::<u64>().max(1);
    let mut r = Round {
        setup_s,
        run_s,
        events: ops,
        peak_bytes,
        allocs: calls.allocs,
        ops,
        attempted: ops,
        failed: calls.failed,
        query_ms,
        hops_per_query: visits as f64 / listings as f64,
        provision_p50_ms: crate::stats::percentile(&installing_ms, 50.0),
        op_us: calls.us,
        violations,
        layers: None,
    };
    if let Some(mut l) = calls.layers.take() {
        let (rdm_calls, rdm_allocs) = l.totals("rdm.");
        l.set(
            "rdm.allocs_per_call",
            rdm_allocs as f64 / rdm_calls.max(1) as f64,
        );
        l.set("rdm.source.registry", sources[0] as f64);
        l.set("rdm.source.cache", sources[1] as f64);
        l.set("rdm.source.remote", sources[2] as f64);
        let per_install = |v: f64| v / installs.max(1) as f64;
        l.set("deploy.sim_communication_ms", per_install(breakdown_ms[0]));
        l.set("deploy.sim_installation_ms", per_install(breakdown_ms[1]));
        l.set("deploy.sim_channel_ms", per_install(breakdown_ms[2]));
        l.set("deploy.sim_registration_ms", per_install(breakdown_ms[3]));
        l.set("deploy.sim_notification_ms", per_install(breakdown_ms[4]));
        l.set(
            "deploy.installs_per_provision",
            installs as f64 / provisions.max(1) as f64,
        );
        let journal: u64 = (0..SITES)
            .filter_map(|i| grid.store(i))
            .map(|s| s.stats().appends)
            .sum();
        l.set("grid.journal_records", journal as f64);
        // Out-of-band hierarchy resolution on the provider site.
        let atr = &grid.site(0).atr;
        for a in LISTED.iter().cycle().take(1_000) {
            l.span("atr.resolve_concrete", || atr.resolve_concrete(a, now));
        }
        r.layers = Some(l);
    }
    r
}

/// Fisher-Yates shuffle driven by the workload's RNG.
fn shuffle<T>(v: &mut [T], rng: &mut SimRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.range(0, i as u64 + 1) as usize);
    }
}

/// Whether the ledger holds a live deployment of any of `types`.
fn closure_live<S: AsRef<str>>(
    ledger: &Ledger,
    types: impl IntoIterator<Item = S> + Clone,
) -> bool {
    ledger.live.iter().any(|((t, _), keys)| {
        !keys.is_empty() && types.clone().into_iter().any(|c| c.as_ref() == t)
    })
}

/// Enter an install into the ledger, checking that each deployment it
/// produced is registered at its site and that its executable is in the
/// site's file system with the executable bit set.
fn record_install(
    grid: &Grid,
    r: &InstallReport,
    now: SimTime,
    ledger: &mut Ledger,
    violations: &mut Vec<String>,
) {
    let site = grid.site_index(&r.site).expect("install site exists");
    for key in &r.deployments {
        match grid.site(site).adr.lookup(key, now) {
            None => violations.push(format!("installed {key} not registered at site{site}")),
            Some(d) => {
                if let DeploymentAccess::Executable { path, .. } = &d.value.access {
                    let exe = grid.site(site).host.vfs.read_file(&VPath::new(path));
                    if !exe.is_ok_and(|f| f.executable) {
                        violations.push(format!("{key}: no executable at {path} on site{site}"));
                    }
                }
            }
        }
        ledger
            .live
            .entry((r.type_name.clone(), site))
            .or_default()
            .insert(key.clone());
        ledger.ever.insert(key.clone());
    }
}
