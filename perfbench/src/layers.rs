//! Per-layer recorder for traced runs.
//!
//! Spans are taken from the benchmark's own files, at the calls it makes
//! into each layer's public API (the kernel's `Simulation::step`, a
//! node's actor callbacks, registry and RDM functions). Recording never
//! allocates once a name has been seen, so allocation counts taken
//! around a wrapped call are not disturbed by the recorder.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc;
use crate::stats::Hist;

/// Every per-layer metric the traced run reports, with its unit. A
/// layer a workload does not touch reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fabric.step_self_ns", "ns"),
    ("fabric.events", "count"),
    ("fabric.allocs_per_event", "count"),
    ("fabric.peak_queue", "count"),
    ("fabric.dropped_msgs", "count"),
    ("node.message_ns", "ns"),
    ("node.message_calls", "count"),
    ("node.compute.req_ns", "ns"),
    ("node.compute.registry_ns", "ns"),
    ("node.compute_calls", "count"),
    ("node.timer.qdl_ns", "ns"),
    ("node.timer.heartbeat_ns", "ns"),
    ("node.timer.cache-refresh_ns", "ns"),
    ("node.timer_calls", "count"),
    ("node.restart_ns", "ns"),
    ("node.allocs_per_callback", "count"),
    ("node.visits", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.reads", "count"),
    ("cache.read_hits", "count"),
    ("cache.read_hit_pct", "%"),
    ("query.empty_excused", "count"),
    ("store.appends", "count"),
    ("store.snapshots", "count"),
    ("store.bytes_written", "bytes"),
    ("workload.generate_ns", "ns"),
    ("workload.offered", "count"),
    ("atr.lookup_ns", "ns"),
    ("atr.lookup_calls", "count"),
    ("atr.resolve_concrete_ns", "ns"),
    ("atr.resolve_concrete_calls", "count"),
    ("atr.query_xpath_ns", "ns"),
    ("atr.query_xpath_calls", "count"),
    ("rdm.list_deployments_ns", "ns"),
    ("rdm.list_deployments_calls", "count"),
    ("rdm.source.registry", "count"),
    ("rdm.source.cache", "count"),
    ("rdm.source.remote", "count"),
    ("rdm.provision_found_ns", "ns"),
    ("rdm.provision_found_calls", "count"),
    ("rdm.provision_install_ns", "ns"),
    ("rdm.provision_install_calls", "count"),
    ("rdm.allocs_per_call", "count"),
    ("grid.register_type_ns", "ns"),
    ("grid.register_type_calls", "count"),
    ("grid.uninstall_ns", "ns"),
    ("grid.uninstall_calls", "count"),
    ("grid.journal_records", "count"),
    ("deploy.sim_communication_ms", "ms"),
    ("deploy.sim_installation_ms", "ms"),
    ("deploy.sim_channel_ms", "ms"),
    ("deploy.sim_registration_ms", "ms"),
    ("deploy.sim_notification_ms", "ms"),
    ("deploy.installs_per_provision", "count"),
    ("harness.untraced_run_s", "s"),
    ("harness.traced_run_s", "s"),
    ("harness.overhead_pct", "%"),
];

/// Run `f`; returns its result, the wall-clock ns it took and the
/// allocations it made.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let a0 = alloc::allocs();
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    (out, ns, alloc::allocs() - a0)
}

/// Timings (ns histograms, allocation totals) and plain values of one
/// traced round.
#[derive(Default)]
pub struct Layers {
    timings: BTreeMap<String, (Hist, u64)>,
    values: BTreeMap<String, f64>,
    /// Wall-clock ns spent inside wrapped actor callbacks during the
    /// current kernel step (reset by the step loop).
    pub callback_ns: u64,
    /// Allocations made inside wrapped actor callbacks during the
    /// current kernel step.
    pub callback_allocs: u64,
}

impl Layers {
    /// Record one call of `name` that took `ns` and made `allocs`.
    pub fn time(&mut self, name: &str, ns: u64, allocs: u64) {
        if let Some((h, a)) = self.timings.get_mut(name) {
            h.record(ns);
            *a += allocs;
            return;
        }
        let mut h = Hist::default();
        h.record(ns);
        self.timings.insert(name.to_owned(), (h, allocs));
    }

    /// Time `f` as one call of `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let (out, ns, allocs) = measure(f);
        self.time(name, ns, allocs);
        out
    }

    /// Set the value `name`.
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_owned(), v);
    }

    /// Add `v` to the value `name` (0 before the first call).
    pub fn add(&mut self, name: &str, v: f64) {
        match self.values.get_mut(name) {
            Some(x) => *x += v,
            None => self.set(name, v),
        }
    }

    /// p50 ns of the calls named `name` (0 when never called).
    pub fn p50(&self, name: &str) -> f64 {
        self.timings
            .get(name)
            .map_or(0.0, |(h, _)| h.percentile(50.0))
    }

    /// Calls recorded under `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.timings.get(name).map_or(0, |(h, _)| h.count())
    }

    /// Calls and allocations summed over every timing whose name starts
    /// with `prefix`.
    pub fn totals(&self, prefix: &str) -> (u64, u64) {
        self.timings
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .fold((0, 0), |(c, a), (_, (h, al))| (c + h.count(), a + al))
    }

    /// A recorded value.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}
