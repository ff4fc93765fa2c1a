//! The names and units of every metric the benchmark prints.
//!
//! `BENCHMARK.json` at the root of the repository lists the same names
//! (a unit test keeps the two equal); later issues refer to them.

use crate::replay::Timer;

/// Metrics a user of the gateway would see, printed by the untraced run
/// for every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("accept_share", "share"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics beside the timers of [`Timer::ALL`] (which are all
/// mean microseconds per call).
pub const PER_LAYER_COUNTS: [(&str, &str); 27] = [
    ("svc.queue_handoff_us", "us"),
    ("svc.batches", "count"),
    ("svc.mean_batch", "count"),
    ("svc.max_batch_seen", "count"),
    ("svc.journal_bytes_per_op", "B"),
    ("svc.records", "count"),
    ("svc.replayed_records", "count"),
    ("core.oracle_calls", "count"),
    ("core.search_iterations", "count"),
    ("core.warm_order_hits", "count"),
    ("core.incremental_updates", "count"),
    ("core.graph_rebuilds", "count"),
    ("core.batch_solves", "count"),
    ("core.coalesced_admits", "count"),
    ("core.clique_prunes", "count"),
    ("conflict.vertices", "count"),
    ("conflict.edges", "count"),
    ("milp.bnb_solve_us", "us"),
    ("milp.bnb_solves", "count"),
    ("milp.simplex_solve_us", "us"),
    ("milp.simplex_solves", "count"),
    ("tdma.schedule_build_us", "us"),
    ("trace.coverage", "share"),
    ("trace.overhead_share", "share"),
    ("fail_share", "share"),
    // End to end by nature, but too unsteady on a two-core host to
    // carry a bound: reported by the traced run, from its gateway
    // phases, under the names they would have had. The tail moves by a
    // fifth between runs of one build on `gw_exact_chain8`; the unloaded
    // latency is two thread wake-ups plus the op, and a wake-up on this
    // host drifts between 5 and 60 us over minutes.
    ("lat_p99_us", "us"),
    ("unloaded_p50_us", "us"),
];

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<(&'static str, &'static str)> {
    Timer::ALL
        .iter()
        .map(|t| (t.metric(), "us"))
        .chain(PER_LAYER_COUNTS)
        .collect()
}

/// The values of one run, filled in by name and printed in the order of
/// the metric list they were created for.
pub struct Values {
    slots: Vec<(&'static str, &'static str, Option<f64>)>,
}

impl Values {
    /// All metrics of `list`, unset.
    pub fn of(list: &[(&'static str, &'static str)]) -> Self {
        Values {
            slots: list.iter().map(|&(n, u)| (n, u, None)).collect(),
        }
    }

    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name that is not in the list: a metric printed but
    /// not declared is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .slots
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        slot.2 = Some(value);
    }

    /// Per-layer metrics a workload has no use for read 0.
    pub fn fill_unset(&mut self, value: f64) {
        for slot in &mut self.slots {
            slot.2.get_or_insert(value);
        }
    }

    /// `(name, unit, value)` of every metric.
    ///
    /// # Errors
    ///
    /// The first metric that was never set.
    pub fn finish(&self) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        self.slots
            .iter()
            .map(|&(n, u, v)| {
                v.map(|v| (n, u, v))
                    .ok_or(format!("metric {n} was not measured"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// The strings of `"key": [ {"name": "..."}, ... ]` in the manifest,
    /// without a JSON parser: names are the values right after `"name":`.
    fn names_under(manifest: &str, key: &str) -> Vec<String> {
        let start = manifest.find(&format!("\"{key}\"")).expect("key present");
        let open = start + manifest[start..].find('[').expect("array opens");
        let close = open + manifest[open..].find(']').expect("array closes");
        manifest[open..close]
            .split("\"name\":")
            .skip(1)
            .map(|rest| {
                let rest = rest.trim_start().strip_prefix('"').expect("a string");
                rest[..rest.find('"').expect("string closes")].to_string()
            })
            .collect()
    }

    #[test]
    fn the_manifest_lists_exactly_what_the_binary_prints() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let workloads: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names_under(&manifest, "workloads"), workloads);
        let e2e: Vec<_> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names_under(&manifest, "end_to_end"), e2e);
        let layers: Vec<_> = per_layer().iter().map(|m| m.0).collect();
        assert_eq!(names_under(&manifest, "per_layer"), layers);
        for w in &WORKLOADS {
            assert!(manifest.contains(w.why), "why of {} differs", w.name);
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        all.extend(per_layer().iter().map(|m| m.0));
        all.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &all {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total);
        assert!(per_layer().len() <= 128);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_is_refused() {
        Values::of(&END_TO_END).set("latency", 1.0);
    }
}
