//! The metric catalogue: every metric the benchmark reports, with its
//! unit. `BENCHMARK.json` lists the same names (a test checks it).

use crate::check::valid_metric_name;

/// End-to-end metrics, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("arrivals_per_s", "1/s"),
    ("ingest_p50_us", "us"),
    ("ingest_p99_us", "us"),
    ("recall", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("query.parse_us", "us"),
    ("builder.build_us", "us"),
    ("engine.ingest_busy_s", "s"),
    ("engine.self_s", "s"),
    ("engine.ns_per_row", "ns"),
    ("join.rows", "count"),
    ("join.rows_per_arrival", "count"),
    ("join.replay_probe_ns_per_row", "ns"),
    ("window.expired_per_arrival", "count"),
    ("window.resident_end", "count"),
    ("window.replay_insert_ns", "ns"),
    ("window.replay_expire_ns", "ns"),
    ("window.replay_evict_ns", "ns"),
    ("sketch.observe_s", "s"),
    ("sketch.score_s", "s"),
    ("sketch.sign_cache_hit_ratio", "ratio"),
    ("sketch.score_cache_hit_ratio", "ratio"),
    ("sketch.replay_observe_ns", "ns"),
    ("sketch.replay_productivity_ns", "ns"),
    ("shed.rebuild_s", "s"),
    ("shed.rollovers", "count"),
    ("shed.rebuild_us_per_rollover", "us"),
    ("shed.window_shed_per_arrival", "count"),
    ("multi.ingest_busy_s", "s"),
    ("multi.classes_end", "count"),
    ("multi.stores_end", "count"),
    ("multi.fanout", "ratio"),
    ("multi.add_query_us", "us"),
    ("multi.remove_query_us", "us"),
    ("shard.route_busy_s", "s"),
    ("shard.finish_s", "s"),
    ("shard.imbalance", "ratio"),
    ("shard.replicated_per_arrival", "count"),
    ("shard.hot_promoted", "count"),
    ("shard.worker_observe_s", "s"),
    ("shard.worker_score_s", "s"),
    ("shard.worker_rebuild_s", "s"),
    ("reorder.late_dropped", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.timer_ns", "ns"),
];

/// A reported metric.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, from the catalogue.
    pub unit: &'static str,
    /// Sample count or other context, for the human-readable report.
    pub note: String,
}

/// A catalogued metric's value.
///
/// # Panics
/// Panics if `name` is not in the catalogue or is not a valid metric name
/// — both are mistakes in this program, caught by its tests.
pub fn metric(name: &'static str, value: f64, note: impl Into<String>) -> Metric {
    assert!(valid_metric_name(name), "invalid metric name {name:?}");
    let unit = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name:?} is not catalogued"));
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// Whether `reported` names exactly the catalogue for the mode, in order.
pub fn complete(reported: &[Metric], traced: bool) -> bool {
    let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    reported.len() == table.len() && reported.iter().zip(table).all(|(m, (n, _))| m.name == *n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for n in &all {
            assert!(valid_metric_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "names are used once");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn an_invalid_name_is_rejected() {
        metric("bad name", 1.0, "");
    }

    #[test]
    #[should_panic(expected = "not catalogued")]
    fn an_uncatalogued_name_is_rejected() {
        metric("made.up", 1.0, "");
    }

    /// `BENCHMARK.json` names workloads the program runs and the same
    /// metrics, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed: Vec<&str> = text
            .split("{\"name\": \"")
            .skip(1)
            .filter(|entry| entry.contains("\"why\": "))
            .map(|entry| entry.split('"').next().expect("a name"))
            .collect();
        assert!(listed.len() >= 2, "at least two workloads");
        for name in listed {
            assert!(crate::workload::find(name).is_some(), "{name}");
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} [{unit}]"
            );
        }
        let entries = text.matches("\"unit\": ").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len(),
            "no metric outside the catalogue"
        );
    }
}
