//! Execution statistics — the quantities the paper's figures report.
//!
//! Every scalar run counter is declared once, in
//! [`crate::run_counters!`]. That one table generates the counter fields of
//! [`ExecutionStats`], their part of [`ExecutionStats::to_json`], and the
//! scheduler's aggregate fields and fold (`adamant_sched::SchedulerStats`).

use adamant_device::health::HealthSnapshot;
use adamant_storage::json::{jmap, jnum, jobj, jstr, JsonNumber};
use std::collections::BTreeMap;

/// The run-counter table: every scalar counter of [`ExecutionStats`], in
/// export order. Each row is a doc comment and
/// `sum|gauge field: type => "json_key";`.
///
/// `run_counters!(all m)` hands every row to the macro `m`;
/// `run_counters!(summed m)` hands on only the `sum` rows, without the
/// kind. `sum` rows are additive: the scheduler adds them up over the
/// queries it executes. `gauge` rows (a level at the end of a run such as
/// `cache_pinned_bytes`, or a modeled time) are exported but never summed.
///
/// Adding a counter is one `sum` row here: the field, its JSON key, the
/// scheduler aggregate and its fold all follow from it.
#[macro_export]
macro_rules! run_counters {
    ($mode:ident $then:ident) => {
        $crate::__select_counters! { $mode $then []
            /// Bytes moved host→device.
            sum bytes_h2d: u64 => "bytes_h2d";
            /// Bytes moved device→host.
            sum bytes_d2h: u64 => "bytes_d2h";
            /// Number of chunks processed across all streaming pipelines.
            sum chunks_processed: usize => "chunks";
            /// Number of pipelines executed.
            sum pipelines: usize => "pipelines";
            /// Pipeline attempts that failed and were retried (any recovery kind).
            sum retries: usize => "retries";
            /// Retries where the streaming chunk size was halved after a device
            /// out-of-memory error.
            sum chunk_backoffs: usize => "chunk_backoffs";
            /// Retries where a pipeline was re-placed onto a fallback device after
            /// a persistent kernel failure or missing implementation.
            sum fallback_placements: usize => "fallback_placements";
            /// Chunk-size regrowths: the backed-off streaming chunk size was doubled
            /// back toward the configured value after sustained success.
            sum chunk_regrowths: usize => "chunk_regrowths";
            /// Device circuit breakers tripped (`Closed → Open`, or a failed
            /// `HalfOpen` probe re-opening) during this run.
            sum breaker_trips: usize => "breaker_trips";
            /// Times a quarantined device was skipped: pipelines moved off `Open`
            /// devices at placement time plus hub transfers re-sourced away from
            /// quarantined holders.
            sum quarantine_skips: usize => "quarantine_skips";
            /// `HalfOpen` probes that succeeded and restored a device to `Closed`.
            sum probe_successes: usize => "probe_successes";
            /// Per-`(device, kernel)` circuit breakers tripped during this run (a
            /// kernel quarantined without quarantining its device).
            sum kernel_breaker_trips: usize => "kernel_breaker_trips";
            /// `HalfOpen` kernel probes that succeeded and restored a
            /// `(device, kernel)` breaker to `Closed`.
            sum kernel_probe_successes: usize => "kernel_probe_successes";
            /// Runs aborted because the simulated-timeline deadline was exceeded.
            sum deadline_aborts: usize => "deadline_aborts";
            /// Chunk executions whose modeled duration overran the watchdog budget
            /// (the cost model's fault-free expectation times the configured
            /// multiplier).
            sum watchdog_fires: usize => "watchdog_fires";
            /// Hedged duplicate chunk executions launched on an alternate device
            /// after a watchdog fired.
            sum hedged_launches: usize => "hedged_launches";
            /// Hedged duplicates that finished ahead of the straggling primary and
            /// supplied the chunk's modeled completion time.
            sum hedge_wins: usize => "hedge_wins";
            /// Host↔device transfers retransmitted after an end-to-end checksum
            /// mismatch (silent corruption caught and repaired by the hub).
            sum corruption_retransmits: usize => "corruption_retransmits";
            /// Inputs served from a cross-query residency-cache pin created by an
            /// earlier run (first touch per run per `(device, input)`).
            sum cache_hits: usize => "cache_hits";
            /// First-touch residency-cache lookups that found no usable pin.
            sum cache_misses: usize => "cache_misses";
            /// Residency-cache entries evicted for budget or admission pressure.
            sum cache_evictions: usize => "cache_evictions";
            /// Residency-cache entries dropped by fault recovery or staleness.
            sum cache_invalidations: usize => "cache_invalidations";
            /// Bytes the residency cache holds pinned device-side after this run.
            gauge cache_pinned_bytes: u64 => "cache_pinned_bytes";
            /// Modeled host→device nanoseconds the residency cache avoided (whole
            /// hits plus chunk stagings served device-internally).
            gauge cache_saved_transfer_ns: f64 => "cache_saved_transfer_ns";
            /// Rollback `delete_memory` failures that were *not* the tolerated
            /// died-mid-allocation case — real double-free/accounting bugs that
            /// would previously have been swallowed silently.
            sum rollback_delete_errors: usize => "rollback_delete_errors";
            /// Devices that died permanently mid-run (first `Gone` observed) and
            /// were unplugged by the membership recovery path.
            sum device_deaths: usize => "device_deaths";
            /// Buffers written off a dead device's hub bookkeeping without calling
            /// into it (the corpse keeps no reachable state).
            sum buffers_written_off: usize => "buffers_written_off";
            /// Bytes of input lost with a dead device that were re-staged onto
            /// survivors from host copies during recovery.
            sum restaged_bytes: u64 => "restaged_bytes";
            /// Devices hot-added (through the health registry's `HalfOpen` probe
            /// ramp) since the previous run.
            sum hot_adds: usize => "hot_adds";
            /// Query checkpoints captured (pipeline-boundary + chunk-interval
            /// snapshots the cost policy accepted).
            sum checkpoints_taken: usize => "checkpoints_taken";
            /// Payload bytes across all captured snapshots (host accumulations plus
            /// retrieved breaker-accumulator copies).
            sum checkpoint_bytes: u64 => "checkpoint_bytes";
            /// Recoveries that resumed from a validated checkpoint instead of
            /// restarting from row 0.
            sum resumes: usize => "resumes";
            /// Streamed chunks a resume skipped re-executing (work the latest
            /// checkpoint preserved).
            sum chunks_skipped_on_resume: usize => "chunks_skipped_on_resume";
            /// Recoveries that wanted to resume but found the latest checkpoint
            /// failing validation (or impossible to restore) and degraded to a full
            /// restart from row 0.
            sum resume_validation_failures: usize => "resume_validation_failures";
            /// Original graph nodes the fusion pass merged into fused nodes (stage
            /// count summed over all fused chains).
            sum nodes_fused: usize => "nodes_fused";
            /// Fused chains the fusion pass created (one fused node each).
            sum fused_chains: usize => "fused_chains";
            /// Bytes of non-breaker intermediate output buffers this run actually
            /// materialized through the hub (sizing per
            /// `DataContainer::estimate_output_bytes`, whole-mode per node, streaming
            /// per chunk).
            sum intermediate_bytes: u64 => "intermediate_bytes";
            /// Bytes of interior intermediates fused chains *avoided* materializing
            /// — what the same run would have added to `intermediate_bytes` with
            /// fusion off.
            sum intermediates_elided_bytes: u64 => "intermediates_elided_bytes";
            /// Modeled nanoseconds fused kernels saved over executing their stages
            /// as individual launches (per-stage launch overhead plus undiscounted
            /// bodies, minus the fused price).
            gauge fusion_saved_transfer_ns: f64 => "fusion_saved_transfer_ns";
        }
    };
}

/// Row selection behind [`run_counters!`]; not part of the API.
#[doc(hidden)]
#[macro_export]
macro_rules! __select_counters {
    (all $then:ident [] $($rows:tt)*) => { $then! { $($rows)* } };
    (summed $then:ident [$($acc:tt)*]) => { $then! { $($acc)* } };
    (summed $then:ident [$($acc:tt)*]
        $(#[$m:meta])* sum $field:ident: $ty:ty => $key:literal; $($rest:tt)*) => {
        $crate::__select_counters! {
            summed $then [$($acc)* $(#[$m])* $field: $ty => $key;] $($rest)*
        }
    };
    (summed $then:ident [$($acc:tt)*]
        $(#[$m:meta])* gauge $field:ident: $ty:ty => $key:literal; $($rest:tt)*) => {
        $crate::__select_counters! { summed $then [$($acc)*] $($rest)* }
    };
}

macro_rules! execution_stats {
    ($($(#[$m:meta])* $kind:ident $field:ident: $ty:ty => $key:literal;)*) => {
        /// Statistics of one query execution.
        ///
        /// All `*_ns` fields are **modeled** times from the device cost
        /// models (deterministic, hardware-independent); `wall_ns` is the
        /// real wall clock of the simulation itself. The scalar counters
        /// come from [`crate::run_counters!`].
        #[derive(Clone, Debug, Default)]
        pub struct ExecutionStats {
            /// Execution model name.
            pub model: String,
            /// Total modeled elapsed time (makespan under the model's overlap
            /// policy). The y-axis of Fig. 11.
            pub total_ns: f64,
            /// Modeled time spent on transfers (serial sum, both directions).
            pub transfer_ns: f64,
            /// Modeled time spent in kernels (serial sum).
            pub compute_ns: f64,
            /// Modeled time in allocation/free/transform/compile operations.
            pub other_ns: f64,
            /// Modeled kernel time per node label (Fig. 10's "sum of processing
            /// time of the individual primitives").
            pub per_primitive_ns: BTreeMap<String, f64>,
            /// Peak device-memory usage per device name (Fig. 7-right).
            pub peak_device_bytes: BTreeMap<String, u64>,
            /// Device-memory usage after each primitive execution, in order
            /// (`(label, bytes)`), for the Fig. 7-right footprint trace.
            pub memory_trace: Vec<(String, u64)>,
            $($(#[$m])* pub $field: $ty,)*
            /// Modeled duration of each interleavable slice of device time this run
            /// produced, in execution order: one entry per streamed chunk, one per
            /// whole-mode node. The multi-query scheduler replays these on the
            /// shared timeline; not exported to JSON (unbounded length).
            pub slice_ns: Vec<f64>,
            /// Per-device health snapshot (breaker state, failure counts, current
            /// placement penalty) at the end of this run, keyed by device name.
            /// Deterministic ordering for reproducible reports.
            pub device_health: BTreeMap<String, HealthSnapshot>,
            /// Faults injected per device name during this run (only devices with a
            /// non-zero count appear). Deterministic ordering for reproducible
            /// reports.
            pub device_faults: BTreeMap<String, u64>,
            /// Real wall-clock nanoseconds of the simulated run.
            pub wall_ns: u64,
        }

        impl ExecutionStats {
            /// The table's counters as `(JSON key, rendered value)` pairs,
            /// in export order.
            fn counter_fields(&self) -> Vec<(&'static str, String)> {
                vec![$(($key, JsonNumber::to_json(&self.$field)),)*]
            }
        }
    };
}

run_counters!(all execution_stats);

impl ExecutionStats {
    /// Sum of per-primitive kernel times.
    pub fn primitive_total_ns(&self) -> f64 {
        self.per_primitive_ns.values().sum()
    }

    /// The abstraction-layer overhead of Fig. 10: total execution time minus
    /// the sum of the individual primitives' processing times.
    pub fn overhead_ns(&self) -> f64 {
        (self.total_ns - self.primitive_total_ns()).max(0.0)
    }

    /// Overhead as a fraction of total time.
    pub fn overhead_fraction(&self) -> f64 {
        if self.total_ns > 0.0 {
            self.overhead_ns() / self.total_ns
        } else {
            0.0
        }
    }

    /// Total modeled time in milliseconds (convenience for reports).
    pub fn total_ms(&self) -> f64 {
        self.total_ns / 1e6
    }

    /// Adds a kernel-time sample for a node label.
    pub fn record_primitive(&mut self, label: &str, ns: f64) {
        *self
            .per_primitive_ns
            .entry(label.to_string())
            .or_insert(0.0) += ns;
    }

    /// Serializes the stats to a JSON object string through the workspace
    /// JSON writer (deterministic except `wall_ns`).
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("model", jstr(&self.model)),
            ("total_ns", jnum(self.total_ns)),
            ("transfer_ns", jnum(self.transfer_ns)),
            ("compute_ns", jnum(self.compute_ns)),
            ("other_ns", jnum(self.other_ns)),
            ("overhead_ns", jnum(self.overhead_ns())),
        ];
        fields.extend(self.counter_fields());
        fields.extend([
            ("wall_ns", self.wall_ns.to_string()),
            (
                "per_primitive_ns",
                jmap(&self.per_primitive_ns, |v| jnum(*v)),
            ),
            (
                "peak_device_bytes",
                jmap(&self.peak_device_bytes, u64::to_string),
            ),
            ("device_faults", jmap(&self.device_faults, u64::to_string)),
            (
                "device_health",
                jmap(&self.device_health, |h| {
                    jobj(&[
                        ("state", jstr(h.state.label())),
                        ("kernel_failures", h.kernel_failures.to_string()),
                        ("ooms", h.ooms.to_string()),
                        ("retry_penalty_ns", jnum(h.retry_penalty_ns)),
                        ("open_kernels", h.open_kernels.to_string()),
                        ("latency_overruns", h.latency_overruns.to_string()),
                        ("corruptions", h.corruptions.to_string()),
                    ])
                }),
            ),
        ]);
        jobj(&fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    macro_rules! number_counters {
        ($($(#[$m:meta])* $kind:ident $field:ident: $ty:ty => $key:literal;)*) => {
            /// Sets the table's counters to 1, 2, 3, … in export order.
            fn number_counters(s: &mut ExecutionStats) {
                let mut n = 0u32;
                $(n += 1; s.$field = n as $ty;)*
            }
        };
    }
    run_counters!(all number_counters);

    /// Every field set, so the golden string pins the whole export format.
    fn golden_fixture() -> ExecutionStats {
        use adamant_device::health::BreakerState;
        let mut s = ExecutionStats {
            model: "four \"phase\" \\ model".into(),
            total_ns: 1_234_567.89,
            transfer_ns: 400_000.25,
            compute_ns: 600_000.5,
            other_ns: 12_345.75,
            per_primitive_ns: BTreeMap::from([
                ("agg".to_string(), 1_000.04),
                ("filter \"x\"".to_string(), 250.5),
            ]),
            peak_device_bytes: BTreeMap::from([
                ("cpu".to_string(), 64),
                ("gpu0".to_string(), 2048),
            ]),
            memory_trace: vec![("filter".to_string(), 128)],
            slice_ns: vec![1.0, 2.0],
            device_health: BTreeMap::from([(
                "gpu0".to_string(),
                HealthSnapshot {
                    state: BreakerState::SlowOpen { cooldown_left: 2 },
                    kernel_failures: 2,
                    ooms: 1,
                    retry_penalty_ns: 123.45,
                    open_kernels: 1,
                    latency_overruns: 6,
                    corruptions: 7,
                },
            )]),
            device_faults: BTreeMap::from([("gpu0".to_string(), 5)]),
            wall_ns: 36,
            ..Default::default()
        };
        number_counters(&mut s);
        s
    }

    #[test]
    fn json_export_matches_golden() {
        let golden = r#"{"model":"four \"phase\" \\ model","total_ns":1234567.9,"transfer_ns":400000.2,"compute_ns":600000.5,"other_ns":12345.8,"overhead_ns":1233317.3,"bytes_h2d":1,"bytes_d2h":2,"chunks":3,"pipelines":4,"retries":5,"chunk_backoffs":6,"fallback_placements":7,"chunk_regrowths":8,"breaker_trips":9,"quarantine_skips":10,"probe_successes":11,"kernel_breaker_trips":12,"kernel_probe_successes":13,"deadline_aborts":14,"watchdog_fires":15,"hedged_launches":16,"hedge_wins":17,"corruption_retransmits":18,"cache_hits":19,"cache_misses":20,"cache_evictions":21,"cache_invalidations":22,"cache_pinned_bytes":23,"cache_saved_transfer_ns":24.0,"rollback_delete_errors":25,"device_deaths":26,"buffers_written_off":27,"restaged_bytes":28,"hot_adds":29,"checkpoints_taken":30,"checkpoint_bytes":31,"resumes":32,"chunks_skipped_on_resume":33,"resume_validation_failures":34,"nodes_fused":35,"fused_chains":36,"intermediate_bytes":37,"intermediates_elided_bytes":38,"fusion_saved_transfer_ns":39.0,"wall_ns":36,"per_primitive_ns":{"agg":1000.0,"filter \"x\"":250.5},"peak_device_bytes":{"cpu":64,"gpu0":2048},"device_faults":{"gpu0":5},"device_health":{"gpu0":{"state":"slow-open","kernel_failures":2,"ooms":1,"retry_penalty_ns":123.5,"open_kernels":1,"latency_overruns":6,"corruptions":7}}}"#;
        assert_eq!(golden_fixture().to_json(), golden);
    }

    #[test]
    fn overhead_math() {
        let mut s = ExecutionStats {
            total_ns: 100.0,
            ..Default::default()
        };
        s.record_primitive("filter", 30.0);
        s.record_primitive("agg", 40.0);
        s.record_primitive("filter", 10.0);
        assert_eq!(s.primitive_total_ns(), 80.0);
        assert_eq!(s.overhead_ns(), 20.0);
        assert!((s.overhead_fraction() - 0.2).abs() < 1e-12);
        assert_eq!(s.per_primitive_ns["filter"], 40.0);
    }

    #[test]
    fn overhead_clamps_at_zero() {
        let mut s = ExecutionStats {
            total_ns: 10.0,
            ..Default::default()
        };
        s.record_primitive("k", 50.0);
        assert_eq!(s.overhead_ns(), 0.0);
        let empty = ExecutionStats::default();
        assert_eq!(empty.overhead_fraction(), 0.0);
    }

    #[test]
    fn unit_helpers() {
        let s = ExecutionStats {
            total_ns: 2_500_000.0,
            ..Default::default()
        };
        assert!((s.total_ms() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn json_export_is_well_formed() {
        let mut s = ExecutionStats {
            model: "chunked".into(),
            total_ns: 123.0,
            bytes_h2d: 42,
            ..Default::default()
        };
        s.record_primitive("filter \"x\"", 10.0);
        s.peak_device_bytes.insert("gpu0".into(), 2048);
        s.retries = 3;
        s.chunk_backoffs = 2;
        s.fallback_placements = 1;
        s.chunk_regrowths = 4;
        s.breaker_trips = 1;
        s.quarantine_skips = 2;
        s.probe_successes = 1;
        s.kernel_breaker_trips = 2;
        s.kernel_probe_successes = 1;
        s.deadline_aborts = 1;
        s.watchdog_fires = 3;
        s.hedged_launches = 2;
        s.hedge_wins = 1;
        s.corruption_retransmits = 4;
        s.cache_hits = 6;
        s.cache_misses = 2;
        s.cache_evictions = 1;
        s.cache_invalidations = 3;
        s.cache_pinned_bytes = 4096;
        s.cache_saved_transfer_ns = 987.6;
        s.rollback_delete_errors = 1;
        s.device_deaths = 1;
        s.buffers_written_off = 5;
        s.restaged_bytes = 8192;
        s.hot_adds = 2;
        s.checkpoints_taken = 3;
        s.checkpoint_bytes = 512;
        s.resumes = 1;
        s.chunks_skipped_on_resume = 7;
        s.resume_validation_failures = 1;
        s.nodes_fused = 3;
        s.fused_chains = 1;
        s.intermediate_bytes = 16384;
        s.intermediates_elided_bytes = 12288;
        s.fusion_saved_transfer_ns = 456.7;
        s.device_faults.insert("gpu0".into(), 5);
        s.device_health.insert(
            "gpu0".into(),
            HealthSnapshot {
                state: adamant_device::health::BreakerState::Open { cooldown_left: 2 },
                kernel_failures: 2,
                ooms: 1,
                retry_penalty_ns: 123.45,
                open_kernels: 1,
                latency_overruns: 6,
                corruptions: 7,
            },
        );
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"model\":\"chunked\""));
        assert!(json.contains("\"bytes_h2d\":42"));
        assert!(json.contains("\"gpu0\":2048"));
        assert!(json.contains("\"retries\":3"));
        assert!(json.contains("\"chunk_backoffs\":2"));
        assert!(json.contains("\"fallback_placements\":1"));
        assert!(json.contains("\"chunk_regrowths\":4"));
        assert!(json.contains("\"breaker_trips\":1"));
        assert!(json.contains("\"quarantine_skips\":2"));
        assert!(json.contains("\"probe_successes\":1"));
        assert!(json.contains("\"kernel_breaker_trips\":2"));
        assert!(json.contains("\"kernel_probe_successes\":1"));
        assert!(json.contains("\"deadline_aborts\":1"));
        assert!(json.contains("\"watchdog_fires\":3"));
        assert!(json.contains("\"hedged_launches\":2"));
        assert!(json.contains("\"hedge_wins\":1"));
        assert!(json.contains("\"corruption_retransmits\":4"));
        assert!(json.contains("\"cache_hits\":6"));
        assert!(json.contains("\"cache_misses\":2"));
        assert!(json.contains("\"cache_evictions\":1"));
        assert!(json.contains("\"cache_invalidations\":3"));
        assert!(json.contains("\"cache_pinned_bytes\":4096"));
        assert!(json.contains("\"cache_saved_transfer_ns\":987.6"));
        assert!(json.contains("\"rollback_delete_errors\":1"));
        assert!(json.contains("\"device_deaths\":1"));
        assert!(json.contains("\"buffers_written_off\":5"));
        assert!(json.contains("\"restaged_bytes\":8192"));
        assert!(json.contains("\"hot_adds\":2"));
        assert!(json.contains("\"checkpoints_taken\":3"));
        assert!(json.contains("\"checkpoint_bytes\":512"));
        assert!(json.contains("\"resumes\":1"));
        assert!(json.contains("\"chunks_skipped_on_resume\":7"));
        assert!(json.contains("\"resume_validation_failures\":1"));
        assert!(json.contains("\"nodes_fused\":3"));
        assert!(json.contains("\"fused_chains\":1"));
        assert!(json.contains("\"intermediate_bytes\":16384"));
        assert!(json.contains("\"intermediates_elided_bytes\":12288"));
        assert!(json.contains("\"fusion_saved_transfer_ns\":456.7"));
        assert!(json.contains("\"device_faults\":{\"gpu0\":5}"));
        assert!(json.contains(
            "\"device_health\":{\"gpu0\":{\"state\":\"open\",\"kernel_failures\":2,\
             \"ooms\":1,\"retry_penalty_ns\":123.5,\"open_kernels\":1,\
             \"latency_overruns\":6,\"corruptions\":7}}"
        ));
        // Quotes in labels are escaped.
        assert!(json.contains("filter \\\"x\\\""));
        // Control characters in labels are escaped too.
        s.record_primitive("line\nbreak\u{1}", 1.0);
        assert!(s.to_json().contains("\"line\\nbreak\\u0001\":1.0"));
        // Balanced braces.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
