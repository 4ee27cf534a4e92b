//! Scheduler-level statistics: per-tenant wait/run accounting, queue
//! depths, and admission/shedding counters.
//!
//! All times are *modeled* nanoseconds on the shared simulated timeline, so
//! same-seed runs export byte-identical JSON. Counters are cumulative
//! across [`crate::QueryScheduler::run_all`] calls on one scheduler.

use adamant_core::stats::ExecutionStats;
use adamant_storage::json::{jmap, jnum, jobj};
use std::collections::BTreeMap;

/// Per-tenant accounting on the shared timeline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantStats {
    /// The tenant's fair-share weight.
    pub weight: f64,
    /// Queries submitted.
    pub submitted: u64,
    /// Queries that ran to completion.
    pub completed: u64,
    /// Queries admitted but failed during execution.
    pub failed: u64,
    /// Queries shed before admission (deadline unmeetable or cancelled).
    pub shed: u64,
    /// Queries rejected outright (footprint exceeds every device).
    pub rejected: u64,
    /// Total modeled ns the tenant's queries spent queued before admission.
    pub wait_ns: f64,
    /// Total modeled ns of device time charged to the tenant.
    pub run_ns: f64,
    /// The subset of [`TenantStats::run_ns`] accrued while at least one
    /// *other* tenant also had an admitted query — the denominator the
    /// fair-share guarantee is measured against.
    pub contended_run_ns: f64,
    /// Highest number of queries this tenant had queued at once.
    pub max_queue_depth: usize,
    /// Times one of this tenant's running queries was suspended by a
    /// higher-urgency query (its remaining slices parked until resume).
    pub preemptions: u64,
    /// Queries that completed *after* their own deadline (admitted in time
    /// but finished late under contention — never silent: the outcome
    /// carries `missed_deadline: true`).
    pub deadline_misses: u64,
}

macro_rules! scheduler_stats {
    ($($(#[$m:meta])* $field:ident: $ty:ty => $key:literal;)*) => {
        /// Aggregate scheduler statistics.
        ///
        /// Besides its own admission and timeline counters, it carries one
        /// `u64` field per `sum` row of [`adamant_core::run_counters!`]: that
        /// counter summed over every executed query, failed runs included.
        #[derive(Clone, Debug, Default, PartialEq)]
        pub struct SchedulerStats {
            /// Modeled ns from the first admission to the last completion,
            /// cumulative across `run_all` calls.
            pub makespan_ns: f64,
            /// Device-time slices interleaved on the shared timeline.
            pub slices: u64,
            /// Queries admitted (reservation granted, execution started).
            pub admitted: u64,
            /// Queries that ran to completion.
            pub completed: u64,
            /// Queries admitted but failed during execution.
            pub failed: u64,
            /// Admissions that had to wait at least one slice for reservations to
            /// free (the "held at the gate" count).
            pub held: u64,
            /// Queries rejected because their footprint exceeds every device's
            /// capacity — no amount of waiting could admit them.
            pub rejected_capacity: u64,
            /// Queries shed at admission because their remaining deadline budget
            /// could not cover the cheapest modeled placement (or was already
            /// spent waiting).
            pub shed_deadline: u64,
            /// Running queries suspended so a higher-urgency (tight-deadline or
            /// starvation-horizon) query's slices could drain first.
            pub preemptions: u64,
            /// Suspended queries resumed after the urgent work drained (every
            /// preemption is eventually matched by a resume or a completion).
            pub resumed: u64,
            /// Queries that completed past their own deadline. With preemption on,
            /// urgent queries are prioritized to avoid this; any residue is
            /// surfaced on the outcome (`Completed { missed_deadline: true }`), not
            /// reported as silent success.
            pub deadline_misses: u64,
            /// Admitted queries shed because their reserved capacity vanished with
            /// a permanently dead device and no survivor could absorb the
            /// reservation (`QueryOutcome::Shed { reason: CapacityLost }`).
            pub shed_capacity_lost: u64,
            $($(#[$m])* pub $field: u64,)*
            /// Per-tenant breakdown, keyed by tenant name (deterministic order).
            pub tenants: BTreeMap<String, TenantStats>,
        }

        impl SchedulerStats {
            /// Adds one executed query's run counters to the aggregates.
            pub(crate) fn absorb(&mut self, stats: &ExecutionStats) {
                $(self.$field += stats.$field as u64;)*
            }

            /// The run-counter aggregates as `(JSON key, rendered value)`
            /// pairs, in table order.
            fn counter_fields(&self) -> Vec<(&'static str, String)> {
                vec![$(($key, self.$field.to_string()),)*]
            }
        }
    };
}

adamant_core::run_counters!(summed scheduler_stats);

impl SchedulerStats {
    /// Exports the stats as a deterministic JSON object through the
    /// workspace JSON writer (same seed ⇒ byte-identical string).
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("makespan_ns", jnum(self.makespan_ns)),
            ("slices", self.slices.to_string()),
            ("admitted", self.admitted.to_string()),
            ("completed", self.completed.to_string()),
            ("failed", self.failed.to_string()),
            ("held", self.held.to_string()),
            ("rejected_capacity", self.rejected_capacity.to_string()),
            ("shed_deadline", self.shed_deadline.to_string()),
            ("preemptions", self.preemptions.to_string()),
            ("resumed", self.resumed.to_string()),
            ("deadline_misses", self.deadline_misses.to_string()),
            ("shed_capacity_lost", self.shed_capacity_lost.to_string()),
        ];
        fields.extend(self.counter_fields());
        let tenants = jmap(&self.tenants, |t| {
            jobj(&[
                ("weight", format!("{:.3}", t.weight)),
                ("submitted", t.submitted.to_string()),
                ("completed", t.completed.to_string()),
                ("failed", t.failed.to_string()),
                ("shed", t.shed.to_string()),
                ("rejected", t.rejected.to_string()),
                ("wait_ns", jnum(t.wait_ns)),
                ("run_ns", jnum(t.run_ns)),
                ("contended_run_ns", jnum(t.contended_run_ns)),
                ("max_queue_depth", t.max_queue_depth.to_string()),
                ("preemptions", t.preemptions.to_string()),
                ("deadline_misses", t.deadline_misses.to_string()),
            ])
        });
        fields.push(("tenants", tenants));
        jobj(&fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    macro_rules! number_counters {
        ($($(#[$m:meta])* $field:ident: $ty:ty => $key:literal;)*) => {
            /// Sets the run-counter aggregates to 1, 2, 3, … in table order.
            fn number_counters(s: &mut SchedulerStats) {
                let mut n = 0;
                $(n += 1; s.$field = n;)*
            }
        };
    }
    adamant_core::run_counters!(summed number_counters);

    const BEFORE_TABLE: &str = r#"{"makespan_ns":98765.4,"slices":40,"admitted":9,"completed":7,"failed":1,"held":2,"rejected_capacity":1,"shed_deadline":1,"watchdog_fires":15,"hedged_launches":16,"hedge_wins":17,"corruption_retransmits":18,"preemptions":3,"resumed":3,"deadline_misses":1,"shed_capacity_lost":1,"device_deaths":24,"buffers_written_off":25,"restaged_bytes":26,"hot_adds":27,"checkpoints_taken":28,"checkpoint_bytes":29,"resumes":30,"chunks_skipped_on_resume":31,"resume_validation_failures":32,"tenants":{"alpha":{"weight":2.000,"submitted":5,"completed":4,"failed":0,"shed":1,"rejected":1,"wait_ns":0.0,"run_ns":0.0,"contended_run_ns":0.0,"max_queue_depth":0,"preemptions":0,"deadline_misses":0},"tenant \"b\"":{"weight":1.000,"submitted":4,"completed":3,"failed":1,"shed":0,"rejected":0,"wait_ns":500.0,"run_ns":300.2,"contended_run_ns":100.0,"max_queue_depth":2,"preemptions":3,"deadline_misses":1}}}"#;
    const GOLDEN: &str = r#"{"makespan_ns":98765.4,"slices":40,"admitted":9,"completed":7,"failed":1,"held":2,"rejected_capacity":1,"shed_deadline":1,"preemptions":3,"resumed":3,"deadline_misses":1,"shed_capacity_lost":1,"bytes_h2d":1,"bytes_d2h":2,"chunks":3,"pipelines":4,"retries":5,"chunk_backoffs":6,"fallback_placements":7,"chunk_regrowths":8,"breaker_trips":9,"quarantine_skips":10,"probe_successes":11,"kernel_breaker_trips":12,"kernel_probe_successes":13,"deadline_aborts":14,"watchdog_fires":15,"hedged_launches":16,"hedge_wins":17,"corruption_retransmits":18,"cache_hits":19,"cache_misses":20,"cache_evictions":21,"cache_invalidations":22,"rollback_delete_errors":23,"device_deaths":24,"buffers_written_off":25,"restaged_bytes":26,"hot_adds":27,"checkpoints_taken":28,"checkpoint_bytes":29,"resumes":30,"chunks_skipped_on_resume":31,"resume_validation_failures":32,"nodes_fused":33,"fused_chains":34,"intermediate_bytes":35,"intermediates_elided_bytes":36,"tenants":{"alpha":{"weight":2.000,"submitted":5,"completed":4,"failed":0,"shed":1,"rejected":1,"wait_ns":0.0,"run_ns":0.0,"contended_run_ns":0.0,"max_queue_depth":0,"preemptions":0,"deadline_misses":0},"tenant \"b\"":{"weight":1.000,"submitted":4,"completed":3,"failed":1,"shed":0,"rejected":0,"wait_ns":500.0,"run_ns":300.2,"contended_run_ns":100.0,"max_queue_depth":2,"preemptions":3,"deadline_misses":1}}}"#;

    #[test]
    fn json_export_matches_golden() {
        let mut stats = SchedulerStats {
            makespan_ns: 98_765.43,
            slices: 40,
            admitted: 9,
            completed: 7,
            failed: 1,
            held: 2,
            rejected_capacity: 1,
            shed_deadline: 1,
            preemptions: 3,
            resumed: 3,
            deadline_misses: 1,
            shed_capacity_lost: 1,
            ..Default::default()
        };
        number_counters(&mut stats);
        stats.tenants.insert(
            "tenant \"b\"".into(),
            TenantStats {
                weight: 1.0,
                submitted: 4,
                completed: 3,
                failed: 1,
                shed: 0,
                rejected: 0,
                wait_ns: 500.0,
                run_ns: 300.25,
                contended_run_ns: 100.0,
                max_queue_depth: 2,
                preemptions: 3,
                deadline_misses: 1,
            },
        );
        stats.tenants.insert(
            "alpha".into(),
            TenantStats {
                weight: 2.0,
                submitted: 5,
                completed: 4,
                shed: 1,
                rejected: 1,
                ..Default::default()
            },
        );
        let json = stats.to_json();
        assert_eq!(json, GOLDEN);
        // Every key the export carried before the run-counter table drove
        // it keeps its value, and the tenant breakdown is unchanged.
        let split = |j: &'static str| j.split_once(",\"tenants\":").unwrap();
        let (before, before_tenants) = split(BEFORE_TABLE);
        let (after, after_tenants) = split(GOLDEN);
        let after: Vec<&str> = after[1..].split(',').collect();
        for pair in before[1..].split(',') {
            assert!(after.contains(&pair), "{pair} lost");
        }
        assert_eq!(after_tenants, before_tenants);
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let mut stats = SchedulerStats {
            makespan_ns: 1234.5,
            slices: 7,
            admitted: 3,
            completed: 2,
            failed: 1,
            held: 1,
            rejected_capacity: 1,
            shed_deadline: 2,
            watchdog_fires: 4,
            hedged_launches: 3,
            hedge_wins: 2,
            corruption_retransmits: 5,
            preemptions: 3,
            resumed: 3,
            deadline_misses: 1,
            shed_capacity_lost: 1,
            device_deaths: 2,
            buffers_written_off: 6,
            restaged_bytes: 4096,
            hot_adds: 1,
            checkpoints_taken: 4,
            checkpoint_bytes: 2048,
            resumes: 2,
            chunks_skipped_on_resume: 9,
            resume_validation_failures: 1,
            ..Default::default()
        };
        stats.tenants.insert(
            "beta".into(),
            TenantStats {
                weight: 1.0,
                submitted: 2,
                completed: 1,
                wait_ns: 500.0,
                run_ns: 300.25,
                contended_run_ns: 100.0,
                max_queue_depth: 2,
                ..Default::default()
            },
        );
        stats.tenants.insert(
            "alpha".into(),
            TenantStats {
                weight: 2.0,
                submitted: 1,
                completed: 1,
                ..Default::default()
            },
        );
        let json = stats.to_json();
        // BTreeMap keys: alpha before beta, every run.
        assert!(json.find("\"alpha\"").unwrap() < json.find("\"beta\"").unwrap());
        assert!(json.contains("\"makespan_ns\":1234.5"));
        assert!(json.contains("\"watchdog_fires\":4"));
        assert!(json.contains("\"hedged_launches\":3"));
        assert!(json.contains("\"hedge_wins\":2"));
        assert!(json.contains("\"corruption_retransmits\":5"));
        assert!(json.contains("\"preemptions\":3"));
        assert!(json.contains("\"resumed\":3"));
        assert!(json.contains("\"deadline_misses\":1"));
        assert!(json.contains("\"shed_capacity_lost\":1"));
        assert!(json.contains("\"device_deaths\":2"));
        assert!(json.contains("\"buffers_written_off\":6"));
        assert!(json.contains("\"restaged_bytes\":4096"));
        assert!(json.contains("\"hot_adds\":1"));
        assert!(json.contains("\"checkpoints_taken\":4"));
        assert!(json.contains("\"checkpoint_bytes\":2048"));
        assert!(json.contains("\"resumes\":2"));
        assert!(json.contains("\"chunks_skipped_on_resume\":9"));
        assert!(json.contains("\"resume_validation_failures\":1"));
        assert!(json.contains("\"wait_ns\":500.0"));
        assert!(json.contains("\"contended_run_ns\":100.0"));
        assert_eq!(json, stats.to_json(), "export must be deterministic");
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        // Control characters in tenant names are escaped.
        stats
            .tenants
            .insert("line\nbreak\u{1}".into(), TenantStats::default());
        assert!(stats.to_json().contains("\"line\\nbreak\\u0001\":{"));
    }
}
